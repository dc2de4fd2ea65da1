//! The one fixture of the service tests: the served world. Its engine
//! is `WorldSpec::default().build()`, exactly what `biorank serve`
//! builds by default — same seed, schema, hints and cache capacity.

#![allow(dead_code)] // each test target uses its own subset

use std::sync::Arc;

use biorank::service::{QueryEngine, ServeOptions, Server, ServerHandle, WorldSpec};

/// A fresh engine over the served world (cold caches).
pub fn engine() -> Arc<QueryEngine> {
    Arc::new(WorldSpec::default().build())
}

/// Serves `engine` on an ephemeral port until the handle shuts it
/// down or the test process exits.
pub fn serve(engine: Arc<QueryEngine>, opts: ServeOptions) -> ServerHandle {
    let server = Server::bind("127.0.0.1:0", engine, opts).expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}
