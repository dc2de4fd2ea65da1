//! Estimator selection over the wire: `estimator: "word"` requests
//! must run the word-parallel engine against the same world as default
//! requests while the result cache keeps the two under **distinct**
//! keys — a word-parallel ranking must never be served to a traversal
//! request or vice versa, and the unspecified estimator must share its
//! entry with an explicit `"traversal"`.

mod common;

use std::sync::Arc;

use biorank::service::{
    Client, Estimator, Method, QueryRequest, RankerSpec, ServeOptions, ServerHandle, Trials,
};

fn start_server(default_estimator: Estimator) -> ServerHandle {
    common::serve(
        common::engine(),
        ServeOptions {
            workers: 2,
            default_estimator,
            ..Default::default()
        },
    )
}

fn mc_spec(estimator: Option<Estimator>) -> RankerSpec {
    RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Fixed(400),
        seed: 11,
        parallel: false,
        estimator,
    }
}

#[test]
fn estimators_get_distinct_result_cache_keys() {
    let handle = start_server(Estimator::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Cold word-parallel query, then its warm repeat.
    let word_cold = client
        .protein_functions("GALT", mc_spec(Some(Estimator::Word)))
        .expect("word query");
    assert!(!word_cold.cached_scores);
    let word_warm = client
        .protein_functions("GALT", mc_spec(Some(Estimator::Word)))
        .expect("warm word query");
    assert!(word_warm.cached_scores);
    assert_eq!(word_warm.answers, word_cold.answers);

    // The same query under the default estimator: the graph layer hits
    // (same integration), but the ranking must be recomputed — a
    // result-cache hit here would leak a word-parallel ranking into a
    // traversal request.
    let default_cold = client
        .protein_functions("GALT", mc_spec(None))
        .expect("default query");
    assert!(default_cold.cached_graph, "integration is shared");
    assert!(
        !default_cold.cached_scores,
        "no cross-estimator result-cache hits"
    );

    // Unspecified ≡ explicit traversal: one shared entry.
    let traversal_warm = client
        .protein_functions("GALT", mc_spec(Some(Estimator::Traversal)))
        .expect("explicit traversal query");
    assert!(
        traversal_warm.cached_scores,
        "explicit traversal shares the default's cache entry"
    );
    assert_eq!(traversal_warm.answers, default_cold.answers);

    // The word engine is bit-identical at every thread count, so the
    // parallel flag must not split its cache entry.
    let word_parallel = client
        .protein_functions(
            "GALT",
            RankerSpec {
                parallel: true,
                ..mc_spec(Some(Estimator::Word))
            },
        )
        .expect("parallel word query");
    assert!(
        word_parallel.cached_scores,
        "parallel is normalized away under the word engine"
    );
    assert_eq!(word_parallel.answers, word_cold.answers);

    handle.shutdown();
}

#[test]
fn server_default_estimator_applies_to_unspecified_requests() {
    // A server configured with a word default: unspecified requests
    // run (and cache) word-parallel, while explicit traversal requests
    // still get their own entry.
    let handle = start_server(Estimator::Word);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let unspecified = client
        .protein_functions("CFTR", mc_spec(None))
        .expect("unspecified query");
    assert!(!unspecified.cached_scores);
    let word = client
        .protein_functions("CFTR", mc_spec(Some(Estimator::Word)))
        .expect("explicit word query");
    assert!(
        word.cached_scores,
        "unspecified resolved to the server's word default"
    );
    assert_eq!(word.answers, unspecified.answers);

    let traversal = client
        .protein_functions("CFTR", mc_spec(Some(Estimator::Traversal)))
        .expect("explicit traversal query");
    assert!(
        !traversal.cached_scores,
        "explicit traversal bypasses the word default"
    );

    handle.shutdown();
}

#[test]
fn word_results_are_identical_across_connections_and_to_inprocess() {
    // The word engine inherits the content-derived seeding contract:
    // the same request answered over any connection equals direct
    // in-process execution bit for bit.
    let engine = common::engine();
    let handle = common::serve(Arc::clone(&engine), ServeOptions::default());

    let request = QueryRequest::protein_functions("GALT", mc_spec(Some(Estimator::Word)));
    let local = engine.execute_uncached(&request).expect("local execution");
    let mut a = Client::connect(handle.addr()).expect("client a");
    let mut b = Client::connect(handle.addr()).expect("client b");
    let via_a = a.query(&request).expect("remote a");
    let via_b = b.query(&request).expect("remote b");
    assert_eq!(via_a.answers, local.answers);
    assert_eq!(via_b.answers, local.answers);

    handle.shutdown();
}
