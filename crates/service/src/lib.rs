//! # biorank-serve
//!
//! The serving layer of the BioRank reproduction: a long-lived,
//! multi-threaded query service over a resident
//! [`World`](biorank_sources::World).
//!
//! The experiment binaries re-integrate the world from scratch on
//! every invocation; a production deployment cannot. This crate keeps
//! everything resident and adds the three pieces a service needs:
//!
//! * [`QueryEngine`] — wraps a [`Mediator`](biorank_mediator::Mediator)
//!   and ranker construction behind a sharded LRU cache keyed by
//!   `(entity_set, keyword, ranker, params)`, at two layers:
//!   integrated query graphs and ranked score vectors.
//! * [`WorkerPool`] — a fixed pool of std threads draining an `mpsc`
//!   job queue. Monte Carlo seeds are derived from request *content*
//!   ([`RankerSpec::effective_seed`]), so an N-worker batch is
//!   bit-identical to a sequential one.
//! * [`WorldManager`] — multi-world tenancy: a registry of named
//!   worlds (seed + federation config → engine) with concurrent-read /
//!   exclusive-swap semantics, LRU eviction under a resident budget,
//!   and per-world generation counters. A swap installs a fresh
//!   engine, atomically invalidating both cache layers of the
//!   replaced one.
//! * [`Server`] / [`Client`] — a line-delimited JSON protocol
//!   (hand-rolled in [`wire`]; the workspace is deliberately std-only)
//!   over `std::net::TcpListener`, surfaced as the `biorank serve`,
//!   `biorank query --addr`, and `biorank admin` subcommands. Admin
//!   lines (`world.load`, `world.swap`, `world.evict`, `world.save`,
//!   `checkpoint`, `world.list`, `stats`, `metrics`) drive the
//!   registry over the same connection.
//! * [`persist`] / [`WorldStore`] — durable world persistence: each
//!   resident world snapshots to a checksummed container file, admin
//!   ops append to a write-ahead log, and `serve --data-dir` replays
//!   manifest + WAL on boot so a restarted server answers
//!   bit-identically from its snapshots without a full rebuild.
//!
//! ```no_run
//! use std::sync::Arc;
//! use biorank_mediator::Mediator;
//! use biorank_schema::biorank_schema_with_ontology;
//! use biorank_service::{
//!     Method, QueryEngine, QueryRequest, RankerSpec, ServeOptions, Server,
//! };
//! use biorank_sources::{World, WorldParams};
//!
//! let world = World::generate(WorldParams::default());
//! let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
//! let engine = Arc::new(QueryEngine::new(mediator));
//!
//! // In-process use: no sockets needed.
//! let response = engine
//!     .execute(&QueryRequest::protein_functions(
//!         "GALT",
//!         RankerSpec::new(Method::Reliability),
//!     ))
//!     .unwrap();
//! assert_eq!(response.total_answers, 15); // Table 1: GALT → 15
//!
//! // Or serve it over TCP.
//! let server = Server::bind("127.0.0.1:7878", engine, ServeOptions::default()).unwrap();
//! server.run().unwrap();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod persist;
pub mod pool;
pub mod server;
pub mod tenancy;
pub mod wire;

pub use admission::{ConnectionBudget, ConnectionPermit, FaultPlan, InFlightGauge, TokenBucket};
pub use biorank_obs::{
    HistogramBucket, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SlowQueryEntry,
    SlowQueryLog, TraceSpan,
};
pub use biorank_rank::{AdaptiveOutcome, Certificate, CertificateMode};
pub use biorank_store::{RecoveredWorld, Recovery, StoreError, WorldStore};
pub use cache::{CacheStats, ShardedLru};
pub use engine::{
    query_schema_reducible, run_adaptive, spec_for_strategy, AdaptiveConfig, Coverage, EngineStats,
    Estimator, Method, QueryEngine, QueryRequest, QueryResponse, RankedAnswer, RankedResult,
    RankerSpec, Trials, DEFAULT_CACHE_CAPACITY, FUSION_LANES, PARALLEL_MC_CHUNKS,
};
pub use persist::{export_snapshot, import_snapshot, snapshot_spec};
pub use pool::WorkerPool;
pub use server::{
    Client, ClientOptions, ServeOptions, Server, ServerHandle, DEFAULT_DRAIN_DEADLINE_MS,
    DEFAULT_MAX_CONNECTIONS, DEFAULT_MAX_REQUEST_BYTES, DEFAULT_QUEUE_DEPTH,
    DEFAULT_READ_TIMEOUT_MS, DEFAULT_RETRY_AFTER_MS, DEFAULT_SLOW_QUERY_MICROS,
    DEFAULT_WRITE_TIMEOUT_MS,
};
pub use tenancy::{
    MetricsReport, ServiceStats, TenancyError, WorldInfo, WorldManager, WorldMetrics, WorldSpec,
    WorldState, WorldStats, DEFAULT_WORLD, DEFAULT_WORLD_BUDGET,
};
pub use wire::{AdminRequest, AdminResponse, RequestDefaults};

use std::fmt;

/// Errors produced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Integration failed.
    Mediator(biorank_mediator::Error),
    /// Ranking failed.
    Rank(biorank_rank::Error),
    /// A malformed protocol message.
    Wire(wire::WireError),
    /// A world-registry failure (unknown world, budget, pinning).
    Tenancy(tenancy::TenancyError),
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with an error, rendered as text.
    Remote(String),
    /// The server shed the request at admission (connection budget,
    /// queue depth, or rate limit); retry after the hinted backoff.
    Overloaded {
        /// The server's backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
}

impl Error {
    /// `true` when the server shed this request under overload —
    /// either at the connection level ([`Error::Overloaded`]) or as a
    /// per-request `overloaded` error line — and a bounded retry with
    /// backoff is the right client response.
    pub fn is_overload(&self) -> bool {
        match self {
            Error::Overloaded { .. } => true,
            Error::Remote(msg) => msg.contains("overloaded"),
            _ => false,
        }
    }

    /// The server's `retry_after_ms` backoff hint, when this error
    /// carries one (shed notices embed it in the message as
    /// `retry_after_ms=N`).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Error::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            Error::Remote(msg) => msg.split("retry_after_ms=").nth(1).and_then(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Mediator(e) => write!(f, "integration failed: {e}"),
            Error::Rank(e) => write!(f, "ranking failed: {e}"),
            Error::Wire(e) => write!(f, "{e}"),
            Error::Tenancy(e) => write!(f, "tenancy: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
            Error::Remote(msg) => write!(f, "remote: {msg}"),
            Error::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Mediator(e) => Some(e),
            Error::Rank(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::Tenancy(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Remote(_) | Error::Overloaded { .. } => None,
        }
    }
}

impl From<biorank_mediator::Error> for Error {
    fn from(e: biorank_mediator::Error) -> Self {
        Error::Mediator(e)
    }
}

impl From<biorank_rank::Error> for Error {
    fn from(e: biorank_rank::Error) -> Self {
        Error::Rank(e)
    }
}

impl From<wire::WireError> for Error {
    fn from(e: wire::WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<tenancy::TenancyError> for Error {
    fn from(e: tenancy::TenancyError) -> Self {
        Error::Tenancy(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e: Error = biorank_mediator::Error::EmptyAnswerSet.into();
        assert!(e.to_string().contains("integration"));
        assert!(std::error::Error::source(&e).is_some());
        let e: Error = biorank_rank::Error::ZeroTrials.into();
        assert!(e.to_string().contains("ranking"));
        let e = Error::Remote("boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
