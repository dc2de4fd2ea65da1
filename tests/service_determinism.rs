//! Concurrency-determinism guarantees of the serving layer: the same
//! seeded query batch must produce bit-identical rankings on 1 worker
//! and on N workers, and cache hits must return exactly what
//! recomputation would.

mod common;

use biorank::prelude::*;
use biorank::service::{Method, QueryRequest, RankerSpec, Trials, WorkerPool};
use common::engine;

/// A batch mixing stochastic and deterministic methods, with repeats
/// so the cache path is exercised inside the batch itself.
fn batch() -> Vec<QueryRequest> {
    let proteins = ["GALT", "ABCC8", "CFTR", "EYA1", "GALT", "ABCC8"];
    let methods = [
        Method::Reliability,
        Method::TraversalMc,
        Method::Propagation,
        Method::Diffusion,
        Method::InEdge,
        Method::PathCount,
    ];
    let mut out = Vec::new();
    for (i, protein) in proteins.iter().enumerate() {
        for method in methods {
            out.push(QueryRequest {
                query: ExploratoryQuery::protein_functions(protein),
                spec: RankerSpec {
                    method,
                    trials: Trials::Fixed(500),
                    seed: 7 + (i % 2) as u64,
                    parallel: false,
                    estimator: None,
                },
                top: None,
                certify_top: false,
                world: None,
                trace: false,
                deadline_ms: None,
            });
        }
    }
    out
}

fn rankings(
    results: Vec<Result<biorank::service::QueryResponse, biorank::service::Error>>,
) -> Vec<Vec<(String, f64, usize, usize)>> {
    results
        .into_iter()
        .map(|r| {
            r.expect("batch query succeeds")
                .answers
                .into_iter()
                .map(|a| (a.key, a.score, a.rank_lo, a.rank_hi))
                .collect()
        })
        .collect()
}

#[test]
fn one_worker_and_n_workers_rank_identically() {
    // Fresh engines per pool size: no cross-run cache reuse, so the
    // comparison is between genuinely independent executions.
    let sequential = rankings(WorkerPool::new(1).run_batch(&engine(), batch()));
    let concurrent = rankings(WorkerPool::new(8).run_batch(&engine(), batch()));
    assert_eq!(
        sequential, concurrent,
        "8-worker batch must be bit-identical to the 1-worker batch"
    );
    // And stable across repetition.
    let again = rankings(WorkerPool::new(4).run_batch(&engine(), batch()));
    assert_eq!(sequential, again);
}

#[test]
fn pool_batch_matches_direct_sequential_execution() {
    let eng = engine();
    let direct: Vec<_> = batch().iter().map(|r| eng.execute(r)).collect();
    let direct = rankings(direct);
    let pooled = rankings(WorkerPool::new(6).run_batch(&engine(), batch()));
    assert_eq!(direct, pooled);
}

#[test]
fn cached_responses_equal_uncached_recomputation() {
    let eng = engine();
    let req = QueryRequest::protein_functions("GALT", RankerSpec::new(Method::Reliability));
    let cold = eng.execute(&req).expect("cold query");
    assert!(!cold.cached_graph && !cold.cached_scores);
    let warm = eng.execute(&req).expect("warm query");
    assert!(warm.cached_graph && warm.cached_scores);
    let recomputed = eng.execute_uncached(&req).expect("uncached query");
    assert_eq!(cold.answers, warm.answers);
    assert_eq!(cold.answers, recomputed.answers);
    assert_eq!(cold.total_answers, 15, "Table 1: GALT → 15");
}

#[test]
fn graph_cache_is_shared_across_methods() {
    let eng = engine();
    let rel = QueryRequest::protein_functions("CFTR", RankerSpec::new(Method::Reliability));
    let prop = QueryRequest::protein_functions("CFTR", RankerSpec::new(Method::Propagation));
    let first = eng.execute(&rel).expect("rel query");
    assert!(!first.cached_graph);
    // Same protein, different ranker: integration is reused, scoring
    // is not.
    let second = eng.execute(&prop).expect("prop query");
    assert!(second.cached_graph && !second.cached_scores);
    let stats = eng.stats();
    assert_eq!(stats.graphs.hits, 1);
    assert_eq!(stats.results.misses, 2);
}

/// The opt-in `parallel` flag: the chunked traversal-MC estimator must
/// give bit-identical scores whether its chunks run on 1 thread or N
/// (the chunk layout is pinned; threads only schedule), and the
/// service path must be reproducible and cache-coherent under it.
#[test]
fn parallel_mc_is_bit_identical_to_sequential_chunk_execution() {
    let result = engine()
        .mediator()
        .execute(&ExploratoryQuery::protein_functions("CFTR"))
        .expect("integrate CFTR");
    let q = &result.query;
    let mc = TraversalMc::new(2_000, 77);
    let chunks = biorank::service::PARALLEL_MC_CHUNKS;
    let sequential = mc.score_chunked(q, chunks, 1).expect("1 thread");
    for threads in [2usize, 4, 8] {
        let parallel = mc.score_chunked(q, chunks, threads).expect("N threads");
        for &a in q.answers() {
            assert_eq!(
                sequential.get(a).to_bits(),
                parallel.get(a).to_bits(),
                "threads={threads}"
            );
        }
    }
}

#[test]
fn parallel_request_flag_is_deterministic_and_cache_coherent() {
    let spec = RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Fixed(400),
        seed: 5,
        parallel: true,
        estimator: None,
    };
    let req = QueryRequest::protein_functions("ABCC8", spec);
    // Reproducible across independent engines (fresh caches each).
    let a = engine().execute(&req).expect("engine a");
    let b = engine().execute(&req).expect("engine b");
    assert_eq!(a.answers, b.answers);
    // And a cache hit returns exactly what recomputation would.
    let eng = engine();
    let cold = eng.execute(&req).expect("cold");
    let warm = eng.execute(&req).expect("warm");
    assert!(!cold.cached_scores && warm.cached_scores);
    assert_eq!(cold.answers, warm.answers);
    assert_eq!(cold.answers, a.answers);

    // parallel=true selects a *different* (chunked) estimator, so it
    // must not share a result-cache entry with parallel=false.
    let sequential = eng
        .execute(&QueryRequest::protein_functions(
            "ABCC8",
            RankerSpec {
                parallel: false,
                estimator: None,
                ..spec
            },
        ))
        .expect("sequential");
    assert!(
        !sequential.cached_scores,
        "parallel and sequential requests must not share a cache entry"
    );

    // Deterministic methods normalize the flag away entirely.
    let det = |parallel| {
        eng.execute(&QueryRequest::protein_functions(
            "EYA1",
            RankerSpec {
                method: Method::InEdge,
                trials: Trials::Fixed(1),
                seed: 0,
                parallel,
                estimator: None,
            },
        ))
        .expect("inedge")
    };
    let first = det(false);
    let second = det(true);
    assert!(second.cached_scores, "InEdge ignores the parallel flag");
    assert_eq!(first.answers, second.answers);
}

#[test]
fn distinct_seeds_change_stochastic_rankings_only() {
    let eng = engine();
    let spec_a = RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Fixed(50),
        seed: 1,
        parallel: false,
        estimator: None,
    };
    let spec_b = RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Fixed(50),
        seed: 2,
        parallel: false,
        estimator: None,
    };
    let a = eng
        .execute(&QueryRequest::protein_functions("ABCC8", spec_a))
        .expect("seed 1");
    let b = eng
        .execute(&QueryRequest::protein_functions("ABCC8", spec_b))
        .expect("seed 2");
    // 50 trials over 97 answers: scores almost surely differ somewhere.
    let scores =
        |r: &biorank::service::QueryResponse| r.answers.iter().map(|x| x.score).collect::<Vec<_>>();
    assert_ne!(scores(&a), scores(&b), "different seeds, same scores");

    // Deterministic methods ignore the seed entirely; the cache key
    // normalizes it away, so the second call is a result-cache hit.
    let det = |seed| {
        eng.execute(&QueryRequest::protein_functions(
            "ABCC8",
            RankerSpec {
                method: Method::PathCount,
                trials: Trials::Fixed(50),
                seed,
                parallel: false,
                estimator: None,
            },
        ))
        .expect("pathcount")
    };
    let first = det(1);
    let second = det(2);
    assert_eq!(first.answers, second.answers);
    assert!(
        !first.cached_scores && second.cached_scores,
        "seed must not split the cache for deterministic methods"
    );
}
