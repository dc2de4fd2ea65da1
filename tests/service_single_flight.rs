//! Single-flight is invisible on the wire.
//!
//! The engine may collapse concurrent identical requests into one
//! computation, but a client can never tell: every response —
//! whether it led a flight, waited on one, or ran beside unrelated
//! flights — is byte-identical to the solo, uncached execution of the
//! same request, and identical requests land in exactly one
//! result-cache entry. Only the metrics registry records the
//! collapsing (`queries.coalesced`).

mod common;

use std::sync::{Arc, Barrier};
use std::thread;

use biorank::service::{AdaptiveConfig, Estimator, Method, QueryRequest, RankerSpec, Trials};
use common::engine;

fn word_spec(seed: u64, trials: Trials) -> RankerSpec {
    RankerSpec {
        method: Method::TraversalMc,
        trials,
        seed,
        parallel: false,
        estimator: Some(Estimator::Word),
    }
}

fn adaptive(max_trials: u32) -> Trials {
    Trials::Adaptive(AdaptiveConfig {
        epsilon: 0.02,
        delta: 0.05,
        max_trials,
    })
}

/// Every request in a mix of fixed, adaptive-full, and adaptive-top-k
/// word queries answers byte-identically through the served path
/// ([`QueryEngine::execute`]) and the reference path
/// ([`QueryEngine::execute_uncached`]): same answers, same scores, same
/// certificate.
#[test]
fn execute_and_execute_uncached_are_byte_identical() {
    let engine = engine();
    let mut topk = QueryRequest::protein_functions("CFTR", word_spec(13, adaptive(20_000)));
    topk.top = Some(3);
    topk.certify_top = true;
    let mix = [
        QueryRequest::protein_functions("GALT", word_spec(11, Trials::Fixed(4_096))),
        QueryRequest::protein_functions("GALT", word_spec(12, adaptive(20_000))),
        topk,
    ];
    for req in &mix {
        let uncached = engine.execute_uncached(req).expect("uncached execution");
        let served = engine.execute(req).expect("served execution");
        assert_eq!(served.answers, uncached.answers, "answer bytes drifted");
        assert_eq!(
            served.certificate, uncached.certificate,
            "certificate drifted"
        );
    }
}

/// Concurrent identical requests collapse into one flight: one
/// result-cache entry, identical answers for every caller, and at
/// least one request served by waiting on the leader instead of
/// recomputing.
#[test]
fn concurrent_identical_queries_coalesce_into_one_flight() {
    let engine = engine();
    // Heavy enough that the flight is still running when the other
    // threads arrive (debug-build word MC at two million trials).
    let req = QueryRequest::protein_functions("GALT", word_spec(7, Trials::Fixed(2_000_000)));
    let threads = 6;
    let barrier = Arc::new(Barrier::new(threads));
    let answers: Vec<_> = (0..threads)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let req = req.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                engine.execute(&req).expect("concurrent query").answers
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("query thread"))
        .collect();

    for a in &answers[1..] {
        assert_eq!(a, &answers[0], "coalesced callers saw different bytes");
    }
    assert_eq!(
        engine.stats().results.entries,
        1,
        "identical requests share one result-cache entry"
    );
    let metrics = engine.metrics_snapshot();
    assert!(
        metrics.counter("queries.coalesced") >= 1,
        "no request coalesced onto the leader's flight"
    );
    assert_eq!(metrics.counter("queries") as usize, threads);
}

/// Concurrent *distinct* word queries on the same exploratory query
/// share nothing but the resident graph: released together, each —
/// fixed and adaptive alike — answers exactly what its uncached solo
/// execution answers, and each lands in its own result-cache entry.
#[test]
fn concurrent_distinct_word_queries_match_their_solo_runs() {
    let engine = engine();
    let requests: Vec<QueryRequest> = (0..6u64)
        .map(|i| {
            let trials = if i % 2 == 0 {
                Trials::Fixed(200_000)
            } else {
                adaptive(20_000)
            };
            QueryRequest::protein_functions("GALT", word_spec(100 + i, trials))
        })
        .collect();
    let barrier = Barrier::new(requests.len());
    let served: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.execute(req).expect("distinct word query")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect()
    });
    for (req, served) in requests.iter().zip(&served) {
        let solo = engine.execute_uncached(req).expect("solo execution");
        assert_eq!(served.answers, solo.answers, "answer bytes drifted");
        assert_eq!(served.certificate, solo.certificate, "certificate drifted");
    }
    assert_eq!(
        engine.stats().results.entries,
        requests.len(),
        "one result-cache entry per distinct request"
    );
}
