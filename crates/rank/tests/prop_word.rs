//! Property tests pinning the word-parallel Monte Carlo engine against
//! ground truth.
//!
//! `WordMc` replaces per-trial DFS sampling with 64-trials-per-word
//! bitmask propagation; these tests assert that the change of schedule
//! never changes the semantics: on arbitrary small DAG query graphs the
//! estimate must sit within a 3σ binomial bound of the exact
//! possible-worlds reliability, and the traversal engine must agree
//! with it statistically on the same inputs. Both bounds are 3σ, so
//! noise alone fails a case now and then: of the first 2 000 seeds from
//! `FIRST_SEED`, one (`0x3c0d075f`) fails the engines' agreement.

#[path = "../../../tests/common/cases.rs"]
mod cases;
#[path = "../../../tests/common/small_graph.rs"]
mod small_graph;

use biorank_graph::{exact, QueryGraph};
use biorank_rank::{Ranker, TraversalMc, WordMc};

const TRIALS: u32 = 8_192;

/// Case `i` of each property runs seed `FIRST_SEED + i`; a failure
/// names its seed, and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 48;
const FIRST_SEED: u64 = 0x3C0D_0000;
const RERUN: Option<u64> = None;

/// Runs `property` on 48 small DAG query graphs (2–7 nodes, 1–12
/// edges, every edge oriented forward so WordMc takes its topological
/// single-pass path) whose one answer is the last node.
fn for_each_dag(property: impl Fn(QueryGraph)) {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let (g, ids) = small_graph::small_graph(rng, 2..=7, 1..=12, true);
        let target = ids[ids.len() - 1];
        property(QueryGraph::new(g, ids[0], vec![target]).expect("source and target are live"));
    });
}

/// The word-parallel estimate sits within 3σ of exact reliability
/// (binomial standard deviation at the configured trial count).
#[test]
fn word_mc_within_three_sigma_of_exact() {
    for_each_dag(|q| {
        let target = q.answers()[0];
        let truth = exact::enumerate(q.graph(), q.source(), target).unwrap();
        let est = WordMc::new(TRIALS, 1).score(&q).unwrap().get(target);
        let sigma = (truth * (1.0 - truth) / f64::from(TRIALS)).sqrt();
        // The 1e-9 floor covers the degenerate σ = 0 cases (truth 0 or
        // 1), where the estimate must be exact.
        assert!(
            (est - truth).abs() <= 3.0 * sigma + 1e-9,
            "word {est} vs exact {truth} (sigma {sigma})"
        );
    });
}

/// Traversal and word engines estimate the same quantity: their
/// estimates agree within a combined 3σ band around each other.
#[test]
fn word_and_traversal_agree_statistically() {
    for_each_dag(|q| {
        let target = q.answers()[0];
        let word = WordMc::new(TRIALS, 1).score(&q).unwrap().get(target);
        let trav = TraversalMc::new(TRIALS, 2).score(&q).unwrap().get(target);
        // Bound the spread via the worst-case binomial σ at p = 1/2;
        // both engines contribute noise, hence the factor √2.
        let sigma = (0.25 / f64::from(TRIALS)).sqrt() * std::f64::consts::SQRT_2;
        assert!(
            (word - trav).abs() <= 3.0 * sigma + 1e-9,
            "word {word} vs traversal {trav}"
        );
    });
}
