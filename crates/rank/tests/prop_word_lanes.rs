//! Bit-identity proofs for the wide-lane word engine.
//!
//! The whole wide-lane design rests on one contract: batch `b` of a
//! `(trials, seed)` schedule draws from the RNG stream keyed
//! `(seed, b)` no matter which lane of which block executes it. These
//! tests pin that contract two ways:
//!
//! 1. **Golden bits** — score hashes, adaptive trial counts, and
//!    certificates recorded from the pre-widening single-mask engine;
//!    any schedule drift fails these against history, not against a
//!    sibling that drifted identically.
//! 2. **Lane-width properties** — on arbitrary small DAGs,
//!    `WordMc<1>`, `WordMc<4>`, and `WordMc<8>` (serial or under any
//!    thread count) produce byte-identical scores and identical
//!    adaptive certificates.

#[path = "../../../tests/common/cases.rs"]
mod cases;
#[path = "../../../tests/common/small_graph.rs"]
mod small_graph;

use biorank_graph::generate::{self, WorkflowParams};
use biorank_graph::{Prob, ProbGraph, QueryGraph};
use biorank_rank::{AdaptiveRunner, Ranker, WordMc};

/// Case `i` of each property runs seed `FIRST_SEED + i`; a failure
/// names its seed, and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 32;
const FIRST_SEED: u64 = 0x1A4E_0000;
const RERUN: Option<u64> = None;

fn p(v: f64) -> Prob {
    Prob::new(v).unwrap()
}

/// FNV-1a over the little-endian bit patterns of a score slice: any
/// single-bit drift anywhere in the vector changes the hash.
fn fnv(scores: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in scores {
        for byte in s.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn diamond() -> QueryGraph {
    let mut g = ProbGraph::new();
    let s = g.add_node(p(1.0));
    let a = g.add_node(p(0.7));
    let b = g.add_node(p(1.0));
    let t = g.add_node(p(1.0));
    g.add_edge(s, a, p(0.5)).unwrap();
    g.add_edge(s, b, p(0.45)).unwrap();
    g.add_edge(a, t, p(0.5)).unwrap();
    g.add_edge(b, t, p(0.55)).unwrap();
    QueryGraph::new(g, s, vec![t, a, b]).unwrap()
}

fn cyclic() -> QueryGraph {
    let mut g = ProbGraph::new();
    let s = g.add_node(p(1.0));
    let a = g.add_node(p(0.9));
    let b = g.add_node(p(1.0));
    let t = g.add_node(p(0.8));
    g.add_edge(s, a, p(0.8)).unwrap();
    g.add_edge(a, b, p(0.8)).unwrap();
    g.add_edge(b, a, p(0.7)).unwrap();
    g.add_edge(b, t, p(0.8)).unwrap();
    QueryGraph::new(g, s, vec![t]).unwrap()
}

fn goldens() -> Vec<(&'static str, QueryGraph)> {
    vec![
        ("diamond", diamond()),
        ("cyclic", cyclic()),
        (
            "workflow",
            generate::layered_workflow(&WorkflowParams::default(), 23),
        ),
        (
            "workflow_wide",
            generate::layered_workflow(
                &WorkflowParams {
                    answers: 24,
                    ..WorkflowParams::default()
                },
                8,
            ),
        ),
    ]
}

/// Score hashes recorded from the single-mask (pre-widening) engine.
const GOLDEN_FIXED: &[(&str, u32, u64, u64)] = &[
    ("diamond", 1000, 9, 0xe258017bfbdb6344),
    ("diamond", 100, 5, 0x7c9ca29db3e7747d),
    ("diamond", 10000, 1, 0x09492dfdb0e4fa08),
    ("cyclic", 1000, 9, 0x3c705af5e002bbda),
    ("cyclic", 100, 5, 0x204aac57cdf2ec93),
    ("cyclic", 10000, 1, 0x594b4784ca06aea1),
    ("workflow", 1000, 9, 0xa9140bcae0c0c876),
    ("workflow", 100, 5, 0xacfbbce295117829),
    ("workflow", 10000, 1, 0xb75aef36928b2852),
    ("workflow_wide", 1000, 9, 0xce525176be647b33),
    ("workflow_wide", 100, 5, 0x5f557f05c57a9115),
    ("workflow_wide", 10000, 1, 0x561825c0277c3632),
];

/// Adaptive runs recorded from the single-mask engine:
/// `(graph, epsilon, top_k, trials_used, certified, score hash)`,
/// all at ceiling 10 000, seed 7, delta 0.05.
const GOLDEN_ADAPTIVE: &[(&str, f64, Option<usize>, u32, bool, u64)] = &[
    ("diamond", 0.02, None, 1536, true, 0xda2d0d55a6708f20),
    ("diamond", 0.001, Some(1), 64, true, 0x805316aa7a7d8fd2),
    ("cyclic", 0.02, None, 64, true, 0x605133623991e9e1),
    ("cyclic", 0.001, Some(1), 64, true, 0x605133623991e9e1),
    ("workflow", 0.02, None, 2944, true, 0x97cff4343dd5745f),
    ("workflow", 0.001, Some(1), 128, true, 0xedc831fd8082032d),
    ("workflow_wide", 0.02, None, 4992, true, 0x4647ce71e8e815f1),
    (
        "workflow_wide",
        0.001,
        Some(1),
        1536,
        true,
        0xc5b8a77a511d11bd,
    ),
];

#[test]
fn golden_fixed_bits_survive_every_lane_width() {
    let graphs = goldens();
    for &(name, trials, seed, want) in GOLDEN_FIXED {
        let q = &graphs.iter().find(|(n, _)| *n == name).unwrap().1;
        for (width, got) in [
            (
                1,
                fnv(WordMc::new(trials, seed).score(q).unwrap().as_slice()),
            ),
            (
                4,
                fnv(WordMc::<4>::wide(trials, seed).score(q).unwrap().as_slice()),
            ),
            (
                8,
                fnv(WordMc::<8>::wide(trials, seed).score(q).unwrap().as_slice()),
            ),
        ] {
            assert_eq!(
                got, want,
                "{name} ({trials} trials, seed {seed}) drifted at width {width}"
            );
        }
    }
}

/// Runs one adaptive execution over any engine width (the closure
/// form would monomorphize to a single width).
fn adaptive_run<E: biorank_rank::Estimator>(
    engine: E,
    epsilon: f64,
    top_k: Option<usize>,
    q: &QueryGraph,
) -> biorank_rank::AdaptiveOutcome {
    let mut runner = AdaptiveRunner::new(engine, epsilon, 0.05);
    if let Some(k) = top_k {
        runner = runner.with_top_k(k);
    }
    runner.run(q).unwrap()
}

#[test]
fn golden_adaptive_certificates_survive_every_lane_width() {
    let graphs = goldens();
    for &(name, epsilon, top_k, trials_used, certified, want) in GOLDEN_ADAPTIVE {
        let q = &graphs.iter().find(|(n, _)| *n == name).unwrap().1;
        let check = |out: biorank_rank::AdaptiveOutcome, width: usize| {
            assert_eq!(
                (out.certificate.trials_used, out.certificate.certified),
                (trials_used, certified),
                "{name} (eps {epsilon}, top_k {top_k:?}) certificate drifted at width {width}"
            );
            assert_eq!(
                fnv(out.scores.as_slice()),
                want,
                "{name} (eps {epsilon}, top_k {top_k:?}) scores drifted at width {width}"
            );
        };
        check(adaptive_run(WordMc::new(10_000, 7), epsilon, top_k, q), 1);
        check(
            adaptive_run(WordMc::<4>::wide(10_000, 7), epsilon, top_k, q),
            4,
        );
        check(
            adaptive_run(WordMc::<8>::wide(10_000, 7), epsilon, top_k, q),
            8,
        );
    }
}

/// A small random DAG query graph (3–8 nodes, 1–14 edges oriented
/// low → high id), the same shape family as `prop_word.rs` but with
/// every non-source node an answer: rank vectors cover the whole
/// graph, maximizing demux surface, and adaptive certification has
/// gaps to check.
fn small_dag(rng: &mut cases::Rng) -> QueryGraph {
    let (g, ids) = small_graph::small_graph(rng, 3..=8, 1..=14, true);
    QueryGraph::new(g, ids[0], ids[1..].to_vec()).expect("source and answers are live")
}

/// Lane width is invisible: widths 1, 4, and 8 — and every thread
/// split of width 8 — produce byte-identical score vectors.
#[test]
fn lane_width_and_threads_never_change_score_bits() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let q = small_dag(rng);
        let trials = [64u32, 129, 1000][rng.range(0..3)];
        let (seed, threads) = (rng.next_u64(), rng.range(1..=4));
        let base = WordMc::new(trials, seed).score(&q).unwrap();
        let w4 = WordMc::<4>::wide(trials, seed).score(&q).unwrap();
        let w8 = WordMc::<8>::wide(trials, seed).score(&q).unwrap();
        let w8t = WordMc::<8>::wide(trials, seed)
            .score_parallel(&q, threads)
            .unwrap();
        assert_eq!(fnv(w4.as_slice()), fnv(base.as_slice()), "width 4 drifted");
        assert_eq!(fnv(w8.as_slice()), fnv(base.as_slice()), "width 8 drifted");
        assert_eq!(
            fnv(w8t.as_slice()),
            fnv(base.as_slice()),
            "width 8 x {} threads drifted",
            threads
        );
    });
}

/// Adaptive runs stop at the same batch with the same certificate
/// and the same score bits at every lane width: the runner sees
/// identical 64-trial step boundaries regardless of how many
/// lanes a block propagates.
#[test]
fn lane_width_never_changes_adaptive_certificates() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let (q, seed) = (small_dag(rng), rng.next_u64());
        let top_k = [None, Some(1usize), Some(2)][rng.range(0..3)];
        let base = adaptive_run(WordMc::new(2048, seed), 0.05, top_k, &q);
        let wide = adaptive_run(WordMc::<8>::wide(2048, seed), 0.05, top_k, &q);
        assert_eq!(wide.certificate, base.certificate);
        assert_eq!(fnv(wide.scores.as_slice()), fnv(base.scores.as_slice()));
    });
}
