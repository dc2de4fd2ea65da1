//! Word-parallel vs per-trial Monte Carlo at equal trial counts, plus
//! adaptive bound-certified rows — full and top-k.
//!
//! The acceptance artifact for the `WordMc` engine: on the paper's
//! query graphs (the ABCC8 running example) and on a generated layered
//! workflow, 64-trials-per-word bitmask propagation must beat the
//! per-trial DFS traversal (Algorithm 3.1) by at least 5× — measured
//! ~20× on the fig8 scenario graphs. The `adaptive_*` rows run the
//! same engines under `AdaptiveRunner` at the paper's (ε = 0.02,
//! δ = 0.05) with the fixed 10⁴ budget as ceiling, reporting
//! **trials-to-certification** as a `trials_used` metric next to the
//! timing. The `adaptive_topk_*_k{1,5,10}` rows restrict certification
//! to the top-k prefix + boundary gap on the wide answer sets the
//! feature targets (ABCC8: 97 answers; `workflow_wide`: 24) — their
//! `trials_used` must sit strictly below the full-certification rows
//! of the same graph. `scripts/bench.sh` records all rows per commit
//! in `BENCH_mc.json`.

use biorank_bench::abcc8_case;
use biorank_graph::generate::{self, WorkflowParams};
use biorank_graph::QueryGraph;
use biorank_rank::{
    plan, AdaptiveRunner, ClosedReliability, CostModel, Estimator, GraphFeatures, NaiveMc,
    PlanFeatures, Ranker, ReducedMc, Strategy, TraversalMc, TrialsPolicy, WordMc,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Lane width of the wide word rows — mirrors the service's
/// `FUSION_LANES`. Recorded as a `lanes` metric next to the timing so
/// the perf log distinguishes wide-block rows from the single-mask
/// rows of earlier commits.
const LANES: usize = 8;

/// One adaptive row: certified (optionally top-k) termination at the
/// paper's (ε, δ) under the fixed 10⁴ ceiling, logging
/// trials-to-certification. `lanes` tags wide word engines.
fn adaptive_row<E: Estimator + Copy>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    engine: E,
    top_k: Option<usize>,
    lanes: Option<usize>,
    q: &QueryGraph,
) {
    group.bench_function(name, |b| {
        let mut used = 0u32;
        b.iter(|| {
            let mut runner = AdaptiveRunner::new(engine, 0.02, 0.05);
            if let Some(k) = top_k {
                runner = runner.with_top_k(k);
            }
            let out = runner.run(black_box(q)).expect("adaptive scores");
            used = out.certificate.trials_used;
            out
        });
        b.metric("trials_used", f64::from(used));
        if let Some(lanes) = lanes {
            b.metric("lanes", lanes as f64);
        }
    });
}

fn word_vs_traversal(c: &mut Criterion) {
    let case = abcc8_case();
    let abcc8 = &case.result.query;
    let workflow = generate::layered_workflow(&WorkflowParams::default(), 8);
    // The default workflow has 8 answers — too narrow for a top-10
    // boundary. The wide variant keeps every other parameter and is
    // the generated stand-in for exploratory queries with broad
    // candidate sets.
    let workflow_wide = generate::layered_workflow(
        &WorkflowParams {
            answers: 24,
            ..WorkflowParams::default()
        },
        8,
    );
    let mut group = c.benchmark_group("word_vs_traversal");
    group.sample_size(15);

    for (label, q) in [("abcc8", abcc8), ("workflow", &workflow)] {
        for trials in [1_000u32, 10_000] {
            group.bench_function(&format!("{label}/traversal_{trials}"), |b| {
                b.iter(|| {
                    TraversalMc::new(trials, 1)
                        .score(black_box(q))
                        .expect("scores")
                })
            });
            group.bench_function(&format!("{label}/word_{trials}"), |b| {
                b.iter(|| {
                    WordMc::<LANES>::wide(trials, 1)
                        .score(black_box(q))
                        .expect("scores")
                });
                b.metric("lanes", LANES as f64);
            });
        }
        // Adaptive rows: same (ε, δ) the fixed 10⁴ budget targets, so
        // `trials_used` IS the win over the fixed schedule.
        adaptive_row(
            &mut group,
            &format!("{label}/adaptive_word_10000"),
            WordMc::<LANES>::wide(10_000, 1),
            None,
            Some(LANES),
            q,
        );
        adaptive_row(
            &mut group,
            &format!("{label}/adaptive_traversal_10000"),
            TraversalMc::new(10_000, 1),
            None,
            None,
            q,
        );
        // Context: the naive baseline the paper measures against.
        group.bench_function(&format!("{label}/naive_10000"), |b| {
            b.iter(|| NaiveMc::new(10_000, 1).score(black_box(q)).expect("scores"))
        });
    }

    // Top-k certification rows, on the graphs wide enough for k = 10
    // to leave a tail behind the boundary. workflow_wide also gets its
    // own full-certification rows as the in-graph baseline.
    adaptive_row(
        &mut group,
        "workflow_wide/adaptive_word_10000",
        WordMc::<LANES>::wide(10_000, 1),
        None,
        Some(LANES),
        &workflow_wide,
    );
    adaptive_row(
        &mut group,
        "workflow_wide/adaptive_traversal_10000",
        TraversalMc::new(10_000, 1),
        None,
        None,
        &workflow_wide,
    );
    for (label, q) in [("abcc8", abcc8), ("workflow_wide", &workflow_wide)] {
        for k in [1usize, 5, 10] {
            adaptive_row(
                &mut group,
                &format!("{label}/adaptive_topk_word_10000_k{k}"),
                WordMc::<LANES>::wide(10_000, 1),
                Some(k),
                Some(LANES),
                q,
            );
        }
        adaptive_row(
            &mut group,
            &format!("{label}/adaptive_topk_traversal_10000_k10"),
            TraversalMc::new(10_000, 1),
            Some(10),
            None,
            q,
        );
    }

    // Cost-based planner rows: `planner_auto_*` scores the seed cost
    // model each iteration and executes whatever strategy it picks,
    // next to a forced row for each of the four strategies on the
    // same graph. Acceptance: auto lands within 10% of the best
    // forced row and never below the worst. Features are extracted
    // once per graph — mirroring the service's features cache — so
    // the row prices the per-query planning decision, not the
    // one-time reduction.
    for (label, q) in [
        ("abcc8", abcc8),
        ("workflow", &workflow),
        ("workflow_wide", &workflow_wide),
    ] {
        let features = PlanFeatures {
            graph: GraphFeatures::extract(q),
            top_k: None,
            trials: TrialsPolicy::Fixed(10_000),
        };
        let chosen = plan(&features, &CostModel::default()).strategy;
        group.bench_function(&format!("{label}/planner_auto_10000"), |b| {
            b.iter(|| {
                let p = plan(black_box(&features), &CostModel::default());
                match p.strategy {
                    Strategy::Exact => ClosedReliability::default().score(black_box(q)),
                    Strategy::ReducedMc => ReducedMc::new(10_000, 1).score(black_box(q)),
                    Strategy::WordMc => WordMc::<LANES>::wide(10_000, 1).score(black_box(q)),
                    Strategy::TraversalMc => TraversalMc::new(10_000, 1).score(black_box(q)),
                }
                .expect("planned scores")
            });
            b.metric("strategy", chosen.index() as f64);
        });
        group.bench_function(&format!("{label}/planner_forced_exact"), |b| {
            b.iter(|| {
                ClosedReliability::default()
                    .score(black_box(q))
                    .expect("scores")
            })
        });
        group.bench_function(&format!("{label}/planner_forced_reduced_10000"), |b| {
            b.iter(|| {
                ReducedMc::new(10_000, 1)
                    .score(black_box(q))
                    .expect("scores")
            })
        });
        group.bench_function(&format!("{label}/planner_forced_word_10000"), |b| {
            b.iter(|| {
                WordMc::<LANES>::wide(10_000, 1)
                    .score(black_box(q))
                    .expect("scores")
            })
        });
        group.bench_function(&format!("{label}/planner_forced_traversal_10000"), |b| {
            b.iter(|| {
                TraversalMc::new(10_000, 1)
                    .score(black_box(q))
                    .expect("scores")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, word_vs_traversal);
criterion_main!(benches);
