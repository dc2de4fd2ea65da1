//! The cost-based query planner behind `estimator: "auto"`.
//!
//! The paper's efficiency study (Fig. 8a) is a crossover chart: the
//! closed solution wins on small reducible graphs, reduction + Monte
//! Carlo wins in the middle, and plain sampling wins once reduction
//! stops paying. The repo reproduces every one of those strategies —
//! this module picks between them per query, from a cheap feature
//! vector ([`PlanFeatures`]) and a linear cost model ([`CostModel`]),
//! instead of making the caller choose.
//!
//! Planning is a **pure function**: [`plan`] reads only the feature
//! vector and the model constants, so a fixed `(features, model)`
//! pair always yields the same [`Plan`] — the bit-identity discipline
//! of the rest of the crate extends to strategy choice. The constants
//! are compile-time ([`CostModel::default`]); nothing a process has
//! served before can move them, so the same request plans the same
//! way on a fresh engine and on one that has answered a million
//! queries.

use crate::features::{PlanFeatures, TrialsPolicy};

/// One executable strategy the planner chooses between. Each maps to
/// a concrete engine the service can also be asked for explicitly, so
/// a planned execution is byte-identical to an explicit request for
/// the same strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Per-answer closed-form reliability ([`crate::ClosedReliability`]):
    /// exact, deterministic, no trials — but only predictably cheap
    /// when the paper's reduction theory applies (Theorem 3.2 schema
    /// shapes, or a graph whose reduction residual is trivial).
    Exact,
    /// Graph reductions then traversal Monte Carlo on the residual
    /// ([`crate::ReducedMc`], the paper's R&M configuration).
    ReducedMc,
    /// Word-parallel Monte Carlo, 64 trials per machine word
    /// ([`crate::WordMc`]).
    WordMc,
    /// Per-trial traversal Monte Carlo ([`crate::TraversalMc`], the
    /// paper's reference engine M).
    TraversalMc,
}

impl Strategy {
    /// Every strategy, in the planner's deterministic tie-break order
    /// (earlier wins a cost tie).
    pub const ALL: [Strategy; 4] = [
        Strategy::Exact,
        Strategy::ReducedMc,
        Strategy::WordMc,
        Strategy::TraversalMc,
    ];

    /// The canonical wire / metric spelling.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Strategy::Exact => "exact",
            Strategy::ReducedMc => "reduced",
            Strategy::WordMc => "word",
            Strategy::TraversalMc => "traversal",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(name: &str) -> Option<Strategy> {
        Some(match name {
            "exact" => Strategy::Exact,
            "reduced" => Strategy::ReducedMc,
            "word" => Strategy::WordMc,
            "traversal" => Strategy::TraversalMc,
            _ => return None,
        })
    }

    /// Dense index into per-strategy arrays (this strategy's position
    /// in [`Strategy::ALL`]).
    pub fn index(&self) -> usize {
        match self {
            Strategy::Exact => 0,
            Strategy::ReducedMc => 1,
            Strategy::WordMc => 2,
            Strategy::TraversalMc => 3,
        }
    }
}

/// The constants of the planner's linear cost model. They only have to
/// order the strategies correctly (their costs differ by 5–200×), not
/// predict a particular host's nanoseconds; e2ebench's
/// `rank.planner_regret` (the picked strategy's time over the best
/// forced one, on the default world's graphs) measures whether they do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Traversal Monte Carlo: ns per trial per live edge. Seed: the
    /// `word_vs_traversal/abcc8/traversal_10000` row, 20.7 ms over
    /// 10⁴ trials × 329 edges ≈ 6.3, rounded up toward the denser
    /// workflow graphs.
    pub trav_trial_edge_ns: f64,
    /// Word-parallel Monte Carlo: ns per trial per live edge on a
    /// DAG. Seed: `abcc8/word_10000`, 1.14 ms over 10⁴ × 329 ≈ 0.35,
    /// rounded up toward the workflow rows (≈ 0.58).
    pub word_trial_edge_ns: f64,
    /// Multiplier on the word engine's cost for cyclic graphs, which
    /// pay its monotone-fixpoint fallback instead of the single topo
    /// pass.
    pub word_cycle_factor: f64,
    /// One reduction pass (clone + rules to fixpoint): ns per edge.
    /// Seed: `fig8a/R&M2_reduce_mc_1000` minus its Monte Carlo share,
    /// ≈ 0.18 ms over 329 edges.
    pub reduce_edge_ns: f64,
    /// Closed solution: ns per answer per edge (each answer prunes
    /// and reduces its own subgraph). Seed: `fig8a/C_closed_solution`,
    /// 5.65 ms over 97 answers × 329 edges ≈ 177.
    pub exact_answer_edge_ns: f64,
    /// Flat per-execution overhead (state setup, ranking assembly).
    pub setup_ns: f64,
    /// Expected fraction of the trial ceiling an adaptive
    /// full-certification run consumes before stopping. Seed: the
    /// `adaptive_*_10000` rows certify at 3.2k–6.3k of 10⁴.
    pub adaptive_full_frac: f64,
    /// Expected trials per certified prefix element under top-k
    /// certification. Seed: the `adaptive_topk_*` rows (k = 1 → 256,
    /// k = 10 → 2112–4544).
    pub topk_trials_per_k: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            trav_trial_edge_ns: 7.0,
            word_trial_edge_ns: 0.45,
            word_cycle_factor: 4.0,
            reduce_edge_ns: 500.0,
            exact_answer_edge_ns: 180.0,
            setup_ns: 20_000.0,
            adaptive_full_frac: 0.6,
            topk_trials_per_k: 384.0,
        }
    }
}

impl CostModel {
    /// Predicted trial count for this feature vector: the fixed
    /// budget verbatim, or the expected early stop of the adaptive
    /// runner.
    pub fn predicted_trials(&self, f: &PlanFeatures) -> f64 {
        match f.trials {
            TrialsPolicy::Fixed(n) => f64::from(n),
            TrialsPolicy::Adaptive { max_trials } => {
                let full = f64::from(max_trials) * self.adaptive_full_frac;
                match f.top_k {
                    // A top-k prefix certifies as soon as k leading
                    // gaps (plus the boundary) resolve — never more
                    // work than full certification.
                    Some(k) => (self.topk_trials_per_k * f64::from(k.max(1)))
                        .clamp(f64::from(crate::BATCH_TRIALS), full.max(64.0)),
                    None => full,
                }
            }
        }
    }

    /// Whether the closed solution is predictably cheap on this
    /// query: the schema shape satisfies Theorem 3.2, or the
    /// instance's reduction residual is already trivial (at most one
    /// surviving edge per answer), so per-answer reduction cannot get
    /// stuck and fall into the factoring / sampling backstops.
    pub fn exact_eligible(&self, f: &PlanFeatures) -> bool {
        f.graph.schema_reducible || f.graph.reduced_edges <= f.graph.answers
    }

    /// Predicted execution cost of `strategy` on `f`, in nanoseconds.
    /// [`Strategy::Exact`] is infinite when ineligible
    /// ([`exact_eligible`](CostModel::exact_eligible)) — the planner
    /// then counts the skip as a fallback.
    pub fn predicted_ns(&self, strategy: Strategy, f: &PlanFeatures) -> f64 {
        let edges = f64::from(f.graph.edges).max(1.0);
        let trials = self.predicted_trials(f);
        let raw = match strategy {
            Strategy::Exact => {
                if !self.exact_eligible(f) {
                    return f64::INFINITY;
                }
                f64::from(f.graph.answers.max(1)) * edges * self.exact_answer_edge_ns
            }
            Strategy::ReducedMc => {
                edges * self.reduce_edge_ns
                    + trials * f64::from(f.graph.reduced_edges) * self.trav_trial_edge_ns
            }
            Strategy::WordMc => {
                let cycle = if f.graph.acyclic {
                    1.0
                } else {
                    self.word_cycle_factor
                };
                trials * edges * self.word_trial_edge_ns * cycle
            }
            Strategy::TraversalMc => trials * edges * self.trav_trial_edge_ns,
        };
        self.setup_ns + raw
    }
}

/// The planner's verdict for one request: the chosen strategy, what
/// the model expects it to cost, and the feature vector it read —
/// echoed in service responses next to the certificate, and printed
/// by `biorank query --explain`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// The cheapest eligible strategy.
    pub strategy: Strategy,
    /// The model's cost prediction for it, nanoseconds.
    pub predicted_ns: u64,
    /// The feature vector the choice was scored on.
    pub features: PlanFeatures,
    /// `true` when a strategy that scored cheaper was skipped as
    /// ineligible (today: the closed solution outside its certified
    /// territory) — surfaced as the service's `planner.fallback`
    /// counter.
    pub fallback: bool,
}

/// Chooses the cheapest eligible strategy for `features` under
/// `model`. Pure and total: every feature vector yields a plan (the
/// Monte Carlo strategies are always eligible), equal inputs yield
/// equal plans, and cost ties break toward the earlier entry of
/// [`Strategy::ALL`].
pub fn plan(features: &PlanFeatures, model: &CostModel) -> Plan {
    let mut best = Strategy::ALL[0];
    let mut best_ns = f64::INFINITY;
    let mut skipped_cheaper = false;
    for strategy in Strategy::ALL {
        let ns = model.predicted_ns(strategy, features);
        if ns.is_infinite() {
            // Ineligible. If it would have been the front-runner so
            // far, the eventual choice is a fallback.
            skipped_cheaper = true;
            continue;
        }
        if ns < best_ns {
            best = strategy;
            best_ns = ns;
        }
    }
    // `skipped_cheaper` so far only records that *something* was
    // skipped; it is a fallback only when the skipped strategy would
    // have beaten the winner. Re-score it against the unclamped
    // eligibility to decide.
    let fallback = skipped_cheaper && {
        // Lift the eligibility gate by scoring as if reducible.
        let mut f = *features;
        f.graph.schema_reducible = true;
        model.predicted_ns(Strategy::Exact, &f) < best_ns
    };
    Plan {
        strategy: best,
        predicted_ns: best_ns.round() as u64,
        features: *features,
        fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::GraphFeatures;

    fn graph(nodes: u32, edges: u32, answers: u32) -> GraphFeatures {
        GraphFeatures {
            nodes,
            edges,
            answers,
            acyclic: true,
            reduced_nodes: nodes,
            reduced_edges: edges,
            schema_reducible: false,
        }
    }

    /// The abcc8 bench graph under the serve-default adaptive policy.
    fn abcc8_features() -> PlanFeatures {
        PlanFeatures {
            graph: GraphFeatures {
                nodes: 185,
                edges: 329,
                answers: 97,
                acyclic: true,
                reduced_nodes: 129,
                reduced_edges: 269,
                schema_reducible: false,
            },
            top_k: None,
            trials: TrialsPolicy::Adaptive { max_trials: 10_000 },
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let f = abcc8_features();
        let m = CostModel::default();
        assert_eq!(plan(&f, &m), plan(&f, &m));
    }

    #[test]
    fn word_wins_the_bench_graphs() {
        // The seeded model must order all three bench-graph shapes as
        // their measured costs did (word ~20× traversal, reduction not
        // paying, exact ineligible under the ontology schema).
        let m = CostModel::default();
        for (graph_f, label) in [
            (abcc8_features().graph, "abcc8"),
            (
                GraphFeatures {
                    nodes: 38,
                    edges: 98,
                    answers: 8,
                    acyclic: true,
                    reduced_nodes: 35,
                    reduced_edges: 95,
                    schema_reducible: false,
                },
                "workflow",
            ),
            (
                GraphFeatures {
                    nodes: 54,
                    edges: 154,
                    answers: 24,
                    acyclic: true,
                    reduced_nodes: 52,
                    reduced_edges: 152,
                    schema_reducible: false,
                },
                "workflow_wide",
            ),
        ] {
            for trials in [
                TrialsPolicy::Fixed(1_000),
                TrialsPolicy::Fixed(10_000),
                TrialsPolicy::Adaptive { max_trials: 10_000 },
            ] {
                let f = PlanFeatures::for_request(graph_f, None, trials);
                let p = plan(&f, &m);
                assert_eq!(p.strategy, Strategy::WordMc, "{label} under {trials:?}");
            }
        }
    }

    #[test]
    fn exact_wins_small_reducible_graphs_with_big_budgets() {
        let f = PlanFeatures {
            graph: graph(6, 5, 2).with_schema_reducible(true),
            top_k: None,
            trials: TrialsPolicy::Fixed(1_000_000),
        };
        let p = plan(&f, &CostModel::default());
        assert_eq!(p.strategy, Strategy::Exact);
        assert!(!p.fallback);
    }

    #[test]
    fn trivial_residual_enables_exact_without_schema_verdict() {
        let mut g = graph(6, 5, 2);
        g.reduced_nodes = 3;
        g.reduced_edges = 2; // ≤ answers: per-answer closure is trivial
        let f = PlanFeatures {
            graph: g,
            top_k: None,
            trials: TrialsPolicy::Fixed(1_000_000),
        };
        assert_eq!(plan(&f, &CostModel::default()).strategy, Strategy::Exact);
    }

    #[test]
    fn ineligible_exact_counts_as_fallback_only_when_it_would_win() {
        let m = CostModel::default();
        // Big budget on an irreducible graph: exact would be cheapest
        // if eligible, so the pick is a fallback.
        let f = PlanFeatures {
            graph: graph(6, 5, 2),
            top_k: None,
            trials: TrialsPolicy::Fixed(1_000_000),
        };
        let p = plan(&f, &m);
        assert_ne!(p.strategy, Strategy::Exact);
        assert!(p.fallback);
        // Wide answer set, small budget: the closed solution's
        // per-answer sweeps would lose even if eligible; no fallback.
        let f = PlanFeatures {
            graph: graph(100, 200, 50),
            top_k: None,
            trials: TrialsPolicy::Fixed(1_000),
        };
        assert!(!plan(&f, &m).fallback);
    }

    #[test]
    fn reduction_pays_when_the_residual_collapses() {
        // 95% of edges reduce away but the residual stays above the
        // per-answer bar: R&M beats plain sampling and the word
        // engine once trials dominate.
        let mut g = graph(1000, 2000, 10);
        g.reduced_nodes = 30;
        g.reduced_edges = 40;
        let f = PlanFeatures {
            graph: g,
            top_k: None,
            trials: TrialsPolicy::Fixed(1_000_000),
        };
        let p = plan(&f, &CostModel::default());
        assert_eq!(p.strategy, Strategy::ReducedMc);
    }

    #[test]
    fn topk_shrinks_predicted_trials() {
        let m = CostModel::default();
        let full = PlanFeatures {
            graph: abcc8_features().graph,
            top_k: None,
            trials: TrialsPolicy::Adaptive { max_trials: 10_000 },
        };
        let topk = PlanFeatures {
            top_k: Some(1),
            ..full
        };
        assert!(m.predicted_trials(&topk) < m.predicted_trials(&full));
        assert!(m.predicted_trials(&topk) >= f64::from(crate::BATCH_TRIALS));
    }

    #[test]
    fn cyclic_graphs_tax_the_word_engine() {
        let m = CostModel::default();
        let dag = PlanFeatures {
            graph: graph(50, 200, 5),
            top_k: None,
            trials: TrialsPolicy::Fixed(10_000),
        };
        let mut cyc = dag;
        cyc.graph.acyclic = false;
        assert!(
            m.predicted_ns(Strategy::WordMc, &cyc) > m.predicted_ns(Strategy::WordMc, &dag),
            "cycles must raise the word engine's predicted cost"
        );
    }

    #[test]
    fn strategy_wire_names_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.wire_name()), Some(s));
        }
        assert_eq!(Strategy::parse("nope"), None);
    }
}
