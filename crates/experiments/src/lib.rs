//! # biorank-experiments
//!
//! One binary per table and figure of the BioRank paper. Each binary
//! prints a plain-text reproduction of its artifact next to the paper's
//! numbers (README.md, *Reproducing the paper*).
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table_sources` | §2 source catalog + pr transformation tables |
//! | `fig1_schema` | Fig. 1 query schema + reducibility verdicts |
//! | `quick_table` | §2 example: top-ranked functions for ABCC8 |
//! | `fig23_reducibility` | Figs. 2–3: reducible vs irreducible shapes |
//! | `fig4_topologies` | Fig. 4: the 5 scores on two toy graphs |
//! | `table1` | Table 1: the 20 proteins and function counts |
//! | `fig5` | Fig. 5: AP of the 5 methods over 3 scenarios |
//! | `table2` | Table 2: scenario-2 per-function ranks |
//! | `table3` | Table 3: scenario-3 per-protein ranks |
//! | `fig6` | Fig. 6: sensitivity to log-odds noise |
//! | `fig7` | Fig. 7: Monte Carlo convergence |
//! | `fig8` | Fig. 8: timing of reliability strategies & methods |
//! | `ablation_model` | Evidence-model ablation (extension) |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use biorank_eval::{build_cases, Scenario, ScenarioCase};
use biorank_rank::Ranker;
use biorank_sources::{World, WorldParams};

/// Number of Monte Carlo trials used by the reliability ranker in the
/// figure experiments (the paper's "M1" configuration, matching the
/// Theorem 3.1 bound for ε = 0.02 at 95% confidence).
pub const DEFAULT_TRIALS: u32 = 10_000;

/// Shared deterministic seed for all experiment binaries.
pub const DEFAULT_SEED: u64 = 0xB10_C0DE;

/// Generates the default world used by every experiment.
pub fn default_world() -> World {
    World::generate(WorldParams::default())
}

/// Builds the cases of all three scenarios for a world.
pub fn all_scenarios(world: &World) -> (Vec<ScenarioCase>, Vec<ScenarioCase>, Vec<ScenarioCase>) {
    let s1 = build_cases(world, Scenario::WellKnown).expect("scenario 1 integrates");
    let s2 = build_cases(world, Scenario::LessKnown).expect("scenario 2 integrates");
    let s3 = build_cases(world, Scenario::Hypothetical).expect("scenario 3 integrates");
    (s1, s2, s3)
}

/// The paper's five rankers in figure order.
pub fn figure_rankers() -> Vec<Box<dyn Ranker + Send + Sync>> {
    biorank_rank::paper_rankers(DEFAULT_TRIALS, DEFAULT_SEED)
}

/// Rank intervals of specific GO terms for one case under one ranker —
/// the building block of Tables 2 and 3.
///
/// Returns, for each requested GO key, the `lo-hi` interval string (or
/// `"-"` when the term is not in the answer set), plus the answer-set
/// size (the upper bound of the Random column).
pub fn rank_intervals(
    ranker: &dyn Ranker,
    case: &ScenarioCase,
    go_keys: &[&str],
) -> (Vec<String>, usize) {
    let q = &case.result.query;
    let scores = ranker.score(q).expect("ranking succeeds");
    let ranking = biorank_rank::Ranking::rank(scores.answers(q));
    let intervals = go_keys
        .iter()
        .map(|key| {
            q.answers()
                .iter()
                .find(|&&a| case.result.answer_key(a) == Some(key))
                .and_then(|&a| ranking.rank_of(a))
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".to_string())
        })
        .collect();
    (intervals, q.answers().len())
}
