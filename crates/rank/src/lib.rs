//! # biorank-rank
//!
//! The five ranking semantics of the BioRank paper ("Integrating and
//! Ranking Uncertain Scientific Data", Detwiler et al., ICDE 2009, §3),
//! over probabilistic query graphs:
//!
//! | Method | Type | Implementation |
//! |---|---|---|
//! | Reliability | probabilistic (possible worlds) | [`TraversalMc`] (Algorithm 3.1), [`WordMc`] (64 trials/word), [`NaiveMc`], [`ReducedMc`], [`ClosedReliability`] |
//! | Propagation | probabilistic (local) | [`Propagation`] (Algorithm 3.2) |
//! | Diffusion | probabilistic (additive) | [`Diffusion`] (Algorithm 3.3) |
//! | InEdge | deterministic | [`InEdge`] |
//! | PathCount | deterministic | [`PathCount`] |
//!
//! All implement [`Ranker`]; [`Ranking`] turns score vectors into the
//! tie-interval rankings of the paper's Tables 2–3, and [`bounds`]
//! provides the Theorem 3.1 trial-count bound.
//!
//! The Monte Carlo engines additionally implement the incremental
//! [`Estimator`] contract (`begin`/`step`/`snapshot`/`finish` over
//! 64-trial batches), which [`AdaptiveRunner`] drives with
//! bound-certified early termination: batches stop as soon as the
//! running ranking separates at the (ε, δ) the accumulated trials
//! resolve, returning a [`Certificate`] alongside the scores. When
//! only the top `k` answers matter,
//! [`AdaptiveRunner::with_top_k`] certifies just that prefix and its
//! boundary gap — the certificate's [`CertificateMode`] records which
//! contract was checked.
//!
//! ```
//! use biorank_graph::{Prob, ProbGraph, QueryGraph};
//! use biorank_rank::{Ranker, TraversalMc, Ranking};
//!
//! let mut g = ProbGraph::new();
//! let s = g.add_node(Prob::ONE);
//! let t = g.add_node(Prob::new(0.9).unwrap());
//! g.add_edge(s, t, Prob::new(0.5).unwrap()).unwrap();
//! let q = QueryGraph::new(g, s, vec![t]).unwrap();
//! let scores = TraversalMc::new(10_000, 42).score(&q).unwrap();
//! let ranking = Ranking::rank(scores.answers(&q));
//! assert_eq!(ranking.entries()[0].node, t);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod bounds;
mod deterministic;
mod diffusion;
pub mod estimator;
pub mod explain;
pub mod features;
mod mc;
pub mod planner;
mod propagation;
mod reliability;
mod score;
mod ties;
mod word;

pub use adaptive::{AdaptiveOutcome, AdaptiveRunner, Certificate, CertificateMode};
pub use deterministic::{InEdge, PathCount};
pub use diffusion::{Diffusion, InnerSolver};
pub use estimator::{run_batches, BatchRun, BatchStats, Estimator, BATCH_TRIALS};
pub use features::{GraphFeatures, PlanFeatures, TrialsPolicy};
pub use mc::{McState, NaiveMc, NaiveState, TraversalMc};
pub use planner::{plan, CostModel, Plan, Strategy};
pub use propagation::Propagation;
pub use reliability::{ClosedReliability, ReducedMc, SolveMode};
pub use score::{Ranker, Scores};
pub use ties::{RankedEntry, Ranking, TieGroup};
pub use word::{WordMc, WordState};

use std::fmt;

/// Errors produced by the ranking algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Monte Carlo estimation requires at least one trial.
    ZeroTrials,
    /// A numeric parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// An underlying graph operation failed (e.g. PathCount on a cyclic
    /// graph).
    Graph(biorank_graph::Error),
    /// A deadline-bounded run was aborted between estimator batches
    /// before it certified or reached its trial ceiling. `trials_used`
    /// is the partial-trial telemetry: how many Monte Carlo trials had
    /// completed when the deadline fired. Aborting never alters the
    /// sample schedule of runs that do complete — the deadline poll
    /// sits between batches, exactly like the certification poll.
    DeadlineExceeded {
        /// Trials completed before the deadline fired.
        trials_used: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ZeroTrials => write!(f, "Monte Carlo requires at least one trial"),
            Error::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} outside valid range")
            }
            Error::Graph(e) => write!(f, "{e}"),
            Error::DeadlineExceeded { trials_used } => {
                write!(f, "deadline_exceeded after {trials_used} trials")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<biorank_graph::Error> for Error {
    fn from(e: biorank_graph::Error) -> Self {
        Error::Graph(e)
    }
}

/// The five methods of the paper's evaluation, with the configurations
/// used there: reliability via reduction+Monte Carlo, propagation and
/// diffusion in automatic mode.
///
/// `trials`/`seed` parameterize the reliability estimator.
pub fn paper_rankers(trials: u32, seed: u64) -> Vec<Box<dyn Ranker + Send + Sync>> {
    vec![
        Box::new(ReducedMc::new(trials, seed)),
        Box::new(Propagation::auto()),
        Box::new(Diffusion::auto()),
        Box::new(InEdge),
        Box::new(PathCount),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use biorank_graph::{Prob, ProbGraph, QueryGraph};

    #[test]
    fn paper_rankers_have_figure_names() {
        let rankers = paper_rankers(100, 1);
        let names: Vec<_> = rankers.iter().map(|r| r.name()).collect();
        assert_eq!(names, vec!["Rel(R&MC)", "Prop", "Diff", "InEdge", "PathC"]);
    }

    #[test]
    fn all_rankers_run_on_a_simple_graph() {
        let mut g = ProbGraph::new();
        let s = g.add_node(Prob::ONE);
        let t = g.add_node(Prob::new(0.9).unwrap());
        g.add_edge(s, t, Prob::HALF).unwrap();
        let q = QueryGraph::new(g, s, vec![t]).unwrap();
        for r in paper_rankers(500, 7) {
            let scores = r.score(&q).unwrap_or_else(|e| panic!("{}: {e}", r.name()));
            assert!(scores.get(t) > 0.0, "{} scored zero", r.name());
        }
    }

    #[test]
    fn error_display_and_source() {
        assert!(Error::ZeroTrials.to_string().contains("trial"));
        let e: Error = biorank_graph::Error::CycleDetected.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::InvalidParameter {
            name: "epsilon",
            value: 2.0,
        };
        assert!(e.to_string().contains("epsilon"));
    }
}
