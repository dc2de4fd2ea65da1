//! # BioRank
//!
//! A from-scratch Rust reproduction of **"Integrating and Ranking
//! Uncertain Scientific Data"** (Detwiler, Gatterbauer, Louie, Suciu,
//! Tarczy-Hornoch; ICDE 2009 / UW-CSE-08-06-03).
//!
//! BioRank is a mediator-based data-integration system that models the
//! uncertainty of scientific data probabilistically and ranks query
//! answers by combined evidence. This crate is the facade over the
//! workspace:
//!
//! * [`graph`] — probabilistic entity/query graphs, reductions, exact
//!   reliability ([`biorank_graph`]).
//! * [`schema`] — the mediated E/R schema, cardinality algebra, Theorem
//!   3.2 reducibility, uncertainty metrics ([`biorank_schema`]).
//! * [`sources`] — the synthetic biological source substrate
//!   ([`biorank_sources`]).
//! * [`mediator`] — exploratory-query execution ([`biorank_mediator`]).
//! * [`rank`] — the five ranking semantics ([`biorank_rank`]).
//! * [`eval`] — average precision, scenarios, sensitivity analysis
//!   ([`biorank_eval`]).
//! * [`service`] — the concurrent query service: cached integration,
//!   batched scoring, multi-world tenancy with an admin control
//!   plane, TCP line protocol ([`biorank_service`]).
//!
//! ## Quick start
//!
//! ```
//! use biorank::prelude::*;
//!
//! // Generate a deterministic world and integrate one protein's
//! // evidence across all sources.
//! let world = World::generate(WorldParams::default());
//! let mediator = Mediator::new(
//!     biorank_schema_with_ontology().schema,
//!     world.registry(),
//! );
//! let result = mediator
//!     .execute(&ExploratoryQuery::protein_functions("GALT"))
//!     .expect("GALT integrates");
//!
//! // Rank its candidate functions by possible-worlds reliability.
//! let scores = ReducedMc::new(1_000, 42)
//!     .score(&result.query)
//!     .expect("reliability estimation");
//! let ranking = Ranking::rank(scores.answers(&result.query));
//! assert_eq!(ranking.len(), 15); // Table 1: GALT → 15 functions
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use biorank_eval as eval;
pub use biorank_graph as graph;
pub use biorank_mediator as mediator;
pub use biorank_rank as rank;
pub use biorank_schema as schema;
pub use biorank_service as service;
pub use biorank_sources as sources;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use biorank_eval::{
        average_precision, build_cases, evaluate, random_ap, random_baseline, Scenario,
        ScenarioCase,
    };
    pub use biorank_graph::{EdgeId, NodeId, Prob, ProbGraph, QueryGraph};
    pub use biorank_mediator::{ExploratoryQuery, IntegrationResult, Mediator};
    pub use biorank_rank::{
        ClosedReliability, Diffusion, InEdge, NaiveMc, PathCount, Propagation, Ranker, Ranking,
        ReducedMc, Scores, TraversalMc,
    };
    pub use biorank_schema::{
        biorank_schema, biorank_schema_with_ontology, Cardinality, EvidenceCode, Schema, StatusCode,
    };
    pub use biorank_sources::{
        FunctionClass, GoTerm, Link, Record, Registry, Source, World, WorldParams,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let p = Prob::new(0.5).expect("valid probability");
        assert_eq!(p.or(p).get(), 0.75);
        assert!(random_ap(1, 2).is_some());
    }

    /// Every repo-level `tests/*.rs` is a `[[test]]` of this package and
    /// every `examples/*.rs` an `[[example]]`: an unlisted file would
    /// silently never build or run.
    #[test]
    fn every_root_test_and_example_is_a_target() {
        let manifest = include_str!("../Cargo.toml");
        for (dir, table) in [("tests", "[[test]]"), ("examples", "[[example]]")] {
            let root = format!("{}/../../{dir}", env!("CARGO_MANIFEST_DIR"));
            for file in std::fs::read_dir(root).expect(dir) {
                let name = file.expect(dir).file_name().into_string().expect("utf-8");
                let Some(stem) = name.strip_suffix(".rs") else {
                    continue;
                };
                let entry = format!("{table}\nname = \"{stem}\"\npath = \"../../{dir}/{name}\"\n");
                assert!(manifest.contains(&entry), "Cargo.toml lacks:\n{entry}");
            }
        }
    }
}
