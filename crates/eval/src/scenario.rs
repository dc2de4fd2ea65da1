//! The three evaluation scenarios of paper §4.
//!
//! 1. **Well-known functions for well-studied proteins** — the 20
//!    iProClass reference proteins; relevant = the 306 curated
//!    functions.
//! 2. **Less-known functions for well-studied proteins** — ABCC8, CFTR,
//!    EYA1; relevant = the 7 recently published functions of Table 2
//!    (well-known functions are *not* counted relevant here).
//! 3. **Unknown functions for less-studied proteins** — the 11
//!    hypothetical bacterial proteins of Table 3; relevant = the single
//!    expert-validated function each.
//!
//! A [`ScenarioCase`] bundles one protein's integrated query graph with
//! its scenario-specific relevance judgments.

use std::collections::BTreeSet;

use biorank_graph::NodeId;
use biorank_mediator::{ExploratoryQuery, IntegrationResult, Mediator};
use biorank_schema::biorank_schema_with_ontology;
use biorank_sources::{FunctionClass, GoTerm, ProteinKind, World};

use crate::Error;

/// The three scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// 306 well-known functions, 20 well-studied proteins.
    WellKnown,
    /// 7 less-known functions, 3 well-studied proteins.
    LessKnown,
    /// 11 unknown functions, 11 less-studied (hypothetical) proteins.
    Hypothetical,
}

impl Scenario {
    /// All scenarios in paper order.
    pub const ALL: [Scenario; 3] = [
        Scenario::WellKnown,
        Scenario::LessKnown,
        Scenario::Hypothetical,
    ];

    /// Figure caption, e.g. "Scenario 1".
    pub fn title(self) -> &'static str {
        match self {
            Scenario::WellKnown => "Scenario 1",
            Scenario::LessKnown => "Scenario 2",
            Scenario::Hypothetical => "Scenario 3",
        }
    }

    /// The function class counted as relevant.
    pub fn relevant_class(self) -> FunctionClass {
        match self {
            Scenario::WellKnown => FunctionClass::WellKnown,
            Scenario::LessKnown => FunctionClass::LessKnown,
            Scenario::Hypothetical => FunctionClass::Expert,
        }
    }
}

/// One protein's query graph plus relevance judgments.
#[derive(Clone, Debug)]
pub struct ScenarioCase {
    /// Protein symbol.
    pub protein: String,
    /// The integration result (query graph + record provenance).
    pub result: IntegrationResult,
    /// GO keys (e.g. `"GO:0008281"`) relevant in this scenario.
    pub relevant: BTreeSet<String>,
}

impl ScenarioCase {
    /// `true` when answer node `n` is relevant.
    pub fn is_relevant(&self, n: NodeId) -> bool {
        self.result
            .answer_key(n)
            .is_some_and(|k| self.relevant.contains(k))
    }

    /// Number of relevant answers (`k` in APrand).
    pub fn relevant_count(&self) -> usize {
        self.result
            .query
            .answers()
            .iter()
            .filter(|&&a| self.is_relevant(a))
            .count()
    }

    /// Total answers (`n` in APrand).
    pub fn answer_count(&self) -> usize {
        self.result.query.answers().len()
    }
}

/// Builds the cases of a scenario from a generated world.
pub fn build_cases(world: &World, scenario: Scenario) -> Result<Vec<ScenarioCase>, Error> {
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let wanted_kind = match scenario {
        Scenario::WellKnown => ProteinKind::WellStudied,
        Scenario::LessKnown => ProteinKind::WellStudied,
        Scenario::Hypothetical => ProteinKind::Hypothetical,
    };
    let relevant_class = scenario.relevant_class();
    let mut cases = Vec::new();
    for profile in &world.profiles {
        if profile.kind != wanted_kind {
            continue;
        }
        let relevant_terms: Vec<GoTerm> = profile.functions_of(relevant_class);
        if relevant_terms.is_empty() {
            continue; // e.g. scenario 2 skips the 17 proteins without
                      // newly published functions
        }
        let result = mediator.execute(&ExploratoryQuery::protein_functions(&profile.name))?;
        let relevant = relevant_terms.iter().map(|t| t.to_string()).collect();
        cases.push(ScenarioCase {
            protein: profile.name.clone(),
            result,
            relevant,
        });
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biorank_sources::WorldParams;

    fn world() -> World {
        World::generate(WorldParams::default())
    }

    #[test]
    fn scenario1_has_20_cases_306_relevant() {
        let cases = build_cases(&world(), Scenario::WellKnown).unwrap();
        assert_eq!(cases.len(), 20);
        let total: usize = cases.iter().map(|c| c.relevant_count()).sum();
        assert_eq!(total, 306);
        let answers: usize = cases.iter().map(|c| c.answer_count()).sum();
        assert_eq!(answers, 1037);
    }

    #[test]
    fn scenario2_has_3_cases_7_relevant() {
        let cases = build_cases(&world(), Scenario::LessKnown).unwrap();
        assert_eq!(cases.len(), 3);
        let proteins: Vec<_> = cases.iter().map(|c| c.protein.as_str()).collect();
        assert_eq!(proteins, vec!["ABCC8", "CFTR", "EYA1"]);
        let total: usize = cases.iter().map(|c| c.relevant_count()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn scenario3_has_11_cases_11_relevant() {
        let cases = build_cases(&world(), Scenario::Hypothetical).unwrap();
        assert_eq!(cases.len(), 11);
        let total: usize = cases.iter().map(|c| c.relevant_count()).sum();
        assert_eq!(total, 11);
        for c in &cases {
            assert_eq!(c.relevant_count(), 1, "{}", c.protein);
        }
    }

    #[test]
    fn relevance_is_class_specific() {
        // ABCC8's well-known functions are irrelevant in scenario 2.
        let w = world();
        let s2 = build_cases(&w, Scenario::LessKnown).unwrap();
        let abcc8 = &s2[0];
        assert_eq!(abcc8.protein, "ABCC8");
        assert_eq!(abcc8.relevant_count(), 3);
        assert!(abcc8.relevant.contains("GO:0006855"));
        assert!(
            !abcc8.relevant.contains("GO:0008281"),
            "well-known term must not be scenario-2 relevant"
        );
    }

    #[test]
    fn titles_and_classes() {
        assert_eq!(Scenario::WellKnown.title(), "Scenario 1");
        assert_eq!(
            Scenario::Hypothetical.relevant_class(),
            FunctionClass::Expert
        );
        assert_eq!(Scenario::ALL.len(), 3);
    }
}
