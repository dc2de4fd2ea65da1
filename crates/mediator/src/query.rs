//! The exploratory query type (paper Definition 2.2).

/// An exploratory query `(P.attr = "value", {P1, …, Pn})`.
///
/// BioRank's query interface replaced conjunctive queries because
/// "biologists were not using such an interface effectively" — they
/// needed exploration, not retrieval (§2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExploratoryQuery {
    /// The input entity set `P`.
    pub input: String,
    /// The matched attribute (`P.attr`); informational — sources match
    /// on their search attribute.
    pub attribute: String,
    /// The keyword value.
    pub value: String,
    /// The output entity sets `{P1, …, Pn}`.
    pub outputs: Vec<String>,
}

impl ExploratoryQuery {
    /// Builds a query.
    pub fn new(
        input: impl Into<String>,
        attribute: impl Into<String>,
        value: impl Into<String>,
        outputs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ExploratoryQuery {
            input: input.into(),
            attribute: attribute.into(),
            value: value.into(),
            outputs: outputs.into_iter().map(Into::into).collect(),
        }
    }

    /// The paper's running example:
    /// `(EntrezProtein.name = "<protein>", AmiGO)`.
    pub fn protein_functions(protein: &str) -> Self {
        ExploratoryQuery::new("EntrezProtein", "name", protein, ["AmiGO"])
    }

    /// `true` when `entity_set` is one of the query's outputs.
    pub fn is_output(&self, entity_set: &str) -> bool {
        self.outputs.iter().any(|o| o == entity_set)
    }
}

impl std::fmt::Display for ExploratoryQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}.{} = {:?}, {{{}}})",
            self.input,
            self.attribute,
            self.value,
            self.outputs.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protein_functions_matches_paper_example() {
        let q = ExploratoryQuery::protein_functions("ABCC8");
        assert_eq!(q.input, "EntrezProtein");
        assert_eq!(q.attribute, "name");
        assert_eq!(q.value, "ABCC8");
        assert!(q.is_output("AmiGO"));
        assert!(!q.is_output("Pfam"));
        assert_eq!(q.to_string(), "(EntrezProtein.name = \"ABCC8\", {AmiGO})");
    }

    #[test]
    fn multiple_outputs() {
        let q = ExploratoryQuery::new("A", "x", "v", ["B", "C"]);
        assert!(q.is_output("B") && q.is_output("C"));
    }
}
