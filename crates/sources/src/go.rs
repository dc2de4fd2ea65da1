//! A synthetic Gene Ontology universe.
//!
//! The Gene Ontology is "a shared vocabulary of biological functions"
//! (paper §1) — the common currency that lets BioRank link annotations
//! across sources. The ranking algorithms only need GO terms as opaque,
//! stable identifiers with display names; this module generates a
//! deterministic universe of them, seeding it with the specific terms the
//! paper mentions (Tables 2–3 and the ABCC8 example) so experiment output
//! matches the paper's text.

use std::collections::BTreeMap;
use std::fmt;

/// A GO term identifier, e.g. `GO:0008281`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GoTerm(pub u32);

impl fmt::Display for GoTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GO:{:07}", self.0)
    }
}

impl GoTerm {
    /// Parses `GO:0008281`-style strings.
    pub fn parse(s: &str) -> Option<GoTerm> {
        let digits = s.strip_prefix("GO:")?;
        digits.parse::<u32>().ok().map(GoTerm)
    }
}

/// The set of GO terms known to a generated world, with display names.
#[derive(Clone, Debug, Default)]
pub struct GoUniverse {
    names: BTreeMap<GoTerm, String>,
}

/// GO terms named in the paper, used verbatim by the experiments.
///
/// The first five are the ABCC8 example ranking of §2; the next are the
/// scenario-2 (Table 2) and scenario-3 (Table 3) functions.
pub const PAPER_TERMS: &[(u32, &str)] = &[
    (8281, "sulphonylurea receptor activity"),
    (6813, "potassium ion conductance"),
    (5524, "interacting selectively with ATP"),
    (5886, "cytoplasmic membrane"),
    (5215, "small-molecule carrier or transporter"),
    // Table 2 — less-known functions found via PubMed.
    (6855, "multidrug transport"),
    (15559, "multidrug efflux pump activity"),
    (42493, "response to drug"),
    (30321, "transepithelial chloride transport"),
    (7501, "mesodermal cell fate specification"),
    (42472, "inner ear morphogenesis"),
    // Table 3 — hypothetical protein functions.
    (3973, "(S)-2-hydroxy-acid oxidase activity"),
    (19175, "aminopeptidase activity"),
    (16226, "iron-sulfur cluster assembly"),
    (50518, "glycerol-3-phosphate cytidylyltransferase activity"),
    (19143, "3-deoxy-manno-octulosonate-8-phosphatase activity"),
    (4729, "oxygen-dependent protoporphyrinogen oxidase activity"),
    (8990, "rRNA (guanine-N2-)-methyltransferase activity"),
    (47632, "agmatine deiminase activity"),
    (3951, "NAD+ kinase activity"),
    (4017, "adenylate kinase activity"),
];

/// Vocabulary for synthesizing plausible names for generated terms.
const NOUNS: &[&str] = &[
    "kinase",
    "transporter",
    "receptor",
    "oxidase",
    "reductase",
    "ligase",
    "hydrolase",
    "transferase",
    "isomerase",
    "binding",
    "channel",
    "polymerase",
    "protease",
    "phosphatase",
    "synthase",
    "dehydrogenase",
];
const QUALIFIERS: &[&str] = &[
    "ATP-dependent",
    "membrane",
    "cytoplasmic",
    "nuclear",
    "mitochondrial",
    "zinc ion",
    "calcium ion",
    "potassium ion",
    "amino acid",
    "lipid",
    "carbohydrate",
    "nucleotide",
    "iron-sulfur",
    "heme",
    "RNA",
    "DNA",
];

impl GoUniverse {
    /// Builds a universe containing the paper's named terms plus
    /// `extra_terms` generated ones (deterministic in the count).
    pub fn with_terms(extra_terms: usize) -> GoUniverse {
        let mut names = BTreeMap::new();
        for &(id, name) in PAPER_TERMS {
            names.insert(GoTerm(id), name.to_string());
        }
        // Generated terms get ids well above the paper's range so the
        // two can never collide.
        let mut next = 100_000u32;
        for i in 0..extra_terms {
            let q = QUALIFIERS[i % QUALIFIERS.len()];
            let n = NOUNS[(i / QUALIFIERS.len()) % NOUNS.len()];
            let term = GoTerm(next);
            names.insert(term, format!("{q} {n} activity #{i}"));
            next += 7; // arbitrary stride, keeps ids non-contiguous
        }
        GoUniverse { names }
    }

    /// Number of terms in the universe.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the universe has no terms.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Display name of a term, if known.
    pub fn name(&self, t: GoTerm) -> Option<&str> {
        self.names.get(&t).map(String::as_str)
    }

    /// `true` when the term exists in this universe.
    pub fn contains(&self, t: GoTerm) -> bool {
        self.names.contains_key(&t)
    }

    /// All terms in ascending id order.
    pub fn terms(&self) -> impl Iterator<Item = GoTerm> + '_ {
        self.names.keys().copied()
    }

    /// The generated (non-paper) terms, used as the noise pool.
    pub fn generated_terms(&self) -> impl Iterator<Item = GoTerm> + '_ {
        self.names.keys().copied().filter(|t| t.0 >= 100_000)
    }

    /// Registers an additional named term (idempotent for equal names).
    pub fn insert(&mut self, t: GoTerm, name: impl Into<String>) {
        self.names.entry(t).or_insert_with(|| name.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_pads_to_seven_digits() {
        assert_eq!(GoTerm(8281).to_string(), "GO:0008281");
        assert_eq!(GoTerm(5524).to_string(), "GO:0005524");
    }

    #[test]
    fn parse_round_trips() {
        let t = GoTerm(42493);
        assert_eq!(GoTerm::parse(&t.to_string()), Some(t));
        assert_eq!(GoTerm::parse("GO:0008281"), Some(GoTerm(8281)));
        assert_eq!(GoTerm::parse("nope"), None);
        assert_eq!(GoTerm::parse("GO:x"), None);
    }

    #[test]
    fn universe_contains_paper_terms() {
        let u = GoUniverse::with_terms(100);
        assert!(u.contains(GoTerm(8281)));
        assert_eq!(
            u.name(GoTerm(8281)),
            Some("sulphonylurea receptor activity")
        );
        assert_eq!(u.len(), PAPER_TERMS.len() + 100);
    }

    #[test]
    fn generated_terms_are_disjoint_from_paper_terms() {
        let u = GoUniverse::with_terms(50);
        let generated: Vec<_> = u.generated_terms().collect();
        assert_eq!(generated.len(), 50);
        for t in generated {
            assert!(t.0 >= 100_000);
            assert!(u.name(t).is_some());
        }
    }

    #[test]
    fn with_terms_is_deterministic() {
        let a = GoUniverse::with_terms(30);
        let b = GoUniverse::with_terms(30);
        assert_eq!(a.terms().collect::<Vec<_>>(), b.terms().collect::<Vec<_>>());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut u = GoUniverse::with_terms(0);
        u.insert(GoTerm(99), "first");
        u.insert(GoTerm(99), "second");
        assert_eq!(u.name(GoTerm(99)), Some("first"));
    }
}
