//! Relationship cardinalities and their composition algebra (paper §3.1(3)).
//!
//! Theorem 3.2 characterizes reducible E/R schemas through compositions
//! of relationship types: `[1:n] ∘ [1:n] = [1:n]` and `[n:1] ∘ [n:1] =
//! [n:1]` always hold, while `[1:n] ∘ [n:1]` "can be either of [m:n],
//! [n:1], or [1:n], but with domain knowledge we can often determine the
//! type of the composed relationship". [`Cardinality::compose`] encodes
//! the unconditional rules; ambiguous cases return
//! [`Composition::NeedsDomainKnowledge`] and are resolved by the hints
//! mechanism in [`crate::reducible`].

use std::fmt;

/// The cardinality type of a binary relationship between entity sets.
///
/// The paper folds `[1:1]` "into one of the latter two" (`[1:n]` or
/// `[n:1]`); we keep it distinct because it composes losslessly on both
/// sides, and fold it only where the theorem requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cardinality {
    /// Every left record relates to at most one right record and vice
    /// versa (a key–key cross-reference).
    OneToOne,
    /// One left record fans out to many right records.
    OneToMany,
    /// Many left records converge on one right record.
    ManyToOne,
    /// Unrestricted.
    ManyToMany,
}

/// Result of composing two cardinalities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Composition {
    /// The composition is always of this type, no domain knowledge needed.
    Always(Cardinality),
    /// `[1:n] ∘ [n:1]`: could be `[1:n]`, `[n:1]` or `[m:n]` depending on
    /// the data; a domain-knowledge hint must disambiguate.
    NeedsDomainKnowledge,
}

impl Cardinality {
    /// Composes `self ∘ other` (self's right side joins other's left).
    ///
    /// Unconditional rules:
    /// * `1:1` is the identity on either side.
    /// * `[1:n] ∘ [1:n] = [1:n]`, `[n:1] ∘ [n:1] = [n:1]`.
    /// * `[n:1] ∘ [1:n]` and anything involving `[m:n]` is `[m:n]`
    ///   (fanning in then out, or unrestricted, loses all constraints).
    /// * `[1:n] ∘ [n:1]` is ambiguous.
    pub fn compose(self, other: Cardinality) -> Composition {
        use Cardinality::*;
        match (self, other) {
            (OneToOne, x) | (x, OneToOne) => Composition::Always(x),
            (OneToMany, OneToMany) => Composition::Always(OneToMany),
            (ManyToOne, ManyToOne) => Composition::Always(ManyToOne),
            (OneToMany, ManyToOne) => Composition::NeedsDomainKnowledge,
            (ManyToOne, OneToMany) => Composition::Always(ManyToMany),
            (ManyToMany, _) | (_, ManyToMany) => Composition::Always(ManyToMany),
        }
    }

    /// The cardinality of the relationship read right-to-left.
    #[must_use]
    pub fn reversed(self) -> Cardinality {
        use Cardinality::*;
        match self {
            OneToMany => ManyToOne,
            ManyToOne => OneToMany,
            x => x,
        }
    }

    /// `true` for the "functional towards the right" types `[n:1]`/`[1:1]`
    /// (each left record has at most one right partner).
    pub fn is_functional(self) -> bool {
        matches!(self, Cardinality::ManyToOne | Cardinality::OneToOne)
    }

    /// Folds `[1:1]` into `[n:1]` as the theorem statement allows.
    #[must_use]
    pub fn folded(self) -> Cardinality {
        match self {
            Cardinality::OneToOne => Cardinality::ManyToOne,
            x => x,
        }
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cardinality::OneToOne => "[1:1]",
            Cardinality::OneToMany => "[1:n]",
            Cardinality::ManyToOne => "[n:1]",
            Cardinality::ManyToMany => "[m:n]",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Cardinality::*;

    #[test]
    fn one_to_one_is_identity() {
        for x in [OneToOne, OneToMany, ManyToOne, ManyToMany] {
            assert_eq!(OneToOne.compose(x), Composition::Always(x));
            assert_eq!(x.compose(OneToOne), Composition::Always(x));
        }
    }

    #[test]
    fn paper_composition_rules() {
        // [1:n] ∘ [1:n] = [1:n]
        assert_eq!(OneToMany.compose(OneToMany), Composition::Always(OneToMany));
        // [n:1] ∘ [n:1] = [n:1]
        assert_eq!(ManyToOne.compose(ManyToOne), Composition::Always(ManyToOne));
        // [1:n] ∘ [n:1] is ambiguous
        assert_eq!(
            OneToMany.compose(ManyToOne),
            Composition::NeedsDomainKnowledge
        );
    }

    #[test]
    fn fan_in_then_out_is_many_to_many() {
        assert_eq!(
            ManyToOne.compose(OneToMany),
            Composition::Always(ManyToMany)
        );
    }

    #[test]
    fn many_to_many_absorbs() {
        for x in [OneToMany, ManyToOne, ManyToMany] {
            assert_eq!(ManyToMany.compose(x), Composition::Always(ManyToMany));
            assert_eq!(x.compose(ManyToMany), Composition::Always(ManyToMany));
        }
    }

    #[test]
    fn reversed_swaps_direction() {
        assert_eq!(OneToMany.reversed(), ManyToOne);
        assert_eq!(ManyToOne.reversed(), OneToMany);
        assert_eq!(OneToOne.reversed(), OneToOne);
        assert_eq!(ManyToMany.reversed(), ManyToMany);
    }

    #[test]
    fn functional_classification() {
        assert!(ManyToOne.is_functional());
        assert!(OneToOne.is_functional());
        assert!(!OneToMany.is_functional());
        assert!(!ManyToMany.is_functional());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(OneToMany.to_string(), "[1:n]");
        assert_eq!(ManyToMany.to_string(), "[m:n]");
    }

    #[test]
    fn folding_collapses_one_to_one_only() {
        assert_eq!(OneToOne.folded(), ManyToOne);
        assert_eq!(OneToMany.folded(), OneToMany);
    }
}
