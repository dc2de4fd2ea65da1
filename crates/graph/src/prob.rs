//! A validated probability value in `[0, 1]`.
//!
//! The BioRank data model (paper §2) attaches a probability to every node
//! (`p = ps · pr`) and every edge (`q = qs · qr`) of the entity graph.
//! [`Prob`] makes the `[0, 1]` invariant part of the type so the ranking
//! algorithms never have to re-validate, and centralizes the two evidence
//! combinators used throughout the paper: independent conjunction
//! ([`Prob::and`], used by the serial-path reduction) and noisy-or
//! ([`Prob::or`], used by the parallel-path reduction and the propagation
//! semantics).

use std::fmt;
use std::ops::Mul;

use crate::Error;

/// A probability, guaranteed to be a finite `f64` in `[0, 1]`.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Prob(f64);

impl Prob {
    /// The impossible event.
    pub const ZERO: Prob = Prob(0.0);
    /// The certain event.
    pub const ONE: Prob = Prob(1.0);
    /// A fair coin.
    pub const HALF: Prob = Prob(0.5);

    /// Creates a probability, rejecting values outside `[0, 1]` and NaN.
    pub fn new(v: f64) -> Result<Self, Error> {
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Ok(Prob(v))
        } else {
            Err(Error::InvalidProbability(v))
        }
    }

    /// Creates a probability by clamping into `[0, 1]`.
    ///
    /// NaN clamps to 0. Use this for values produced by numeric
    /// transformations (e-value scaling, log-odds perturbation) where tiny
    /// excursions outside the unit interval are expected and benign.
    pub fn clamped(v: f64) -> Self {
        if v.is_nan() {
            Prob(0.0)
        } else {
            Prob(v.clamp(0.0, 1.0))
        }
    }

    /// Returns the inner value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Independent conjunction: `P(A ∧ B) = P(A)·P(B)`.
    #[inline]
    #[must_use]
    pub fn and(self, other: Prob) -> Prob {
        Prob(self.0 * other.0)
    }

    /// Noisy-or (independent disjunction): `1 − (1−a)(1−b)`.
    #[inline]
    #[must_use]
    pub fn or(self, other: Prob) -> Prob {
        // Computed in complement space for numerical stability near 1.
        Prob(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }

    /// The complement `1 − p`.
    #[inline]
    #[must_use]
    pub fn complement(self) -> Prob {
        Prob(1.0 - self.0)
    }

    /// `true` when this probability is exactly 1.
    #[inline]
    pub fn is_one(self) -> bool {
        self.0 == 1.0
    }

    /// `true` when this probability is exactly 0.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Noisy-or over an iterator of probabilities.
    ///
    /// Returns [`Prob::ZERO`] for an empty iterator (no evidence at all).
    pub fn any<I: IntoIterator<Item = Prob>>(probs: I) -> Prob {
        let mut fail_all = 1.0f64;
        for p in probs {
            fail_all *= 1.0 - p.0;
        }
        Prob(1.0 - fail_all)
    }

    /// Product over an iterator of probabilities.
    ///
    /// Returns [`Prob::ONE`] for an empty iterator.
    pub fn all<I: IntoIterator<Item = Prob>>(probs: I) -> Prob {
        let mut acc = 1.0f64;
        for p in probs {
            acc *= p.0;
        }
        Prob(acc)
    }
}

impl Mul for Prob {
    type Output = Prob;
    fn mul(self, rhs: Prob) -> Prob {
        self.and(rhs)
    }
}

impl TryFrom<f64> for Prob {
    type Error = Error;
    fn try_from(v: f64) -> Result<Self, Error> {
        Prob::new(v)
    }
}

impl From<Prob> for f64 {
    fn from(p: Prob) -> f64 {
        p.0
    }
}

impl fmt::Debug for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}", prec, self.0)
        } else {
            write!(f, "{:.4}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert_eq!(Prob::new(0.0).unwrap().get(), 0.0);
        assert_eq!(Prob::new(1.0).unwrap().get(), 1.0);
        assert_eq!(Prob::new(0.37).unwrap().get(), 0.37);
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Prob::new(-0.001).is_err());
        assert!(Prob::new(1.001).is_err());
        assert!(Prob::new(f64::NAN).is_err());
        assert!(Prob::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Prob::clamped(-3.0).get(), 0.0);
        assert_eq!(Prob::clamped(42.0).get(), 1.0);
        assert_eq!(Prob::clamped(f64::NAN).get(), 0.0);
        assert_eq!(Prob::clamped(0.25).get(), 0.25);
    }

    #[test]
    fn and_is_product() {
        let p = Prob::new(0.5).unwrap().and(Prob::new(0.4).unwrap());
        assert!((p.get() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn or_is_noisy_or() {
        let p = Prob::HALF.or(Prob::HALF);
        assert!((p.get() - 0.75).abs() < 1e-12);
        assert_eq!(Prob::ZERO.or(Prob::ONE).get(), 1.0);
    }

    #[test]
    fn any_and_all_handle_empty() {
        assert_eq!(Prob::any(std::iter::empty()).get(), 0.0);
        assert_eq!(Prob::all(std::iter::empty()).get(), 1.0);
    }

    #[test]
    fn any_combines_three() {
        let p = Prob::any([0.5, 0.5, 0.5].map(|v| Prob::new(v).unwrap()));
        assert!((p.get() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn display_uses_requested_precision() {
        let p = Prob::new(0.123456).unwrap();
        assert_eq!(format!("{p:.2}"), "0.12");
        assert_eq!(format!("{p}"), "0.1235");
    }

    #[test]
    fn mul_operator_matches_and() {
        let a = Prob::new(0.3).unwrap();
        let b = Prob::new(0.7).unwrap();
        assert_eq!((a * b).get(), a.and(b).get());
    }
}
