//! Transforming uncertainties into probabilities (paper §2).
//!
//! BioRank populates four probabilistic metrics: per-set confidences `ps`
//! (entity sets) and `qs` (relationships) — carried on the schema — and
//! per-record transformation functions `pr(a1, a2, …)` and `qr(b1, b2, …)`
//! implemented here:
//!
//! * curated **status codes** (EntrezGene) and GO **evidence codes**
//!   (AmiGO) map through the expert-elicited tables reproduced verbatim
//!   from §2;
//! * BLAST **e-values** map through `qr = −(1/300)·ln(e-value)`, clamped
//!   to `[0, 1]`;
//! * foreign-key cross-references get `qr = 1`.
//!
//! The node and edge probabilities of the entity graph are then
//! `p(i) = ps(i)·pr(i)` and `q(i,j) = qs(i,j)·qr(i,j)`.

use std::fmt;
use std::str::FromStr;

use biorank_graph::Prob;
/// EntrezGene curation status codes, ordered from most to least reliable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum StatusCode {
    Reviewed,
    Validated,
    Provisional,
    Predicted,
    Model,
    Inferred,
}

impl StatusCode {
    /// All status codes, most reliable first.
    pub const ALL: [StatusCode; 6] = [
        StatusCode::Reviewed,
        StatusCode::Validated,
        StatusCode::Provisional,
        StatusCode::Predicted,
        StatusCode::Model,
        StatusCode::Inferred,
    ];

    /// The expert-elicited `pr` value (paper §2, EntrezGene table).
    pub fn pr(self) -> Prob {
        let v = match self {
            StatusCode::Reviewed => 1.0,
            StatusCode::Validated => 0.8,
            StatusCode::Provisional => 0.7,
            StatusCode::Predicted => 0.4,
            StatusCode::Model => 0.3,
            StatusCode::Inferred => 0.2,
        };
        Prob::new(v).expect("table values are valid probabilities")
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StatusCode::Reviewed => "Reviewed",
            StatusCode::Validated => "Validated",
            StatusCode::Provisional => "Provisional",
            StatusCode::Predicted => "Predicted",
            StatusCode::Model => "Model",
            StatusCode::Inferred => "Inferred",
        };
        f.write_str(s)
    }
}

impl FromStr for StatusCode {
    type Err = UnknownCode;
    fn from_str(s: &str) -> Result<Self, UnknownCode> {
        match s {
            "Reviewed" => Ok(StatusCode::Reviewed),
            "Validated" => Ok(StatusCode::Validated),
            "Provisional" => Ok(StatusCode::Provisional),
            "Predicted" => Ok(StatusCode::Predicted),
            "Model" => Ok(StatusCode::Model),
            "Inferred" => Ok(StatusCode::Inferred),
            other => Err(UnknownCode(other.to_string())),
        }
    }
}

/// Gene Ontology evidence codes used by AmiGO annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum EvidenceCode {
    /// Inferred from Direct Assay — "very reliable".
    Ida,
    /// Traceable Author Statement.
    Tas,
    /// Inferred from Genetic Interaction.
    Igi,
    /// Inferred from Mutant Phenotype.
    Imp,
    /// Inferred from Physical Interaction.
    Ipi,
    /// Inferred from Expression Pattern.
    Iep,
    /// Inferred from Sequence or Structural Similarity.
    Iss,
    /// Inferred from Reviewed Computational Analysis.
    Rca,
    /// Inferred by Curator.
    Ic,
    /// Non-traceable Author Statement.
    Nas,
    /// Inferred from Electronic Annotation — "less reliable".
    Iea,
    /// No biological Data available.
    Nd,
    /// Not Recorded.
    Nr,
}

impl EvidenceCode {
    /// All evidence codes, roughly most reliable first.
    pub const ALL: [EvidenceCode; 13] = [
        EvidenceCode::Ida,
        EvidenceCode::Tas,
        EvidenceCode::Igi,
        EvidenceCode::Imp,
        EvidenceCode::Ipi,
        EvidenceCode::Iep,
        EvidenceCode::Iss,
        EvidenceCode::Rca,
        EvidenceCode::Ic,
        EvidenceCode::Nas,
        EvidenceCode::Iea,
        EvidenceCode::Nd,
        EvidenceCode::Nr,
    ];

    /// The expert-elicited `pr` value (paper §2, AmiGO table).
    pub fn pr(self) -> Prob {
        use EvidenceCode::*;
        let v = match self {
            Ida | Tas => 1.0,
            Igi | Imp | Ipi => 0.9,
            Iep | Iss | Rca => 0.7,
            Ic => 0.6,
            Nas => 0.5,
            Iea => 0.3,
            Nd | Nr => 0.2,
        };
        Prob::new(v).expect("table values are valid probabilities")
    }
}

impl fmt::Display for EvidenceCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EvidenceCode::*;
        let s = match self {
            Ida => "IDA",
            Tas => "TAS",
            Igi => "IGI",
            Imp => "IMP",
            Ipi => "IPI",
            Iep => "IEP",
            Iss => "ISS",
            Rca => "RCA",
            Ic => "IC",
            Nas => "NAS",
            Iea => "IEA",
            Nd => "ND",
            Nr => "NR",
        };
        f.write_str(s)
    }
}

impl FromStr for EvidenceCode {
    type Err = UnknownCode;
    fn from_str(s: &str) -> Result<Self, UnknownCode> {
        use EvidenceCode::*;
        match s {
            "IDA" => Ok(Ida),
            "TAS" => Ok(Tas),
            "IGI" => Ok(Igi),
            "IMP" => Ok(Imp),
            "IPI" => Ok(Ipi),
            "IEP" => Ok(Iep),
            "ISS" => Ok(Iss),
            "RCA" => Ok(Rca),
            "IC" => Ok(Ic),
            "NAS" => Ok(Nas),
            "IEA" => Ok(Iea),
            "ND" => Ok(Nd),
            "NR" => Ok(Nr),
            other => Err(UnknownCode(other.to_string())),
        }
    }
}

/// Error for unknown status/evidence code strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCode(pub String);

impl fmt::Display for UnknownCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown code {:?}", self.0)
    }
}

impl std::error::Error for UnknownCode {}

/// Transforms a BLAST/HMM e-value into an edge record probability:
/// `qr = −(1/300)·ln(e-value)`, clamped into `[0, 1]` (paper §2).
///
/// Smaller e-values mean stronger matches: `1e-130` maps to ≈1.0,
/// `1e-13` to ≈0.1, and anything ≥ 1 to 0. Non-finite or non-positive
/// inputs map to 0 (no evidence).
pub fn evalue_to_prob(e_value: f64) -> Prob {
    if !e_value.is_finite() || e_value <= 0.0 {
        // A mathematically zero e-value means a perfect match.
        return if e_value == 0.0 {
            Prob::ONE
        } else {
            Prob::ZERO
        };
    }
    // `.max(0.0)` also normalizes the negative zero of −ln(1)/300.
    Prob::clamped((-e_value.ln() / 300.0).max(0.0))
}

/// Inverse of [`evalue_to_prob`] on its non-saturated range, used by the
/// synthetic sources to emit e-values that will transform to a desired
/// probability.
pub fn prob_to_evalue(p: Prob) -> f64 {
    (-300.0 * p.get()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_code_table_matches_paper() {
        assert_eq!(StatusCode::Reviewed.pr().get(), 1.0);
        assert_eq!(StatusCode::Validated.pr().get(), 0.8);
        assert_eq!(StatusCode::Provisional.pr().get(), 0.7);
        assert_eq!(StatusCode::Predicted.pr().get(), 0.4);
        assert_eq!(StatusCode::Model.pr().get(), 0.3);
        assert_eq!(StatusCode::Inferred.pr().get(), 0.2);
    }

    #[test]
    fn evidence_code_table_matches_paper() {
        assert_eq!(EvidenceCode::Ida.pr().get(), 1.0);
        assert_eq!(EvidenceCode::Tas.pr().get(), 1.0);
        assert_eq!(EvidenceCode::Igi.pr().get(), 0.9);
        assert_eq!(EvidenceCode::Imp.pr().get(), 0.9);
        assert_eq!(EvidenceCode::Ipi.pr().get(), 0.9);
        assert_eq!(EvidenceCode::Iep.pr().get(), 0.7);
        assert_eq!(EvidenceCode::Iss.pr().get(), 0.7);
        assert_eq!(EvidenceCode::Rca.pr().get(), 0.7);
        assert_eq!(EvidenceCode::Ic.pr().get(), 0.6);
        assert_eq!(EvidenceCode::Nas.pr().get(), 0.5);
        assert_eq!(EvidenceCode::Iea.pr().get(), 0.3);
        assert_eq!(EvidenceCode::Nd.pr().get(), 0.2);
        assert_eq!(EvidenceCode::Nr.pr().get(), 0.2);
    }

    #[test]
    fn codes_round_trip_through_strings() {
        for c in StatusCode::ALL {
            assert_eq!(c.to_string().parse::<StatusCode>().unwrap(), c);
        }
        for c in EvidenceCode::ALL {
            assert_eq!(c.to_string().parse::<EvidenceCode>().unwrap(), c);
        }
        assert!("garbage".parse::<StatusCode>().is_err());
        assert!("garbage".parse::<EvidenceCode>().is_err());
    }

    #[test]
    fn status_codes_are_monotone_decreasing() {
        let prs: Vec<f64> = StatusCode::ALL.iter().map(|c| c.pr().get()).collect();
        assert!(prs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn evalue_transform_basics() {
        // e = 1 ⇒ ln 1 = 0 ⇒ qr = 0
        assert_eq!(evalue_to_prob(1.0).get(), 0.0);
        // e ≥ 1 saturates at 0
        assert_eq!(evalue_to_prob(10.0).get(), 0.0);
        // e = 1e-300 ⇒ qr ≈ ln(1e300)/300 = 2.302... clamped to 1
        assert_eq!(evalue_to_prob(1e-300).get(), 1.0);
        // exact zero = perfect match
        assert_eq!(evalue_to_prob(0.0).get(), 1.0);
        // negative / NaN = no evidence
        assert_eq!(evalue_to_prob(-1.0).get(), 0.0);
        assert_eq!(evalue_to_prob(f64::NAN).get(), 0.0);
    }

    #[test]
    fn evalue_transform_midrange() {
        // e = 1e-65 ⇒ qr = 65·ln(10)/300 ≈ 0.499
        let p = evalue_to_prob(1e-65).get();
        assert!((p - 65.0 * std::f64::consts::LN_10 / 300.0).abs() < 1e-12);
        assert!(p > 0.49 && p < 0.51);
    }

    #[test]
    fn evalue_transform_is_monotone() {
        let evs = [1e-200, 1e-100, 1e-50, 1e-10, 1e-3, 0.5, 1.0];
        let ps: Vec<f64> = evs.iter().map(|&e| evalue_to_prob(e).get()).collect();
        assert!(ps.windows(2).all(|w| w[0] >= w[1]), "{ps:?}");
    }

    #[test]
    fn prob_to_evalue_round_trips() {
        for v in [0.1, 0.35, 0.5, 0.77, 0.95] {
            let p = Prob::new(v).unwrap();
            let e = prob_to_evalue(p);
            let back = evalue_to_prob(e).get();
            assert!((back - v).abs() < 1e-9, "{v} → {e} → {back}");
        }
    }
}
