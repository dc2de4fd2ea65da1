//! The generative evidence model behind the synthetic world.
//!
//! The paper's central empirical observation (Fig. 9) is a *structural*
//! difference in how true facts are evidenced:
//!
//! * **well-known** functions are supported by many redundant paths of
//!   medium strength ("commonly, many different ways lead to the same
//!   well-known conclusion");
//! * **less-known** functions — recent discoveries not yet propagated
//!   into curated databases — have "a small number of supporting
//!   evidence with high confidence score";
//! * **noise** candidates (wrong functions dragged in by imprecise
//!   similarity matching) have one to a few weak paths, with a small
//!   fraction of *strong noise* (spuriously strong similarity hits);
//! * **hypothetical-protein** functions (scenario 3) sit in sparse
//!   graphs where only evidence strength can discriminate.
//!
//! [`EvidenceModel`] encodes those four regimes as per-class profiles:
//! path-count range, path-strength range, and a mix over the four
//! mechanical path kinds of the Fig. 1 schema. The defaults were tuned
//! so the regenerated Figs. 5–6 match the paper's *shape* (method
//! ordering and approximate gaps), not its absolute decimals — the
//! `fig5` experiment binary's docs list the paper's values and the
//! binary prints the regenerated ones.

use biorank_schema::{EvidenceCode, StatusCode};
use rand::rngs::StdRng;
use rand::Rng;

/// Truth status of a candidate function for a protein.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FunctionClass {
    /// Curated in iProClass — the scenario-1 relevant set.
    WellKnown,
    /// True, recently published, not yet curated — scenario 2.
    LessKnown,
    /// True function of a hypothetical protein, expert-validated —
    /// scenario 3.
    Expert,
    /// An incorrect candidate pulled in by noisy integration.
    Noise,
}

/// The mechanical realization of one evidence path (Fig. 1 schema).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// The protein's own EntrezGene record annotates the function
    /// (reached via the perfect self-BLAST hit): query → protein →
    /// blast(self) → gene → GO.
    GeneDirect,
    /// A Pfam family hit annotates the function: query → protein →
    /// family → GO (short path).
    Pfam,
    /// A TIGRFAM family hit (short path, HMM confidence).
    TigrFam,
    /// A BLAST neighbor's gene annotates the function (long path):
    /// query → protein → hit → gene → GO.
    BlastNeighbor,
}

/// Mixing weights over [`PathKind`]s.
#[derive(Clone, Copy, Debug)]
pub struct KindWeights {
    /// Weight of [`PathKind::GeneDirect`].
    pub gene_direct: f64,
    /// Weight of [`PathKind::Pfam`].
    pub pfam: f64,
    /// Weight of [`PathKind::TigrFam`].
    pub tigrfam: f64,
    /// Weight of [`PathKind::BlastNeighbor`].
    pub blast: f64,
}

impl KindWeights {
    /// Samples a path kind proportionally to the weights.
    pub fn sample(&self, rng: &mut StdRng) -> PathKind {
        let total = self.gene_direct + self.pfam + self.tigrfam + self.blast;
        debug_assert!(total > 0.0, "kind weights must not all be zero");
        let mut x = rng.gen::<f64>() * total;
        x -= self.gene_direct;
        if x < 0.0 {
            return PathKind::GeneDirect;
        }
        x -= self.pfam;
        if x < 0.0 {
            return PathKind::Pfam;
        }
        x -= self.tigrfam;
        if x < 0.0 {
            return PathKind::TigrFam;
        }
        PathKind::BlastNeighbor
    }
}

/// Evidence profile of one function class.
#[derive(Clone, Debug)]
pub struct ClassProfile {
    /// Inclusive range of independent evidence paths per function.
    pub paths: (usize, usize),
    /// Range of per-path strength (the probability the e-value / match
    /// quality transforms to).
    pub strength: (f64, f64),
    /// Path-kind mix.
    pub kinds: KindWeights,
    /// Status codes for BLAST-neighbor gene records carrying this class.
    pub neighbor_statuses: Vec<StatusCode>,
    /// Evidence codes for the AmiGO annotation of this class.
    pub evidence_codes: Vec<EvidenceCode>,
    /// Probability of reusing an existing strength-compatible carrier
    /// (family / BLAST neighbor) instead of minting a new one. High
    /// reuse creates shared-evidence structure — the correlation that
    /// separates reliability from propagation.
    pub reuse: f64,
    /// Probability that a BLAST path lands on a *second alignment* to a
    /// neighbor gene that already annotates the function. The two hits
    /// then share the gene node — parallel paths with a common uncertain
    /// segment, which propagation double-counts but reliability does
    /// not (the Fig. 4a phenomenon inside real query graphs).
    pub double_hit: f64,
}

impl ClassProfile {
    /// Draws a path count from the profile's range.
    pub fn draw_paths(&self, rng: &mut StdRng) -> usize {
        let (lo, hi) = self.paths;
        if lo >= hi {
            lo
        } else {
            rng.gen_range(lo..=hi)
        }
    }

    /// Draws a path strength from the profile's range.
    pub fn draw_strength(&self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = self.strength;
        if lo >= hi {
            lo
        } else {
            rng.gen_range(lo..hi)
        }
    }

    /// Draws a neighbor status code.
    pub fn draw_status(&self, rng: &mut StdRng) -> StatusCode {
        self.neighbor_statuses[rng.gen_range(0..self.neighbor_statuses.len())]
    }

    /// Draws an AmiGO evidence code.
    pub fn draw_evidence(&self, rng: &mut StdRng) -> EvidenceCode {
        self.evidence_codes[rng.gen_range(0..self.evidence_codes.len())]
    }
}

/// The full generative model.
#[derive(Clone, Debug)]
pub struct EvidenceModel {
    /// Scenario-1 relevant functions.
    pub well_known: ClassProfile,
    /// Scenario-2 relevant functions.
    pub less_known: ClassProfile,
    /// Ordinary noise candidates.
    pub noise: ClassProfile,
    /// Spuriously strong noise (fools evidence-strength rankers).
    pub strong_noise: ClassProfile,
    /// Fraction of noise functions drawn from the strong-noise profile.
    pub strong_noise_fraction: f64,
    /// Scenario-3 true functions of hypothetical proteins.
    pub hypo_true: ClassProfile,
    /// Noise candidates of hypothetical proteins.
    pub hypo_noise: ClassProfile,
    /// Strength tolerance when reusing a pooled carrier.
    pub pool_tolerance: f64,
    /// Maximum carriers per (kind, class) pool per protein.
    pub max_pool: usize,
    /// Probability that a well-known candidate term gets an `is_a` link
    /// to another (more general) well-known candidate of the same
    /// protein. The Gene Ontology is a DAG; these term–term links are
    /// part of AmiGO's exported relationships and create the
    /// non-series-parallel diamonds on which propagation and
    /// reliability genuinely differ.
    pub isa_well_known: f64,
    /// Like [`EvidenceModel::isa_well_known`] for noise candidates.
    pub isa_noise: f64,
    /// Given an `is_a` link child→parent, probability that one of the
    /// child's annotating genes also annotates the parent directly —
    /// the classic redundant-annotation diamond (curators record both
    /// the specific and the general term).
    pub isa_redundant: f64,
    /// Dead BLAST hits per live hit: similarity matches whose genes
    /// carry no GO annotation at all (the typical case for real BLAST
    /// output). They inflate the raw integration graph and are removed
    /// by pruning/reduction — the effect behind the paper's −78%.
    pub dead_hit_factor: f64,
    /// Dead family hits per live family hit (families without GO
    /// mappings).
    pub dead_family_factor: f64,
}

impl Default for EvidenceModel {
    fn default() -> Self {
        use EvidenceCode::*;
        use StatusCode::*;
        EvidenceModel {
            well_known: ClassProfile {
                paths: (3, 7),
                strength: (0.25, 0.9),
                kinds: KindWeights {
                    gene_direct: 0.25,
                    pfam: 0.15,
                    tigrfam: 0.1,
                    blast: 0.5,
                },
                neighbor_statuses: vec![Validated, Provisional, Validated],
                evidence_codes: vec![Ida, Tas, Imp, Iss, Iep, Iea, Iea, Nas],
                reuse: 0.5,
                double_hit: 0.2,
            },
            less_known: ClassProfile {
                paths: (1, 1),
                strength: (0.85, 0.98),
                kinds: KindWeights {
                    gene_direct: 0.0,
                    pfam: 0.4,
                    tigrfam: 0.6,
                    blast: 0.0,
                },
                neighbor_statuses: vec![Reviewed],
                evidence_codes: vec![Igi, Imp, Ipi],
                reuse: 0.0,
                double_hit: 0.0,
            },
            noise: ClassProfile {
                paths: (1, 3),
                strength: (0.08, 0.45),
                kinds: KindWeights {
                    gene_direct: 0.0,
                    pfam: 0.3,
                    tigrfam: 0.15,
                    blast: 0.55,
                },
                neighbor_statuses: vec![Predicted, Model, Inferred],
                evidence_codes: vec![Tas, Imp, Iss, Iep, Iea, Nas],
                reuse: 0.85,
                double_hit: 0.05,
            },
            strong_noise: ClassProfile {
                paths: (1, 2),
                strength: (0.6, 0.9),
                kinds: KindWeights {
                    gene_direct: 0.0,
                    pfam: 0.0,
                    tigrfam: 0.0,
                    blast: 1.0,
                },
                neighbor_statuses: vec![Validated, Provisional],
                evidence_codes: vec![Imp, Iss, Iep],
                reuse: 0.5,
                double_hit: 0.0,
            },
            strong_noise_fraction: 0.12,
            hypo_true: ClassProfile {
                paths: (1, 3),
                strength: (0.4, 0.75),
                kinds: KindWeights {
                    gene_direct: 0.0,
                    pfam: 0.2,
                    tigrfam: 0.1,
                    blast: 0.7,
                },
                neighbor_statuses: vec![Provisional, Predicted],
                evidence_codes: vec![Iss, Rca, Iep],
                reuse: 0.2,
                double_hit: 0.0,
            },
            hypo_noise: ClassProfile {
                paths: (1, 2),
                strength: (0.12, 0.55),
                kinds: KindWeights {
                    gene_direct: 0.0,
                    pfam: 0.35,
                    tigrfam: 0.15,
                    blast: 0.5,
                },
                neighbor_statuses: vec![Predicted, Model, Inferred],
                evidence_codes: vec![Iss, Iep, Iea, Nas],
                reuse: 0.5,
                double_hit: 0.25,
            },
            pool_tolerance: 0.08,
            max_pool: 14,
            isa_well_known: 0.35,
            isa_noise: 0.1,
            isa_redundant: 0.6,
            dead_hit_factor: 1.6,
            dead_family_factor: 0.6,
        }
    }
}

impl EvidenceModel {
    /// The profile for a function class (`strong_noise` is selected by
    /// the generator via [`EvidenceModel::strong_noise_fraction`], not
    /// through this accessor).
    pub fn profile(&self, class: FunctionClass, hypothetical: bool) -> &ClassProfile {
        match (class, hypothetical) {
            (FunctionClass::WellKnown, _) => &self.well_known,
            (FunctionClass::LessKnown, _) => &self.less_known,
            (FunctionClass::Expert, _) => &self.hypo_true,
            (FunctionClass::Noise, false) => &self.noise,
            (FunctionClass::Noise, true) => &self.hypo_noise,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kind_weights_sample_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = KindWeights {
            gene_direct: 0.0,
            pfam: 1.0,
            tigrfam: 0.0,
            blast: 0.0,
        };
        for _ in 0..100 {
            assert_eq!(w.sample(&mut rng), PathKind::Pfam);
        }
    }

    #[test]
    fn kind_weights_cover_all_kinds() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = KindWeights {
            gene_direct: 1.0,
            pfam: 1.0,
            tigrfam: 1.0,
            blast: 1.0,
        };
        let mut seen = [false; 4];
        for _ in 0..1000 {
            match w.sample(&mut rng) {
                PathKind::GeneDirect => seen[0] = true,
                PathKind::Pfam => seen[1] = true,
                PathKind::TigrFam => seen[2] = true,
                PathKind::BlastNeighbor => seen[3] = true,
            }
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
    }

    #[test]
    fn class_profile_draws_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = EvidenceModel::default().well_known.clone();
        for _ in 0..200 {
            let n = p.draw_paths(&mut rng);
            assert!(n >= p.paths.0 && n <= p.paths.1);
            let s = p.draw_strength(&mut rng);
            assert!(s >= p.strength.0 && s < p.strength.1);
        }
    }

    #[test]
    fn default_model_separates_classes_by_strength() {
        let m = EvidenceModel::default();
        // Less-known strength strictly above noise strength.
        assert!(m.less_known.strength.0 > m.noise.strength.1);
        // Hypothetical true and noise strengths overlap by design (the
        // scenario is hard); but the true ceiling must dominate.
        assert!(m.hypo_true.strength.1 > m.hypo_noise.strength.1);
        assert!(m.hypo_true.strength.0 > m.hypo_noise.strength.0);
        // Well-known functions have more paths than noise.
        assert!(m.well_known.paths.0 >= m.noise.paths.0);
        assert!(m.well_known.paths.1 > m.noise.paths.1);
    }

    #[test]
    fn profile_accessor_selects_hypo_variants() {
        let m = EvidenceModel::default();
        assert_eq!(
            m.profile(FunctionClass::Noise, true).strength,
            m.hypo_noise.strength
        );
        assert_eq!(
            m.profile(FunctionClass::Noise, false).strength,
            m.noise.strength
        );
        assert_eq!(
            m.profile(FunctionClass::Expert, true).strength,
            m.hypo_true.strength
        );
    }

    #[test]
    fn fixed_range_draws_are_constant() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = EvidenceModel::default().less_known.clone();
        p.paths = (2, 2);
        for _ in 0..10 {
            assert_eq!(p.draw_paths(&mut rng), 2);
        }
    }
}
