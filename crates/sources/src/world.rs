//! The deterministic synthetic world generator.
//!
//! [`World::generate`] builds, from a seed, a complete consistent set of
//! source tables reproducing the population structure of the paper's
//! evaluation: the 20 well-studied proteins of Table 1 with exactly the
//! reported `#iProClass` / `#BioRank` function counts, the 7 less-known
//! functions of Table 2, and the 11 hypothetical proteins of Table 3
//! with their answer-set sizes. Evidence paths are materialized through
//! carrier pools (families, BLAST neighbors) so that independent
//! functions share carriers — the convergent structure that makes
//! reliability differ from propagation.

use std::collections::BTreeMap;

use biorank_schema::prob_to_evalue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::evidence::{EvidenceModel, FunctionClass, PathKind};
use crate::go::{GoTerm, GoUniverse};
use crate::paper_data::{self, TABLE1, TABLE3};
use crate::source::{Registry, Source};
use crate::tables::{
    AmigoSource, BlastHit, BlastSource, EntrezGeneSource, EntrezProteinSource, FamilyHit,
    FamilySource, GeneRecord, IproclassSource, PdbSource, UniProtSource,
};

/// Whether a protein is experimentally characterized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProteinKind {
    /// One of the 20 iProClass reference proteins (scenarios 1–2).
    WellStudied,
    /// One of the 11 hypothetical bacterial proteins (scenario 3).
    Hypothetical,
}

/// Ground truth for one protein.
#[derive(Clone, Debug)]
pub struct ProteinProfile {
    /// Gene/protein symbol.
    pub name: String,
    /// Studied or hypothetical.
    pub kind: ProteinKind,
    /// Every candidate function BioRank will retrieve, with its truth
    /// class.
    pub functions: Vec<(GoTerm, FunctionClass)>,
}

impl ProteinProfile {
    /// Functions of a given class.
    pub fn functions_of(&self, class: FunctionClass) -> Vec<GoTerm> {
        self.functions
            .iter()
            .filter(|(_, c)| *c == class)
            .map(|(g, _)| *g)
            .collect()
    }
}

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct WorldParams {
    /// Master seed; equal seeds produce equal worlds.
    pub seed: u64,
    /// Number of generated noise GO terms beyond the paper's named ones.
    pub extra_go_terms: usize,
    /// The evidence model.
    pub evidence: EvidenceModel,
    /// Populate the full 11-source federation (PIRSF, SuperFamily, CDD,
    /// UniProt, PDB in addition to the Fig. 1 sources). Off by default:
    /// the paper's evaluation queries only traverse the Fig. 1 subset.
    pub extended: bool,
}

impl Default for WorldParams {
    fn default() -> Self {
        WorldParams {
            seed: 0xB10_C0DE,
            extra_go_terms: 1600,
            evidence: EvidenceModel::default(),
            extended: false,
        }
    }
}

/// A fully generated world: ground truth plus all source tables.
#[derive(Clone, Debug)]
pub struct World {
    /// Parameters the world was generated from.
    pub params: WorldParams,
    /// The GO term universe.
    pub go: GoUniverse,
    /// Ground-truth profiles, Table 1 order then Table 3 order.
    pub profiles: Vec<ProteinProfile>,
    /// `EntrezProtein` table.
    pub entrez_protein: EntrezProteinSource,
    /// Pfam table.
    pub pfam: FamilySource,
    /// TIGRFAM table.
    pub tigrfam: FamilySource,
    /// NCBIBlast table.
    pub blast: BlastSource,
    /// EntrezGene table.
    pub entrez_gene: EntrezGeneSource,
    /// AmiGO table.
    pub amigo: AmigoSource,
    /// iProClass gold standard.
    pub iproclass: IproclassSource,
    /// PIRSF table (extended federation; empty unless
    /// [`WorldParams::extended`]).
    pub pirsf: FamilySource,
    /// SuperFamily table (extended federation).
    pub superfamily: FamilySource,
    /// CDD conserved-domain table (extended federation).
    pub cdd: FamilySource,
    /// UniProt cross-reference table (extended federation).
    pub uniprot: UniProtSource,
    /// PDB structure table (extended federation).
    pub pdb: PdbSource,
}

/// Carrier pools for one protein during generation.
struct Pools {
    /// (strength, family key) per family source.
    pfam: Vec<(f64, String)>,
    tigr: Vec<(f64, String)>,
    /// (strength, class, hit key, gene id) for BLAST neighbors.
    neighbors: Vec<(f64, FunctionClass, String, String)>,
}

struct Counters {
    family: usize,
    gene: usize,
    hit: usize,
}

impl World {
    /// Generates the world for the given parameters.
    pub fn generate(params: WorldParams) -> World {
        let mut go = GoUniverse::with_terms(params.extra_go_terms);
        let noise_pool: Vec<GoTerm> = go.generated_terms().collect();
        let mut next_noise = 0usize;
        let take_noise = |n: usize, cursor: &mut usize| -> Vec<GoTerm> {
            let slice: Vec<GoTerm> = noise_pool[*cursor..*cursor + n].to_vec();
            *cursor += n;
            slice
        };

        let mut w = World {
            params: params.clone(),
            go: GoUniverse::default(), // filled at the end
            profiles: Vec::new(),
            entrez_protein: EntrezProteinSource::default(),
            pfam: FamilySource::new("Pfam", "prot2pfam", "pfam2go"),
            tigrfam: FamilySource::new("TigrFam", "prot2tigrfam", "tigrfam2go"),
            blast: BlastSource::default(),
            entrez_gene: EntrezGeneSource::default(),
            amigo: AmigoSource::default(),
            iproclass: IproclassSource::default(),
            pirsf: FamilySource::new("PIRSF", "prot2pirsf", "pirsf2go"),
            superfamily: FamilySource::new("SuperFamily", "prot2superfamily", "superfamily2go"),
            cdd: FamilySource::new("CDD", "prot2cdd", "cdd2go"),
            uniprot: UniProtSource::default(),
            pdb: PdbSource::default(),
        };
        let mut counters = Counters {
            family: 0,
            gene: 0,
            hit: 0,
        };
        let mut evidence_of: BTreeMap<GoTerm, biorank_schema::EvidenceCode> = BTreeMap::new();

        // ---- The 20 well-studied proteins (Tables 1 & 2). -------------
        // ABCC8's well-known set starts with the §2 example functions.
        let abcc8_examples = [8281u32, 6813, 5524, 5886, 5215].map(GoTerm);
        for row in TABLE1 {
            let less_known = paper_data::table2_functions(row.protein);
            let mut well_known: Vec<GoTerm> = Vec::with_capacity(row.iproclass_functions);
            if row.protein == "ABCC8" {
                well_known.extend(abcc8_examples);
            }
            let need = row.iproclass_functions - well_known.len();
            well_known.extend(take_noise(need, &mut next_noise));
            let noise_count = row.biorank_functions - row.iproclass_functions - less_known.len();
            let noise = take_noise(noise_count, &mut next_noise);

            let mut functions: Vec<(GoTerm, FunctionClass)> = Vec::new();
            functions.extend(well_known.iter().map(|&g| (g, FunctionClass::WellKnown)));
            functions.extend(less_known.iter().map(|&g| (g, FunctionClass::LessKnown)));
            functions.extend(noise.iter().map(|&g| (g, FunctionClass::Noise)));

            w.materialize_protein(
                row.protein,
                ProteinKind::WellStudied,
                &functions,
                &params.evidence,
                params.seed,
                &mut counters,
                &mut evidence_of,
            );
            w.iproclass.gold.insert(row.protein.to_string(), well_known);
        }

        // ---- The 11 hypothetical proteins (Table 3). -------------------
        for row in TABLE3 {
            let truth = GoTerm(row.go);
            let noise = take_noise(row.answer_set_size - 1, &mut next_noise);
            let mut functions = vec![(truth, FunctionClass::Expert)];
            functions.extend(noise.iter().map(|&g| (g, FunctionClass::Noise)));
            w.materialize_protein(
                row.protein,
                ProteinKind::Hypothetical,
                &functions,
                &params.evidence,
                params.seed,
                &mut counters,
                &mut evidence_of,
            );
        }

        if params.extended {
            w.populate_extended_federation(params.seed);
        }

        // AmiGO: one record per GO term that any annotation references.
        for (term, code) in evidence_of {
            w.amigo.evidence.insert(term, code);
            if go.name(term).is_none() {
                go.insert(term, format!("function {term}"));
            }
        }
        w.amigo.universe = go.clone();
        w.go = go;
        // Index the full tables' keys now (on a first lookup), not in a query.
        w.blast.get("NCBIBlast", "");
        w.uniprot.get("UniProt", "");
        w.pdb.get("PDB", "");
        w
    }

    /// Materializes one protein's records and evidence paths.
    #[allow(clippy::too_many_arguments)]
    fn materialize_protein(
        &mut self,
        name: &str,
        kind: ProteinKind,
        functions: &[(GoTerm, FunctionClass)],
        model: &EvidenceModel,
        world_seed: u64,
        counters: &mut Counters,
        evidence_of: &mut BTreeMap<GoTerm, biorank_schema::EvidenceCode>,
    ) {
        // Each protein gets its own deterministic RNG stream so that
        // tuning one scenario's evidence profile cannot reshuffle the
        // draws of another scenario's proteins.
        let rng = &mut StdRng::seed_from_u64(world_seed ^ fnv1a(name));
        let hypothetical = kind == ProteinKind::Hypothetical;
        self.entrez_protein
            .records
            .insert(name.to_string(), random_sequence(rng));

        // The protein's own gene, reached via the perfect self-BLAST
        // hit (only for studied proteins — hypothetical proteins have no
        // curated gene record, which is what makes them hard).
        let self_gene = if hypothetical {
            None
        } else {
            let gene_id = format!("EG:{name}");
            self.entrez_gene.records.insert(
                gene_id.clone(),
                GeneRecord {
                    status: biorank_schema::StatusCode::Reviewed,
                    annotations: Vec::new(),
                },
            );
            let hit_key = format!("HIT:{name}:self");
            self.blast
                .hits
                .entry(name.to_string())
                .or_default()
                .push(BlastHit {
                    hit_key,
                    e_value: prob_to_evalue(biorank_graph::Prob::new(0.98).expect("const")),
                    id_eg: gene_id.clone(),
                });
            Some(gene_id)
        };

        let mut pools = Pools {
            pfam: Vec::new(),
            tigr: Vec::new(),
            neighbors: Vec::new(),
        };

        for &(go, class) in functions {
            // Strong-noise selection happens here so the fraction is a
            // property of the noise population, not a separate class.
            let profile = if class == FunctionClass::Noise
                && !hypothetical
                && rng.gen::<f64>() < model.strong_noise_fraction
            {
                &model.strong_noise
            } else {
                model.profile(class, hypothetical)
            };
            evidence_of
                .entry(go)
                .or_insert_with(|| profile.draw_evidence(rng));

            let n_paths = profile.draw_paths(rng);
            for _ in 0..n_paths {
                let strength = profile.draw_strength(rng);
                let mut path_kind = profile.kinds.sample(rng);
                if path_kind == PathKind::GeneDirect && self_gene.is_none() {
                    path_kind = PathKind::BlastNeighbor;
                }
                match path_kind {
                    PathKind::GeneDirect => {
                        let gene_id = self_gene.as_ref().expect("checked above");
                        let rec = self
                            .entrez_gene
                            .records
                            .get_mut(gene_id)
                            .expect("self gene exists");
                        if !rec.annotations.contains(&go) {
                            rec.annotations.push(go);
                        }
                    }
                    PathKind::Pfam => {
                        let annotates = |fam: &str| {
                            self.pfam
                                .annotations
                                .get(fam)
                                .is_some_and(|gos| gos.contains(&go))
                        };
                        let family = pick_family(
                            &mut pools.pfam,
                            strength,
                            profile.reuse,
                            model,
                            rng,
                            counters,
                            "PF",
                            annotates,
                        );
                        add_family_path(&mut self.pfam, name, &family, strength, go);
                    }
                    PathKind::TigrFam => {
                        let annotates = |fam: &str| {
                            self.tigrfam
                                .annotations
                                .get(fam)
                                .is_some_and(|gos| gos.contains(&go))
                        };
                        let family = pick_family(
                            &mut pools.tigr,
                            strength,
                            profile.reuse,
                            model,
                            rng,
                            counters,
                            "TF",
                            annotates,
                        );
                        add_family_path(&mut self.tigrfam, name, &family, strength, go);
                    }
                    PathKind::BlastNeighbor => {
                        let (hit_key, gene_id) = self.pick_neighbor(
                            &mut pools.neighbors,
                            name,
                            class,
                            strength,
                            go,
                            profile,
                            model,
                            rng,
                            counters,
                        );
                        let _ = hit_key;
                        let rec = self
                            .entrez_gene
                            .records
                            .get_mut(&gene_id)
                            .expect("neighbor gene exists");
                        if !rec.annotations.contains(&go) {
                            rec.annotations.push(go);
                        }
                    }
                }
            }
        }

        // Hypothetical (bacterial) proteins have sparsely linked
        // annotations; ontology links among their candidates are rare
        // enough to omit.
        if !hypothetical {
            self.link_ontology(functions, model, rng);
        }

        // Dead evidence: similarity hits to completely unannotated
        // genes/families. Real BLAST output is dominated by these; the
        // mediator integrates them and pruning/reduction removes them
        // (the paper's −78% effect). They never reach an answer node,
        // so rankings are provably unaffected.
        let live_hits = self.blast.hits.get(name).map_or(0, Vec::len);
        let dead_hits = (live_hits as f64 * model.dead_hit_factor).round() as usize;
        for _ in 0..dead_hits {
            counters.gene += 1;
            counters.hit += 1;
            let gene_id = format!("EG{:05}", counters.gene);
            let hit_key = format!("HIT{:05}", counters.hit);
            self.entrez_gene.records.insert(
                gene_id.clone(),
                GeneRecord {
                    status: biorank_schema::StatusCode::Predicted,
                    annotations: Vec::new(),
                },
            );
            self.blast
                .hits
                .entry(name.to_string())
                .or_default()
                .push(BlastHit {
                    hit_key,
                    e_value: prob_to_evalue(biorank_graph::Prob::clamped(rng.gen_range(0.05..0.5))),
                    id_eg: gene_id,
                });
        }
        let live_fams = self.pfam.hits.get(name).map_or(0, Vec::len)
            + self.tigrfam.hits.get(name).map_or(0, Vec::len);
        let dead_fams = (live_fams as f64 * model.dead_family_factor).round() as usize;
        for i in 0..dead_fams {
            counters.family += 1;
            let fam = format!("PF{:05}", counters.family);
            let src = if i % 2 == 0 {
                &mut self.pfam
            } else {
                &mut self.tigrfam
            };
            src.hits
                .entry(name.to_string())
                .or_default()
                .push(FamilyHit {
                    family: fam.clone(),
                    e_value: prob_to_evalue(biorank_graph::Prob::clamped(rng.gen_range(0.05..0.5))),
                });
            src.annotations.insert(fam, Vec::new());
        }

        self.profiles.push(ProteinProfile {
            name: name.to_string(),
            kind,
            functions: functions.to_vec(),
        });
    }

    /// Adds `is_a` links among this protein's *generated* candidate
    /// terms (paper-named terms are shared across proteins and must not
    /// gain links, or answer sets would leak between queries).
    ///
    /// Links go from larger to smaller term ids, which keeps the global
    /// ontology acyclic. With probability `isa_redundant`, one of the
    /// child's annotating genes also annotates the parent — creating
    /// the redundant-annotation diamond where propagation over-counts.
    fn link_ontology(
        &mut self,
        functions: &[(GoTerm, FunctionClass)],
        model: &EvidenceModel,
        rng: &mut StdRng,
    ) {
        const GENERATED: u32 = 100_000;
        for &(child, class) in functions {
            if child.0 < GENERATED {
                continue;
            }
            let link_prob = match class {
                FunctionClass::WellKnown => model.isa_well_known,
                FunctionClass::Noise => model.isa_noise,
                FunctionClass::LessKnown | FunctionClass::Expert => 0.0,
            };
            if link_prob == 0.0 || rng.gen::<f64>() >= link_prob {
                continue;
            }
            let parents: Vec<GoTerm> = functions
                .iter()
                .filter(|(g, c)| *c == class && g.0 >= GENERATED && g.0 < child.0)
                .map(|(g, _)| *g)
                .collect();
            let Some(&parent) = parents.get(rng.gen_range(0..parents.len().max(1))) else {
                continue;
            };
            let entry = self.amigo.isa.entry(child).or_default();
            if !entry.contains(&parent) {
                entry.push(parent);
            }
            if rng.gen::<f64>() < model.isa_redundant {
                // Generated terms belong to exactly one protein, so any
                // gene annotating `child` is one of this protein's
                // carriers.
                let carrier = self
                    .entrez_gene
                    .records
                    .iter()
                    .find(|(_, r)| r.annotations.contains(&child))
                    .map(|(k, _)| k.clone());
                if let Some(gene_id) = carrier {
                    let rec = self
                        .entrez_gene
                        .records
                        .get_mut(&gene_id)
                        .expect("carrier exists");
                    if !rec.annotations.contains(&parent) {
                        rec.annotations.push(parent);
                    }
                }
            }
        }
    }

    /// Finds or creates a BLAST neighbor compatible with `(class,
    /// strength)`.
    #[allow(clippy::too_many_arguments)]
    fn pick_neighbor(
        &mut self,
        pool: &mut Vec<(f64, FunctionClass, String, String)>,
        protein: &str,
        class: FunctionClass,
        strength: f64,
        go: GoTerm,
        profile: &crate::evidence::ClassProfile,
        model: &EvidenceModel,
        rng: &mut StdRng,
        counters: &mut Counters,
    ) -> (String, String) {
        // With probability `double_hit`, realize the path as a second
        // BLAST alignment to a gene that already annotates the function:
        // the two hit edges then share the (uncertain) gene node, the
        // structure on which propagation over-counts (Fig. 4a).
        if profile.double_hit > 0.0 && rng.gen::<f64>() < profile.double_hit {
            let existing = pool.iter().find(|(s, c, _, gene)| {
                *c == class
                    && (s - strength).abs() <= model.pool_tolerance * 2.0
                    && self
                        .entrez_gene
                        .records
                        .get(gene)
                        .is_some_and(|r| r.annotations.contains(&go))
            });
            if let Some((_, _, _, gene)) = existing {
                let gene = gene.clone();
                counters.hit += 1;
                let hit_key = format!("HIT{:05}", counters.hit);
                self.blast
                    .hits
                    .entry(protein.to_string())
                    .or_default()
                    .push(BlastHit {
                        hit_key: hit_key.clone(),
                        e_value: prob_to_evalue(biorank_graph::Prob::clamped(strength)),
                        id_eg: gene.clone(),
                    });
                return (hit_key, gene);
            }
        }
        // A carrier already annotating this GO term would collapse two
        // paths into one edge; skip those so path counts stay faithful.
        let same_class: Vec<usize> = pool
            .iter()
            .enumerate()
            .filter(|(_, (s, c, _, gene))| {
                *c == class
                    && (s - strength).abs() <= model.pool_tolerance
                    && !self
                        .entrez_gene
                        .records
                        .get(gene)
                        .is_some_and(|r| r.annotations.contains(&go))
            })
            .map(|(i, _)| i)
            .collect();
        if let Some(&i) = same_class.first() {
            let class_count = pool.iter().filter(|(_, c, _, _)| *c == class).count();
            // Reuse existing carriers once the pool is saturated, or
            // stochastically before that (sharing creates convergence).
            if class_count >= model.max_pool || rng.gen::<f64>() < profile.reuse {
                let (_, _, hit, gene) = &pool[i];
                return (hit.clone(), gene.clone());
            }
        }
        // Create a new neighbor.
        counters.gene += 1;
        counters.hit += 1;
        let gene_id = format!("EG{:05}", counters.gene);
        let hit_key = format!("HIT{:05}", counters.hit);
        self.entrez_gene.records.insert(
            gene_id.clone(),
            GeneRecord {
                status: profile.draw_status(rng),
                annotations: Vec::new(),
            },
        );
        self.blast
            .hits
            .entry(protein.to_string())
            .or_default()
            .push(BlastHit {
                hit_key: hit_key.clone(),
                e_value: prob_to_evalue(biorank_graph::Prob::clamped(strength)),
                id_eg: gene_id.clone(),
            });
        pool.push((strength, class, hit_key.clone(), gene_id.clone()));
        (hit_key, gene_id)
    }

    /// Ground truth for a protein.
    pub fn profile(&self, name: &str) -> Option<&ProteinProfile> {
        self.profiles.iter().find(|p| p.name == name)
    }

    /// [`into_registry`](World::into_registry) over a clone of the world.
    pub fn registry(&self) -> Registry {
        self.clone().into_registry()
    }

    /// Builds a [`Registry`] that owns the world's source tables.
    ///
    /// The extended-federation sources are always registered; their
    /// tables are simply empty when [`WorldParams::extended`] is off.
    pub fn into_registry(self) -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(self.entrez_protein));
        r.register(Box::new(self.pfam));
        r.register(Box::new(self.tigrfam));
        r.register(Box::new(self.blast));
        r.register(Box::new(self.entrez_gene));
        r.register(Box::new(self.amigo));
        r.register(Box::new(self.pirsf));
        r.register(Box::new(self.superfamily));
        r.register(Box::new(self.cdd));
        r.register(Box::new(self.uniprot));
        r.register(Box::new(self.pdb));
        r
    }

    /// Fills the PIRSF / SuperFamily / CDD / UniProt / PDB tables.
    ///
    /// Each protein gets: a PIRSF family reinforcing its strongest true
    /// functions (the paper: "results from PIRSF are more accurate than
    /// Pfam"), a SuperFamily and a CDD hit covering a mixed slice of
    /// candidates at medium/weak strength, a UniProt cross-reference to
    /// its own gene (studied proteins only), and 0–3 PDB structures —
    /// leaves that every query graph prunes away.
    fn populate_extended_federation(&mut self, world_seed: u64) {
        let profiles = self.profiles.clone();
        let mut ext_counter = 0usize;
        for profile in &profiles {
            let rng = &mut StdRng::seed_from_u64(world_seed ^ fnv1a(&profile.name) ^ 0xE47E);
            let name = &profile.name;
            let truths: Vec<GoTerm> = profile
                .functions
                .iter()
                .filter(|(_, c)| *c != FunctionClass::Noise)
                .map(|(g, _)| *g)
                .collect();
            let noise: Vec<GoTerm> = profile.functions_of(FunctionClass::Noise);

            // PIRSF: one accurate family covering up to 2 true functions.
            if !truths.is_empty() {
                ext_counter += 1;
                let fam = format!("SF{ext_counter:05}");
                self.pirsf
                    .hits
                    .entry(name.clone())
                    .or_default()
                    .push(FamilyHit {
                        family: fam.clone(),
                        e_value: prob_to_evalue(biorank_graph::Prob::clamped(
                            rng.gen_range(0.7..0.95),
                        )),
                    });
                let take = truths.len().min(2);
                self.pirsf.annotations.insert(fam, truths[..take].to_vec());
            }

            // SuperFamily: a broader, weaker family over a mixed slice.
            {
                ext_counter += 1;
                let fam = format!("SSF{ext_counter:05}");
                self.superfamily
                    .hits
                    .entry(name.clone())
                    .or_default()
                    .push(FamilyHit {
                        family: fam.clone(),
                        e_value: prob_to_evalue(biorank_graph::Prob::clamped(
                            rng.gen_range(0.35..0.7),
                        )),
                    });
                let mut anns: Vec<GoTerm> = truths.iter().take(1).copied().collect();
                anns.extend(noise.iter().take(2).copied());
                self.superfamily.annotations.insert(fam, anns);
            }

            // CDD: a conserved domain with weak, noisy coverage.
            if !noise.is_empty() {
                ext_counter += 1;
                let dom = format!("CD{ext_counter:05}");
                self.cdd
                    .hits
                    .entry(name.clone())
                    .or_default()
                    .push(FamilyHit {
                        family: dom.clone(),
                        e_value: prob_to_evalue(biorank_graph::Prob::clamped(
                            rng.gen_range(0.1..0.45),
                        )),
                    });
                let take = noise.len().min(3);
                self.cdd.annotations.insert(dom, noise[..take].to_vec());
            }

            // UniProt: curated cross-reference to the protein's own gene.
            let gene_id = format!("EG:{name}");
            if self.entrez_gene.records.contains_key(&gene_id) {
                ext_counter += 1;
                self.uniprot
                    .records
                    .insert(name.clone(), (format!("P{ext_counter:05}"), gene_id));
            }

            // PDB: structures — relationship-free leaves.
            let n_structs = rng.gen_range(0..=3);
            if n_structs > 0 {
                let ids = (0..n_structs)
                    .map(|i| format!("{}{i:01}XY", &name[..1.min(name.len())]))
                    .map(|base| {
                        ext_counter += 1;
                        format!("{base}{ext_counter:04}")
                    })
                    .collect();
                self.pdb.structures.insert(name.clone(), ids);
            }
        }
    }
}

/// Finds or creates a family carrier with a compatible hit strength that
/// does not already annotate the target GO term.
#[allow(clippy::too_many_arguments)]
fn pick_family(
    pool: &mut Vec<(f64, String)>,
    strength: f64,
    reuse: f64,
    model: &EvidenceModel,
    rng: &mut StdRng,
    counters: &mut Counters,
    prefix: &str,
    already_annotates: impl Fn(&str) -> bool,
) -> String {
    if let Some((_, fam)) = pool
        .iter()
        .find(|(s, fam)| (s - strength).abs() <= model.pool_tolerance && !already_annotates(fam))
    {
        if pool.len() >= model.max_pool || rng.gen::<f64>() < reuse {
            return fam.clone();
        }
    }
    counters.family += 1;
    let fam = format!("{prefix}{:05}", counters.family);
    pool.push((strength, fam.clone()));
    fam
}

/// Registers a protein→family hit (if new) and annotates the family.
fn add_family_path(
    source: &mut FamilySource,
    protein: &str,
    family: &str,
    strength: f64,
    go: GoTerm,
) {
    let hits = source.hits.entry(protein.to_string()).or_default();
    if !hits.iter().any(|h| h.family == family) {
        hits.push(FamilyHit {
            family: family.to_string(),
            e_value: prob_to_evalue(biorank_graph::Prob::clamped(strength)),
        });
    }
    let anns = source.annotations.entry(family.to_string()).or_default();
    if !anns.contains(&go) {
        anns.push(go);
    }
}

/// 64-bit FNV-1a hash: per-protein RNG streams, and the tables' key indexes.
pub(crate) fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Random amino-acid sequence (decorative — similarity is synthetic).
fn random_sequence(rng: &mut StdRng) -> String {
    const AA: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
    let len = rng.gen_range(120..400);
    (0..len)
        .map(|_| AA[rng.gen_range(0..AA.len())] as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldParams::default())
    }

    #[test]
    fn world_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.entrez_gene.records.len(), b.entrez_gene.records.len());
        assert_eq!(a.blast.hits, b.blast.hits);
        assert_eq!(a.pfam.annotations, b.pfam.annotations);
    }

    #[test]
    fn world_has_all_31_proteins() {
        let w = world();
        assert_eq!(w.profiles.len(), 31);
        assert_eq!(
            w.profiles
                .iter()
                .filter(|p| p.kind == ProteinKind::WellStudied)
                .count(),
            20
        );
        assert_eq!(
            w.profiles
                .iter()
                .filter(|p| p.kind == ProteinKind::Hypothetical)
                .count(),
            11
        );
    }

    #[test]
    fn function_counts_match_table1() {
        let w = world();
        for row in TABLE1 {
            let p = w.profile(row.protein).unwrap();
            assert_eq!(
                p.functions.len(),
                row.biorank_functions,
                "{}: candidate count",
                row.protein
            );
            assert_eq!(
                p.functions_of(FunctionClass::WellKnown).len(),
                row.iproclass_functions,
                "{}: well-known count",
                row.protein
            );
            assert_eq!(
                w.iproclass.functions(row.protein).len(),
                row.iproclass_functions
            );
        }
    }

    #[test]
    fn less_known_functions_match_table2() {
        let w = world();
        for name in ["ABCC8", "CFTR", "EYA1"] {
            let p = w.profile(name).unwrap();
            let lk = p.functions_of(FunctionClass::LessKnown);
            assert_eq!(lk, paper_data::table2_functions(name), "{name}");
            // Less-known functions must NOT be in iProClass.
            for go in lk {
                assert!(!w.iproclass.is_known(name, go));
            }
        }
    }

    #[test]
    fn hypothetical_proteins_match_table3() {
        let w = world();
        for row in TABLE3 {
            let p = w.profile(row.protein).unwrap();
            assert_eq!(p.functions.len(), row.answer_set_size, "{}", row.protein);
            let truth = p.functions_of(FunctionClass::Expert);
            assert_eq!(truth, vec![GoTerm(row.go)], "{}", row.protein);
            // Hypothetical proteins have no curated self gene.
            assert!(!w
                .entrez_gene
                .records
                .contains_key(&format!("EG:{}", row.protein)));
        }
    }

    #[test]
    fn every_function_is_evidenced_somewhere() {
        let w = world();
        // Collect all GO terms reachable through any annotation table.
        let mut annotated: std::collections::BTreeSet<GoTerm> = std::collections::BTreeSet::new();
        for gos in w.pfam.annotations.values() {
            annotated.extend(gos.iter().copied());
        }
        for gos in w.tigrfam.annotations.values() {
            annotated.extend(gos.iter().copied());
        }
        for rec in w.entrez_gene.records.values() {
            annotated.extend(rec.annotations.iter().copied());
        }
        for p in &w.profiles {
            for (go, _) in &p.functions {
                assert!(annotated.contains(go), "{}: {} unevidenced", p.name, go);
                assert!(w.amigo.evidence.contains_key(go), "{go} missing from AmiGO");
            }
        }
    }

    #[test]
    fn self_gene_exists_for_studied_proteins() {
        let w = world();
        for row in TABLE1 {
            let gene_id = format!("EG:{}", row.protein);
            assert!(
                w.entrez_gene.records.contains_key(&gene_id),
                "{gene_id} missing"
            );
            let hits = &w.blast.hits[row.protein];
            assert!(
                hits.iter().any(|h| h.id_eg == gene_id),
                "{}: self blast hit missing",
                row.protein
            );
        }
    }

    #[test]
    fn registry_covers_the_fig1_entity_sets() {
        let w = world();
        let r = w.registry();
        for es in [
            "EntrezProtein",
            "Pfam",
            "TigrFam",
            "NCBIBlast",
            "EntrezGene",
            "AmiGO",
        ] {
            assert!(r.owner(es).is_some(), "{es} unowned");
        }
        // The query for ABCC8 finds the protein record.
        assert_eq!(r.search("EntrezProtein", "ABCC8").len(), 1);
    }

    #[test]
    fn noise_terms_are_disjoint_across_proteins() {
        let w = world();
        let mut seen = std::collections::BTreeSet::new();
        for p in &w.profiles {
            for go in p.functions_of(FunctionClass::Noise) {
                assert!(seen.insert((go, ())), "noise term {go} reused");
            }
        }
    }

    #[test]
    fn sequences_look_like_proteins() {
        let w = world();
        let seq = &w.entrez_protein.records["ABCC8"];
        assert!(seq.len() >= 120);
        assert!(seq.chars().all(|c| "ACDEFGHIKLMNPQRSTVWY".contains(c)));
    }
}
