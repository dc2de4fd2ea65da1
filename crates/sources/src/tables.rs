//! Concrete synthetic implementations of the BioRank data sources.
//!
//! Each source is an in-memory table substitute for the live web
//! database the paper queried (snapshots of June 2007). The tables are
//! filled by the world generator ([`crate::world`]) and expose exactly
//! the record/link structure the Fig. 1 mediated schema expects:
//!
//! * [`EntrezProteinSource`] — `EntrezProtein(name, seq)`.
//! * [`FamilySource`] — Pfam and TIGRFAM: family records, per-protein
//!   hits with e-values, and family→GO annotations.
//! * [`BlastSource`] — `NCBIBlast1(seq1, seq2, e-value)` +
//!   `NCBIBlast2(seq2, idEG)`, the reified ternary relationship of §2.
//! * [`EntrezGeneSource`] — `EntrezGene(idEG, StatusCode, idGO)`.
//! * [`AmigoSource`] — GO-term records with evidence codes.
//! * [`IproclassSource`] — the curated gold standard (reference only;
//!   "the iProClass database was not considered because it was the
//!   source of the test set", §4).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use biorank_graph::Prob;
use biorank_schema::{evalue_to_prob, EvidenceCode, StatusCode};

use crate::go::{GoTerm, GoUniverse};
use crate::source::{Link, Record, Source};
use crate::world::fnv1a;

/// A by-key index over a `row key → records` table, built on the first
/// lookup: `(key hash, row, column)` sorted by hash, ties in table order,
/// beside the row keys (one per row, not per record).
#[derive(Clone, Debug, Default)]
struct KeyIndex(OnceLock<(Vec<Position>, Vec<String>)>);

/// `(key hash, row, column)`.
type Position = (u64, u32, u32);

impl KeyIndex {
    /// The first `(row key, record)` of `table`, in table order, whose
    /// key is `key`: a binary search, not a scan.
    fn find<'t, R, T: 't>(
        &self,
        table: &'t BTreeMap<String, R>,
        records: impl Fn(&'t R) -> &'t [T],
        key_of: impl Fn(&T) -> &str,
        key: &str,
    ) -> Option<(&'t String, &'t T)> {
        let (positions, rows) = self.0.get_or_init(|| {
            let mut positions = Vec::new();
            for (row, rec) in table.values().enumerate() {
                let at = |(col, r)| (fnv1a(key_of(r)), row as u32, col as u32);
                positions.extend(records(rec).iter().enumerate().map(at));
            }
            positions.sort_unstable();
            (positions, table.keys().cloned().collect())
        });
        let hash = fnv1a(key);
        let first = positions.partition_point(|p| p.0 < hash);
        let candidates = positions[first..].iter().take_while(|p| p.0 == hash);
        candidates
            .filter_map(|&(_, row, col)| {
                let (row_key, rec) = table.get_key_value(&rows[row as usize])?;
                Some((row_key, records(rec).get(col as usize)?))
            })
            .find(|(_, r)| key_of(r) == key)
    }
}

/// `EntrezProtein(name, seq)`.
#[derive(Clone, Debug, Default)]
pub struct EntrezProteinSource {
    /// name → amino-acid sequence.
    pub records: BTreeMap<String, String>,
}

impl Source for EntrezProteinSource {
    fn name(&self) -> &str {
        "EntrezProtein"
    }

    fn entity_sets(&self) -> Vec<String> {
        vec!["EntrezProtein".to_string()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        if entity_set != "EntrezProtein" {
            return vec![];
        }
        self.records
            .get(value)
            .map(|seq| {
                vec![Record::new("EntrezProtein", value, value, Prob::ONE)
                    .with_attr("name", value)
                    .with_attr("seq", seq)]
            })
            .unwrap_or_default()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        self.search(entity_set, key).into_iter().next()
    }

    fn links_from(&self, _entity_set: &str, _key: &str) -> Vec<Link> {
        vec![] // relationships from proteins are computed by the matchers
    }
}

/// One sequence-similarity hit of a protein against a family database.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilyHit {
    /// Family accession, e.g. `PF00005`.
    pub family: String,
    /// Match e-value (smaller = stronger).
    pub e_value: f64,
}

/// A protein-family database (Pfam or TIGRFAM).
#[derive(Clone, Debug)]
pub struct FamilySource {
    /// `"Pfam"` or `"TigrFam"` — also the entity-set name.
    pub entity_set: String,
    /// Relationship names this source implements:
    /// `(protein→family, family→GO)`.
    pub rel_hit: String,
    /// Family→GO relationship name.
    pub rel_annotation: String,
    /// protein name → hits.
    pub hits: BTreeMap<String, Vec<FamilyHit>>,
    /// family accession → annotated GO terms.
    pub annotations: BTreeMap<String, Vec<GoTerm>>,
}

impl FamilySource {
    /// Creates an empty family database.
    pub fn new(entity_set: &str, rel_hit: &str, rel_annotation: &str) -> Self {
        FamilySource {
            entity_set: entity_set.to_string(),
            rel_hit: rel_hit.to_string(),
            rel_annotation: rel_annotation.to_string(),
            hits: BTreeMap::new(),
            annotations: BTreeMap::new(),
        }
    }
}

impl Source for FamilySource {
    fn name(&self) -> &str {
        &self.entity_set
    }

    fn entity_sets(&self) -> Vec<String> {
        vec![self.entity_set.clone()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.get(entity_set, value).into_iter().collect()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        if entity_set != self.entity_set || !self.annotations.contains_key(key) {
            return None;
        }
        Some(Record::new(&self.entity_set, key, key, Prob::ONE).with_attr("family", key))
    }

    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        if entity_set == "EntrezProtein" {
            // Computed relationship: run the matcher on the protein.
            self.hits
                .get(key)
                .map(|hits| {
                    hits.iter()
                        .map(|h| Link {
                            relationship: self.rel_hit.clone(),
                            to_entity_set: self.entity_set.clone(),
                            to_key: h.family.clone(),
                            qr: evalue_to_prob(h.e_value),
                        })
                        .collect()
                })
                .unwrap_or_default()
        } else if entity_set == self.entity_set {
            // Curated family→GO annotations: foreign keys, qr = 1.
            self.annotations
                .get(key)
                .map(|gos| {
                    gos.iter()
                        .map(|&go| Link {
                            relationship: self.rel_annotation.clone(),
                            to_entity_set: "AmiGO".to_string(),
                            to_key: go.to_string(),
                            qr: Prob::ONE,
                        })
                        .collect()
                })
                .unwrap_or_default()
        } else {
            vec![]
        }
    }
}

/// One BLAST hit: a similar sequence and the gene it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct BlastHit {
    /// Hit record key (the `seq2` side of `NCBIBlast1`).
    pub hit_key: String,
    /// Similarity e-value.
    pub e_value: f64,
    /// Foreign key into EntrezGene (`idEG`), the `NCBIBlast2` half.
    pub id_eg: String,
}

/// The NCBIBlast computed source.
#[derive(Clone, Debug, Default)]
pub struct BlastSource {
    /// protein name → hits; indexed by hit key on the first lookup.
    pub hits: BTreeMap<String, Vec<BlastHit>>,
    index: KeyIndex,
}

impl BlastSource {
    fn hit_by_key(&self, key: &str) -> Option<&BlastHit> {
        self.index
            .find(&self.hits, Vec::as_slice, |h| &h.hit_key, key)
            .map(|(_, h)| h)
    }
}

impl Source for BlastSource {
    fn name(&self) -> &str {
        "NCBIBlast"
    }

    fn entity_sets(&self) -> Vec<String> {
        vec!["NCBIBlast".to_string()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.get(entity_set, value).into_iter().collect()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        if entity_set != "NCBIBlast" {
            return None;
        }
        self.hit_by_key(key).map(|h| {
            Record::new("NCBIBlast", key, key, Prob::ONE)
                .with_attr("seq2", &h.hit_key)
                .with_attr("e-value", format!("{:e}", h.e_value))
        })
    }

    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        if entity_set == "EntrezProtein" {
            // NCBIBlast1: similarity scored by e-value.
            self.hits
                .get(key)
                .map(|hits| {
                    hits.iter()
                        .map(|h| Link {
                            relationship: "prot2blast".to_string(),
                            to_entity_set: "NCBIBlast".to_string(),
                            to_key: h.hit_key.clone(),
                            qr: evalue_to_prob(h.e_value),
                        })
                        .collect()
                })
                .unwrap_or_default()
        } else if entity_set == "NCBIBlast" {
            // NCBIBlast2: unique foreign key into EntrezGene, qr = 1 (§2).
            self.hit_by_key(key)
                .map(|h| {
                    vec![Link {
                        relationship: "blast2gene".to_string(),
                        to_entity_set: "EntrezGene".to_string(),
                        to_key: h.id_eg.clone(),
                        qr: Prob::ONE,
                    }]
                })
                .unwrap_or_default()
        } else {
            vec![]
        }
    }
}

/// A curated gene record.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneRecord {
    /// Curation status, transformed to `pr` via the §2 table.
    pub status: StatusCode,
    /// Annotated GO functions (`idGO` foreign keys).
    pub annotations: Vec<GoTerm>,
}

/// `EntrezGene(idEG, StatusCode, idGO)`.
#[derive(Clone, Debug, Default)]
pub struct EntrezGeneSource {
    /// idEG → record.
    pub records: BTreeMap<String, GeneRecord>,
}

impl Source for EntrezGeneSource {
    fn name(&self) -> &str {
        "EntrezGene"
    }

    fn entity_sets(&self) -> Vec<String> {
        vec!["EntrezGene".to_string()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.get(entity_set, value).into_iter().collect()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        if entity_set != "EntrezGene" {
            return None;
        }
        self.records.get(key).map(|r| {
            Record::new("EntrezGene", key, key, r.status.pr())
                .with_attr("StatusCode", r.status.to_string())
        })
    }

    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        if entity_set != "EntrezGene" {
            return vec![];
        }
        self.records
            .get(key)
            .map(|r| {
                r.annotations
                    .iter()
                    .map(|&go| Link {
                        relationship: "gene2go".to_string(),
                        to_entity_set: "AmiGO".to_string(),
                        to_key: go.to_string(),
                        qr: Prob::ONE,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// AmiGO: GO-term records carrying evidence codes, plus the ontology's
/// own `is_a` term–term links (the Gene Ontology is a DAG; evidence for
/// a specific term also supports its more general ancestors).
#[derive(Clone, Debug, Default)]
pub struct AmigoSource {
    /// term → evidence code of its annotation.
    pub evidence: BTreeMap<GoTerm, EvidenceCode>,
    /// child term → parent terms (`is_a`); kept acyclic by construction
    /// (parents always have smaller ids).
    pub isa: BTreeMap<GoTerm, Vec<GoTerm>>,
    /// Term display names (shared universe).
    pub universe: GoUniverse,
}

impl Source for AmigoSource {
    fn name(&self) -> &str {
        "AmiGO"
    }

    fn entity_sets(&self) -> Vec<String> {
        vec!["AmiGO".to_string()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.get(entity_set, value).into_iter().collect()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        if entity_set != "AmiGO" {
            return None;
        }
        let term = GoTerm::parse(key)?;
        let code = self.evidence.get(&term)?;
        let name = self.universe.name(term).unwrap_or("unknown function");
        Some(Record::new("AmiGO", key, name, code.pr()).with_attr("EvidenceCode", code.to_string()))
    }

    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        if entity_set != "AmiGO" {
            return vec![];
        }
        let Some(term) = GoTerm::parse(key) else {
            return vec![];
        };
        self.isa
            .get(&term)
            .map(|parents| {
                parents
                    .iter()
                    .map(|p| Link {
                        relationship: "go2go".to_string(),
                        to_entity_set: "AmiGO".to_string(),
                        to_key: p.to_string(),
                        qr: Prob::ONE,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// UniProt: a cross-reference hub. Each protein has at most one UniProt
/// record, which carries a curated foreign key to its EntrezGene entry —
/// an independent, certain corroboration channel for gene-direct
/// annotations.
#[derive(Clone, Debug, Default)]
pub struct UniProtSource {
    /// protein name → (uniprot accession, idEG); indexed by accession.
    pub records: BTreeMap<String, (String, String)>,
    index: KeyIndex,
}

impl UniProtSource {
    fn by_accession(&self, acc: &str) -> Option<(&String, &(String, String))> {
        self.index
            .find(&self.records, std::slice::from_ref, |r| &r.0, acc)
    }
}

impl Source for UniProtSource {
    fn name(&self) -> &str {
        "UniProt"
    }

    fn entity_sets(&self) -> Vec<String> {
        vec!["UniProt".to_string()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.get(entity_set, value).into_iter().collect()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        if entity_set != "UniProt" {
            return None;
        }
        self.by_accession(key).map(|(protein, (acc, _))| {
            Record::new("UniProt", acc, format!("{protein} ({acc})"), Prob::ONE)
                .with_attr("accession", acc)
        })
    }

    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        match entity_set {
            "EntrezProtein" => self
                .records
                .get(key)
                .map(|(acc, _)| {
                    vec![Link {
                        relationship: "prot2uniprot".to_string(),
                        to_entity_set: "UniProt".to_string(),
                        to_key: acc.clone(),
                        qr: Prob::ONE,
                    }]
                })
                .unwrap_or_default(),
            "UniProt" => self
                .by_accession(key)
                .map(|(_, (_, id_eg))| {
                    vec![Link {
                        relationship: "uniprot2gene".to_string(),
                        to_entity_set: "EntrezGene".to_string(),
                        to_key: id_eg.clone(),
                        qr: Prob::ONE,
                    }]
                })
                .unwrap_or_default(),
            _ => vec![],
        }
    }
}

/// PDB: protein structure records. The paper's catalog lists PDB with
/// zero relationships — its records are informational leaves, which the
/// reduction engine prunes from every query graph (they never reach an
/// answer).
#[derive(Clone, Debug, Default)]
pub struct PdbSource {
    /// protein name → structure ids; indexed by structure id.
    pub structures: BTreeMap<String, Vec<String>>,
    index: KeyIndex,
}

impl Source for PdbSource {
    fn name(&self) -> &str {
        "PDB"
    }

    fn entity_sets(&self) -> Vec<String> {
        vec!["PDB".to_string()]
    }

    fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.get(entity_set, value).into_iter().collect()
    }

    fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        if entity_set != "PDB" {
            return None;
        }
        let found = self
            .index
            .find(&self.structures, Vec::as_slice, String::as_str, key);
        found.map(|(_, id)| Record::new("PDB", id, format!("structure {id}"), Prob::ONE))
    }

    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        if entity_set != "EntrezProtein" {
            return vec![];
        }
        self.structures
            .get(key)
            .map(|ids| {
                ids.iter()
                    .map(|id| Link {
                        relationship: "prot2pdb".to_string(),
                        to_entity_set: "PDB".to_string(),
                        to_key: id.clone(),
                        qr: Prob::ONE,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// iProClass: the curated gold standard used for relevance judgments.
#[derive(Clone, Debug, Default)]
pub struct IproclassSource {
    /// protein → its well-known functions.
    pub gold: BTreeMap<String, Vec<GoTerm>>,
}

impl IproclassSource {
    /// The well-known functions of a protein (empty when unknown).
    pub fn functions(&self, protein: &str) -> &[GoTerm] {
        self.gold.get(protein).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` when `go` is a curated function of `protein`.
    pub fn is_known(&self, protein: &str, go: GoTerm) -> bool {
        self.functions(protein).contains(&go)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entrez_protein_search_exact_match() {
        let mut s = EntrezProteinSource::default();
        s.records.insert("ABCC8".into(), "MAGIC".into());
        assert_eq!(s.search("EntrezProtein", "ABCC8").len(), 1);
        assert_eq!(s.search("EntrezProtein", "abcc8").len(), 0);
        assert_eq!(s.search("Other", "ABCC8").len(), 0);
        let r = s.get("EntrezProtein", "ABCC8").unwrap();
        assert_eq!(r.attrs[1], ("seq".to_string(), "MAGIC".to_string()));
    }

    #[test]
    fn family_source_links_both_directions() {
        let mut f = FamilySource::new("Pfam", "prot2pfam", "pfam2go");
        f.hits.insert(
            "ABCC8".into(),
            vec![FamilyHit {
                family: "PF00005".into(),
                e_value: 1e-65,
            }],
        );
        f.annotations
            .insert("PF00005".into(), vec![GoTerm(5524), GoTerm(8281)]);
        let hit_links = f.links_from("EntrezProtein", "ABCC8");
        assert_eq!(hit_links.len(), 1);
        assert_eq!(hit_links[0].relationship, "prot2pfam");
        assert!((hit_links[0].qr.get() - evalue_to_prob(1e-65).get()).abs() < 1e-12);
        let go_links = f.links_from("Pfam", "PF00005");
        assert_eq!(go_links.len(), 2);
        assert!(go_links.iter().all(|l| l.qr.get() == 1.0));
        assert!(go_links.iter().all(|l| l.to_entity_set == "AmiGO"));
        assert!(f.get("Pfam", "PF00005").is_some());
        assert!(f.get("Pfam", "PF99999").is_none());
    }

    #[test]
    fn blast_source_splits_ternary_relationship() {
        let mut b = BlastSource::default();
        b.hits.insert(
            "ABCC8".into(),
            vec![BlastHit {
                hit_key: "HIT1".into(),
                e_value: 1e-100,
                id_eg: "EG42".into(),
            }],
        );
        let l1 = b.links_from("EntrezProtein", "ABCC8");
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].relationship, "prot2blast");
        assert!(l1[0].qr.get() > 0.7, "strong hit should transform high");
        let l2 = b.links_from("NCBIBlast", "HIT1");
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0].relationship, "blast2gene");
        assert_eq!(l2[0].to_key, "EG42");
        assert_eq!(l2[0].qr.get(), 1.0, "foreign keys carry qr = 1");
    }

    /// The linear scans the key indexes replaced, kept as their oracle.
    fn blast_scan<'a>(b: &'a BlastSource, key: &str) -> Option<&'a BlastHit> {
        b.hits.values().flatten().find(|h| h.hit_key == key)
    }

    fn uniprot_scan<'a>(u: &'a UniProtSource, acc: &str) -> Option<&'a String> {
        u.records
            .iter()
            .find(|(_, (a, _))| a == acc)
            .map(|(p, _)| p)
    }

    fn pdb_scan<'a>(p: &'a PdbSource, key: &str) -> Option<&'a String> {
        p.structures
            .values()
            .flatten()
            .find(|id| id.as_str() == key)
    }

    /// Both lookups return the same element of the same table.
    fn same<T>(a: Option<&T>, b: Option<&T>) -> bool {
        a.map(|x| x as *const T) == b.map(|x| x as *const T)
    }

    #[test]
    fn key_indexes_agree_with_the_scans_they_replaced() {
        for extended in [false, true] {
            let w = crate::World::generate(crate::WorldParams {
                extended,
                ..crate::WorldParams::default()
            });
            // World::generate indexes its tables once they are full.
            assert!(w.blast.index.0.get().is_some());
            assert!(w.uniprot.index.0.get().is_some() && w.pdb.index.0.get().is_some());
            let absent = ["", "HIT", "HIT99999", "HIT:GALT", "P00000", "nope"];

            let keys: Vec<&str> = w
                .blast
                .hits
                .values()
                .flatten()
                .map(|h| &*h.hit_key)
                .collect();
            assert!(keys.len() > 1000, "{} BLAST hits", keys.len());
            for key in keys.into_iter().chain(absent) {
                assert!(
                    same(w.blast.hit_by_key(key), blast_scan(&w.blast, key)),
                    "{key}"
                );
            }

            let accs: Vec<&str> = w.uniprot.records.values().map(|(a, _)| &**a).collect();
            assert_eq!(accs.is_empty(), !extended);
            for acc in accs.into_iter().chain(absent) {
                let found = w.uniprot.by_accession(acc).map(|(p, _)| p);
                assert!(same(found, uniprot_scan(&w.uniprot, acc)), "{acc}");
            }

            let ids: Vec<&str> = w.pdb.structures.values().flatten().map(|s| &**s).collect();
            assert_eq!(ids.is_empty(), !extended);
            for id in ids.into_iter().chain(absent) {
                let found = w.pdb.get("PDB", id).map(|r| r.key);
                assert_eq!(found.as_ref(), pdb_scan(&w.pdb, id), "{id}");
            }
        }
    }

    #[test]
    fn a_repeated_key_resolves_to_its_first_occurrence_in_table_order() {
        let hit = |id_eg: &str| BlastHit {
            hit_key: "DUP".into(),
            e_value: 1e-10,
            id_eg: id_eg.into(),
        };
        let mut b = BlastSource::default();
        b.hits.insert("B".into(), vec![hit("EG3"), hit("EG4")]);
        b.hits.insert("A".into(), vec![hit("EG1"), hit("EG2")]);
        assert!(same(b.hit_by_key("DUP"), blast_scan(&b, "DUP")));
        assert_eq!(b.links_from("NCBIBlast", "DUP")[0].to_key, "EG1");

        let mut u = UniProtSource::default();
        u.records.insert("B".into(), ("P1".into(), "EG2".into()));
        u.records.insert("A".into(), ("P1".into(), "EG1".into()));
        assert_eq!(u.get("UniProt", "P1").unwrap().label, "A (P1)");
        assert_eq!(u.links_from("UniProt", "P1")[0].to_key, "EG1");

        let mut p = PdbSource::default();
        p.structures.insert("B".into(), vec!["X".into()]);
        p.structures
            .insert("A".into(), vec!["Y".into(), "X".into(), "X".into()]);
        let found = p
            .index
            .find(&p.structures, Vec::as_slice, String::as_str, "X");
        assert_eq!(found.map(|(row, _)| row.as_str()), Some("A"));
        assert!(same(found.map(|(_, id)| id), pdb_scan(&p, "X")));
    }

    #[test]
    fn entrez_gene_pr_follows_status_code() {
        let mut g = EntrezGeneSource::default();
        g.records.insert(
            "EG1".into(),
            GeneRecord {
                status: StatusCode::Predicted,
                annotations: vec![GoTerm(8281)],
            },
        );
        let r = g.get("EntrezGene", "EG1").unwrap();
        assert_eq!(r.pr.get(), 0.4);
        let links = g.links_from("EntrezGene", "EG1");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].to_key, "GO:0008281");
    }

    #[test]
    fn amigo_pr_follows_evidence_code() {
        let mut a = AmigoSource {
            universe: GoUniverse::with_terms(0),
            ..Default::default()
        };
        a.evidence.insert(GoTerm(8281), EvidenceCode::Iea);
        let r = a.get("AmiGO", "GO:0008281").unwrap();
        assert_eq!(r.pr.get(), 0.3);
        assert_eq!(r.label, "sulphonylurea receptor activity");
        assert!(a.get("AmiGO", "GO:0000001").is_none());
        assert!(a.get("AmiGO", "garbage").is_none());
    }

    #[test]
    fn iproclass_gold_standard_lookup() {
        let mut i = IproclassSource::default();
        i.gold
            .insert("ABCC8".into(), vec![GoTerm(8281), GoTerm(5524)]);
        assert!(i.is_known("ABCC8", GoTerm(8281)));
        assert!(!i.is_known("ABCC8", GoTerm(42493)));
        assert!(!i.is_known("NOPE", GoTerm(8281)));
        assert_eq!(i.functions("ABCC8").len(), 2);
    }
}
