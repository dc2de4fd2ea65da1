//! The BioRank source catalog and the Fig. 1 mediated query schema.
//!
//! The paper's system "currently connects to the following 11 data
//! sources" (§2); [`source_catalog`] reproduces that table verbatim
//! (names plus the number of entity sets `#E` and relationships `#R`
//! each exposes). [`biorank_schema`] builds the subset of the mediated
//! E/R schema relevant to the running example query
//! `(EntrezProtein.name = "ABCC8", AmiGO)` shown in Fig. 1, with the
//! cardinalities annotated there and the set-level confidences `ps`/`qs`
//! used throughout the evaluation.

use crate::{Cardinality, ComposeHints, EntitySetId, RelationshipId, Schema};

/// One row of the paper's source table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceDecl {
    /// Source name as printed in the paper.
    pub name: &'static str,
    /// Number of entity sets the source exposes (`#E`).
    pub entity_sets: usize,
    /// Number of relationships it exposes (`#R`).
    pub relationships: usize,
}

/// The 11 data sources of paper §2, in table order.
pub fn source_catalog() -> Vec<SourceDecl> {
    vec![
        SourceDecl {
            name: "AmiGO",
            entity_sets: 1,
            relationships: 4,
        },
        SourceDecl {
            name: "NCBIBlast",
            entity_sets: 2,
            relationships: 3,
        },
        SourceDecl {
            name: "CDD",
            entity_sets: 3,
            relationships: 1,
        },
        SourceDecl {
            name: "EntrezGene",
            entity_sets: 2,
            relationships: 3,
        },
        SourceDecl {
            name: "EntrezProtein",
            entity_sets: 1,
            relationships: 11,
        },
        SourceDecl {
            name: "PDB",
            entity_sets: 1,
            relationships: 0,
        },
        SourceDecl {
            name: "Pfam",
            entity_sets: 2,
            relationships: 2,
        },
        SourceDecl {
            name: "PIRSF",
            entity_sets: 2,
            relationships: 2,
        },
        SourceDecl {
            name: "UniProt",
            entity_sets: 2,
            relationships: 2,
        },
        SourceDecl {
            name: "SuperFamily",
            entity_sets: 3,
            relationships: 1,
        },
        SourceDecl {
            name: "TIGRFAM",
            entity_sets: 2,
            relationships: 2,
        },
    ]
}

/// Handles into the Fig. 1 query schema produced by [`biorank_schema`].
#[derive(Clone, Debug)]
pub struct BiorankSchema {
    /// The mediated schema.
    pub schema: Schema,
    /// Query entity set (the synthetic node holding the keyword match).
    pub query: EntitySetId,
    /// `EntrezProtein(name, seq)` — the input entity set of Fig. 1.
    pub entrez_protein: EntitySetId,
    /// `Pfam` family records.
    pub pfam: EntitySetId,
    /// `TIGRFAM` family records.
    pub tigrfam: EntitySetId,
    /// `NCBIBlast` hit records (the reified `NCBIBlast1`/`NCBIBlast2`
    /// split of the ternary relationship, §2).
    pub ncbi_blast: EntitySetId,
    /// `EntrezGene(idEG, StatusCode, idGO)`.
    pub entrez_gene: EntitySetId,
    /// `AmiGO` GO-term records — the output entity set.
    pub amigo: EntitySetId,
    /// All relationship ids, in creation order.
    pub relationships: Vec<RelationshipId>,
    /// Domain-knowledge composition hints for Theorem 3.2.
    pub hints: ComposeHints,
}

/// Builds the Fig. 1 mediated query schema.
///
/// Topology (arrows are relationship directions; labels cardinalities):
///
/// ```text
///  Query ─[1:n]→ EntrezProtein ─[1:n]→ Pfam      ─[n:m]→ AmiGO
///                             └─[1:n]→ TigrFam   ─[n:m]→ AmiGO
///                             └─[1:n]→ NCBIBlast ─[n:1]→ EntrezGene ─[n:m]→ AmiGO
/// ```
///
/// Set-level confidences follow the paper's narrative: curated sources
/// (EntrezGene, AmiGO) are trusted most; HMM-based family matchers (Pfam,
/// TIGRFAM) more than plain BLAST ("Algorithms like those in Pfam are
/// believed to be more accurate in general", §2).
pub fn biorank_schema() -> BiorankSchema {
    let mut s = Schema::new();
    let query = s
        .entity("Query", "Mediator", &["keyword"], 1.0)
        .expect("fresh schema");
    let entrez_protein = s
        .entity("EntrezProtein", "EntrezProtein", &["name", "seq"], 1.0)
        .expect("fresh schema");
    let pfam = s
        .entity("Pfam", "Pfam", &["family", "e-value"], 0.9)
        .expect("fresh schema");
    let tigrfam = s
        .entity("TigrFam", "TIGRFAM", &["family", "e-value"], 0.9)
        .expect("fresh schema");
    let ncbi_blast = s
        .entity("NCBIBlast", "NCBIBlast", &["seq2", "e-value"], 0.8)
        .expect("fresh schema");
    let entrez_gene = s
        .entity("EntrezGene", "EntrezGene", &["StatusCode", "idGO"], 1.0)
        .expect("fresh schema");
    let amigo = s
        .entity("AmiGO", "AmiGO", &["EvidenceCode"], 1.0)
        .expect("fresh schema");

    let mut relationships = Vec::new();
    let rel = |s: &mut Schema, name, from, to, card, qs| {
        s.relationship(name, from, to, card, qs)
            .expect("fresh schema relationships")
    };
    // Keyword match from the query node to matching proteins.
    relationships.push(rel(
        &mut s,
        "match",
        query,
        entrez_protein,
        Cardinality::OneToMany,
        1.0,
    ));
    // Sequence-similarity matchers; HMM algorithms (Pfam/TIGRFAM) carry a
    // higher relationship confidence than BLAST.
    relationships.push(rel(
        &mut s,
        "prot2pfam",
        entrez_protein,
        pfam,
        Cardinality::OneToMany,
        0.9,
    ));
    relationships.push(rel(
        &mut s,
        "prot2tigrfam",
        entrez_protein,
        tigrfam,
        Cardinality::OneToMany,
        0.9,
    ));
    relationships.push(rel(
        &mut s,
        "prot2blast",
        entrez_protein,
        ncbi_blast,
        Cardinality::OneToMany,
        0.7,
    ));
    // NCBIBlast2: foreign key into EntrezGene (qr = 1 on records).
    relationships.push(rel(
        &mut s,
        "blast2gene",
        ncbi_blast,
        entrez_gene,
        Cardinality::ManyToOne,
        1.0,
    ));
    // Function annotations: the convergent [n:m] relations into AmiGO.
    relationships.push(rel(
        &mut s,
        "pfam2go",
        pfam,
        amigo,
        Cardinality::ManyToMany,
        1.0,
    ));
    relationships.push(rel(
        &mut s,
        "tigrfam2go",
        tigrfam,
        amigo,
        Cardinality::ManyToMany,
        1.0,
    ));
    relationships.push(rel(
        &mut s,
        "gene2go",
        entrez_gene,
        amigo,
        Cardinality::ManyToMany,
        1.0,
    ));

    // Domain knowledge: following a blast hit to its unique gene keeps
    // the fan-out character of the query→hits expansion.
    let mut hints = ComposeHints::none();
    hints.declare("prot2blast", "blast2gene", Cardinality::OneToMany);

    BiorankSchema {
        schema: s,
        query,
        entrez_protein,
        pfam,
        tigrfam,
        ncbi_blast,
        entrez_gene,
        amigo,
        relationships,
        hints,
    }
}

/// The Fig. 1 schema extended with the Gene Ontology's own `is_a`
/// term–term relationship (`go2go : AmiGO → AmiGO`, `[m:n]`).
///
/// AmiGO exports four relationships in the paper's catalog; the
/// ontology links among them are what give real query graphs their
/// non-series-parallel diamonds — the structure on which propagation
/// and reliability genuinely differ (Fig. 4a). The plain
/// [`biorank_schema`] stays faithful to the Fig. 1 drawing and keeps
/// its per-answer closed-form reducibility; this variant is what the
/// integration pipeline uses.
pub fn biorank_schema_with_ontology() -> BiorankSchema {
    let mut b = biorank_schema();
    let rel = b
        .schema
        .relationship("go2go", b.amigo, b.amigo, Cardinality::ManyToMany, 0.9)
        .expect("go2go is a fresh relationship name");
    b.relationships.push(rel);
    b
}

/// The full 11-source federation: the ontology schema plus PIRSF,
/// SuperFamily, CDD, UniProt and PDB.
///
/// Set-level confidences continue the paper's narrative: "our
/// collaborators have evidence that results from PIRSF are more
/// accurate than Pfam" (§2) — PIRSF gets `ps = 0.95` against Pfam's
/// 0.9; SuperFamily and CDD sit below; UniProt cross-references are
/// curated foreign keys (`ps = qs = 1`); PDB exports no relationships
/// (its structures are leaves, pruned from every query graph).
pub fn biorank_schema_full() -> BiorankSchema {
    let mut b = biorank_schema_with_ontology();
    let s = &mut b.schema;
    let pirsf = s
        .entity("PIRSF", "PIRSF", &["family", "e-value"], 0.95)
        .expect("fresh entity set");
    let superfamily = s
        .entity("SuperFamily", "SuperFamily", &["family", "e-value"], 0.85)
        .expect("fresh entity set");
    let cdd = s
        .entity("CDD", "CDD", &["domain", "e-value"], 0.85)
        .expect("fresh entity set");
    let uniprot = s
        .entity("UniProt", "UniProt", &["accession"], 1.0)
        .expect("fresh entity set");
    let pdb = s
        .entity("PDB", "PDB", &["structure"], 1.0)
        .expect("fresh entity set");
    let rel = |s: &mut Schema, name, from, to, card, qs| {
        s.relationship(name, from, to, card, qs).expect("fresh rel")
    };
    let ep = b.entrez_protein;
    let new_rels = [
        rel(s, "prot2pirsf", ep, pirsf, Cardinality::OneToMany, 0.95),
        rel(s, "pirsf2go", pirsf, b.amigo, Cardinality::ManyToMany, 1.0),
        rel(
            s,
            "prot2superfamily",
            ep,
            superfamily,
            Cardinality::OneToMany,
            0.8,
        ),
        rel(
            s,
            "superfamily2go",
            superfamily,
            b.amigo,
            Cardinality::ManyToMany,
            1.0,
        ),
        rel(s, "prot2cdd", ep, cdd, Cardinality::OneToMany, 0.8),
        rel(s, "cdd2go", cdd, b.amigo, Cardinality::ManyToMany, 1.0),
        rel(s, "prot2uniprot", ep, uniprot, Cardinality::OneToOne, 1.0),
        rel(
            s,
            "uniprot2gene",
            uniprot,
            b.entrez_gene,
            Cardinality::ManyToOne,
            1.0,
        ),
        rel(s, "prot2pdb", ep, pdb, Cardinality::OneToMany, 1.0),
    ];
    b.relationships.extend(new_rels);
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducible::{check_query_reducible, check_reducible, Reducibility, Step};

    #[test]
    fn catalog_matches_paper_table() {
        let cat = source_catalog();
        assert_eq!(cat.len(), 11);
        let total_e: usize = cat.iter().map(|s| s.entity_sets).sum();
        let total_r: usize = cat.iter().map(|s| s.relationships).sum();
        // Sums of the paper's #E and #R columns.
        assert_eq!(total_e, 21);
        assert_eq!(total_r, 31);
        let blast = cat.iter().find(|s| s.name == "NCBIBlast").unwrap();
        assert_eq!(blast.entity_sets, 2);
        assert_eq!(blast.relationships, 3);
        let pdb = cat.iter().find(|s| s.name == "PDB").unwrap();
        assert_eq!(pdb.relationships, 0);
    }

    #[test]
    fn schema_has_expected_shape() {
        let b = biorank_schema();
        assert_eq!(b.schema.entity_set_count(), 7);
        assert_eq!(b.schema.relationship_count(), 8);
        assert_eq!(b.relationships.len(), 8);
        // Three convergent relations into AmiGO.
        assert_eq!(b.schema.incoming(b.amigo).count(), 3);
        // The query node fans into EntrezProtein only.
        assert_eq!(b.schema.outgoing(b.query).count(), 1);
    }

    #[test]
    fn whole_schema_is_not_reducible() {
        // §4 Efficiency (1): "the total graph is not reducible due to the
        // last [n:m] relation".
        let b = biorank_schema();
        let r = check_reducible(&b.schema, b.query, &b.hints);
        assert!(!r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn per_answer_queries_are_reducible() {
        // §4 Efficiency (1): "the individual queries, however, can be
        // solved in a closed solution... the last [n:m] relationship
        // becomes [n:1] from the point of view of each node in the
        // answer set. Our theory proves to be right and useful."
        let b = biorank_schema();
        let r = check_query_reducible(&b.schema, b.query, b.amigo, &b.hints);
        let contract = |entity: &str, incoming: &str, outgoing: &str, composed| Step::Contract {
            entity: entity.into(),
            incoming: incoming.into(),
            outgoing: outgoing.into(),
            composed,
        };
        // The witness `fig1_schema` prints: lowest entity set id first.
        let steps = vec![
            contract("Pfam", "prot2pfam", "pfam2go", Cardinality::ManyToOne),
            contract(
                "TigrFam",
                "prot2tigrfam",
                "tigrfam2go",
                Cardinality::ManyToOne,
            ),
            Step::MergeParallel {
                left: "prot2pfam∘pfam2go".into(),
                right: "prot2tigrfam∘tigrfam2go".into(),
                merged: Cardinality::ManyToOne,
            },
            contract(
                "NCBIBlast",
                "prot2blast",
                "blast2gene",
                Cardinality::OneToMany,
            ),
            Step::TreeBase,
        ];
        assert_eq!(r, Reducibility::Reducible { steps });
    }

    #[test]
    fn confidence_ordering_matches_narrative() {
        let b = biorank_schema();
        let ps = |id| b.schema.entity_set(id).ps.get();
        // Curated sources most trusted; HMM matchers above BLAST.
        assert!(ps(b.entrez_gene) >= ps(b.pfam));
        assert!(ps(b.pfam) > ps(b.ncbi_blast));
        let qs_of = |name: &str| {
            let id = b.schema.relationship_by_name(name).unwrap();
            b.schema.rel(id).qs.get()
        };
        assert!(qs_of("prot2pfam") > qs_of("prot2blast"));
    }
}
