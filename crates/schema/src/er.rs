//! The mediated Entity-Relationship schema (paper §2).
//!
//! "An entity set has a schema `P(id, a1, a2, …)` where `id` is the key,
//! and a relationship has a schema `Q(id, id′, b1, b2, …)` where `id, id′`
//! are foreign keys to two entity sets `P, P′` that `Q` relates."
//!
//! Every data source exports one or more entity sets; the mediator
//! computes relationships between them (foreign keys, alias lookups,
//! keyword matches). Each entity set carries a set-level confidence `ps`,
//! each relationship a set-level confidence `qs` (paper §2, "Transforming
//! uncertainties into probabilities").

use std::collections::BTreeMap;

use crate::{Cardinality, Error};
use biorank_graph::Prob;

/// Index of an entity set within a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntitySetId(pub usize);

/// Index of a relationship within a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationshipId(pub usize);

/// Declaration of an entity set in the mediated schema.
#[derive(Clone, Debug)]
pub struct EntitySetDef {
    /// Unique name, e.g. `"EntrezGene"`.
    pub name: String,
    /// Name of the data source exporting this set, e.g. `"Entrez"`.
    pub source: String,
    /// Attribute names beyond the key.
    pub attributes: Vec<String>,
    /// Set-level confidence `ps ∈ [0,1]` — "the degree of confidence in a
    /// data source as a whole", a user-tunable parameter.
    pub ps: Prob,
}

/// Declaration of a binary relationship in the mediated schema.
#[derive(Clone, Debug)]
pub struct RelationshipDef {
    /// Unique name, e.g. `"NCBIBlast1"`.
    pub name: String,
    /// Left entity set.
    pub from: EntitySetId,
    /// Right entity set.
    pub to: EntitySetId,
    /// Declared cardinality type.
    pub cardinality: Cardinality,
    /// Set-level confidence `qs ∈ [0,1]` — "the degree of confidence in a
    /// relationship as a whole" (e.g. HMM matching beats plain BLAST).
    pub qs: Prob,
}

/// A validated mediated schema: entity sets plus relationships.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    entity_sets: Vec<EntitySetDef>,
    relationships: Vec<RelationshipDef>,
    by_entity_name: BTreeMap<String, EntitySetId>,
    by_rel_name: BTreeMap<String, RelationshipId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entity set; rejects duplicate names.
    pub fn add_entity_set(&mut self, def: EntitySetDef) -> Result<EntitySetId, Error> {
        if self.by_entity_name.contains_key(&def.name) {
            return Err(Error::DuplicateName(def.name));
        }
        let id = EntitySetId(self.entity_sets.len());
        self.by_entity_name.insert(def.name.clone(), id);
        self.entity_sets.push(def);
        Ok(id)
    }

    /// Adds a relationship; rejects duplicate names and dangling endpoints.
    pub fn add_relationship(&mut self, def: RelationshipDef) -> Result<RelationshipId, Error> {
        if self.by_rel_name.contains_key(&def.name) {
            return Err(Error::DuplicateName(def.name));
        }
        if def.from.0 >= self.entity_sets.len() {
            return Err(Error::UnknownEntitySet(format!("#{}", def.from.0)));
        }
        if def.to.0 >= self.entity_sets.len() {
            return Err(Error::UnknownEntitySet(format!("#{}", def.to.0)));
        }
        let id = RelationshipId(self.relationships.len());
        self.by_rel_name.insert(def.name.clone(), id);
        self.relationships.push(def);
        Ok(id)
    }

    /// Convenience: add an entity set from parts.
    pub fn entity(
        &mut self,
        name: &str,
        source: &str,
        attributes: &[&str],
        ps: f64,
    ) -> Result<EntitySetId, Error> {
        self.add_entity_set(EntitySetDef {
            name: name.to_string(),
            source: source.to_string(),
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            ps: Prob::new(ps).map_err(Error::Graph)?,
        })
    }

    /// Convenience: add a relationship from parts.
    pub fn relationship(
        &mut self,
        name: &str,
        from: EntitySetId,
        to: EntitySetId,
        cardinality: Cardinality,
        qs: f64,
    ) -> Result<RelationshipId, Error> {
        self.add_relationship(RelationshipDef {
            name: name.to_string(),
            from,
            to,
            cardinality,
            qs: Prob::new(qs).map_err(Error::Graph)?,
        })
    }

    /// Looks up an entity set by name.
    pub fn entity_set_by_name(&self, name: &str) -> Option<EntitySetId> {
        self.by_entity_name.get(name).copied()
    }

    /// Looks up a relationship by name.
    pub fn relationship_by_name(&self, name: &str) -> Option<RelationshipId> {
        self.by_rel_name.get(name).copied()
    }

    /// The definition of entity set `id`.
    pub fn entity_set(&self, id: EntitySetId) -> &EntitySetDef {
        &self.entity_sets[id.0]
    }

    /// The definition of relationship `id`.
    pub fn rel(&self, id: RelationshipId) -> &RelationshipDef {
        &self.relationships[id.0]
    }

    /// All entity sets with their ids.
    pub fn entity_sets(&self) -> impl Iterator<Item = (EntitySetId, &EntitySetDef)> {
        self.entity_sets
            .iter()
            .enumerate()
            .map(|(i, d)| (EntitySetId(i), d))
    }

    /// All relationships with their ids.
    pub fn relationships(&self) -> impl Iterator<Item = (RelationshipId, &RelationshipDef)> {
        self.relationships
            .iter()
            .enumerate()
            .map(|(i, d)| (RelationshipId(i), d))
    }

    /// Number of entity sets.
    pub fn entity_set_count(&self) -> usize {
        self.entity_sets.len()
    }

    /// Number of relationships.
    pub fn relationship_count(&self) -> usize {
        self.relationships.len()
    }

    /// Relationships leaving entity set `p` (where `from == p`).
    pub fn outgoing(
        &self,
        p: EntitySetId,
    ) -> impl Iterator<Item = (RelationshipId, &RelationshipDef)> {
        self.relationships().filter(move |(_, d)| d.from == p)
    }

    /// Relationships entering entity set `p` (where `to == p`).
    pub fn incoming(
        &self,
        p: EntitySetId,
    ) -> impl Iterator<Item = (RelationshipId, &RelationshipDef)> {
        self.relationships().filter(move |(_, d)| d.to == p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Schema {
        let mut s = Schema::new();
        let gene = s
            .entity("EntrezGene", "Entrez", &["StatusCode", "idGO"], 0.9)
            .unwrap();
        let go = s.entity("AmiGO", "AmiGO", &["EvidenceCode"], 1.0).unwrap();
        s.relationship("gene2go", gene, go, Cardinality::OneToMany, 1.0)
            .unwrap();
        s
    }

    #[test]
    fn lookup_by_name() {
        let s = toy();
        let g = s.entity_set_by_name("EntrezGene").unwrap();
        assert_eq!(s.entity_set(g).source, "Entrez");
        assert_eq!(s.entity_set(g).ps.get(), 0.9);
        let r = s.relationship_by_name("gene2go").unwrap();
        assert_eq!(s.rel(r).cardinality, Cardinality::OneToMany);
        assert!(s.entity_set_by_name("nope").is_none());
    }

    #[test]
    fn duplicate_entity_name_rejected() {
        let mut s = toy();
        assert!(matches!(
            s.entity("EntrezGene", "x", &[], 1.0),
            Err(Error::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_relationship_name_rejected() {
        let mut s = toy();
        let gene = s.entity_set_by_name("EntrezGene").unwrap();
        let go = s.entity_set_by_name("AmiGO").unwrap();
        assert!(matches!(
            s.relationship("gene2go", gene, go, Cardinality::ManyToOne, 1.0),
            Err(Error::DuplicateName(_))
        ));
    }

    #[test]
    fn dangling_relationship_rejected() {
        let mut s = toy();
        let gene = s.entity_set_by_name("EntrezGene").unwrap();
        assert!(s
            .relationship("bad", gene, EntitySetId(99), Cardinality::OneToMany, 1.0)
            .is_err());
    }

    #[test]
    fn invalid_ps_rejected() {
        let mut s = Schema::new();
        assert!(s.entity("X", "x", &[], 1.5).is_err());
    }

    #[test]
    fn incoming_outgoing_filters() {
        let s = toy();
        let gene = s.entity_set_by_name("EntrezGene").unwrap();
        let go = s.entity_set_by_name("AmiGO").unwrap();
        assert_eq!(s.outgoing(gene).count(), 1);
        assert_eq!(s.incoming(gene).count(), 0);
        assert_eq!(s.incoming(go).count(), 1);
    }
}
