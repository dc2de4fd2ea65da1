//! The data-source abstraction the mediator integrates over.
//!
//! Paper §2: "Every data source that we integrate exports one or more
//! entity sets"; the mediator "computes a number of relationships between
//! the sources to achieve the actual integration, e.g. by following
//! foreign keys, looking up aliases, or even matching keywords."
//!
//! A [`Source`] exposes records of its entity sets and *links* — record-
//! level relationship instances, each carrying the record-level
//! confidence `qr` already transformed into a probability (foreign keys
//! get `qr = 1`, e-values go through
//! [`biorank_schema::evalue_to_prob`], etc.). Set-level confidences
//! (`ps`, `qs`) live on the schema and are applied by the mediator when
//! it builds the probabilistic entity graph.

use std::collections::BTreeMap;

use biorank_graph::Prob;

/// A record exported by a source, identified by `(entity_set, key)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The entity set this record belongs to (schema name).
    pub entity_set: String,
    /// Source-unique key within the entity set.
    pub key: String,
    /// Human-readable label for graph display.
    pub label: String,
    /// Record-level confidence `pr`, already transformed from the
    /// record's attributes (status code, evidence code, …).
    pub pr: Prob,
    /// Raw attributes, for provenance display.
    pub attrs: Vec<(String, String)>,
}

impl Record {
    /// Convenience constructor without attributes.
    pub fn new(
        entity_set: impl Into<String>,
        key: impl Into<String>,
        label: impl Into<String>,
        pr: Prob,
    ) -> Record {
        Record {
            entity_set: entity_set.into(),
            key: key.into(),
            label: label.into(),
            pr,
            attrs: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    #[must_use]
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Record {
        self.attrs.push((name.into(), value.into()));
        self
    }
}

/// A record-level relationship instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Schema relationship name (e.g. `"prot2blast"`).
    pub relationship: String,
    /// Entity set of the link target.
    pub to_entity_set: String,
    /// Key of the target record within its entity set.
    pub to_key: String,
    /// Record-level confidence `qr` of this link.
    pub qr: Prob,
}

/// A queryable data source.
pub trait Source: Send + Sync {
    /// Source name (matches the paper's catalog).
    fn name(&self) -> &str;

    /// Entity sets this source exports records for.
    fn entity_sets(&self) -> Vec<String>;

    /// Keyword search: records of `entity_set` whose search attribute
    /// matches `value` exactly (the paper's exploratory queries use
    /// exact attribute matches).
    fn search(&self, entity_set: &str, value: &str) -> Vec<Record>;

    /// Fetch one record by key. The mediator calls this per integrated
    /// node, so a lookup by key must not scan the whole table.
    fn get(&self, entity_set: &str, key: &str) -> Option<Record>;

    /// Relationship instances *from* the given record. Sources may
    /// contribute links from entity sets they do not own — that is how
    /// computed relationships (BLAST runs, family matches) integrate
    /// foreign records. Called on every source per integrated node: as
    /// with [`get`](Source::get), a lookup by key must not scan the table.
    fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link>;
}

/// Routes record lookups to the owning source and aggregates links from
/// all sources.
#[derive(Default)]
pub struct Registry {
    sources: Vec<Box<dyn Source>>,
    owner_of: BTreeMap<String, usize>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source, recording it as the owner of its entity sets.
    /// The first registered owner of an entity set wins.
    pub fn register(&mut self, source: Box<dyn Source>) {
        let idx = self.sources.len();
        for es in source.entity_sets() {
            self.owner_of.entry(es).or_insert(idx);
        }
        self.sources.push(source);
    }

    /// The source owning `entity_set`, if any.
    pub fn owner(&self, entity_set: &str) -> Option<&dyn Source> {
        self.owner_of
            .get(entity_set)
            .map(|&i| self.sources[i].as_ref())
    }

    /// Keyword search against the owner of `entity_set`.
    pub fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
        self.owner(entity_set)
            .map(|s| s.search(entity_set, value))
            .unwrap_or_default()
    }

    /// Record fetch against the owner of `entity_set`.
    pub fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
        self.owner(entity_set).and_then(|s| s.get(entity_set, key))
    }

    /// Links from a record, aggregated over *all* registered sources.
    pub fn links_from(&self, entity_set: &str, key: &str) -> Vec<Link> {
        let mut out = Vec::new();
        for s in &self.sources {
            out.extend(s.links_from(entity_set, key));
        }
        out
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` when no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub {
        name: &'static str,
        es: &'static str,
    }

    impl Source for Stub {
        fn name(&self) -> &str {
            self.name
        }
        fn entity_sets(&self) -> Vec<String> {
            vec![self.es.to_string()]
        }
        fn search(&self, entity_set: &str, value: &str) -> Vec<Record> {
            if entity_set == self.es && value == "hit" {
                vec![Record::new(self.es, "k1", "label", Prob::ONE)]
            } else {
                vec![]
            }
        }
        fn get(&self, entity_set: &str, key: &str) -> Option<Record> {
            (entity_set == self.es && key == "k1")
                .then(|| Record::new(self.es, "k1", "label", Prob::ONE))
        }
        fn links_from(&self, entity_set: &str, _key: &str) -> Vec<Link> {
            if entity_set == "A" {
                vec![Link {
                    relationship: format!("{}_rel", self.name),
                    to_entity_set: self.es.to_string(),
                    to_key: "k1".to_string(),
                    qr: Prob::HALF,
                }]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn registry_routes_to_owner() {
        let mut r = Registry::new();
        r.register(Box::new(Stub {
            name: "S1",
            es: "A",
        }));
        r.register(Box::new(Stub {
            name: "S2",
            es: "B",
        }));
        assert_eq!(r.len(), 2);
        assert_eq!(r.search("A", "hit").len(), 1);
        assert_eq!(r.search("B", "miss").len(), 0);
        assert!(r.get("B", "k1").is_some());
        assert!(r.get("C", "k1").is_none());
    }

    #[test]
    fn links_aggregate_across_sources() {
        let mut r = Registry::new();
        r.register(Box::new(Stub {
            name: "S1",
            es: "A",
        }));
        r.register(Box::new(Stub {
            name: "S2",
            es: "B",
        }));
        // Both stubs contribute a link from entity set A.
        let links = r.links_from("A", "k1");
        assert_eq!(links.len(), 2);
        let rels: Vec<_> = links.iter().map(|l| l.relationship.as_str()).collect();
        assert!(rels.contains(&"S1_rel") && rels.contains(&"S2_rel"));
    }

    #[test]
    fn first_owner_wins() {
        let mut r = Registry::new();
        r.register(Box::new(Stub {
            name: "S1",
            es: "A",
        }));
        r.register(Box::new(Stub {
            name: "S2",
            es: "A",
        }));
        assert_eq!(r.owner("A").unwrap().name(), "S1");
    }

    #[test]
    fn record_builder_attrs() {
        let rec = Record::new("E", "k", "lbl", Prob::HALF)
            .with_attr("StatusCode", "Reviewed")
            .with_attr("idGO", "GO:0008281");
        assert_eq!(rec.attrs.len(), 2);
        assert_eq!(rec.attrs[0].1, "Reviewed");
    }
}
