//! The mediator: recursive link expansion over registered sources.

use std::collections::BTreeMap;

use biorank_graph::{NodeId, Prob, ProbGraph, QueryGraph};
use biorank_schema::Schema;
use biorank_sources::{Record, Registry};

use crate::{Error, ExploratoryQuery};

/// Integration statistics for one query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrationStats {
    /// Records fetched from sources (including keyword matches).
    pub records_fetched: usize,
    /// Links followed (before dangling-target filtering).
    pub links_followed: usize,
    /// Links whose target record did not resolve.
    pub dangling_links: usize,
    /// Links whose relationship is not part of the mediated schema
    /// (sources may expose more than the mediator integrates).
    pub unmapped_links: usize,
    /// Nodes integrated before pruning to the relevant subgraph.
    pub nodes_raw: usize,
    /// Edges integrated before pruning.
    pub edges_raw: usize,
    /// Nodes in the final (pruned) query graph.
    pub nodes: usize,
    /// Edges in the final (pruned) query graph.
    pub edges: usize,
}

/// The result of executing an exploratory query.
#[derive(Clone, Debug)]
pub struct IntegrationResult {
    /// The probabilistic query graph (source node + answer set).
    pub query: QueryGraph,
    /// Provenance: the source record behind each node (the query node
    /// has no record).
    pub records: BTreeMap<NodeId, Record>,
    /// Execution statistics.
    pub stats: IntegrationStats,
}

impl IntegrationResult {
    /// The record key of an answer node (e.g. the GO term string).
    pub fn answer_key(&self, n: NodeId) -> Option<&str> {
        self.records.get(&n).map(|r| r.key.as_str())
    }

    /// The display label of a node.
    pub fn label(&self, n: NodeId) -> &str {
        self.records
            .get(&n)
            .map(|r| r.label.as_str())
            .unwrap_or("query")
    }
}

/// The mediator: a mediated schema plus a source registry.
pub struct Mediator {
    schema: Schema,
    registry: Registry,
    /// Hard cap on integrated nodes, guarding against runaway link
    /// structures in misconfigured sources.
    pub max_nodes: usize,
}

impl Mediator {
    /// Creates a mediator over a schema and registry.
    pub fn new(schema: Schema, registry: Registry) -> Self {
        Mediator {
            schema,
            registry,
            max_nodes: 100_000,
        }
    }

    /// The mediated schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Executes an exploratory query, producing the probabilistic query
    /// graph of Definition 2.3.
    pub fn execute(&self, q: &ExploratoryQuery) -> Result<IntegrationResult, Error> {
        let input_es = self
            .schema
            .entity_set_by_name(&q.input)
            .ok_or_else(|| Error::UnknownEntitySet(q.input.clone()))?;
        for out in &q.outputs {
            if self.schema.entity_set_by_name(out).is_none() {
                return Err(Error::UnknownEntitySet(out.clone()));
            }
        }

        let mut g = ProbGraph::new();
        let mut records: BTreeMap<NodeId, Record> = BTreeMap::new();
        let mut node_of: BTreeMap<(String, String), NodeId> = BTreeMap::new();
        let mut stats = IntegrationStats::default();

        // The synthetic query node: always present (p = 1).
        let source = g.add_labeled_node(Prob::ONE, format!("query:{}", q.value));

        // Keyword matching against the input entity set.
        let matches = self.registry.search(&q.input, &q.value);
        if matches.is_empty() {
            return Err(Error::NoMatches {
                entity_set: q.input.clone(),
                value: q.value.clone(),
            });
        }
        let input_ps = self.schema.entity_set(input_es).ps;
        let mut worklist: Vec<NodeId> = Vec::new();
        for rec in matches {
            stats.records_fetched += 1;
            let node = g.add_labeled_node(input_ps.and(rec.pr), rec.label.clone());
            node_of.insert((rec.entity_set.clone(), rec.key.clone()), node);
            records.insert(node, rec);
            // The keyword match itself is certain.
            g.add_edge(source, node, Prob::ONE)?;
            worklist.push(node);
        }

        // Recursive expansion: follow all links breadth-first.
        let mut cursor = 0usize;
        while cursor < worklist.len() {
            let from = worklist[cursor];
            cursor += 1;
            let (from_es, from_key) = {
                let r = &records[&from];
                (r.entity_set.clone(), r.key.clone())
            };
            for link in self.registry.links_from(&from_es, &from_key) {
                stats.links_followed += 1;
                // The mediated schema defines the integration scope:
                // relationships the schema does not declare are ignored.
                let Some(rel_id) = self.schema.relationship_by_name(&link.relationship) else {
                    stats.unmapped_links += 1;
                    continue;
                };
                let qs = self.schema.rel(rel_id).qs;
                let node_key = (link.to_entity_set, link.to_key);
                let to = match node_of.get(&node_key) {
                    Some(&n) => n,
                    None => {
                        let Some(rec) = self.registry.get(&node_key.0, &node_key.1) else {
                            stats.dangling_links += 1;
                            continue;
                        };
                        stats.records_fetched += 1;
                        if g.node_count() >= self.max_nodes {
                            return Err(Error::BudgetExceeded {
                                max_nodes: self.max_nodes,
                            });
                        }
                        let es_ps = self
                            .schema
                            .entity_set_by_name(&rec.entity_set)
                            .map(|id| self.schema.entity_set(id).ps)
                            .ok_or_else(|| Error::UnknownEntitySet(rec.entity_set.clone()))?;
                        let node = g.add_labeled_node(es_ps.and(rec.pr), rec.label.clone());
                        node_of.insert(node_key, node);
                        records.insert(node, rec);
                        worklist.push(node);
                        node
                    }
                };
                if to != from {
                    g.add_edge(from, to, qs.and(link.qr))?;
                }
            }
        }

        // Answer set: reached records of the output entity sets, in
        // integration order.
        let answers: Vec<NodeId> = worklist
            .iter()
            .copied()
            .filter(|n| q.is_output(&records[n].entity_set))
            .collect();
        if answers.is_empty() {
            return Err(Error::EmptyAnswerSet);
        }

        stats.nodes_raw = g.node_count();
        stats.edges_raw = g.edge_count();
        let mut query = QueryGraph::new(g, source, answers)?;
        query.prune();
        stats.nodes = query.graph().node_count();
        stats.edges = query.graph().edge_count();
        records.retain(|n, _| query.graph().node_alive(*n));
        Ok(IntegrationResult {
            query,
            records,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biorank_schema::biorank_schema_with_ontology;
    use biorank_sources::{World, WorldParams};

    fn mediator() -> Mediator {
        let world = World::generate(WorldParams::default());
        Mediator::new(biorank_schema_with_ontology().schema, world.registry())
    }

    #[test]
    fn abcc8_query_returns_97_functions() {
        let m = mediator();
        let r = m
            .execute(&ExploratoryQuery::protein_functions("ABCC8"))
            .unwrap();
        assert_eq!(r.query.answers().len(), 97, "Table 1: ABCC8 → 97 functions");
        // All answers are AmiGO records with GO keys.
        for &a in r.query.answers() {
            let rec = &r.records[&a];
            assert_eq!(rec.entity_set, "AmiGO");
            assert!(rec.key.starts_with("GO:"), "key {}", rec.key);
        }
    }

    #[test]
    fn all_table1_counts_reproduce() {
        let m = mediator();
        for row in biorank_sources::paper_data::TABLE1 {
            let r = m
                .execute(&ExploratoryQuery::protein_functions(row.protein))
                .unwrap();
            assert_eq!(
                r.query.answers().len(),
                row.biorank_functions,
                "{}",
                row.protein
            );
        }
    }

    #[test]
    fn hypothetical_protein_answer_sizes_reproduce() {
        let m = mediator();
        for row in biorank_sources::paper_data::TABLE3 {
            let r = m
                .execute(&ExploratoryQuery::protein_functions(row.protein))
                .unwrap();
            assert_eq!(
                r.query.answers().len(),
                row.answer_set_size,
                "{}",
                row.protein
            );
        }
    }

    #[test]
    fn query_graph_is_a_dag_with_query_source() {
        let m = mediator();
        let r = m
            .execute(&ExploratoryQuery::protein_functions("CFTR"))
            .unwrap();
        assert!(biorank_graph::topo::is_dag(r.query.graph()));
        assert_eq!(r.label(r.query.source()), "query");
        assert_eq!(r.query.graph().node_p(r.query.source()).get(), 1.0);
        assert!(r.stats.nodes > 50, "stats: {:?}", r.stats);
        assert_eq!(r.stats.nodes, r.query.graph().node_count());
    }

    #[test]
    fn unknown_protein_is_no_matches() {
        let m = mediator();
        let err = m
            .execute(&ExploratoryQuery::protein_functions("NOT_A_PROTEIN"))
            .unwrap_err();
        assert!(matches!(err, Error::NoMatches { .. }));
    }

    #[test]
    fn unknown_entity_sets_are_rejected() {
        let m = mediator();
        let err = m
            .execute(&ExploratoryQuery::new("Nope", "x", "v", ["AmiGO"]))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownEntitySet(_)));
        let err = m
            .execute(&ExploratoryQuery::new(
                "EntrezProtein",
                "name",
                "ABCC8",
                ["Nope"],
            ))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownEntitySet(_)));
    }

    #[test]
    fn execution_is_deterministic() {
        let m = mediator();
        let q = ExploratoryQuery::protein_functions("EYA1");
        let a = m.execute(&q).unwrap();
        let b = m.execute(&q).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.query.answers().len(), b.query.answers().len());
    }

    #[test]
    fn node_budget_is_enforced() {
        let world = World::generate(WorldParams::default());
        let mut m = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
        m.max_nodes = 10;
        let err = m
            .execute(&ExploratoryQuery::protein_functions("ABCC8"))
            .unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
    }
}
