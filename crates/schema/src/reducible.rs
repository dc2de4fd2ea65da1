//! Theorem 3.2 — deciding whether an E/R schema is *reducible*.
//!
//! A schema is reducible when every data-graph instance of it collapses
//! completely under the three reduction rules of `biorank_graph::reduction`,
//! so that source–target reliability has a tractable closed form.
//!
//! The theorem gives two constructors:
//!
//! * **Part A** — a tree consisting only of `[1:n]` relationships is
//!   reducible.
//! * **Part B** — if an entity set `P` has exactly one incoming `[1:n]`
//!   relationship `Q` and exactly one outgoing `[n:1]` relationship `Q′`,
//!   and the composition `Q ∘ Q′` is known (by algebra or by *domain
//!   knowledge*) to be `[1:n]` or `[n:1]` but not `[m:n]`, then `S` is
//!   reducible iff the schema with `P` contracted is.
//!
//! Because Part B is an *iff*, contracting any eligible `P` keeps the
//! verdict, so no choice of `P` ever needs revisiting. The checker is
//! one rewriting loop: merge parallel relationships, then, until the
//! Part A base case holds, contract the lowest-id eligible entity set
//! and merge again. Each contraction removes a live entity set, so the
//! loop ends. It is sound but — like the theorem — not complete:
//! `Unknown` means "the theorem does not apply", not "irreducible".
//!
//! Order-independence rests on one convention: a compose hint names the
//! composed *path*, not its bracketing. Composition is associative, so
//! `x∘y∘z` is one relation whether it was built as `(x∘y)∘z` or
//! `x∘(y∘z)`, and [`ComposeHints`] keys it by that name. Keyed by the
//! `(left, right)` pair instead, a hint `("x", "y∘z")` on the chain
//! `A –x[1:n]→ B –y[1:1]→ C –z[n:1]→ D` would be found only when `C` is
//! contracted before `B`: contracting `B` first asks for `("x∘y", "z")`,
//! misses, and leaves a reducible schema `Unknown`.
//!
//! [`check_query_reducible`] adds the observation from the efficiency
//! study (§4, item 1): from the point of view of a **single answer
//! node**, every relationship into the answer entity set is effectively
//! `[n:1]` — at the data level all edges into one target node that share
//! a left record are parallel and merge under rule 3. With that
//! refinement the paper's Fig. 1 query schema, irreducible as a whole
//! because of its final `[n:m]` relation, solves in closed form per
//! answer — "our theory proves to be right and useful".

use std::collections::BTreeMap;

use crate::{Cardinality, Composition, EntitySetId, Schema};

/// Domain-knowledge hints resolving ambiguous `[1:n] ∘ [n:1]`
/// compositions, keyed by the name of the composed relationship.
///
/// Composed relationships are named `"left∘right"` and merged parallel
/// relationships `"left∥right"`, so hints can chain. A hint names a
/// path, not its bracketing: `declare("x", "y∘z", c)` and
/// `declare("x∘y", "z", c)` declare the same relation `x∘y∘z`, and the
/// later declaration wins.
#[derive(Clone, Debug, Default)]
pub struct ComposeHints {
    map: BTreeMap<String, Cardinality>,
}

impl ComposeHints {
    /// No hints: only the unconditional algebra applies.
    pub fn none() -> Self {
        Self::default()
    }

    /// Declares that `left ∘ right` has the given cardinality.
    pub fn declare(&mut self, left: &str, right: &str, card: Cardinality) -> &mut Self {
        self.map.insert(format!("{left}∘{right}"), card);
        self
    }

    fn lookup(&self, composed: &str) -> Option<Cardinality> {
        self.map.get(composed).copied()
    }
}

/// One step in a successful reducibility derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// The residual schema is a `[1:n]` tree, possibly with terminal
    /// per-target `[n:1]` relationships (Theorem 3.2 Part A).
    TreeBase,
    /// Parallel relationships between the same entity pair were merged.
    MergeParallel {
        /// First merged relationship name.
        left: String,
        /// Second merged relationship name.
        right: String,
        /// Cardinality of the merged relationship.
        merged: Cardinality,
    },
    /// Entity set `entity` was contracted via Part B.
    Contract {
        /// The contracted entity set name.
        entity: String,
        /// Name of the incoming relationship `Q`.
        incoming: String,
        /// Name of the outgoing relationship `Q′`.
        outgoing: String,
        /// Cardinality of the composition `Q ∘ Q′`.
        composed: Cardinality,
    },
}

/// Result of a reducibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reducibility {
    /// The schema is reducible; `steps` is a derivation witness.
    Reducible {
        /// The derivation, outermost step first.
        steps: Vec<Step>,
    },
    /// Theorem 3.2 does not apply (instances may still happen to reduce,
    /// but no closed form is guaranteed).
    Unknown {
        /// Entity sets of the view after the first parallel merges,
        /// before any contraction. Where the loop got stuck depends on
        /// the contraction order; this set does not.
        residual_entities: Vec<String>,
    },
}

impl Reducibility {
    /// `true` when reducible.
    pub fn is_reducible(&self) -> bool {
        matches!(self, Reducibility::Reducible { .. })
    }
}

/// A lightweight working copy of the query-relevant part of a schema.
#[derive(Clone, Debug)]
struct View {
    entities: Vec<String>,
    alive: Vec<bool>,
    rels: Vec<ViewRel>,
    /// In per-target mode, the answer entity set viewed as one node.
    single_target: Option<usize>,
}

#[derive(Clone, Debug)]
struct ViewRel {
    name: String,
    from: usize,
    to: usize,
    card: Cardinality,
    alive: bool,
}

impl View {
    fn from_schema(schema: &Schema, root: EntitySetId, single_target: Option<EntitySetId>) -> View {
        // Keep only entity sets reachable from the root by following
        // relationships forward (the direction exploratory queries walk).
        let n = schema.entity_set_count();
        let mut reach = vec![false; n];
        reach[root.0] = true;
        let mut stack = vec![root.0];
        while let Some(x) = stack.pop() {
            for (_, r) in schema.outgoing(EntitySetId(x)) {
                if !reach[r.to.0] {
                    reach[r.to.0] = true;
                    stack.push(r.to.0);
                }
            }
        }
        let entities = (0..n)
            .map(|i| schema.entity_set(EntitySetId(i)).name.clone())
            .collect();
        let single_target = single_target.map(|t| t.0);
        let rels = schema
            .relationships()
            .filter(|(_, r)| reach[r.from.0] && reach[r.to.0])
            .map(|(_, r)| ViewRel {
                name: r.name.clone(),
                from: r.from.0,
                to: r.to.0,
                // Per-target mode: any relation into the single answer
                // node is [n:1] after parallel-edge merging.
                card: if single_target == Some(r.to.0) {
                    Cardinality::ManyToOne
                } else {
                    r.cardinality
                },
                alive: true,
            })
            .collect();
        View {
            entities,
            alive: reach,
            rels,
            single_target,
        }
    }

    fn live_entities(&self) -> Vec<String> {
        (0..self.entities.len())
            .filter(|&i| self.alive[i])
            .map(|i| self.entities[i].clone())
            .collect()
    }

    fn live_rels(&self) -> impl Iterator<Item = usize> + '_ {
        self.rels
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .map(|(i, _)| i)
    }

    /// The live relationship matching `pred`, if exactly one does.
    fn sole_rel(&self, pred: impl Fn(&ViewRel) -> bool) -> Option<usize> {
        let mut matching = self.live_rels().filter(|&i| pred(&self.rels[i]));
        let first = matching.next()?;
        matching.next().is_none().then_some(first)
    }

    /// Part A base case, extended for per-target mode, on a view known
    /// to be acyclic.
    ///
    /// The view must have exactly one root where every non-root entity
    /// (other than the single target) has exactly one incoming
    /// relationship, every relationship not entering the single target
    /// is `[1:n]`/`[1:1]`, and relationships into the single target may
    /// also be `[n:1]` (their data edges funnel into one node and
    /// collapse by serial+parallel reduction).
    fn is_reducible_base(&self) -> bool {
        let cards_ok = self.live_rels().all(|i| {
            let r = &self.rels[i];
            match r.card {
                Cardinality::OneToMany | Cardinality::OneToOne => true,
                Cardinality::ManyToOne => self.single_target == Some(r.to),
                Cardinality::ManyToMany => false,
            }
        });
        let indeg = self.in_degrees();
        let live = || (0..self.entities.len()).filter(|&e| self.alive[e]);
        let mut roots = live().filter(|&e| indeg[e] == 0);
        let (Some(root), None) = (roots.next(), roots.next()) else {
            return false;
        };
        cards_ok && live().all(|e| e == root || self.single_target == Some(e) || indeg[e] == 1)
    }

    fn in_degrees(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.entities.len()];
        for i in self.live_rels() {
            indeg[self.rels[i].to] += 1;
        }
        indeg
    }

    fn is_acyclic(&self) -> bool {
        // Kahn over the live view.
        let mut indeg = self.in_degrees();
        let mut queue: Vec<usize> = (0..self.entities.len())
            .filter(|&i| self.alive[i] && indeg[i] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(x) = queue.pop() {
            seen += 1;
            for i in self.live_rels() {
                if self.rels[i].from == x {
                    indeg[self.rels[i].to] -= 1;
                    if indeg[self.rels[i].to] == 0 {
                        queue.push(self.rels[i].to);
                    }
                }
            }
        }
        seen == self.alive.iter().filter(|&&a| a).count()
    }

    /// Merges parallel relationships (same from/to), one pair at a time,
    /// until none are left, recording each merge in `steps`.
    ///
    /// The merged cardinality is `[n:1]` when both enter the single
    /// target (all data edges converge on one node and rule 3 merges
    /// them), `[m:n]` otherwise (conservative: unions of functional
    /// relations need not be functional).
    fn merge_parallel(&mut self, steps: &mut Vec<Step>) {
        while let Some((a, b)) = self.first_parallel_pair() {
            let merged_card = if self.single_target == Some(self.rels[a].to) {
                Cardinality::ManyToOne
            } else {
                Cardinality::ManyToMany
            };
            steps.push(Step::MergeParallel {
                left: self.rels[a].name.clone(),
                right: self.rels[b].name.clone(),
                merged: merged_card,
            });
            let merged = ViewRel {
                name: format!("{}∥{}", self.rels[a].name, self.rels[b].name),
                from: self.rels[a].from,
                to: self.rels[a].to,
                card: merged_card,
                alive: true,
            };
            self.rels[a].alive = false;
            self.rels[b].alive = false;
            self.rels.push(merged);
        }
    }

    fn first_parallel_pair(&self) -> Option<(usize, usize)> {
        let live: Vec<usize> = self.live_rels().collect();
        live.iter().enumerate().find_map(|(ai, &a)| {
            live[ai + 1..]
                .iter()
                .find(|&&b| {
                    self.rels[a].from == self.rels[b].from && self.rels[a].to == self.rels[b].to
                })
                .map(|&b| (a, b))
        })
    }

    /// Contracts entity set `p` by Part B when it is eligible: its sole
    /// incoming `Q` and sole outgoing `Q′` give way to one relationship
    /// named `Q∘Q′`. Leaves the view untouched and returns `None` when
    /// `p` is not eligible.
    fn contract(&mut self, p: usize, hints: &ComposeHints) -> Option<Step> {
        if !self.alive[p] || self.single_target == Some(p) {
            return None;
        }
        let qi = self.sole_rel(|r| r.to == p)?;
        let qo = self.sole_rel(|r| r.from == p)?;
        let (q, q2) = (&self.rels[qi], &self.rels[qo]);
        // Q must be [1:n] (or [1:1] as its sub-case), Q′ must be [n:1].
        if !matches!(q.card, Cardinality::OneToMany | Cardinality::OneToOne)
            || !q2.card.is_functional()
        {
            return None;
        }
        // A self-loop composition only arises on cyclic schemas — skip.
        if q.from == q2.to {
            return None;
        }
        let name = format!("{}∘{}", q.name, q2.name);
        let composed = match q.card.compose(q2.card) {
            Composition::Always(c) => c,
            // Composite relation into one answer node: the data edges
            // collapse to at most one per left record.
            Composition::NeedsDomainKnowledge if self.single_target == Some(q2.to) => {
                Cardinality::ManyToOne
            }
            Composition::NeedsDomainKnowledge => hints.lookup(&name)?,
        };
        if composed == Cardinality::ManyToMany {
            return None; // Part B explicitly excludes [m:n] compositions.
        }
        let step = Step::Contract {
            entity: self.entities[p].clone(),
            incoming: q.name.clone(),
            outgoing: q2.name.clone(),
            composed,
        };
        let (from, to) = (q.from, q2.to);
        self.rels[qi].alive = false;
        self.rels[qo].alive = false;
        self.alive[p] = false;
        self.rels.push(ViewRel {
            name,
            from,
            to,
            card: composed,
            alive: true,
        });
        Some(step)
    }
}

/// Checks Theorem 3.2 on the part of `schema` reachable from `root`.
pub fn check_reducible(schema: &Schema, root: EntitySetId, hints: &ComposeHints) -> Reducibility {
    let view = View::from_schema(schema, root, None);
    run_check(view, hints)
}

/// Checks reducibility of the query schema *per answer node* (§4,
/// Efficiency item 1): every relationship into `answer_set` is viewed as
/// `[n:1]`, and ambiguous compositions ending at the answer set resolve
/// to `[n:1]` automatically.
pub fn check_query_reducible(
    schema: &Schema,
    root: EntitySetId,
    answer_set: EntitySetId,
    hints: &ComposeHints,
) -> Reducibility {
    let view = View::from_schema(schema, root, Some(answer_set));
    run_check(view, hints)
}

/// Merges, then contracts the lowest-id eligible entity set and merges
/// again until Part A holds. Part B's *iff* makes the first eligible
/// entity set as good a choice as any other.
fn run_check(mut view: View, hints: &ComposeHints) -> Reducibility {
    let mut steps = Vec::new();
    view.merge_parallel(&mut steps);
    let residual_entities = view.live_entities();
    // Contracting and merging map every cycle onto a cycle, so a cyclic
    // view never reaches Part A and an acyclic one stays acyclic.
    if !view.is_acyclic() {
        return Reducibility::Unknown { residual_entities };
    }
    while !view.is_reducible_base() {
        let Some(step) = (0..view.entities.len()).find_map(|p| view.contract(p, hints)) else {
            return Reducibility::Unknown { residual_entities };
        };
        steps.push(step);
        view.merge_parallel(&mut steps);
    }
    steps.push(Step::TreeBase);
    Reducibility::Reducible { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cardinality::*;

    /// Builds the chain schema of Fig. 3a:
    /// 0 –[1:n]→ 1 –[n:1]→ 2 –[1:n]→ 3 –[n:1]→ 4 –[1:n]→ 5
    /// with hints making the inner compositions collapse as in the figure.
    fn fig3a() -> (Schema, EntitySetId, ComposeHints) {
        let mut s = Schema::new();
        let ids: Vec<_> = (0..6)
            .map(|i| s.entity(&format!("P{i}"), "src", &[], 1.0).unwrap())
            .collect();
        s.relationship("q01", ids[0], ids[1], OneToMany, 1.0)
            .unwrap();
        s.relationship("q12", ids[1], ids[2], ManyToOne, 1.0)
            .unwrap();
        s.relationship("q23", ids[2], ids[3], OneToMany, 1.0)
            .unwrap();
        s.relationship("q34", ids[3], ids[4], ManyToOne, 1.0)
            .unwrap();
        s.relationship("q45", ids[4], ids[5], OneToMany, 1.0)
            .unwrap();
        let mut hints = ComposeHints::none();
        // Both inner compositions resolve, and so does the path they
        // form, so that the residual chain ends as a [1:n] tree.
        hints.declare("q01", "q12", OneToMany);
        hints.declare("q23", "q34", ManyToOne);
        hints.declare("q01∘q12", "q23∘q34", OneToMany);
        (s, ids[0], hints)
    }

    #[test]
    fn part_a_tree_of_one_to_many() {
        let mut s = Schema::new();
        let a = s.entity("A", "x", &[], 1.0).unwrap();
        let b = s.entity("B", "x", &[], 1.0).unwrap();
        let c = s.entity("C", "x", &[], 1.0).unwrap();
        s.relationship("ab", a, b, OneToMany, 1.0).unwrap();
        s.relationship("ac", a, c, OneToMany, 1.0).unwrap();
        let r = check_reducible(&s, a, &ComposeHints::none());
        assert_eq!(
            r,
            Reducibility::Reducible {
                steps: vec![Step::TreeBase]
            }
        );
    }

    #[test]
    fn many_to_many_chain_is_unknown() {
        // Fig 2a: 0 –[1:n]→ 1 –[n:m]→ 2 –[n:1]→ 3 is irreducible.
        let mut s = Schema::new();
        let ids: Vec<_> = (0..4)
            .map(|i| s.entity(&format!("P{i}"), "x", &[], 1.0).unwrap())
            .collect();
        s.relationship("q01", ids[0], ids[1], OneToMany, 1.0)
            .unwrap();
        s.relationship("q12", ids[1], ids[2], ManyToMany, 1.0)
            .unwrap();
        s.relationship("q23", ids[2], ids[3], ManyToOne, 1.0)
            .unwrap();
        let r = check_reducible(&s, ids[0], &ComposeHints::none());
        assert!(!r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn fig2b_one_to_n_then_n_to_1_needs_hints() {
        // Fig 2b: 0 –[1:n]→ 1 –[1:n]→ 2 –[n:1]→ 3 –[n:1]→ 4 may be
        // irreducible: without hints the checker must say Unknown.
        let mut s = Schema::new();
        let ids: Vec<_> = (0..5)
            .map(|i| s.entity(&format!("P{i}"), "x", &[], 1.0).unwrap())
            .collect();
        s.relationship("q01", ids[0], ids[1], OneToMany, 1.0)
            .unwrap();
        s.relationship("q12", ids[1], ids[2], OneToMany, 1.0)
            .unwrap();
        s.relationship("q23", ids[2], ids[3], ManyToOne, 1.0)
            .unwrap();
        s.relationship("q34", ids[3], ids[4], ManyToOne, 1.0)
            .unwrap();
        let r = check_reducible(&s, ids[0], &ComposeHints::none());
        assert!(!r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn fig3a_reducible_with_hints() {
        let (s, root, hints) = fig3a();
        let r = check_reducible(&s, root, &hints);
        assert!(r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn fig3a_unknown_without_hints() {
        let (s, root, _) = fig3a();
        let r = check_reducible(&s, root, &ComposeHints::none());
        assert!(!r.is_reducible());
    }

    #[test]
    fn fig3b_m_n_composition_blocks() {
        // Same chain, but the first composition is declared [m:n]:
        // Part B must not fire through it (Fig. 3b).
        let (s, root, _) = fig3a();
        let mut hints = ComposeHints::none();
        hints.declare("q01", "q12", ManyToMany);
        hints.declare("q23", "q34", ManyToOne);
        let r = check_reducible(&s, root, &hints);
        assert!(!r.is_reducible(), "m:n composition must block Part B");
    }

    #[test]
    fn contraction_chains_through_hints() {
        // 0 –[1:n]→ 1 –[n:1]→ 2 –[n:1]→ 3 with hints resolving both
        // compositions.
        let mut s = Schema::new();
        let ids: Vec<_> = (0..4)
            .map(|i| s.entity(&format!("P{i}"), "x", &[], 1.0).unwrap())
            .collect();
        s.relationship("q01", ids[0], ids[1], OneToMany, 1.0)
            .unwrap();
        s.relationship("q12", ids[1], ids[2], ManyToOne, 1.0)
            .unwrap();
        s.relationship("q23", ids[2], ids[3], ManyToOne, 1.0)
            .unwrap();
        let mut hints = ComposeHints::none();
        hints.declare("q01", "q12", OneToMany);
        hints.declare("q01∘q12", "q23", OneToMany);
        let r = check_reducible(&s, ids[0], &hints);
        assert!(r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn single_entity_root_is_reducible() {
        let mut s = Schema::new();
        let a = s.entity("A", "x", &[], 1.0).unwrap();
        let r = check_reducible(&s, a, &ComposeHints::none());
        assert!(r.is_reducible());
    }

    #[test]
    fn unreachable_entities_are_ignored() {
        let mut s = Schema::new();
        let a = s.entity("A", "x", &[], 1.0).unwrap();
        let b = s.entity("B", "x", &[], 1.0).unwrap();
        let c = s.entity("C", "x", &[], 1.0).unwrap();
        s.relationship("ab", a, b, OneToMany, 1.0).unwrap();
        // C only points INTO the reachable part; it is not reachable
        // from A and must not affect the answer.
        s.relationship("cb", c, b, ManyToMany, 1.0).unwrap();
        let r = check_reducible(&s, a, &ComposeHints::none());
        assert!(r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn query_view_retypes_final_relationship() {
        // 0 –[1:n]→ 1 –[m:n]→ 2 (answers): whole schema unknown, but per
        // answer node the final [m:n] becomes [n:1] and the ambiguous
        // composition into the target auto-resolves.
        let mut s = Schema::new();
        let ids: Vec<_> = (0..3)
            .map(|i| s.entity(&format!("P{i}"), "x", &[], 1.0).unwrap())
            .collect();
        s.relationship("q01", ids[0], ids[1], OneToMany, 1.0)
            .unwrap();
        s.relationship("q12", ids[1], ids[2], ManyToMany, 1.0)
            .unwrap();
        assert!(!check_reducible(&s, ids[0], &ComposeHints::none()).is_reducible());
        let r = check_query_reducible(&s, ids[0], ids[2], &ComposeHints::none());
        assert!(r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn parallel_relationships_merge_to_m_n_without_target() {
        let mut s = Schema::new();
        let a = s.entity("A", "x", &[], 1.0).unwrap();
        let b = s.entity("B", "x", &[], 1.0).unwrap();
        s.relationship("r1", a, b, OneToMany, 1.0).unwrap();
        s.relationship("r2", a, b, ManyToOne, 1.0).unwrap();
        let r = check_reducible(&s, a, &ComposeHints::none());
        assert!(!r.is_reducible());
        // Per-target, the same pair merges to [n:1] and reduces.
        let r = check_query_reducible(&s, a, b, &ComposeHints::none());
        assert!(r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn diamond_of_branches_reduces_per_target() {
        // root fans out to two chains that converge on the answers —
        // the archetypal BioRank query shape.
        let mut s = Schema::new();
        let root = s.entity("Root", "x", &[], 1.0).unwrap();
        let l = s.entity("L", "x", &[], 1.0).unwrap();
        let rgt = s.entity("R", "x", &[], 1.0).unwrap();
        let t = s.entity("T", "x", &[], 1.0).unwrap();
        s.relationship("rl", root, l, OneToMany, 1.0).unwrap();
        s.relationship("rr", root, rgt, OneToMany, 1.0).unwrap();
        s.relationship("lt", l, t, ManyToMany, 1.0).unwrap();
        s.relationship("rt", rgt, t, ManyToMany, 1.0).unwrap();
        assert!(!check_reducible(&s, root, &ComposeHints::none()).is_reducible());
        let r = check_query_reducible(&s, root, t, &ComposeHints::none());
        assert!(r.is_reducible(), "got {r:?}");
    }

    #[test]
    fn cyclic_schema_is_unknown() {
        let mut s = Schema::new();
        let a = s.entity("A", "x", &[], 1.0).unwrap();
        let b = s.entity("B", "x", &[], 1.0).unwrap();
        s.relationship("ab", a, b, OneToMany, 1.0).unwrap();
        s.relationship("ba", b, a, OneToMany, 1.0).unwrap();
        let r = check_reducible(&s, a, &ComposeHints::none());
        assert!(!r.is_reducible());
    }

    #[test]
    fn a_hint_names_its_path_not_its_bracketing() {
        // A –x[1:n]→ B –y[1:1]→ C –z[n:1]→ D. Contracting B first builds
        // x∘y [1:n] and then needs a hint for x∘y∘z; contracting C first
        // builds y∘z [n:1] and needs a hint for the same path. Either
        // spelling of that hint must be found, whichever entity set the
        // checker contracts first.
        let mut s = Schema::new();
        let ids: Vec<_> = ["A", "B", "C", "D"]
            .iter()
            .map(|name| s.entity(name, "x", &[], 1.0).unwrap())
            .collect();
        s.relationship("x", ids[0], ids[1], OneToMany, 1.0).unwrap();
        s.relationship("y", ids[1], ids[2], OneToOne, 1.0).unwrap();
        s.relationship("z", ids[2], ids[3], ManyToOne, 1.0).unwrap();
        for (left, right) in [("x", "y∘z"), ("x∘y", "z")] {
            let mut hints = ComposeHints::none();
            hints.declare(left, right, OneToMany);
            let r = check_reducible(&s, ids[0], &hints);
            assert!(r.is_reducible(), "hint ({left}, {right}): got {r:?}");
        }
    }

    /// The exhaustive reference: depth-first over every eligible
    /// contraction, lowest id first, backtracking when a branch fails.
    fn exhaustive(view: &View, hints: &ComposeHints) -> Option<Vec<Step>> {
        if view.is_reducible_base() && view.is_acyclic() {
            return Some(vec![Step::TreeBase]);
        }
        (0..view.entities.len()).find_map(|p| {
            let mut next = view.clone();
            let mut steps = vec![next.contract(p, hints)?];
            next.merge_parallel(&mut steps);
            steps.extend(exhaustive(&next, hints)?);
            Some(steps)
        })
    }

    fn oracle(
        schema: &Schema,
        root: EntitySetId,
        target: Option<EntitySetId>,
        hints: &ComposeHints,
    ) -> Reducibility {
        let mut view = View::from_schema(schema, root, target);
        let mut steps = Vec::new();
        view.merge_parallel(&mut steps);
        match exhaustive(&view, hints) {
            Some(tail) => {
                steps.extend(tail);
                Reducibility::Reducible { steps }
            }
            None => Reducibility::Unknown {
                residual_entities: view.live_entities(),
            },
        }
    }

    /// SplitMix64, enough randomness for schema generation.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One seeded schema, its check mode and hints, and the one-line
    /// name that reproduces it.
    struct Case {
        name: String,
        schema: Schema,
        target: Option<EntitySetId>,
        hints: ComposeHints,
    }

    /// A random schema of 2–9 entity sets rooted at `E0`: a spanning
    /// tree of forward relationships, plus forward, parallel, back and
    /// self relationships, all four cardinalities, and hints on base
    /// pairs, on composed paths split at a random point and on merged
    /// names.
    fn random_case(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let n = 2 + rng.below(8);
        let mut schema = Schema::new();
        let ids: Vec<_> = (0..n)
            .map(|i| schema.entity(&format!("E{i}"), "x", &[], 1.0).unwrap())
            .collect();
        // Mostly a chain, so that Part B finds entity sets to contract.
        let mut ends: Vec<(usize, usize)> = (1..n)
            .map(|to| match rng.below(3) {
                0 => (rng.below(to), to),
                _ => (to - 1, to),
            })
            .collect();
        for _ in 0..rng.below(4).saturating_sub(1) {
            let (a, b) = (rng.below(n), rng.below(n));
            ends.push(match rng.below(6) {
                0 | 1 => (a.min(b), a.max(b)),        // forward (or self when equal)
                2 | 3 => ends[rng.below(ends.len())], // parallel
                4 => (a.max(b), a.min(b)),            // back
                _ => (a, a),                          // self
            });
        }
        let cards = [
            OneToMany, OneToMany, OneToMany, ManyToOne, ManyToOne, ManyToOne, OneToOne, ManyToMany,
        ];
        let mut name = format!("seed={seed:#018x} n={n} rels=[");
        for (k, &(from, to)) in ends.iter().enumerate() {
            // Half the time alternate [1:n] and [n:1], the shape Part B contracts.
            let card = match rng.below(2) {
                0 => [OneToMany, ManyToOne][k % 2],
                _ => cards[rng.below(cards.len())],
            };
            schema
                .relationship(&format!("r{k}"), ids[from], ids[to], card, 1.0)
                .unwrap();
            name += &format!("r{k}:E{from}→E{to}{card} ");
        }
        // Whole schema, the last entity set (the usual answer set), or any.
        let target = match rng.below(3) {
            0 => None,
            1 => Some(ids[n - 1]),
            _ => Some(ids[rng.below(n)]),
        };
        name += &format!("] target={target:?} hints=[");
        // A relationship name, or a merged name when it has a parallel twin.
        let label = |k: usize, rng: &mut Rng| match (0..ends.len())
            .find(|&j| j != k && ends[j] == ends[k])
        {
            Some(j) if rng.below(2) == 0 => format!("r{}∥r{}", k.min(j), k.max(j)),
            _ => format!("r{k}"),
        };
        let mut hints = ComposeHints::none();
        let hint_cards = [OneToMany, OneToMany, OneToMany, ManyToOne, ManyToMany];
        // Each path of two to four adjacent relationships gets a hint
        // with probability 2/3, split at a random point.
        let mut open: Vec<Vec<usize>> = (0..ends.len()).map(|k| vec![k]).collect();
        while let Some(path) = open.pop() {
            let at = ends[*path.last().unwrap()].1;
            if path.len() < 4 {
                for j in (0..ends.len()).filter(|&j| ends[j].0 == at) {
                    open.push([&path[..], &[j]].concat());
                }
            }
            if path.len() < 2 || rng.below(3) == 0 {
                continue;
            }
            let labels: Vec<String> = path.iter().map(|&k| label(k, &mut rng)).collect();
            let (left, right) = labels.split_at(1 + rng.below(labels.len() - 1));
            let (left, right) = (left.join("∘"), right.join("∘"));
            let card = hint_cards[rng.below(hint_cards.len())];
            hints.declare(&left, &right, card);
            name += &format!("({left})({right}){card} ");
        }
        name.push(']');
        Case {
            name,
            schema,
            target,
            hints,
        }
    }

    #[test]
    fn one_contraction_order_agrees_with_exhaustive_search() {
        const CASES: usize = 20_000;
        let mut seeds = Rng(0x7E02_3200);
        let (mut reducible, mut multi_step, mut hint_decided) = (0, 0, 0);
        for _ in 0..CASES {
            let case = random_case(seeds.next());
            let root = EntitySetId(0);
            let check = |hints| match case.target {
                Some(t) => check_query_reducible(&case.schema, root, t, hints),
                None => check_reducible(&case.schema, root, hints),
            };
            let got = check(&case.hints);
            let want = oracle(&case.schema, root, case.target, &case.hints);
            assert_eq!(got, want, "{}", case.name);
            if let Reducibility::Reducible { steps } = &got {
                reducible += 1;
                let contractions = steps
                    .iter()
                    .filter(|s| matches!(s, Step::Contract { .. }))
                    .count();
                multi_step += usize::from(contractions >= 2);
                hint_decided += usize::from(!check(&ComposeHints::none()).is_reducible());
            }
        }
        // The generator must keep exercising both verdicts, derivations
        // of several contractions and verdicts that only hints decide.
        assert!(
            reducible > CASES / 10 && reducible < CASES / 2,
            "{reducible} reducible"
        );
        assert!(
            multi_step > 100,
            "{multi_step} multi-contraction derivations"
        );
        assert!(
            hint_decided > 300,
            "{hint_decided} verdicts decided by hints"
        );
    }
}
