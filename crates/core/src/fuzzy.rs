//! The fuzzy-tree model: a data tree whose nodes carry event conditions.
//!
//! A fuzzy tree (slide 12) is a data tree where every node is annotated with
//! a *condition* — a conjunction of probabilistic events or negations of
//! probabilistic events — plus a table assigning a probability to each event.
//! The **possible-worlds semantics** of a fuzzy tree is obtained by
//! enumerating the valuations of the events: in the world of a valuation, a
//! node is present iff its condition *and the conditions of all its
//! ancestors* hold (a node disappears together with its whole subtree).
//!
//! The model is as expressive as the possible-worlds model (see
//! [`crate::encode`]) while staying polynomial-size in typical documents:
//! instead of materialising up to `2^n` worlds, uncertainty is recorded
//! locally on the affected nodes.

use std::collections::HashMap;
use std::fmt::Write;

use pxml_event::{
    enumerate_valuations_over, Condition, EventError, EventId, EventTable, Literal, Valuation,
};
use pxml_tree::{subtree_canonical_string, ChunkedVec, Label, NodeId, Tree};

use crate::error::CoreError;
use crate::worlds::PossibleWorlds;

/// Per-node conditions, stored positionally (indexed by `NodeId::index`) in a
/// copy-on-write chunked vector so that cloning a [`FuzzyTree`] shares the
/// condition storage with the original and a mutation batch copies only the
/// chunks holding the touched nodes — the same structural sharing as the
/// arena of [`Tree`] itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConditionMap {
    slots: ChunkedVec<Option<Condition>>,
}

impl ConditionMap {
    pub(crate) fn new() -> Self {
        ConditionMap::default()
    }

    pub(crate) fn get(&self, node: NodeId) -> Option<&Condition> {
        self.slots.get(node.index()).and_then(|slot| slot.as_ref())
    }

    pub(crate) fn insert(&mut self, node: NodeId, condition: Condition) {
        let index = node.index();
        while self.slots.len() <= index {
            self.slots.push(None);
        }
        *self.slots.get_mut(index).expect("slot just grown") = Some(condition);
    }

    pub(crate) fn remove(&mut self, node: NodeId) {
        // Skip the write (and the chunk un-sharing it would force) when the
        // slot is already empty or out of range.
        if self.get(node).is_some() {
            *self.slots.get_mut(node.index()).expect("slot in range") = None;
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Condition)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            slot.as_ref()
                .map(|condition| (NodeId::from_index(index), condition))
        })
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &Condition> {
        self.slots.iter().filter_map(|slot| slot.as_ref())
    }
}

/// A data tree with per-node event conditions and an event table.
#[derive(Debug, Clone)]
pub struct FuzzyTree {
    pub(crate) tree: Tree,
    pub(crate) conditions: ConditionMap,
    pub(crate) events: EventTable,
    /// Set by a [`Simplifier`](crate::Simplifier) run whose last round
    /// changed nothing, cleared by every public mutator: `true` promises
    /// that a whole-document run would change nothing, which is what lets
    /// the apply pipeline simplify only what an update touched. Never
    /// serialized: a loaded document starts unmarked.
    pub(crate) fixpoint: bool,
}

impl FuzzyTree {
    /// Creates a fuzzy tree with a single (certain) root node.
    pub fn new(root_label: impl Into<Label>) -> Self {
        FuzzyTree::from_tree(Tree::new(root_label))
    }

    /// Wraps an ordinary data tree: every node is certain.
    pub fn from_tree(tree: Tree) -> Self {
        FuzzyTree {
            tree,
            conditions: ConditionMap::new(),
            events: EventTable::new(),
            fixpoint: false,
        }
    }

    /// The underlying data tree (conditions stripped).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Makes the tree's label index current and drops the base it was
    /// patched from ([`Tree::refresh_label_index`]): a document about to
    /// be published, or replayed, calls it so that its queries and its
    /// next update's match start from the index.
    pub fn refresh_label_index(&mut self) {
        self.tree.refresh_label_index();
    }

    /// The event table.
    pub fn events(&self) -> &EventTable {
        &self.events
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// The number of nodes of the underlying tree.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// The number of events in the table.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The total number of literals across all node conditions — a measure of
    /// how much uncertainty bookkeeping the document carries (used by the
    /// simplification experiments).
    pub fn condition_literal_count(&self) -> usize {
        self.tree
            .nodes()
            .into_iter()
            .map(|n| self.condition(n).len())
            .sum()
    }

    /// Adds a named probabilistic event.
    pub fn add_event(
        &mut self,
        name: impl Into<String>,
        probability: f64,
    ) -> Result<EventId, EventError> {
        self.fixpoint = false;
        self.events.add_event(name, probability)
    }

    /// Adds a fresh, automatically named event (used by updates to record the
    /// transaction confidence).
    pub fn fresh_event(&mut self, probability: f64) -> Result<EventId, EventError> {
        self.fixpoint = false;
        self.events.fresh_event(probability)
    }

    /// Adds a certain child element.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        self.fixpoint = false;
        self.tree.add_element(parent, name)
    }

    /// Adds a certain child text node.
    pub fn add_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        self.fixpoint = false;
        self.tree.add_text(parent, value)
    }

    /// Adds a child element carrying a condition.
    pub fn add_conditional_element(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        condition: Condition,
    ) -> NodeId {
        let node = self.add_element(parent, name);
        if !condition.is_empty() {
            self.conditions.insert(node, condition);
        }
        node
    }

    /// Deep-copies a plain subtree below `parent`; the copied root gets
    /// `condition`, the copied descendants are certain (relative to it).
    pub fn graft_subtree(
        &mut self,
        parent: NodeId,
        source: &Tree,
        source_root: NodeId,
        condition: Condition,
    ) -> NodeId {
        self.fixpoint = false;
        let new_root = self.tree.copy_subtree_from(parent, source, source_root);
        if !condition.is_empty() {
            self.conditions.insert(new_root, condition);
        }
        new_root
    }

    /// Deep-copies the fuzzy subtree rooted at `source` (of this same tree)
    /// below `parent`, preserving the conditions carried by the descendants;
    /// the copied root gets `root_condition` instead of the original one.
    ///
    /// The copy walks the subtree in preorder (every node's parent is mapped
    /// before its children), so the cost is proportional to the subtree —
    /// deletion-induced duplication calls this in a loop and must not pay for
    /// the whole document on every copy.
    pub fn duplicate_subtree(
        &mut self,
        parent: NodeId,
        source: NodeId,
        root_condition: Condition,
    ) -> NodeId {
        self.fixpoint = false;
        let order = self.tree.descendants_or_self(source);
        let mut mapping: HashMap<NodeId, NodeId> = HashMap::with_capacity(order.len());
        for node in order {
            let label = self.tree.label(node).clone();
            let copy = if node == source {
                let new_root = self.tree.add_child(parent, label);
                if !root_condition.is_empty() {
                    self.conditions.insert(new_root, root_condition.clone());
                }
                new_root
            } else {
                let source_parent = self.tree.parent(node).expect("descendant has a parent");
                let copy = self.tree.add_child(mapping[&source_parent], label);
                if let Some(condition) = self.conditions.get(node).cloned() {
                    self.conditions.insert(copy, condition);
                }
                copy
            };
            mapping.insert(node, copy);
        }
        mapping[&source]
    }

    /// Removes a subtree (and the conditions of its nodes).
    pub fn remove_subtree(&mut self, node: NodeId) -> Result<(), CoreError> {
        let removed: Vec<NodeId> = self.tree.descendants_or_self(node);
        self.tree.remove_subtree(node)?;
        self.fixpoint = false;
        for n in removed {
            self.conditions.remove(n);
        }
        Ok(())
    }

    /// Rebuilds the arena with only live nodes, reclaiming slots left behind
    /// by [`FuzzyTree::remove_subtree`], and remaps the node conditions onto
    /// the new ids. Returns the number of dead slots reclaimed.
    ///
    /// Node ids from before the compaction are invalidated. The warehouse
    /// folds this into the commit pipeline (each commit publishes a fresh
    /// snapshot anyway), so churn-heavy documents stay within a constant
    /// factor of their live size. The one mutator that keeps the simplifier's
    /// fixpoint mark: the same nodes under the same conditions in the same
    /// child order are still a fixpoint, whatever their ids.
    pub fn compact_slots(&mut self) -> usize {
        let reclaimed = self.tree.slot_count() - self.tree.node_count();
        if reclaimed == 0 {
            return 0;
        }
        let (tree, mapping) = self.tree.compact();
        let mut conditions = ConditionMap::new();
        for (node, condition) in self.conditions.iter() {
            if let Some(&renamed) = mapping.get(&node) {
                conditions.insert(renamed, condition.clone());
            }
        }
        self.tree = tree;
        self.conditions = conditions;
        reclaimed
    }

    /// The condition attached to a node (the empty condition when none).
    pub fn condition(&self, node: NodeId) -> Condition {
        self.conditions.get(node).cloned().unwrap_or_default()
    }

    /// Attaches a condition to a node. The root must stay certain.
    pub fn set_condition(&mut self, node: NodeId, condition: Condition) -> Result<(), CoreError> {
        if !self.tree.contains(node) {
            return Err(CoreError::InvalidNode(node.index() as u32));
        }
        if node == self.tree.root() && !condition.is_empty() {
            return Err(CoreError::RootConditionNotAllowed);
        }
        self.fixpoint = false;
        if condition.is_empty() {
            self.conditions.remove(node);
        } else {
            self.conditions.insert(node, condition);
        }
        Ok(())
    }

    /// The *existence condition* of a node: the conjunction of its own
    /// condition and the conditions of all its ancestors (a node only exists
    /// in worlds where its whole ancestor chain exists).
    pub fn existence_condition(&self, node: NodeId) -> Condition {
        let mut literals = Vec::new();
        self.extend_existence_literals(node, &mut literals);
        Condition::from_literals(literals)
    }

    /// The literals of a node's own condition, borrowed (empty for nodes
    /// without a condition). Lets callers accumulate literals across nodes
    /// and sort/dedup once, instead of conjoining [`Condition`]s in a loop
    /// (each [`Condition::and`] re-sorts and re-allocates).
    pub fn condition_literals(&self, node: NodeId) -> &[Literal] {
        self.conditions
            .get(node)
            .map(|condition| condition.literals())
            .unwrap_or(&[])
    }

    /// Appends the literals of every condition on the root→`node` path to
    /// `out` (unsorted, possibly with duplicates — callers build one
    /// [`Condition`] from the accumulated batch). Follows parent links, so
    /// it allocates nothing beyond `out`'s growth.
    pub fn extend_existence_literals(&self, node: NodeId, out: &mut Vec<Literal>) {
        let mut cur = Some(node);
        while let Some(n) = cur {
            out.extend_from_slice(self.condition_literals(n));
            cur = self.tree.parent(n);
        }
    }

    /// The probability that a node is present in a random world.
    pub fn node_probability(&self, node: NodeId) -> f64 {
        self.existence_condition(node).probability(&self.events)
    }

    /// The events actually mentioned by at least one node condition.
    fn mentioned_events(&self) -> Vec<EventId> {
        let mut mentioned: Vec<EventId> =
            self.conditions.values().flat_map(|c| c.events()).collect();
        mentioned.sort_unstable();
        mentioned.dedup();
        mentioned
    }

    /// The world (plain data tree) obtained under a given valuation of the
    /// events: nodes whose condition fails are removed together with their
    /// subtrees.
    // lint: allow(unreferenced-pub) — the building block of per-world queries.
    pub fn world_under(&self, valuation: &Valuation) -> Tree {
        let mut world = Tree::new(self.tree.label(self.tree.root()).clone());
        let mut stack: Vec<(NodeId, NodeId)> = vec![(self.tree.root(), world.root())];
        while let Some((src, dst)) = stack.pop() {
            for &child in self.tree.children(src) {
                if self.condition(child).satisfied_by(valuation) {
                    let copy = world.add_child(dst, self.tree.label(child).clone());
                    stack.push((child, copy));
                }
            }
        }
        world
    }

    /// The possible-worlds semantics of the fuzzy tree: enumerate the
    /// valuations of the mentioned events, build each world, weight it by the
    /// valuation probability and merge isomorphic worlds.
    ///
    /// The enumeration is exponential in the number of *mentioned* events and
    /// is capped (see [`pxml_event::valuation::MAX_ENUMERATED_EVENTS`]); this
    /// cost is exactly what the fuzzy-tree representation avoids paying
    /// during normal operation (experiment E3).
    pub fn to_possible_worlds(&self) -> Result<PossibleWorlds, CoreError> {
        let mentioned = self.mentioned_events();
        let valuations = enumerate_valuations_over(&self.events, &mentioned)?;
        let mut worlds = PossibleWorlds::new();
        for valuation in valuations {
            let weight: f64 = mentioned
                .iter()
                .map(|&event| {
                    let p = self.events.probability(event);
                    if valuation.get(event) {
                        p
                    } else {
                        1.0 - p
                    }
                })
                .product();
            if weight <= 0.0 {
                continue;
            }
            worlds.push(self.world_under(&valuation), weight);
        }
        Ok(worlds.normalized())
    }

    /// A canonical string for the fuzzy subtree rooted at `node`, taking both
    /// labels and conditions into account; isomorphic fuzzy subtrees (same
    /// shape, same conditions) have the same canonical string. It is
    /// [`subtree_canonical_string`] with every node annotated by its own
    /// condition over raw event ids (`e0 !e1`, `⊤` when it has none).
    pub fn fuzzy_canonical_string(&self, node: NodeId) -> String {
        subtree_canonical_string(&self.tree, node, &mut |n, out| self.write_condition(n, out))
    }

    /// The canonical-form annotation of a node (see
    /// [`FuzzyTree::fuzzy_canonical_string`]).
    pub(crate) fn write_condition(&self, node: NodeId, out: &mut String) {
        let always = Condition::always();
        let condition = self.conditions.get(node).unwrap_or(&always);
        write!(out, "{condition}").expect("writing to a String cannot fail");
    }

    /// Semantic equality of two fuzzy trees: their possible-worlds expansions
    /// coincide (up to `epsilon` on probabilities).
    pub fn semantically_equivalent(
        &self,
        other: &FuzzyTree,
        epsilon: f64,
    ) -> Result<bool, CoreError> {
        Ok(self
            .to_possible_worlds()?
            .equivalent(&other.to_possible_worlds()?, epsilon))
    }

    /// Structural sanity checks: conditions reference live nodes and known
    /// events, and the root is certain.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.tree.validate()?;
        if !self.condition(self.tree.root()).is_empty() {
            return Err(CoreError::RootConditionNotAllowed);
        }
        for (node, condition) in self.conditions.iter() {
            if !self.tree.contains(node) {
                return Err(CoreError::InvalidNode(node.index() as u32));
            }
            for literal in condition.literals() {
                if !self.events.contains(literal.event) {
                    return Err(CoreError::Event(EventError::UnknownEventId(
                        literal.event.index() as u32,
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Builds the slide-12 example fuzzy tree: `A(B[w1 ¬w2], C, D[w2])` with
/// `P(w1)=0.8`, `P(w2)=0.7`. Exposed because several experiments and examples
/// start from it.
pub fn slide12_example() -> FuzzyTree {
    use pxml_event::Literal;
    let mut fuzzy = FuzzyTree::new("A");
    let w1 = fuzzy.add_event("w1", 0.8).expect("fresh table");
    let w2 = fuzzy.add_event("w2", 0.7).expect("fresh table");
    let root = fuzzy.root();
    let b = fuzzy.add_element(root, "B");
    fuzzy
        .set_condition(
            b,
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
        )
        .expect("b is not the root");
    fuzzy.add_element(root, "C");
    let d = fuzzy.add_element(root, "D");
    fuzzy
        .set_condition(d, Condition::from_literal(Literal::pos(w2)))
        .expect("d is not the root");
    fuzzy
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_event::Literal;
    use pxml_tree::parse_data_tree;

    #[test]
    fn slide12_expansion_matches_the_paper() {
        let fuzzy = slide12_example();
        assert!(fuzzy.validate().is_ok());
        let worlds = fuzzy.to_possible_worlds().unwrap();
        assert_eq!(worlds.len(), 3);
        let ac = parse_data_tree("<A><C/></A>").unwrap();
        let acd = parse_data_tree("<A><C/><D/></A>").unwrap();
        let abc = parse_data_tree("<A><B/><C/></A>").unwrap();
        assert!((worlds.probability_of_tree(&ac) - 0.06).abs() < 1e-12);
        assert!((worlds.probability_of_tree(&acd) - 0.70).abs() < 1e-12);
        assert!((worlds.probability_of_tree(&abc) - 0.24).abs() < 1e-12);
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compact_slots_starts_the_rebuilt_document_without_a_label_index() {
        let mut fuzzy = FuzzyTree::from_tree(parse_data_tree("<r><a><b/></a><a/></r>").unwrap());
        let first_a = fuzzy.tree().find_elements("a")[0];
        fuzzy.remove_subtree(first_a).unwrap();
        fuzzy.tree().label_index();
        let pinned = fuzzy.clone();
        assert_eq!(fuzzy.compact_slots(), 2);
        assert!(fuzzy.tree().built_label_index().is_none());
        assert!(pinned.tree().built_label_index().is_some());
        assert_eq!(fuzzy.tree().find_elements("a").len(), 1);
    }

    #[test]
    fn certain_tree_has_one_world() {
        let tree = parse_data_tree("<a><b>x</b><c/></a>").unwrap();
        let fuzzy = FuzzyTree::from_tree(tree.clone());
        let worlds = fuzzy.to_possible_worlds().unwrap();
        assert_eq!(worlds.len(), 1);
        assert!((worlds.probability_of_tree(&tree) - 1.0).abs() < 1e-12);
        assert_eq!(fuzzy.event_count(), 0);
        assert_eq!(fuzzy.condition_literal_count(), 0);
    }

    #[test]
    fn descendants_disappear_with_their_ancestor() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        // b itself is certain, but it sits below the uncertain a.
        assert!((fuzzy.node_probability(b) - 0.5).abs() < 1e-12);
        let worlds = fuzzy.to_possible_worlds().unwrap();
        let without = parse_data_tree("<r/>").unwrap();
        let with = parse_data_tree("<r><a><b/></a></r>").unwrap();
        assert!((worlds.probability_of_tree(&without) - 0.5).abs() < 1e-12);
        assert!((worlds.probability_of_tree(&with) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn existence_condition_conjoins_ancestors() {
        let mut fuzzy = FuzzyTree::new("r");
        let w1 = fuzzy.add_event("w1", 0.5).unwrap();
        let w2 = fuzzy.add_event("w2", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w1)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(w2)))
            .unwrap();
        let existence = fuzzy.existence_condition(b);
        assert_eq!(existence.len(), 2);
        assert!(existence.contains(Literal::pos(w1)));
        assert!(existence.contains(Literal::pos(w2)));
        assert!((fuzzy.node_probability(b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn root_condition_is_rejected() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let err = fuzzy
            .set_condition(fuzzy.root(), Condition::from_literal(Literal::pos(w)))
            .unwrap_err();
        assert_eq!(err, CoreError::RootConditionNotAllowed);
    }

    #[test]
    fn setting_condition_on_missing_node_fails() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy.remove_subtree(a).unwrap();
        let err = fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidNode(_)));
    }

    #[test]
    fn remove_subtree_discards_conditions() {
        let mut fuzzy = slide12_example();
        let b = fuzzy.tree().find_elements("B")[0];
        fuzzy.remove_subtree(b).unwrap();
        assert!(fuzzy.validate().is_ok());
        assert_eq!(fuzzy.condition_literal_count(), 1); // only D's w2 remains
    }

    #[test]
    fn duplicate_subtree_preserves_descendant_conditions() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.6).unwrap();
        let v = fuzzy.add_event("v", 0.3).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(v)))
            .unwrap();
        let copy =
            fuzzy.duplicate_subtree(fuzzy.root(), a, Condition::from_literal(Literal::neg(w)));
        assert_eq!(
            fuzzy.condition(copy),
            Condition::from_literal(Literal::neg(w))
        );
        let copied_b = fuzzy.tree().children(copy)[0];
        assert_eq!(
            fuzzy.condition(copied_b),
            Condition::from_literal(Literal::pos(v))
        );
        assert!(fuzzy.validate().is_ok());
    }

    #[test]
    fn graft_subtree_attaches_a_plain_tree() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let subtree = parse_data_tree("<x><y>1</y></x>").unwrap();
        let grafted = fuzzy.graft_subtree(
            fuzzy.root(),
            &subtree,
            subtree.root(),
            Condition::from_literal(Literal::pos(w)),
        );
        assert_eq!(fuzzy.tree().subtree_size(grafted), 3);
        assert_eq!(fuzzy.condition(grafted).len(), 1);
        let worlds = fuzzy.to_possible_worlds().unwrap();
        assert_eq!(worlds.len(), 2);
    }

    #[test]
    fn mentioned_events_ignores_unused_events() {
        let mut fuzzy = slide12_example();
        fuzzy.add_event("unused", 0.5).unwrap();
        assert_eq!(fuzzy.mentioned_events().len(), 2);
        assert_eq!(fuzzy.event_count(), 3);
        // Unused events do not blow up the expansion.
        assert_eq!(fuzzy.to_possible_worlds().unwrap().len(), 3);
    }

    #[test]
    fn fuzzy_canonical_string_distinguishes_conditions() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        let b = fuzzy.add_element(fuzzy.root(), "a");
        assert_eq!(
            fuzzy.fuzzy_canonical_string(a),
            fuzzy.fuzzy_canonical_string(b)
        );
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        assert_ne!(
            fuzzy.fuzzy_canonical_string(a),
            fuzzy.fuzzy_canonical_string(b)
        );
    }

    #[test]
    fn semantic_equivalence_detects_equal_distributions() {
        let fuzzy = slide12_example();
        let mut other = slide12_example();
        assert!(fuzzy.semantically_equivalent(&other, 1e-9).unwrap());
        // Changing a probability breaks equivalence.
        let w1 = other.events().lookup("w1").unwrap();
        let mut events = other.events.clone();
        events.set_probability(w1, 0.5).unwrap();
        other.events = events;
        assert!(!fuzzy.semantically_equivalent(&other, 1e-9).unwrap());
    }

    #[test]
    fn validate_rejects_unknown_event_ids() {
        let mut fuzzy = FuzzyTree::new("r");
        let a = fuzzy.add_element(fuzzy.root(), "a");
        // Forge a condition over an event id that is not in the table.
        let bogus = {
            let mut other = EventTable::new();
            other.add_event("ghost", 0.5).unwrap()
        };
        fuzzy
            .conditions
            .insert(a, Condition::from_literal(Literal::pos(bogus)));
        assert!(matches!(fuzzy.validate(), Err(CoreError::Event(_))));
    }
}
