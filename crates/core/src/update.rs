//! Probabilistic update transactions (slides 7, 14, 15).
//!
//! An update transaction is a TPWJ query plus a set of elementary operations
//! (subtree insertions and subtree deletions) anchored at pattern nodes, plus
//! a *confidence* `c ∈ [0, 1]`.
//!
//! * **On a plain tree** (`τ`): the operations are applied at every match —
//!   insertions first, then deletions (a deletion of the same region wins).
//! * **On a possible-worlds set** (slide 10): every world selected by the
//!   query is split into `(τ(t), p·c)` and `(t, p·(1−c))`; unselected worlds
//!   are untouched; the result is normalised — see
//!   [`crate::worlds::PossibleWorlds::update`].
//! * **On a fuzzy tree** (slides 14–15): a fresh event records the confidence;
//!   every insertion adds the inserted subtree conditioned on the *match
//!   condition* of its match (conjoined with the confidence event); every
//!   deletion rewrites the target's condition to "…and the deletion condition
//!   does not hold", which requires **duplicating** the target subtree once
//!   per literal of the deletion condition because per-node conditions must
//!   stay conjunctive — the mechanism behind the conditional-replacement
//!   example and behind the exponential growth the paper warns about.

use std::collections::BTreeMap;

use pxml_event::{Condition, EventId, Literal};
use pxml_query::{Matching, PNodeId, Pattern};
use pxml_tree::{NodeId, Tree, MAX_TREE_DEPTH};

use crate::error::CoreError;
use crate::fuzzy::FuzzyTree;
use crate::fuzzy_query::match_condition;
use crate::simplify::{run_from, Footprint, SimplifyPolicy, SimplifyReport};

/// An elementary operation of an update transaction, anchored at a pattern
/// node of the transaction's query.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOperation {
    /// Insert a copy of `subtree` as a new child of the node mapped by
    /// `target`.
    Insert {
        /// Pattern node whose image receives the new child.
        target: PNodeId,
        /// The subtree to insert (its root becomes the new child).
        subtree: Tree,
    },
    /// Delete the subtree rooted at the node mapped by `target`.
    Delete {
        /// Pattern node whose image is deleted.
        target: PNodeId,
    },
}

/// Statistics describing the effect of applying an update to a fuzzy tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateStats {
    /// Number of matches of the transaction's query on the underlying tree
    /// (including matches later skipped as inconsistent).
    pub match_count: usize,
    /// Matches whose condition was consistent and therefore applied.
    pub applied_matches: usize,
    /// Nodes added by insertions.
    pub inserted_nodes: usize,
    /// Nodes added by deletion-induced duplication.
    pub duplicated_nodes: usize,
    /// Nodes removed (the original copies of deleted subtrees).
    pub removed_nodes: usize,
    /// The fresh event recording the confidence, when `confidence < 1`.
    pub confidence_event: Option<EventId>,
    /// The report of the inline simplification run triggered by the apply
    /// pipeline's [`SimplifyPolicy`], when one ran.
    pub simplify: Option<SimplifyReport>,
}

/// A probabilistic update transaction: query + operations + confidence.
#[derive(Debug, Clone)]
pub struct UpdateTransaction {
    pattern: Pattern,
    operations: Vec<UpdateOperation>,
    confidence: f64,
}

impl UpdateTransaction {
    /// Creates an empty transaction for `pattern` with the given confidence.
    pub fn new(pattern: Pattern, confidence: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&confidence) || confidence.is_nan() {
            return Err(CoreError::InvalidConfidence(confidence));
        }
        Ok(UpdateTransaction {
            pattern,
            operations: Vec::new(),
            confidence,
        })
    }

    /// A certain (confidence 1) transaction.
    pub fn certain(pattern: Pattern) -> Self {
        UpdateTransaction::new(pattern, 1.0).expect("1.0 is a valid confidence")
    }

    /// Adds an insertion (builder style).
    pub fn with_insert(mut self, target: PNodeId, subtree: Tree) -> Self {
        self.operations
            .push(UpdateOperation::Insert { target, subtree });
        self
    }

    /// Adds a deletion (builder style).
    pub fn with_delete(mut self, target: PNodeId) -> Self {
        self.operations.push(UpdateOperation::Delete { target });
        self
    }

    /// Adds an operation.
    pub fn push_operation(&mut self, operation: UpdateOperation) {
        self.operations.push(operation);
    }

    /// The transaction's query.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The transaction's operations.
    pub fn operations(&self) -> &[UpdateOperation] {
        &self.operations
    }

    /// The transaction's confidence.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Returns a copy of this transaction with a different confidence.
    pub fn with_confidence(&self, confidence: f64) -> Result<Self, CoreError> {
        let mut copy = self.clone();
        if !(0.0..=1.0).contains(&confidence) || confidence.is_nan() {
            return Err(CoreError::InvalidConfidence(confidence));
        }
        copy.confidence = confidence;
        Ok(copy)
    }

    /// Deterministic application `τ(t)`: the operations are applied at every
    /// match of the query — insertions first (one per match), then deletions
    /// (deduplicated per target node). The tree is returned unchanged when
    /// the query does not match.
    pub fn apply_to_tree(&self, tree: &Tree) -> Tree {
        let matches = self.pattern.find_matches(tree);
        self.apply_to_tree_with_matches(tree, &matches)
    }

    /// Same as [`UpdateTransaction::apply_to_tree`] with precomputed matches.
    pub(crate) fn apply_to_tree_with_matches(&self, tree: &Tree, matches: &[Matching]) -> Tree {
        if matches.is_empty() {
            return tree.clone();
        }
        let mut result = tree.clone();
        // Insertions: one copy per match.
        for matching in matches {
            for operation in &self.operations {
                if let UpdateOperation::Insert { target, subtree } = operation {
                    let parent = matching.image(*target);
                    if result.contains(parent) && result.is_element(parent) {
                        result.copy_subtree_from(parent, subtree, subtree.root());
                    }
                }
            }
        }
        // Deletions: deduplicated; the document root is never deleted.
        let mut targets: Vec<NodeId> = Vec::new();
        for matching in matches {
            for operation in &self.operations {
                if let UpdateOperation::Delete { target } = operation {
                    targets.push(matching.image(*target));
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        for node in targets {
            if node != result.root() && result.contains(node) {
                result
                    .remove_subtree(node)
                    .expect("target checked to be a live non-root node");
            }
        }
        result
    }

    /// Probabilistic application to a fuzzy tree (slides 14–15), without
    /// inline simplification (equivalent to
    /// [`UpdateTransaction::apply_to_fuzzy_with`] under
    /// [`SimplifyPolicy::Never`]).
    ///
    /// The fuzzy tree is modified in place; the returned [`UpdateStats`]
    /// describe the effect. When the query has no match on the underlying
    /// tree the document is unchanged and no event is created. When it has
    /// matches but none of their conditions is consistent, nothing is
    /// inserted or deleted, yet the confidence event is minted all the same
    /// and stays in the table, mentioned by no condition, until a
    /// simplification collects it.
    pub fn apply_to_fuzzy(&self, fuzzy: &mut FuzzyTree) -> Result<UpdateStats, CoreError> {
        self.apply_to_fuzzy_with(fuzzy, SimplifyPolicy::Never)
    }

    /// Probabilistic application to a fuzzy tree through the policy-aware
    /// apply pipeline: the update is applied as in
    /// [`UpdateTransaction::apply_to_fuzzy`], then under
    /// [`SimplifyPolicy::Inline`] a simplification runs *inside* the
    /// pipeline — right where deletion-induced duplication is created —
    /// before the caller ever sees the document.
    ///
    /// The simplification starts from the update's footprint: the inserted
    /// subtrees, the deletion copies, the parents of removed nodes and the
    /// events that left with them or were minted (see
    /// [`crate::simplify`]). On a document a simplification left at its
    /// fixpoint that gives exactly what
    /// [`Simplifier::run`](crate::Simplifier::run) gives on the same updated
    /// document, at the cost of what the update touched plus the depth of
    /// the tree; on any other document the pipeline starts from the
    /// document root, which is that whole-document run.
    pub fn apply_to_fuzzy_with(
        &self,
        fuzzy: &mut FuzzyTree,
        policy: SimplifyPolicy,
    ) -> Result<UpdateStats, CoreError> {
        let at_fixpoint = fuzzy.fixpoint;
        let mut footprint = Footprint::default();
        let mut stats = self.apply_operations(fuzzy, &mut footprint)?;
        if policy == SimplifyPolicy::Inline {
            if !at_fixpoint {
                footprint = Footprint::whole(fuzzy);
            }
            stats.simplify = Some(run_from(fuzzy, footprint)?);
        }
        Ok(stats)
    }

    /// The raw operation pipeline: match, insert, delete. Every node it adds
    /// or takes away is recorded in `footprint`.
    fn apply_operations(
        &self,
        fuzzy: &mut FuzzyTree,
        footprint: &mut Footprint,
    ) -> Result<UpdateStats, CoreError> {
        let mut stats = UpdateStats::default();
        let matches = self.pattern.find_matches(fuzzy.tree());
        stats.match_count = matches.len();
        if matches.is_empty() {
            return Ok(stats);
        }

        // The confidence of the transaction is recorded as one fresh event
        // shared by all its matches.
        let confidence_literal = if self.confidence < 1.0 {
            let event = fuzzy.fresh_event(self.confidence)?;
            stats.confidence_event = Some(event);
            footprint.events.push(event);
            Some(Literal::pos(event))
        } else {
            None
        };

        // Match conditions, computed against the *original* document.
        let mut applied: Vec<(Matching, Condition)> = Vec::new();
        for matching in matches {
            let mut condition = match_condition(fuzzy, &self.pattern, &matching);
            if let Some(literal) = confidence_literal {
                condition = condition.and_literal(literal);
            }
            if !condition.is_consistent() {
                continue;
            }
            applied.push((matching, condition));
        }
        stats.applied_matches = applied.len();

        // Phase 1: insertions. The inserted subtree exists exactly when its
        // match does, so its root carries the match condition (minus the
        // literals already guaranteed by the insertion point's ancestors).
        for (matching, condition) in &applied {
            for operation in &self.operations {
                if let UpdateOperation::Insert { target, subtree } = operation {
                    let parent = matching.image(*target);
                    if !fuzzy.tree().contains(parent) || !fuzzy.tree().is_element(parent) {
                        continue;
                    }
                    let deepest = fuzzy.tree().depth(parent) + 1 + subtree.height();
                    if deepest > MAX_TREE_DEPTH {
                        return Err(CoreError::InsertionTooDeep(deepest));
                    }
                    let context = fuzzy.existence_condition(parent);
                    let root_condition = condition.without_implied_by(&context);
                    let root = fuzzy.graft_subtree(parent, subtree, subtree.root(), root_condition);
                    footprint.roots.push(root);
                    stats.inserted_nodes += subtree.node_count();
                }
            }
        }

        // Phase 2: deletions. Group the deletion conditions per target node,
        // then process targets deepest-first so that duplicating an ancestor
        // copies already-processed descendants verbatim. Same-depth targets
        // keep first-match (document) order: the order decides where the
        // copies land among their siblings, so it must not come from a
        // hash map — the updated document is a function of its input.
        let mut deletions: BTreeMap<NodeId, Vec<Condition>> = BTreeMap::new();
        let mut targets: Vec<NodeId> = Vec::new();
        for (matching, condition) in &applied {
            for operation in &self.operations {
                if let UpdateOperation::Delete { target } = operation {
                    let node = matching.image(*target);
                    if node == fuzzy.root() {
                        // The document root is never deleted (mirrors τ).
                        continue;
                    }
                    let conditions = deletions.entry(node).or_default();
                    if conditions.is_empty() {
                        targets.push(node);
                    }
                    conditions.push(condition.clone());
                }
            }
        }
        targets.sort_by_key(|&node| std::cmp::Reverse(fuzzy.tree().depth(node)));
        for target in targets {
            let mut conditions = deletions.remove(&target).expect("key collected above");
            // Several matches frequently delete the same node under the same
            // condition (e.g. when they only differ at nodes unrelated to the
            // target); applying duplicates is a no-op that still fragments
            // the survivor cover, so normalise first.
            conditions.sort();
            conditions.dedup();
            let context = {
                let parent = fuzzy
                    .tree()
                    .parent(target)
                    .ok_or(CoreError::CannotDeleteRoot)?;
                fuzzy.existence_condition(parent)
            };
            let mut current: Vec<NodeId> = vec![target];
            for condition in conditions {
                let mut next: Vec<NodeId> = Vec::new();
                for node in current {
                    next.extend(apply_deletion(
                        fuzzy, node, &condition, &context, &mut stats, footprint,
                    )?);
                }
                current = next;
            }
        }
        Ok(stats)
    }
}

/// Applies one conditional deletion to one node: the node's subtree is
/// replaced by one copy per *effective* literal `dᵢ` of the deletion
/// condition, the `i`-th copy conditioned on
/// `original ∧ d₁ ∧ … ∧ d_{i−1} ∧ ¬dᵢ` (copies with an inconsistent
/// condition are skipped). The union of the copies' conditions is exactly
/// `original ∧ ¬(d₁ ∧ … ∧ d_k)`, i.e. "the node survives the deletion", and
/// the copies are pairwise disjoint.
///
/// `context` is the existence condition of the node's parent. It prunes the
/// work the bare chain construction wastes at scale (the mechanism behind
/// the E10 blow-up):
///
/// * when the node's own condition (or the context) contradicts the deletion
///   condition, the node exists only in worlds the deletion does not select —
///   it survives *unchanged*, no copies needed;
/// * deletion literals already guaranteed by the node or its ancestors
///   contribute only inconsistent copies — they are skipped up front;
/// * copies whose condition contradicts the context exist in no world — they
///   are never materialised (the bare chain would keep duplicating them in
///   later rounds).
///
/// The copies and the removal are recorded in `footprint`.
fn apply_deletion(
    fuzzy: &mut FuzzyTree,
    node: NodeId,
    deletion: &Condition,
    context: &Condition,
    stats: &mut UpdateStats,
    footprint: &mut Footprint,
) -> Result<Vec<NodeId>, CoreError> {
    let parent = fuzzy
        .tree()
        .parent(node)
        .ok_or(CoreError::CannotDeleteRoot)?;
    let original = fuzzy.condition(node);
    if deletion
        .literals()
        .iter()
        .any(|lit| original.contains(lit.negated()) || context.contains(lit.negated()))
    {
        // The deletion condition is disjoint from the node's existence
        // condition: the node survives as it is.
        return Ok(vec![node]);
    }
    // Effective chain: literals not already guaranteed at the node.
    let effective = deletion
        .without_implied_by(&original)
        .without_implied_by(context);
    let effective = effective.literals();
    if effective.is_empty() {
        // The deletion holds whenever the node exists: plain removal.
        stats.removed_nodes += fuzzy.tree().subtree_size(node);
        footprint.removing(fuzzy, node);
        fuzzy.remove_subtree(node)?;
        return Ok(Vec::new());
    }
    let mut copies = Vec::new();
    let mut prefix = original.clone();
    for (index, literal) in effective.iter().enumerate() {
        let copy_condition = prefix.and_literal(literal.negated());
        if copy_condition.is_consistent()
            && !copy_condition
                .literals()
                .iter()
                .any(|lit| context.contains(lit.negated()))
        {
            let copy = fuzzy.duplicate_subtree(parent, node, copy_condition);
            stats.duplicated_nodes += fuzzy.tree().subtree_size(copy);
            copies.push(copy);
        }
        if index + 1 < effective.len() {
            prefix = prefix.and_literal(*literal);
            if !prefix.is_consistent() {
                break;
            }
        }
    }
    stats.removed_nodes += fuzzy.tree().subtree_size(node);
    footprint.roots.extend_from_slice(&copies);
    footprint.removing(fuzzy, node);
    fuzzy.remove_subtree(node)?;
    Ok(copies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy::slide12_example;
    use crate::worlds::PossibleWorlds;
    use pxml_tree::parse_data_tree;

    fn insert_pattern() -> (Pattern, PNodeId) {
        let pattern = Pattern::parse("A { B }").unwrap();
        let root = pattern.root();
        (pattern, root)
    }

    #[test]
    fn transaction_construction_and_accessors() {
        let (pattern, root) = insert_pattern();
        let subtree = parse_data_tree("<N>new</N>").unwrap();
        let tx = UpdateTransaction::new(pattern.clone(), 0.9)
            .unwrap()
            .with_insert(root, subtree)
            .with_delete(root);
        assert_eq!(tx.operations().len(), 2);
        assert!((tx.confidence() - 0.9).abs() < 1e-12);
        assert_eq!(tx.pattern().to_string(), pattern.to_string());
        let copy = tx.with_confidence(0.5).unwrap();
        assert!((copy.confidence() - 0.5).abs() < 1e-12);
        assert!(copy.with_confidence(1.5).is_err());
    }

    #[test]
    fn invalid_confidence_is_rejected() {
        let (pattern, _) = insert_pattern();
        assert!(matches!(
            UpdateTransaction::new(pattern.clone(), -0.1),
            Err(CoreError::InvalidConfidence(_))
        ));
        assert!(matches!(
            UpdateTransaction::new(pattern, f64::NAN),
            Err(CoreError::InvalidConfidence(_))
        ));
    }

    #[test]
    fn deterministic_insert_applies_at_every_match() {
        let tree = parse_data_tree("<R><A><B/></A><A><B/></A><A/></R>").unwrap();
        let (pattern, root) = insert_pattern();
        let subtree = parse_data_tree("<N/>").unwrap();
        let tx = UpdateTransaction::certain(pattern).with_insert(root, subtree);
        let updated = tx.apply_to_tree(&tree);
        // Two A{B} matches receive an N child; the third A does not.
        assert_eq!(updated.find_elements("N").len(), 2);
        assert_eq!(tree.find_elements("N").len(), 0, "input is untouched");
    }

    #[test]
    fn deterministic_delete_removes_targets_once() {
        let tree = parse_data_tree("<R><A><B/><B/></A></R>").unwrap();
        let mut pattern = Pattern::element("A");
        let b = pattern.add_child(pattern.root(), pxml_query::Axis::Child, Some("B"));
        let tx = UpdateTransaction::certain(pattern).with_delete(b);
        let updated = tx.apply_to_tree(&tree);
        assert!(updated.find_elements("B").is_empty());
        assert_eq!(updated.node_count(), 2);
    }

    #[test]
    fn deterministic_update_without_match_is_identity() {
        let tree = parse_data_tree("<R><X/></R>").unwrap();
        let (pattern, root) = insert_pattern();
        let tx =
            UpdateTransaction::certain(pattern).with_insert(root, parse_data_tree("<N/>").unwrap());
        let updated = tx.apply_to_tree(&tree);
        assert!(updated.isomorphic(&tree));
    }

    #[test]
    fn root_deletion_is_ignored() {
        let tree = parse_data_tree("<A><B/></A>").unwrap();
        let (pattern, root) = insert_pattern();
        let tx = UpdateTransaction::certain(pattern).with_delete(root);
        let updated = tx.apply_to_tree(&tree);
        assert!(updated.isomorphic(&tree));
        // Fuzzy side behaves the same.
        let mut fuzzy = FuzzyTree::from_tree(tree.clone());
        let (pattern2, root2) = insert_pattern();
        let tx2 = UpdateTransaction::certain(pattern2).with_delete(root2);
        tx2.apply_to_fuzzy(&mut fuzzy).unwrap();
        assert!(fuzzy.tree().isomorphic(&tree));
    }

    #[test]
    fn fuzzy_insert_carries_match_and_confidence_conditions() {
        let mut fuzzy = slide12_example();
        // Insert an F below A when B is present, with confidence 0.9.
        let pattern = Pattern::parse("A { B }").unwrap();
        let target = pattern.root();
        let tx = UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_insert(target, parse_data_tree("<F/>").unwrap());
        let stats = tx.apply_to_fuzzy(&mut fuzzy).unwrap();
        assert_eq!(stats.match_count, 1);
        assert_eq!(stats.applied_matches, 1);
        assert_eq!(stats.inserted_nodes, 1);
        assert!(stats.confidence_event.is_some());
        let f = fuzzy.tree().find_elements("F")[0];
        // F exists iff w1 ∧ ¬w2 (the match) ∧ w3 (the confidence event).
        assert_eq!(fuzzy.condition(f).len(), 3);
        assert!((fuzzy.node_probability(f) - 0.24 * 0.9).abs() < 1e-12);
        assert!(fuzzy.validate().is_ok());
    }

    #[test]
    fn fuzzy_update_with_no_match_is_a_noop() {
        let mut fuzzy = slide12_example();
        let before_events = fuzzy.event_count();
        let pattern = Pattern::parse("Z").unwrap();
        let tx = UpdateTransaction::new(pattern, 0.5).unwrap().with_insert(
            Pattern::parse("Z").unwrap().root(),
            parse_data_tree("<N/>").unwrap(),
        );
        let stats = tx.apply_to_fuzzy(&mut fuzzy).unwrap();
        assert_eq!(stats.match_count, 0);
        assert_eq!(fuzzy.event_count(), before_events);
        assert!(fuzzy.tree().find_elements("N").is_empty());
    }

    #[test]
    fn certain_deletion_removes_node_without_duplication() {
        // Deleting a certain node with a certain match and confidence 1: the
        // deletion condition is empty, so no copies are created at all.
        let tree = parse_data_tree("<R><A/><B/></R>").unwrap();
        let mut fuzzy = FuzzyTree::from_tree(tree);
        let pattern = Pattern::element("A");
        let target = pattern.root();
        let tx = UpdateTransaction::certain(pattern).with_delete(target);
        let stats = tx.apply_to_fuzzy(&mut fuzzy).unwrap();
        assert_eq!(stats.duplicated_nodes, 0);
        assert_eq!(stats.removed_nodes, 1);
        assert!(fuzzy.tree().find_elements("A").is_empty());
        assert_eq!(fuzzy.event_count(), 0);
    }

    /// The slide-15 example: replace C by D if B is present, confidence 0.9.
    #[test]
    fn conditional_replacement_reproduces_slide15() {
        use pxml_event::Literal;
        // Initial document: A(B[w1], C[w2]) with P(w1)=0.8, P(w2)=0.7.
        let mut fuzzy = FuzzyTree::new("A");
        let w1 = fuzzy.add_event("w1", 0.8).unwrap();
        let w2 = fuzzy.add_event("w2", 0.7).unwrap();
        let root = fuzzy.root();
        let b = fuzzy.add_element(root, "B");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(w1)))
            .unwrap();
        let c = fuzzy.add_element(root, "C");
        fuzzy
            .set_condition(c, Condition::from_literal(Literal::pos(w2)))
            .unwrap();

        // Replacement: where A has children B and C, delete C and insert D.
        let pattern = Pattern::parse("/A { B, C }").unwrap();
        let ids: Vec<PNodeId> = pattern.node_ids().collect();
        let (a_node, c_node) = (ids[0], ids[2]);
        let tx = UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_insert(a_node, parse_data_tree("<D/>").unwrap())
            .with_delete(c_node);
        let stats = tx.apply_to_fuzzy(&mut fuzzy).unwrap();

        // One new event w3 with probability 0.9.
        let w3 = stats
            .confidence_event
            .expect("confidence < 1 creates an event");
        assert!((fuzzy.events().probability(w3) - 0.9).abs() < 1e-12);
        assert_eq!(fuzzy.event_count(), 3);

        // The B node is untouched.
        let b_nodes = fuzzy.tree().find_elements("B");
        assert_eq!(b_nodes.len(), 1);
        assert_eq!(
            fuzzy.condition(b_nodes[0]),
            Condition::from_literal(Literal::pos(w1))
        );

        // C is duplicated into exactly the two copies of the slide:
        // C[¬w1, w2] and C[w1, w2, ¬w3].
        let c_nodes = fuzzy.tree().find_elements("C");
        assert_eq!(c_nodes.len(), 2);
        let mut c_conditions: Vec<Condition> =
            c_nodes.iter().map(|&n| fuzzy.condition(n)).collect();
        c_conditions.sort();
        let expected_1 = Condition::from_literals([Literal::neg(w1), Literal::pos(w2)]);
        let expected_2 =
            Condition::from_literals([Literal::pos(w1), Literal::pos(w2), Literal::neg(w3)]);
        let mut expected = vec![expected_1, expected_2];
        expected.sort();
        assert_eq!(c_conditions, expected);

        // D is inserted with condition w1 ∧ w2 ∧ w3.
        let d_nodes = fuzzy.tree().find_elements("D");
        assert_eq!(d_nodes.len(), 1);
        assert_eq!(
            fuzzy.condition(d_nodes[0]),
            Condition::from_literals([Literal::pos(w1), Literal::pos(w2), Literal::pos(w3)])
        );
        assert!(fuzzy.validate().is_ok());
    }

    #[test]
    fn fuzzy_update_commutes_with_possible_worlds_update() {
        // update(worlds(F)) == worlds(update(F)) on the slide-12 document for
        // several transactions.
        let base = slide12_example();

        // Transaction 1: insert E below A when D is present, confidence 0.6.
        let pattern = Pattern::parse("A { D }").unwrap();
        let a = pattern.root();
        let tx1 = UpdateTransaction::new(pattern, 0.6)
            .unwrap()
            .with_insert(a, parse_data_tree("<E><X/></E>").unwrap());

        // Transaction 2: delete B when B is present, confidence 0.5.
        let pattern2 = Pattern::parse("A { B }").unwrap();
        let b = pattern2.node_ids().nth(1).unwrap();
        let tx2 = UpdateTransaction::new(pattern2, 0.5)
            .unwrap()
            .with_delete(b);

        // Transaction 3: certain replacement of C by F.
        let pattern3 = Pattern::parse("A { C }").unwrap();
        let ids3: Vec<PNodeId> = pattern3.node_ids().collect();
        let tx3 = UpdateTransaction::certain(pattern3)
            .with_insert(ids3[0], parse_data_tree("<F/>").unwrap())
            .with_delete(ids3[1]);

        for (index, tx) in [tx1, tx2, tx3].iter().enumerate() {
            let worlds_then_update: PossibleWorlds = base.to_possible_worlds().unwrap().update(tx);
            let mut updated_fuzzy = base.clone();
            tx.apply_to_fuzzy(&mut updated_fuzzy).unwrap();
            let update_then_worlds = updated_fuzzy.to_possible_worlds().unwrap();
            assert!(
                worlds_then_update.equivalent(&update_then_worlds, 1e-9),
                "update commutation failed for transaction #{index}"
            );
        }
    }

    #[test]
    fn chained_conditional_deletions_grow_the_tree_exponentially() {
        // Conditional deletions whose condition involves events independent
        // from the target ("complex dependencies", slide 14) duplicate every
        // existing copy of the target: k chained deletions leave 2^k copies.
        use pxml_event::Literal;
        let mut fuzzy = FuzzyTree::new("A");
        let root = fuzzy.root();
        let rounds = 4;
        for k in 1..=rounds {
            let event = fuzzy.add_event(format!("x{k}"), 0.5).unwrap();
            let b = fuzzy.add_element(root, format!("B{k}"));
            fuzzy
                .set_condition(b, Condition::from_literal(Literal::pos(event)))
                .unwrap();
        }
        fuzzy.add_element(root, "C");
        let mut copies = vec![fuzzy.tree().find_elements("C").len()];
        for k in 1..=rounds {
            let pattern = Pattern::parse(&format!("/A {{ B{k}, C }}")).unwrap();
            let ids: Vec<PNodeId> = pattern.node_ids().collect();
            let tx = UpdateTransaction::new(pattern, 0.5)
                .unwrap()
                .with_delete(ids[2]);
            tx.apply_to_fuzzy(&mut fuzzy).unwrap();
            copies.push(fuzzy.tree().find_elements("C").len());
        }
        let expected: Vec<usize> = (0..=rounds).map(|k| 1usize << k).collect();
        assert_eq!(copies, expected, "copies must double every round");
        assert!(fuzzy.validate().is_ok());
    }

    #[test]
    fn update_stats_count_duplication() {
        let mut fuzzy = slide12_example();
        // Delete D when C is present (C is certain, D carries w2), with
        // confidence 0.9: D is duplicated into the "confidence event false"
        // copy before the original is removed.
        let pattern = Pattern::parse("/A { C, D }").unwrap();
        let ids: Vec<PNodeId> = pattern.node_ids().collect();
        let tx = UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_delete(ids[2]);
        let stats = tx.apply_to_fuzzy(&mut fuzzy).unwrap();
        assert_eq!(stats.match_count, 1);
        assert_eq!(stats.removed_nodes, 1);
        assert_eq!(stats.duplicated_nodes, 1);
        assert!(fuzzy.validate().is_ok());
    }

    #[test]
    fn insertion_below_the_depth_bound_is_refused() {
        // A chain whose last element, `leaf`, sits two levels above the bound.
        let mut tree = Tree::new("root");
        let mut node = tree.root();
        for _ in 0..MAX_TREE_DEPTH - 3 {
            node = tree.add_element(node, "n");
        }
        tree.add_element(node, "leaf");
        let pattern = Pattern::parse("leaf").unwrap();
        let target = pattern.root();
        let insert = |xml: &str| {
            UpdateTransaction::new(pattern.clone(), 0.5)
                .unwrap()
                .with_insert(target, parse_data_tree(xml).unwrap())
        };

        let mut fuzzy = FuzzyTree::from_tree(tree);
        insert("<x>v</x>").apply_to_fuzzy(&mut fuzzy).unwrap();
        assert_eq!(fuzzy.tree().height(), MAX_TREE_DEPTH);
        assert_eq!(
            insert("<x><y>v</y></x>").apply_to_fuzzy(&mut fuzzy),
            Err(CoreError::InsertionTooDeep(MAX_TREE_DEPTH + 1))
        );
    }
}
