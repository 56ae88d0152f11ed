//! Fuzzy-data simplification (slide 19, "Perspectives").
//!
//! Updates — deletions in particular — make fuzzy trees grow: nodes get
//! duplicated, conditions accumulate literals, events pile up in the table.
//! The [`Simplifier`] shrinks a fuzzy tree **without changing its
//! possible-worlds semantics**. One round is two sweeps and a collection:
//!
//! 1. *the condition walk*, top-down, carrying the conjunction of the
//!    ancestors' conditions: a literal over an event of probability exactly
//!    0 or 1 is resolved away; a node whose resolved condition is certainly
//!    false, or contradicts the context, exists in no world and goes with
//!    its subtree; a literal the context already guarantees is stripped;
//! 2. *the sibling-group sweep*, bottom-up, the inverse of deletion-induced
//!    duplication: same-body siblings whose conditions differ in the sign
//!    of a single literal are the two halves of a Shannon expansion and
//!    collapse into one, and what is left of a pairwise-disjoint group is
//!    re-covered by fewer conjunctions when its union has a smaller cover;
//! 3. *event collection*: events no condition mentions any more are dropped
//!    from the table.
//!
//! The order is sufficient within a round. A pairwise merge leaves every
//! surviving body under a condition one of its copies already had or a
//! *weaker* one, so it cannot make a descendant newly impossible or one of
//! its literals newly implied, and the sweep visits children before parents,
//! so a merge that makes two parents' bodies equal is seen when the sweep
//! reaches them. Only a re-cover can put a body under a term that is
//! stronger, in some literal, than every condition it replaces; the next
//! round exists for what that newly implies or contradicts below it, not for
//! the common case — a clean document costs one round.
//!
//! **Where a round starts.** Every round takes a *footprint*: the roots of
//! the subtrees that are new or whose root's condition changed, the nodes
//! that lost a child, and the events that may be mentioned by no condition
//! any more (minted, or a literal of theirs left the tree). The walk
//! descends only the touched subtrees, each from its parent's existence
//! condition. The sweep visits the nodes inside them, then the nodes that
//! lost a child and the ancestors of both, deepest first; an ancestor whose
//! child on the way down carries no condition is skipped, because a certain
//! child belongs to no group. The collection looks only at the footprint's
//! events. Every round after the first starts from what the previous round's
//! sweep re-conditioned or removed: the walk is idempotent, and a sweep
//! leaves every group it did not change as it found it. [`Simplifier::run`]
//! is this code with the document root as the one touched node — the whole
//! document, swept in reversed preorder — and is the oracle the scoped runs
//! are tested against. The apply pipeline
//! ([`UpdateTransaction::apply_to_fuzzy_with`](crate::UpdateTransaction::apply_to_fuzzy_with))
//! passes the update's footprint, so a commit costs what its update touched
//! plus the depth of the tree, not the document — Delcher et al.'s stance
//! (PAPERS.md): after a local change, revisit the path to the root.
//!
//! **The precondition.** A scoped run gives the whole-document run's bytes
//! only on a document that was a fixpoint before the update, where nothing
//! outside the footprint can change. A run whose last round changed nothing
//! marks its [`FuzzyTree`] as a fixpoint; every public mutator but
//! [`FuzzyTree::compact_slots`] clears the mark, which is never serialized;
//! and the pipeline takes the whole-document run on an unmarked document (a
//! loaded checkpoint's first replayed update, a document built by hand).
//!
//! **What stays global**, and only when it has work to do: a candidate event
//! that nothing in the touched subtrees mentions any more may still be
//! mentioned anywhere, so one pass over every condition decides it; and
//! dropping an event removes it from the table in place and renumbers the
//! events after it, rewriting the conditions that mention them. An insertion
//! takes neither path unless none of its matches was consistent, and then
//! drops only the event it minted, the table's last, which renumbers nothing.
//!
//! Every step preserves semantics. For the sweep that rests on one test:
//! two siblings are merged only when their *bodies* — label, and everything
//! below with its conditions — are the same fuzzy subtree up to sibling
//! order, so that either can stand for the other in every world. That test
//! is string equality of [`pxml_tree::subtree_canonical_string`], the
//! workspace's one canonical-form writer, called with each node's condition
//! as its annotation and none at the subtree's own root (`body_key`); it
//! escapes every structure character of its format in labels, so no element
//! name or text value can make two different bodies compare equal. Nothing
//! that shows in the result's canonical form is decided by a node id or a
//! child position: the paper's trees are unordered, and the output is a
//! function of the document.
//! Experiment E8 measures how much of the growth caused by update histories
//! the simplifier wins back; E22 gates that a commit's simplification work
//! does not grow with the document.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use pxml_event::{Bdd, Condition, EventId, Literal};
use pxml_tree::{subtree_canonical_string, NodeId};

use crate::error::CoreError;
use crate::fuzzy::FuzzyTree;

/// When the apply pipeline (see
/// [`UpdateTransaction::apply_to_fuzzy_with`](crate::UpdateTransaction::apply_to_fuzzy_with)
/// and [`apply_batch`](crate::apply_batch)) runs the simplifier.
///
/// Deletion-induced duplication is created *inside* update application, so a
/// simplification pass bolted on after the fact repeatedly pays for growth
/// that an inline pass would have stopped at the source, and an inline pass
/// costs only what the update touched (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimplifyPolicy {
    /// Never simplify; callers run the [`Simplifier`] themselves.
    Never,
    /// Simplify after every update application.
    #[default]
    Inline,
}

/// What a simplification run changed, and how much of the document it
/// looked at.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimplifyReport {
    /// Nodes removed because they exist in no world.
    pub removed_impossible_nodes: usize,
    /// Literals removed because an ancestor already guarantees them.
    pub stripped_literals: usize,
    /// Literals resolved because their event has probability 0 or 1.
    pub resolved_deterministic_literals: usize,
    /// Nodes removed by merging Shannon-complementary siblings.
    pub merged_nodes: usize,
    /// Events dropped from the table.
    pub removed_events: usize,
    /// Number of passes until fixpoint.
    pub passes: usize,
    /// Nodes whose condition the condition walk examined.
    pub nodes_walked: usize,
    /// Sibling subtrees the sweep keyed by body.
    pub nodes_keyed: usize,
}

impl SimplifyReport {
    /// `true` when the run changed nothing.
    pub fn is_noop(&self) -> bool {
        self.removed_impossible_nodes == 0
            && self.stripped_literals == 0
            && self.resolved_deterministic_literals == 0
            && self.merged_nodes == 0
            && self.removed_events == 0
    }

    fn absorb(&mut self, other: &SimplifyReport) {
        self.removed_impossible_nodes += other.removed_impossible_nodes;
        self.stripped_literals += other.stripped_literals;
        self.resolved_deterministic_literals += other.resolved_deterministic_literals;
        self.merged_nodes += other.merged_nodes;
        self.removed_events += other.removed_events;
        self.nodes_walked += other.nodes_walked;
        self.nodes_keyed += other.nodes_keyed;
    }
}

/// Upper bound on fixpoint iterations (a safety net; a clean document takes
/// one, a re-cover that strengthens a literal one more).
const MAX_PASSES: usize = 8;

/// The simplification driver: runs the rounds of the module docs to a
/// fixpoint.
#[derive(Debug, Clone, Default)]
pub struct Simplifier;

impl Simplifier {
    /// A simplifier.
    pub fn new() -> Self {
        Simplifier
    }

    /// Runs simplification rounds over the whole document until one changes
    /// nothing (or `MAX_PASSES` is reached) and reports the cumulative
    /// effect: the rounds of the module docs, the first one from the
    /// document root.
    pub fn run(&self, fuzzy: &mut FuzzyTree) -> Result<SimplifyReport, CoreError> {
        run_from(fuzzy, Footprint::whole(fuzzy))
    }
}

/// Where a simplification round starts: what changed since the document was
/// last a fixpoint (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// Nodes that are new or whose own condition changed: their subtrees are
    /// walked and swept whole.
    pub(crate) roots: Vec<NodeId>,
    /// Nodes that lost a child: their child groups are swept.
    pub(crate) parents: Vec<NodeId>,
    /// Events that may be mentioned by no condition any more: minted, or a
    /// literal of theirs left the tree.
    pub(crate) events: Vec<EventId>,
}

impl Footprint {
    /// The whole document: its root is the one touched node, and every event
    /// is a candidate for collection.
    pub(crate) fn whole(fuzzy: &FuzzyTree) -> Self {
        Footprint {
            roots: vec![fuzzy.root()],
            parents: Vec::new(),
            events: fuzzy.events().ids().collect(),
        }
    }

    /// Records that `node`'s subtree is about to be removed: its parent loses
    /// a child, and the events of its conditions may leave the tree.
    pub(crate) fn removing(&mut self, fuzzy: &FuzzyTree, node: NodeId) {
        self.parents.extend(fuzzy.tree().parent(node));
        for n in fuzzy.tree().descendants_or_self(node) {
            self.left(fuzzy.condition_literals(n));
        }
    }

    /// Records that these literals left a node's condition.
    fn left(&mut self, literals: &[Literal]) {
        self.events
            .extend(literals.iter().map(|literal| literal.event));
    }
}

/// The rounds of the module docs: the first from `footprint`, every later one
/// from what its predecessor's sweep changed. Marks `fuzzy` a fixpoint when
/// the last round changed nothing.
pub(crate) fn run_from(
    fuzzy: &mut FuzzyTree,
    mut footprint: Footprint,
) -> Result<SimplifyReport, CoreError> {
    let mut total = SimplifyReport::default();
    let mut converged = false;
    for pass in 0..MAX_PASSES {
        let mut report = SimplifyReport::default();
        let roots = outermost(fuzzy, &footprint.roots);
        condition_walk(fuzzy, &roots, &mut footprint, &mut report)?;
        let mut next = Footprint::default();
        let order = sweep_order(fuzzy, &roots, &footprint.parents);
        merge_sibling_groups(fuzzy, order, &mut footprint, &mut next, &mut report)?;
        report.removed_events = collect_events(fuzzy, &roots, &next.roots, &footprint);
        footprint = next;
        total.absorb(&report);
        total.passes = pass + 1;
        if report.is_noop() {
            converged = true;
            break;
        }
    }
    fuzzy.fixpoint = converged;
    Ok(total)
}

/// The live nodes of `nodes` with no strict ancestor among them, sorted.
fn outermost(fuzzy: &FuzzyTree, nodes: &[NodeId]) -> Vec<NodeId> {
    let tree = fuzzy.tree();
    let mut live: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&node| tree.contains(node))
        .collect();
    live.sort_unstable();
    live.dedup();
    live.iter()
        .copied()
        .filter(|&node| {
            !tree
                .ancestors(node)
                .into_iter()
                .any(|ancestor| live.binary_search(&ancestor).is_ok())
        })
        .collect()
}

/// Sweep 1 of a round: a top-down walk of the touched subtrees carrying the
/// accumulated ancestor context — each subtree's starts as its parent's
/// existence condition — extended by each node's already reduced condition
/// on the way down (see [`reduce`]).
fn condition_walk(
    fuzzy: &mut FuzzyTree,
    roots: &[NodeId],
    footprint: &mut Footprint,
    report: &mut SimplifyReport,
) -> Result<(), CoreError> {
    let mut stack: Vec<(NodeId, Condition)> = Vec::new();
    for &root in roots {
        match fuzzy.tree().parent(root) {
            // The document root is certain: only what is below it is walked.
            None => stack.push((root, Condition::always())),
            Some(parent) => {
                let context = fuzzy.existence_condition(parent);
                if let Some(reduced) = reduce(fuzzy, root, &context, footprint, report)? {
                    stack.push((root, context.and(&reduced)));
                }
            }
        }
        while let Some((node, context)) = stack.pop() {
            for child in fuzzy.tree().children(node).to_vec() {
                if let Some(reduced) = reduce(fuzzy, child, &context, footprint, report)? {
                    if !fuzzy.tree().children(child).is_empty() {
                        stack.push((child, context.and(&reduced)));
                    }
                }
            }
        }
    }
    Ok(())
}

/// One node of the condition walk: resolves the literals over certain
/// events, removes the node (and its subtree, never descended into) when a
/// resolved literal is certainly false or what is left contradicts itself or
/// the context, else strips the literals the context implies. Returns the
/// reduced condition, or `None` for a removed node.
fn reduce(
    fuzzy: &mut FuzzyTree,
    node: NodeId,
    context: &Condition,
    footprint: &mut Footprint,
    report: &mut SimplifyReport,
) -> Result<Option<Condition>, CoreError> {
    report.nodes_walked += 1;
    let own = fuzzy.condition(node);
    let mut impossible = false;
    let mut kept: Vec<Literal> = Vec::with_capacity(own.len());
    for &literal in own.literals() {
        let probability = fuzzy.events().probability(literal.event);
        if probability == 0.0 || probability == 1.0 {
            report.resolved_deterministic_literals += 1;
            impossible |= literal.positive != (probability == 1.0);
        } else if context.contains(literal) {
            report.stripped_literals += 1;
        } else {
            impossible |= context.contains(literal.negated());
            kept.push(literal);
        }
    }
    let changed = kept.len() < own.len();
    let reduced = if changed {
        Condition::from_literals(kept)
    } else {
        own
    };
    if impossible || !reduced.is_consistent() {
        report.removed_impossible_nodes += fuzzy.tree().subtree_size(node);
        footprint.removing(fuzzy, node);
        fuzzy.remove_subtree(node)?;
        return Ok(None);
    }
    if changed {
        footprint.left(fuzzy.condition_literals(node));
        fuzzy.set_condition(node, reduced.clone())?;
    }
    Ok(Some(reduced))
}

/// Upper bound on the number of distinct events a same-body sibling group may
/// mention for the exact re-cover (see the module docs) to run.
///
/// The cover is read off a BDD's path structure, so the cost is bounded by
/// diagram size and the number of emitted terms — not by `2^events` — and
/// the bound is only a guard against pathological groups (experiment E13
/// measures re-covers up to it).
pub const GROUP_RECOVER_MAX_EVENTS: usize = 24;

/// The parents sweep 2 visits, children before parents: every node of the
/// live `roots`' subtrees (`roots` sorted, none inside another), each subtree
/// in reversed preorder, then, deepest first, the live `parents` outside
/// them and the ancestors whose child on the way down is a root or carries a
/// condition — below a certain child, which belongs to no group, nothing can
/// change a group of its parent. With the document root as the one root this
/// is the whole document in reversed preorder, and any order that visits
/// children before their parents gives the same result: a merge reads only
/// below the parent it runs at, and changes only that parent's children.
fn sweep_order(fuzzy: &FuzzyTree, roots: &[NodeId], parents: &[NodeId]) -> Vec<NodeId> {
    let tree = fuzzy.tree();
    let roots: Vec<NodeId> = roots
        .iter()
        .copied()
        .filter(|&root| tree.contains(root))
        .collect();
    let is_root = |node: &NodeId| roots.binary_search(node).is_ok();
    let mut above: BTreeSet<(Reverse<usize>, NodeId)> = BTreeSet::new();
    let mut anchors = roots.clone();
    for &parent in parents {
        if tree.contains(parent) && !tree.ancestors_or_self(parent).iter().any(is_root) {
            above.insert((Reverse(tree.depth(parent)), parent));
            anchors.push(parent);
        }
    }
    for anchor in anchors {
        // From the anchor up to the document root, each step (child, parent).
        let path = tree.ancestors_or_self(anchor);
        for (depth, step) in (0..path.len() - 1).rev().zip(path.windows(2)) {
            if is_root(&step[0]) || !fuzzy.condition_literals(step[0]).is_empty() {
                above.insert((Reverse(depth), step[1]));
            }
        }
    }
    let subtrees = roots
        .iter()
        .flat_map(|&root| tree.descendants_or_self(root).into_iter().rev());
    subtrees
        .chain(above.into_iter().map(|(_, node)| node))
        .collect()
}

/// Sweep 2 of a round: merges sibling subtrees with identical bodies whose
/// root conditions are redundant, visiting the parents of [`sweep_order`].
///
/// Parents are visited bottom-up (children first): a merge deep in the
/// tree can make its ancestors' bodies equal, and this order resolves such
/// cascades in a single sweep (and a merge only removes nodes the sweep has
/// already left behind). Per parent, only the children that *can* merge — a
/// non-empty condition, and a sibling with one and the same label — are
/// keyed by body, once, and each same-body group goes through
/// [`merge_group`], which records what it changes in `footprint` (the events
/// that may leave) and `next` (where the next round starts).
fn merge_sibling_groups(
    fuzzy: &mut FuzzyTree,
    order: Vec<NodeId>,
    footprint: &mut Footprint,
    next: &mut Footprint,
    report: &mut SimplifyReport,
) -> Result<(), CoreError> {
    for parent in order {
        let mut candidates: Vec<NodeId> = fuzzy
            .tree()
            .children(parent)
            .iter()
            .copied()
            .filter(|&child| !fuzzy.condition_literals(child).is_empty())
            .collect();
        if candidates.len() < 2 {
            continue;
        }
        let tree = fuzzy.tree();
        candidates.sort_by(|&a, &b| tree.label(a).cmp(tree.label(b)));
        // (body, condition, node), ordered by the first two and never by the
        // node id or the child position: the pairwise merge below is
        // order-dependent, and two documents that differ only in which
        // sibling sits in which slot must come out canonically equal.
        let mut keyed: Vec<(String, Condition, NodeId)> = candidates
            .chunk_by(|&a, &b| tree.label(a) == tree.label(b))
            .filter(|same_label| same_label.len() > 1)
            .flatten()
            .map(|&child| (body_key(fuzzy, child), fuzzy.condition(child), child))
            .collect();
        report.nodes_keyed += keyed.len();
        keyed.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        for group in keyed.chunk_by(|a, b| a.0 == b.0) {
            if group.len() > 1 {
                report.merged_nodes += merge_group(fuzzy, parent, group, footprint, next)?;
            }
        }
    }
    Ok(())
}

/// Merges one group of same-body children of `parent`, given in condition
/// order, in two tiers. Returns the number of nodes removed.
///
/// 1. *Pairwise Shannon merges*, to a local fixpoint: two siblings whose
///    conditions differ in the sign of exactly one literal (`X ∧ w` and
///    `X ∧ ¬w`) collapse to `X` — the direct inverse of one
///    deletion-duplication step.
/// 2. *Group re-cover*: deletion chains fragment a node's survivor condition
///    into many pairwise-disjoint conjunctive pieces that are **not**
///    pairwise mergeable even when the union has a much smaller disjoint
///    cover (the shape every multi-match deletion produces, experiment E8).
///    When what tier 1 left has one ([`disjoint_group_cover`]), the first
///    siblings take its terms.
///
/// The bodies are equal, so any sibling can stand for any other: a merge
/// rewrites the conditions of the siblings that stay and removes the rest.
/// A re-conditioned sibling is where the next round starts, and a removed
/// one takes only its own condition's literals out of the tree — its body
/// lives on in the siblings that stay.
fn merge_group(
    fuzzy: &mut FuzzyTree,
    parent: NodeId,
    group: &[(String, Condition, NodeId)],
    footprint: &mut Footprint,
    next: &mut Footprint,
) -> Result<usize, CoreError> {
    let mut conditions: Vec<Condition> = group.iter().map(|(_, c, _)| c.clone()).collect();
    'fixpoint: loop {
        for i in 0..conditions.len() {
            for j in (i + 1)..conditions.len() {
                if let Some(merged) = complementary_merge(&conditions[i], &conditions[j]) {
                    conditions[i] = merged;
                    conditions.remove(j);
                    continue 'fixpoint;
                }
            }
        }
        break;
    }
    if conditions.len() > 1 {
        if let Some(cover) = disjoint_group_cover(&conditions) {
            conditions = cover;
        }
    }
    let mut merged_nodes = 0;
    for (index, (_, old, node)) in group.iter().enumerate() {
        match conditions.get(index) {
            Some(new) if new == old => {}
            Some(new) => {
                footprint.left(old.literals());
                next.roots.push(*node);
                fuzzy.set_condition(*node, new.clone())?;
            }
            None => {
                footprint.left(old.literals());
                next.parents.push(parent);
                merged_nodes += fuzzy.tree().subtree_size(*node);
                fuzzy.remove_subtree(*node)?;
            }
        }
    }
    Ok(merged_nodes)
}

/// For pairwise-disjoint conjunctive `conditions` over at most
/// [`GROUP_RECOVER_MAX_EVENTS`] events, computes a disjoint conjunctive
/// cover of their union with strictly fewer terms, or `None` when the group
/// does not qualify or cannot shrink.
///
/// The cover is read off the path structure of the union's BDD
/// ([`Bdd::disjoint_cover`]) — bounded by diagram size, not `2^events`.
fn disjoint_group_cover(conditions: &[Condition]) -> Option<Vec<Condition>> {
    let mut events: Vec<EventId> = conditions.iter().flat_map(|c| c.events()).collect();
    events.sort_unstable();
    events.dedup();
    if events.is_empty() || events.len() > GROUP_RECOVER_MAX_EVENTS {
        return None;
    }
    // Soundness requires the siblings to exist in disjoint world sets (else
    // merging would change the number of simultaneous copies): every pair
    // must contain a complementary literal.
    for (i, a) in conditions.iter().enumerate() {
        if !a.is_consistent() {
            return None;
        }
        for b in conditions.iter().skip(i + 1) {
            if !a.literals().iter().any(|lit| b.contains(lit.negated())) {
                return None;
            }
        }
    }
    // The path cover's size depends on the variable order; try the plain
    // event-id order and the guard-first heuristic order, and keep the
    // better (fewer terms, then fewer literals).
    [Vec::new(), guard_first_order(conditions, &events)]
        .into_iter()
        .filter_map(|order| {
            let mut bdd = Bdd::with_order(order);
            let union = bdd.any_of(conditions.iter());
            bdd.disjoint_cover(union, conditions.len() - 1)
        })
        .min_by_key(|cover| (cover.len(), cover.iter().map(Condition::len).sum::<usize>()))
}

/// A variable order that collapses deletion-shaped fragmentations: events
/// appearing with one uniform sign across the whole group (the deletion
/// confidence shows up only negated in survivors, the target's own event
/// only positively) act as guards that split the union cleanly, so they go
/// on top — most frequent first; mixed-sign "ladder" events follow.
fn guard_first_order(conditions: &[Condition], events: &[EventId]) -> Vec<EventId> {
    let mut keyed: Vec<(bool, usize, EventId)> = events
        .iter()
        .map(|&event| {
            let mut positive = 0usize;
            let mut negative = 0usize;
            for condition in conditions {
                if condition.contains(Literal::pos(event)) {
                    positive += 1;
                }
                if condition.contains(Literal::neg(event)) {
                    negative += 1;
                }
            }
            let mixed = positive > 0 && negative > 0;
            (mixed, positive + negative, event)
        })
        .collect();
    // Uniform-sign guards first (mixed = false sorts first), most frequent
    // first within each class, event id as the final tie-break.
    keyed.sort_unstable_by_key(|&(mixed, count, event)| (mixed, usize::MAX - count, event));
    keyed.into_iter().map(|(_, _, event)| event).collect()
}

/// The canonical form of a node ignoring its own root condition: the one
/// canonical-form writer, annotating every node below `node` with its
/// condition and `node` itself with nothing.
fn body_key(fuzzy: &FuzzyTree, node: NodeId) -> String {
    subtree_canonical_string(fuzzy.tree(), node, &mut |n, out| {
        if n != node {
            fuzzy.write_condition(n, out);
        }
    })
}

/// If `a` and `b` differ in the sign of exactly one literal (and are
/// otherwise equal), returns the common condition without that literal.
fn complementary_merge(a: &Condition, b: &Condition) -> Option<Condition> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    let only_in_a: Vec<Literal> = a
        .literals()
        .iter()
        .copied()
        .filter(|lit| !b.contains(*lit))
        .collect();
    let only_in_b: Vec<Literal> = b
        .literals()
        .iter()
        .copied()
        .filter(|lit| !a.contains(*lit))
        .collect();
    if only_in_a.len() == 1 && only_in_b.len() == 1 && only_in_a[0] == only_in_b[0].negated() {
        let common: Vec<Literal> = a
            .literals()
            .iter()
            .copied()
            .filter(|lit| *lit != only_in_a[0])
            .collect();
        Some(Condition::from_literals(common))
    } else {
        None
    }
}

/// Sweep 3 of a round, event collection over the round's footprint: an
/// event of `footprint.events` is dropped when no condition mentions it.
/// The touched subtrees and the re-conditioned nodes are looked at first,
/// and every condition only when a candidate is left unmentioned by a
/// footprint that is not the whole document. Returns the number of events
/// dropped.
fn collect_events(
    fuzzy: &mut FuzzyTree,
    roots: &[NodeId],
    reconditioned: &[NodeId],
    footprint: &Footprint,
) -> usize {
    let mut candidates: Vec<EventId> = footprint.events.clone();
    candidates.sort_unstable();
    candidates.dedup();
    let mut unmentioned = vec![true; candidates.len()];
    let tree = fuzzy.tree();
    let touched = roots
        .iter()
        .filter(|&&root| tree.contains(root))
        .flat_map(|&root| tree.descendants_or_self(root));
    let reconditioned = reconditioned.iter().copied().filter(|&n| tree.contains(n));
    for node in touched.chain(reconditioned) {
        let literals = fuzzy.condition_literals(node);
        mention(&candidates, &mut unmentioned, literals);
    }
    if unmentioned.contains(&true) && !roots.contains(&tree.root()) {
        for condition in fuzzy.conditions.values() {
            mention(&candidates, &mut unmentioned, condition.literals());
        }
    }
    let dropped: Vec<EventId> = candidates
        .into_iter()
        .zip(unmentioned)
        .filter_map(|(event, unmentioned)| unmentioned.then_some(event))
        .collect();
    drop_events(fuzzy, &dropped);
    dropped.len()
}

/// Marks the `candidates` (sorted) that `literals` mention.
fn mention(candidates: &[EventId], unmentioned: &mut [bool], literals: &[Literal]) {
    for literal in literals {
        if let Ok(at) = candidates.binary_search(&literal.event) {
            unmentioned[at] = false;
        }
    }
}

/// Removes the `dropped` events (sorted, mentioned by no condition) from the
/// table, in place. The events after the first of them move down, so the
/// conditions that mention one are rewritten; when the dropped events are
/// the table's tail nothing moves.
fn drop_events(fuzzy: &mut FuzzyTree, dropped: &[EventId]) {
    let Some(&first) = dropped.first() else {
        return;
    };
    let tail = first.index() + dropped.len() == fuzzy.events.len();
    let renumber = fuzzy.events.remove_events(dropped);
    if tail {
        return;
    }
    let rewritten: Vec<(NodeId, Condition)> = fuzzy
        .conditions
        .iter()
        .filter(|(_, condition)| condition.literals().iter().any(|lit| lit.event > first))
        .map(|(node, condition)| {
            let literals = condition.literals().iter().map(|lit| Literal {
                event: renumber(lit.event),
                positive: lit.positive,
            });
            (node, Condition::from_literals(literals))
        })
        .collect();
    for (node, condition) in rewritten {
        fuzzy.conditions.insert(node, condition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy::slide12_example;
    use crate::update::UpdateTransaction;
    use pxml_query::Pattern;
    use pxml_tree::parse_data_tree;

    fn assert_semantics_preserved(before: &FuzzyTree, after: &FuzzyTree) {
        assert!(
            before.semantically_equivalent(after, 1e-9).unwrap(),
            "simplification must preserve the possible-worlds semantics"
        );
    }

    #[test]
    fn simplifying_a_clean_document_is_a_noop() {
        let mut fuzzy = slide12_example();
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert!(report.is_noop());
        assert_eq!(report.passes, 1);
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn only_a_marked_fixpoint_is_simplified_from_the_footprint() {
        let insert_e = || {
            let pattern = Pattern::parse("A { D }").unwrap();
            let target = pattern.root();
            UpdateTransaction::new(pattern, 0.6)
                .unwrap()
                .with_insert(target, parse_data_tree("<E/>").unwrap())
        };
        let mut fuzzy = slide12_example();
        assert!(!fuzzy.fixpoint, "a document built by hand is unmarked");
        let whole = insert_e()
            .apply_to_fuzzy_with(&mut fuzzy, SimplifyPolicy::Inline)
            .unwrap()
            .simplify
            .unwrap();
        assert_eq!(whole.nodes_walked, fuzzy.node_count() - 1);
        assert!(fuzzy.fixpoint && fuzzy.clone().fixpoint);
        fuzzy.compact_slots();
        assert!(fuzzy.fixpoint, "renumbering keeps the mark");
        let scoped = insert_e()
            .apply_to_fuzzy_with(&mut fuzzy, SimplifyPolicy::Inline)
            .unwrap()
            .simplify
            .unwrap();
        assert_eq!(scoped.nodes_walked, 1, "only the new E");
        let d = fuzzy.tree().find_elements("D")[0];
        fuzzy.add_element(d, "F");
        assert!(!fuzzy.fixpoint, "a mutator clears the mark");
    }

    #[test]
    fn impossible_nodes_are_pruned() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(
                a,
                Condition::from_literals([Literal::pos(w), Literal::neg(w)]),
            )
            .unwrap();
        fuzzy.add_element(a, "b");
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.removed_impossible_nodes, 2);
        assert_eq!(fuzzy.node_count(), 1);
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn nodes_conflicting_with_ancestors_are_pruned() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::neg(w)))
            .unwrap();
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.removed_impossible_nodes, 1);
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn implied_literals_are_stripped() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let v = fuzzy.add_event("v", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        fuzzy
            .set_condition(
                b,
                Condition::from_literals([Literal::pos(w), Literal::pos(v)]),
            )
            .unwrap();
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.stripped_literals, 1);
        assert_eq!(fuzzy.condition(b), Condition::from_literal(Literal::pos(v)));
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn deterministic_events_are_resolved() {
        let mut fuzzy = FuzzyTree::new("r");
        let sure = fuzzy.add_event("sure", 1.0).unwrap();
        let never = fuzzy.add_event("never", 0.0).unwrap();
        let maybe = fuzzy.add_event("maybe", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(
                a,
                Condition::from_literals([Literal::pos(sure), Literal::pos(maybe)]),
            )
            .unwrap();
        let b = fuzzy.add_element(fuzzy.root(), "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(never)))
            .unwrap();
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert!(report.resolved_deterministic_literals >= 2);
        // `a` keeps only the uncertain literal, `b` disappears. (Event ids
        // may have been remapped by garbage collection, so look it up again.)
        let maybe = fuzzy.events().lookup("maybe").unwrap();
        assert_eq!(
            fuzzy.condition(a),
            Condition::from_literal(Literal::pos(maybe))
        );
        assert!(fuzzy.tree().find_elements("b").is_empty());
        // Unused events are garbage collected.
        assert_eq!(fuzzy.event_count(), 1);
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn complementary_siblings_are_merged() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let v = fuzzy.add_event("v", 0.4).unwrap();
        // Two copies of a(x) differing only in the sign of w.
        let a1 = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(
                a1,
                Condition::from_literals([Literal::pos(v), Literal::pos(w)]),
            )
            .unwrap();
        fuzzy.add_element(a1, "x");
        let a2 = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(
                a2,
                Condition::from_literals([Literal::pos(v), Literal::neg(w)]),
            )
            .unwrap();
        fuzzy.add_element(a2, "x");
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.merged_nodes, 2);
        assert_eq!(fuzzy.tree().find_elements("a").len(), 1);
        let a = fuzzy.tree().find_elements("a")[0];
        // `w` was garbage collected, so re-resolve `v` by name.
        let v = fuzzy.events().lookup("v").unwrap();
        assert_eq!(fuzzy.condition(a), Condition::from_literal(Literal::pos(v)));
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn siblings_with_different_bodies_are_not_merged() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a1 = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a1, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        fuzzy.add_element(a1, "x");
        let a2 = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a2, Condition::from_literal(Literal::neg(w)))
            .unwrap();
        fuzzy.add_element(a2, "y"); // different child
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.merged_nodes, 0);
        assert_eq!(fuzzy.tree().find_elements("a").len(), 2);
    }

    /// A text value that spells out, in the canonical form's own structure
    /// characters, the tail of the body `b { "x" }, c { "y" }`: under a
    /// writer that does not escape labels, `a { b { HOSTILE_TEXT } }` and
    /// `a { b { "x" }, c { "y" } }` get the same string. (The first entry of
    /// ROADMAP open item 3's fuzz corpus; `crates/server/tests/malformed.rs`
    /// drives the same document over the wire.)
    const HOSTILE_TEXT: &str = "x[⊤]),e|c[⊤](t|y";

    #[test]
    fn a_text_value_cannot_make_different_bodies_merge() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w0", 0.5).unwrap();
        let root = fuzzy.root();
        let honest =
            fuzzy.add_conditional_element(root, "a", Condition::from_literal(Literal::pos(w)));
        let b = fuzzy.add_element(honest, "b");
        fuzzy.add_text(b, "x");
        let c = fuzzy.add_element(honest, "c");
        fuzzy.add_text(c, "y");
        let hostile =
            fuzzy.add_conditional_element(root, "a", Condition::from_literal(Literal::neg(w)));
        let b = fuzzy.add_element(hostile, "b");
        fuzzy.add_text(b, HOSTILE_TEXT);
        let before = fuzzy.to_possible_worlds().unwrap();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        let after = fuzzy.to_possible_worlds().unwrap();
        assert!(
            before.equivalent(&after, 1e-12),
            "{} worlds → {}",
            before.len(),
            after.len()
        );
        assert!(report.is_noop(), "{report:?}");
        assert_ne!(body_key(&fuzzy, honest), body_key(&fuzzy, hostile));
    }

    #[test]
    fn simplification_undoes_vacuous_conditional_deletion() {
        // Deleting C with confidence 1 when B[w] is present duplicates C; the
        // simplifier must keep the result small and semantics intact.
        let mut fuzzy = FuzzyTree::new("A");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let root = fuzzy.root();
        let b = fuzzy.add_element(root, "B");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        fuzzy.add_element(root, "C");
        let pattern = Pattern::parse("/A { B, C }").unwrap();
        let ids: Vec<_> = pattern.node_ids().collect();
        let tx = UpdateTransaction::new(pattern, 0.8)
            .unwrap()
            .with_delete(ids[2]);
        tx.apply_to_fuzzy(&mut fuzzy).unwrap();
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_semantics_preserved(&before, &fuzzy);
        assert!(fuzzy.node_count() <= before.node_count());
        assert!(report.passes >= 1);
    }

    /// Regression for experiment E8: realistic data-cleaning output.
    ///
    /// A person carries two uncertain phones (`w1`, `w2`) and an uncertain
    /// email (`v`); a cleaning module retracts the email when the person has
    /// *a* phone (confidence 0.9). The two matches share the confidence
    /// event, so the deletion fragments the email's survivor condition into
    /// three pairwise-disjoint pieces — none of which differ in a single
    /// literal, so pairwise Shannon merging never fires on them. The group
    /// re-cover must collapse them back to the two-piece optimum.
    #[test]
    fn group_recover_merges_multi_match_deletion_output() {
        let mut fuzzy = FuzzyTree::new("person");
        let w1 = fuzzy.add_event("w1", 0.7).unwrap();
        let w2 = fuzzy.add_event("w2", 0.6).unwrap();
        let v = fuzzy.add_event("v", 0.8).unwrap();
        let root = fuzzy.root();
        for (label, event) in [("phone", w1), ("phone", w2), ("email", v)] {
            let node = fuzzy.add_element(root, label);
            fuzzy
                .set_condition(node, Condition::from_literal(Literal::pos(event)))
                .unwrap();
        }
        let pattern = Pattern::parse("person { phone, email }").unwrap();
        let email = pattern.node_ids().nth(2).unwrap();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_delete(email)
            .apply_to_fuzzy(&mut fuzzy)
            .unwrap();
        assert_eq!(
            fuzzy.tree().find_elements("email").len(),
            3,
            "the shared-confidence multi-match deletion fragments the email"
        );
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert!(report.merged_nodes > 0, "the group re-cover must fire");
        assert_eq!(fuzzy.tree().find_elements("email").len(), 2);
        assert_semantics_preserved(&before, &fuzzy);
        assert!(fuzzy.validate().is_ok());
    }

    /// E8-shape regression for the re-cover: one retraction over `phones`
    /// uncertain phones fragments the email into `phones + 1` pieces, whose
    /// union is "the email, and not (a phone and the confidence)" — two
    /// disjoint terms, which the cover must find, carrying exactly the
    /// union's probability mass.
    #[test]
    fn deletion_ladders_recover_to_the_two_term_optimum() {
        for phones in 1..=5 {
            let mut fuzzy = FuzzyTree::new("person");
            let root = fuzzy.root();
            for i in 0..phones {
                let w = fuzzy
                    .add_event(format!("w{i}"), 0.6 + 0.05 * i as f64)
                    .unwrap();
                let phone = fuzzy.add_element(root, "phone");
                fuzzy
                    .set_condition(phone, Condition::from_literal(Literal::pos(w)))
                    .unwrap();
            }
            let v = fuzzy.add_event("v", 0.8).unwrap();
            let email = fuzzy.add_element(root, "email");
            fuzzy
                .set_condition(email, Condition::from_literal(Literal::pos(v)))
                .unwrap();
            let pattern = Pattern::parse("person { phone, email }").unwrap();
            let target = pattern.node_ids().nth(2).unwrap();
            UpdateTransaction::new(pattern, 0.9)
                .unwrap()
                .with_delete(target)
                .apply_to_fuzzy(&mut fuzzy)
                .unwrap();
            let conditions: Vec<Condition> = fuzzy
                .tree()
                .find_elements("email")
                .into_iter()
                .map(|n| fuzzy.condition(n))
                .collect();
            assert_eq!(conditions.len(), phones + 1, "the deletion must fragment");
            // One phone leaves two pieces, already the optimum: no strictly
            // smaller cover exists and the group stays as it is.
            let cover = disjoint_group_cover(&conditions).unwrap_or(conditions.clone());
            assert_eq!(cover.len(), 2, "{phones} phones: {cover:?}");
            // Exactness: disjoint terms sum to the union's probability.
            let union = pxml_event::disjunction_probability(&conditions, fuzzy.events());
            let mass: f64 = cover
                .iter()
                .map(|term| term.probability(fuzzy.events()))
                .sum();
            assert!((mass - union).abs() < 1e-9);
        }
    }

    /// The lifted re-cover fires on groups wider than the old 8-event cap:
    /// ten uncertain phones plus the shared deletion confidence put the
    /// fragmented email group at 12 distinct events, which the valuation
    /// enumeration never touched — the BDD path cover collapses the 11
    /// fragments to the 2-piece optimum.
    #[test]
    fn group_recover_fires_past_the_old_eight_event_cap() {
        let mut fuzzy = FuzzyTree::new("person");
        let root = fuzzy.root();
        for i in 0..10 {
            let w = fuzzy.add_event(format!("w{i}"), 0.7).unwrap();
            let phone = fuzzy.add_element(root, "phone");
            fuzzy
                .set_condition(phone, Condition::from_literal(Literal::pos(w)))
                .unwrap();
        }
        let v = fuzzy.add_event("v", 0.8).unwrap();
        let email = fuzzy.add_element(root, "email");
        fuzzy
            .set_condition(email, Condition::from_literal(Literal::pos(v)))
            .unwrap();
        let pattern = Pattern::parse("person { phone, email }").unwrap();
        let target = pattern.node_ids().nth(2).unwrap();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_delete(target)
            .apply_to_fuzzy(&mut fuzzy)
            .unwrap();
        assert_eq!(fuzzy.tree().find_elements("email").len(), 11);
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert!(report.merged_nodes > 0, "the wide re-cover must fire");
        assert!(fuzzy.tree().find_elements("email").len() <= 2);
        assert_semantics_preserved(&before, &fuzzy);
        assert!(fuzzy.validate().is_ok());
    }

    #[test]
    fn group_recover_leaves_overlapping_siblings_alone() {
        // Two same-body phones from independent extractions co-exist in some
        // worlds: their conditions are not disjoint, so merging them would
        // change the number of simultaneous copies and must not happen.
        let mut fuzzy = FuzzyTree::new("person");
        let w1 = fuzzy.add_event("w1", 0.7).unwrap();
        let w2 = fuzzy.add_event("w2", 0.6).unwrap();
        for event in [w1, w2] {
            let phone = fuzzy.add_element(fuzzy.root(), "phone");
            fuzzy
                .set_condition(phone, Condition::from_literal(Literal::pos(event)))
                .unwrap();
        }
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.merged_nodes, 0);
        assert_eq!(fuzzy.tree().find_elements("phone").len(), 2);
        assert_semantics_preserved(&before, &fuzzy);
    }

    #[test]
    fn garbage_collection_drops_unused_events() {
        let mut fuzzy = slide12_example();
        fuzzy.add_event("orphan1", 0.4).unwrap();
        fuzzy.add_event("orphan2", 0.9).unwrap();
        let whole = Footprint::whole(&fuzzy);
        let removed = collect_events(&mut fuzzy, &whole.roots, &[], &whole);
        assert_eq!(removed, 2);
        assert_eq!(fuzzy.event_count(), 2);
        assert!(fuzzy.validate().is_ok());
        // Conditions still refer to valid events with unchanged probabilities.
        let worlds = fuzzy.to_possible_worlds().unwrap();
        let abc = parse_data_tree("<A><B/><C/></A>").unwrap();
        assert!((worlds.probability_of_tree(&abc) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn simplification_after_update_history_preserves_semantics() {
        // A short random-ish update history followed by simplification.
        let mut fuzzy = slide12_example();
        let insert_pattern = Pattern::parse("A { D }").unwrap();
        let ins_target = insert_pattern.root();
        UpdateTransaction::new(insert_pattern, 0.6)
            .unwrap()
            .with_insert(ins_target, parse_data_tree("<E>x</E>").unwrap())
            .apply_to_fuzzy(&mut fuzzy)
            .unwrap();
        let delete_pattern = Pattern::parse("/A { B, C }").unwrap();
        let ids: Vec<_> = delete_pattern.node_ids().collect();
        UpdateTransaction::new(delete_pattern, 0.7)
            .unwrap()
            .with_delete(ids[2])
            .apply_to_fuzzy(&mut fuzzy)
            .unwrap();
        let before = fuzzy.clone();
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_semantics_preserved(&before, &fuzzy);
        assert!(fuzzy.validate().is_ok());
        assert!(report.passes <= 8);
    }
}
