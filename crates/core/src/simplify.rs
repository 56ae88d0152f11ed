//! Fuzzy-data simplification (slide 19, "Perspectives").
//!
//! Updates — deletions in particular — make fuzzy trees grow: nodes get
//! duplicated, conditions accumulate literals, events pile up in the table.
//! The [`Simplifier`] shrinks a fuzzy tree **without changing its
//! possible-worlds semantics**:
//!
//! 1. *prune impossible nodes* — nodes whose existence condition is
//!    inconsistent exist in no world;
//! 2. *strip implied literals* — a literal already guaranteed by an
//!    ancestor's condition is redundant on a descendant;
//! 3. *apply deterministic events* — events with probability exactly 0 or 1
//!    are certain, so their literals can be resolved away;
//! 4. *merge mergeable siblings* — two sibling subtrees that are identical
//!    except that their root conditions differ in the sign of a single
//!    literal are the two halves of a Shannon expansion and can be collapsed
//!    back into one (the inverse of deletion-induced duplication);
//! 5. *garbage-collect events* — events no longer mentioned anywhere are
//!    dropped from the table.
//!
//! Every pass preserves semantics; `EXPERIMENTS.md` (experiment E8) measures
//! how much of the growth caused by update histories the simplifier wins
//! back.

use std::collections::HashMap;

use pxml_event::{Bdd, Condition, EventId, EventTable, Literal};
use pxml_tree::NodeId;

use crate::error::CoreError;
use crate::fuzzy::FuzzyTree;

/// When the apply pipeline (see
/// [`UpdateTransaction::apply_to_fuzzy_with`](crate::UpdateTransaction::apply_to_fuzzy_with)
/// and [`apply_batch`](crate::apply_batch)) runs the simplifier.
///
/// Deletion-induced duplication is created *inside* update application, so a
/// simplification pass bolted on after the fact repeatedly pays for growth
/// that an inline pass would have stopped at the source; the policy makes the
/// trade-off explicit and pluggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimplifyPolicy {
    /// Never simplify; callers run the [`Simplifier`] themselves.
    Never,
    /// Simplify after every update application.
    #[default]
    Inline,
    /// Simplify after an update application only when the document carries
    /// more than this many condition literals.
    Threshold(usize),
}

impl SimplifyPolicy {
    /// Whether the pipeline should run a simplification pass on `fuzzy` now.
    pub fn should_run(&self, fuzzy: &FuzzyTree) -> bool {
        match self {
            SimplifyPolicy::Never => false,
            SimplifyPolicy::Inline => true,
            SimplifyPolicy::Threshold(limit) => fuzzy.condition_literal_count() > *limit,
        }
    }
}

/// What a simplification run changed.
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
    }
}

/// Upper bound on fixpoint iterations (a safety net; 2–3 passes normally
/// suffice).
const MAX_PASSES: usize = 8;

/// The simplification driver: runs every pass of the module docs to a
/// fixpoint.
#[derive(Debug, Clone, Default)]
pub struct Simplifier;

impl Simplifier {
    /// A simplifier.
    pub fn new() -> Self {
        Simplifier
    }

    /// Runs simplification passes until nothing changes (or `MAX_PASSES` is
    /// reached) and reports the cumulative effect.
    pub fn run(&self, fuzzy: &mut FuzzyTree) -> Result<SimplifyReport, CoreError> {
        let mut total = SimplifyReport::default();
        for pass in 0..MAX_PASSES {
            let report = SimplifyReport {
                removed_impossible_nodes: prune_impossible_nodes(fuzzy)?,
                resolved_deterministic_literals: resolve_deterministic_events(fuzzy)?,
                stripped_literals: strip_implied_literals(fuzzy)?,
                merged_nodes: merge_complementary_siblings(fuzzy)?,
                removed_events: garbage_collect_events(fuzzy),
                passes: 0,
            };
            let changed = !report.is_noop();
            total.absorb(&report);
            total.passes = pass + 1;
            if !changed {
                break;
            }
        }
        Ok(total)
    }
}

/// Removes every node whose existence condition is (syntactically)
/// inconsistent; returns the number of nodes removed.
///
/// One top-down walk accumulating the ancestor context suffices: a node
/// inconsistent with its context is doomed together with its whole subtree,
/// so the walk marks the top-most doomed nodes and never descends into them.
pub fn prune_impossible_nodes(fuzzy: &mut FuzzyTree) -> Result<usize, CoreError> {
    let root = fuzzy.root();
    let mut doomed: Vec<NodeId> = Vec::new();
    let mut stack: Vec<(NodeId, Condition)> = vec![(root, Condition::always())];
    while let Some((node, context)) = stack.pop() {
        for &child in fuzzy.tree().children(node) {
            let combined = context.and(&fuzzy.condition(child));
            if combined.is_consistent() {
                stack.push((child, combined));
            } else {
                doomed.push(child);
            }
        }
    }
    let mut removed = 0;
    for node in doomed {
        removed += fuzzy.tree().subtree_size(node);
        fuzzy.remove_subtree(node)?;
    }
    Ok(removed)
}

/// Removes, from every node's condition, the literals already guaranteed by
/// its ancestors; returns the number of literals removed.
///
/// One top-down walk carries the accumulated ancestor context, extending it
/// by each node's (already reduced) own condition on the way down — the
/// context is never re-conjoined from the root per node, which would make
/// the pass O(depth) slower on deep documents.
pub fn strip_implied_literals(fuzzy: &mut FuzzyTree) -> Result<usize, CoreError> {
    let mut stripped = 0;
    let mut stack: Vec<(NodeId, Condition)> = vec![(fuzzy.root(), Condition::always())];
    while let Some((node, context)) = stack.pop() {
        for child in fuzzy.tree().children(node).to_vec() {
            let own = fuzzy.condition(child);
            let reduced = if own.is_empty() {
                own
            } else {
                let reduced = own.without_implied_by(&context);
                if reduced.len() < own.len() {
                    stripped += own.len() - reduced.len();
                    fuzzy.set_condition(child, reduced.clone())?;
                }
                reduced
            };
            if !fuzzy.tree().children(child).is_empty() {
                stack.push((child, context.and(&reduced)));
            }
        }
    }
    Ok(stripped)
}

/// Resolves literals over events whose probability is exactly 0 or 1:
/// certainly-true literals are dropped, certainly-false literals make the
/// node impossible (it is removed). Returns the number of literals resolved.
pub fn resolve_deterministic_events(fuzzy: &mut FuzzyTree) -> Result<usize, CoreError> {
    let deterministic: HashMap<EventId, bool> =
        fuzzy.events().deterministic_events().into_iter().collect();
    if deterministic.is_empty() {
        return Ok(0);
    }
    let mut resolved = 0;
    let mut doomed: Vec<NodeId> = Vec::new();
    for node in fuzzy.tree().nodes() {
        let condition = fuzzy.condition(node);
        if condition.is_empty() {
            continue;
        }
        let mut keep: Vec<Literal> = Vec::new();
        let mut impossible = false;
        for &literal in condition.literals() {
            match deterministic.get(&literal.event) {
                None => keep.push(literal),
                Some(&value) => {
                    resolved += 1;
                    if literal.positive != value {
                        impossible = true;
                    }
                }
            }
        }
        if impossible {
            doomed.push(node);
        } else if keep.len() < condition.len() {
            fuzzy.set_condition(node, Condition::from_literals(keep))?;
        }
    }
    for node in doomed {
        if fuzzy.tree().contains(node) && node != fuzzy.root() {
            fuzzy.remove_subtree(node)?;
        }
    }
    Ok(resolved)
}

/// Upper bound on the number of distinct events a same-body sibling group may
/// mention for the exact re-cover (see [`merge_complementary_siblings`]) to
/// run.
///
/// The cover is read off a BDD's path structure, so the cost is bounded by
/// diagram size and the number of emitted terms — not by `2^events` — and
/// the bound is only a guard against pathological groups. It was 8 when the
/// re-cover enumerated the `2^events` valuations directly; the BDD engine
/// lifted it to 24 (experiment E13 measures re-covers at widths the old
/// enumeration could not touch).
pub const GROUP_RECOVER_MAX_EVENTS: usize = 24;

/// Width up to which the greedy maximal-subcube cover (which enumerates all
/// `2^events` valuations) is also computed and compared against the BDD path
/// cover — the greedy cover can use fewer, larger cubes on small groups, and
/// taking the better of the two guarantees the lifted re-cover never does
/// worse than the old capped one.
const GREEDY_RECOVER_MAX_EVENTS: usize = 8;

/// Merges sibling subtrees with identical bodies whose root conditions are
/// redundant, in two tiers. Returns the net number of nodes removed.
///
/// 1. *Pairwise Shannon merges*: two siblings whose conditions differ in the
///    sign of exactly one literal (`X ∧ w` and `X ∧ ¬w`) collapse to `X` —
///    the direct inverse of one deletion-duplication step.
/// 2. *Group re-cover*: deletion chains fragment a node's survivor condition
///    into many pairwise-disjoint conjunctive pieces that are **not**
///    pairwise mergeable even when the union has a much smaller disjoint
///    cover (the shape every multi-match deletion produces, experiment E8).
///    For a group of same-body siblings with pairwise-disjoint conditions
///    over at most [`GROUP_RECOVER_MAX_EVENTS`] events, the union of the
///    conditions is recomputed exactly over the event valuations and
///    re-covered greedily by maximal subcubes; when that cover is strictly
///    smaller, the group is rebuilt from it.
pub fn merge_complementary_siblings(fuzzy: &mut FuzzyTree) -> Result<usize, CoreError> {
    let mut merged_nodes = 0;
    // Bottom-up (children before parents, i.e. reversed preorder): a merge
    // deep in the tree can make its ancestors' bodies equal, and this order
    // resolves such cascades in a single sweep instead of a global rescan
    // per merge.
    let mut order = fuzzy.tree().nodes();
    order.reverse();
    for parent in order {
        if !fuzzy.tree().contains(parent) {
            continue;
        }
        merged_nodes += merge_children_of(fuzzy, parent)?;
    }
    merged_nodes += recover_sibling_groups(fuzzy)?;
    Ok(merged_nodes)
}

/// Pairwise Shannon merging restricted to the children of one parent, run to
/// a local fixpoint.
///
/// Body keys are computed **once per call**, not once per fixpoint
/// iteration: a merge removes one sibling and rewrites the kept sibling's
/// own root condition, which its body key excludes, so the surviving keys
/// stay valid for the whole local fixpoint — re-deriving them each round
/// was the dominant cost of this pass (each key is an O(subtree) canonical
/// form).
fn merge_children_of(fuzzy: &mut FuzzyTree, parent: NodeId) -> Result<usize, CoreError> {
    let mut merged_nodes = 0;
    let children = fuzzy.tree().children(parent).to_vec();
    if children.len() < 2 {
        return Ok(merged_nodes);
    }
    let mut keyed: Vec<(String, NodeId)> = children
        .iter()
        .map(|&child| (body_key(fuzzy, child), child))
        .collect();
    keyed.sort();
    loop {
        if keyed.len() < 2 {
            return Ok(merged_nodes);
        }
        let mut found = None;
        'search: for i in 0..keyed.len() {
            for j in (i + 1)..keyed.len() {
                if keyed[i].0 != keyed[j].0 {
                    break;
                }
                let a = keyed[i].1;
                let b = keyed[j].1;
                if let Some(merged) = complementary_merge(&fuzzy.condition(a), &fuzzy.condition(b))
                {
                    found = Some((j, a, b, merged));
                    break 'search;
                }
            }
        }
        let Some((drop_index, keep, drop, merged_condition)) = found else {
            return Ok(merged_nodes);
        };
        merged_nodes += fuzzy.tree().subtree_size(drop);
        fuzzy.remove_subtree(drop)?;
        fuzzy.set_condition(keep, merged_condition)?;
        keyed.remove(drop_index);
    }
}

/// Tier-2 merging: re-covers qualifying same-body sibling groups (see
/// [`merge_complementary_siblings`]). Returns the net number of nodes
/// removed.
fn recover_sibling_groups(fuzzy: &mut FuzzyTree) -> Result<usize, CoreError> {
    let mut merged_nodes = 0;
    for parent in fuzzy.tree().nodes() {
        if !fuzzy.tree().contains(parent) {
            // Removed by an earlier group rebuild in this same pass.
            continue;
        }
        let children = fuzzy.tree().children(parent);
        if children.len() < 2 {
            continue;
        }
        // Group by sorting, as `merge_children_of` does: hash-map iteration
        // order would decide which group is rebuilt first — and so where its
        // duplicates are grafted and which node ids they get — differently in
        // every process. The sort is stable, so each group keeps document
        // order and its first child stays the representative.
        let mut keyed: Vec<(String, NodeId)> = children
            .iter()
            .map(|&child| (body_key(fuzzy, child), child))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        for group in keyed.chunk_by(|a, b| a.0 == b.0) {
            if group.len() < 2 {
                continue;
            }
            let conditions: Vec<Condition> =
                group.iter().map(|(_, n)| fuzzy.condition(*n)).collect();
            let Some(cover) = disjoint_group_cover(&conditions) else {
                continue;
            };
            // Rebuild the group from the smaller cover: keep one
            // representative subtree, duplicate it once per extra term.
            let representative = group[0].1;
            let body_size = fuzzy.tree().subtree_size(representative);
            for term in cover.iter().skip(1) {
                fuzzy.duplicate_subtree(parent, representative, term.clone());
            }
            fuzzy.set_condition(representative, cover[0].clone())?;
            for (_, node) in group.iter().skip(1) {
                fuzzy.remove_subtree(*node)?;
            }
            merged_nodes += (group.len() - cover.len()) * body_size;
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
/// ([`Bdd::disjoint_cover`]) — bounded by diagram size, not `2^events`. For
/// groups up to [`GREEDY_RECOVER_MAX_EVENTS`] events the old greedy
/// maximal-subcube cover is computed as well and the better of the two is
/// returned (fewer terms, then fewer literals), so the lifted re-cover is
/// never worse than the capped one it replaces.
fn disjoint_group_cover(conditions: &[Condition]) -> Option<Vec<Condition>> {
    let mut events: Vec<EventId> = conditions.iter().flat_map(|c| c.events()).collect();
    events.sort_unstable();
    events.dedup();
    let width = events.len();
    if width == 0 || width > GROUP_RECOVER_MAX_EVENTS {
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
    // event-id order and the guard-first heuristic order, plus (on small
    // widths) the old exhaustive greedy subcube cover, and keep the best.
    let mut candidates: Vec<Vec<Condition>> = Vec::new();
    for order in [Vec::new(), guard_first_order(conditions, &events)] {
        let mut bdd = Bdd::with_order(order);
        let union = bdd.any_of(conditions.iter());
        if let Some(cover) = bdd.disjoint_cover(union, conditions.len() - 1) {
            candidates.push(cover);
        }
    }
    if width <= GREEDY_RECOVER_MAX_EVENTS {
        if let Some(cover) = greedy_subcube_cover(conditions, &events) {
            candidates.push(cover);
        }
    }
    let cost = |cover: &[Condition]| (cover.len(), cover.iter().map(Condition::len).sum::<usize>());
    candidates.into_iter().min_by_key(|cover| cost(cover))
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

/// The pre-BDD re-cover: a greedy cover of the union by maximal subcubes,
/// computed over the exact set of `2^events` valuations — exponential in the
/// group width, which is why it only runs up to
/// [`GREEDY_RECOVER_MAX_EVENTS`] events. Returns a cover with strictly fewer
/// terms than `conditions`, or `None`.
fn greedy_subcube_cover(conditions: &[Condition], events: &[EventId]) -> Option<Vec<Condition>> {
    let width = events.len();
    // The union of the conditions, as a set of valuations over `events`.
    let space = 1usize << width;
    let index_of = |event: EventId| events.iter().position(|&e| e == event).expect("own event");
    let mut remaining = vec![false; space];
    let mut left = 0usize;
    for (valuation, slot) in remaining.iter_mut().enumerate() {
        let satisfied = conditions.iter().any(|c| {
            c.literals()
                .iter()
                .all(|lit| ((valuation >> index_of(lit.event)) & 1 == 1) == lit.positive)
        });
        if satisfied {
            *slot = true;
            left += 1;
        }
    }
    // Greedy cover by maximal subcubes: a term is (care mask, values on the
    // cared bits); its points are the valuations agreeing on the cared bits.
    // Scanning care masks by increasing popcount finds a largest term first.
    let mut care_masks: Vec<usize> = (0..space).collect();
    care_masks.sort_by_key(|mask| mask.count_ones());
    let mut terms: Vec<Condition> = Vec::new();
    while left > 0 {
        if terms.len() + 1 >= conditions.len() {
            // No strict improvement possible any more.
            return None;
        }
        let mut found = None;
        'search: for &care in &care_masks {
            let mut value = care;
            // Enumerate the subsets of `care` as candidate fixed values.
            loop {
                let contained = remaining
                    .iter()
                    .enumerate()
                    .all(|(v, &in_set)| in_set || (v & care) != value);
                let nonempty = remaining
                    .iter()
                    .enumerate()
                    .any(|(v, &in_set)| in_set && (v & care) == value);
                if contained && nonempty {
                    found = Some((care, value));
                    break 'search;
                }
                if value == 0 {
                    break;
                }
                value = (value - 1) & care;
            }
        }
        let (care, value) = found.expect("remaining is non-empty, so a singleton term exists");
        for (v, slot) in remaining.iter_mut().enumerate() {
            if *slot && (v & care) == value {
                *slot = false;
                left -= 1;
            }
        }
        terms.push(Condition::from_literals((0..width).filter_map(|bit| {
            if (care >> bit) & 1 == 1 {
                Some(Literal {
                    event: events[bit],
                    positive: (value >> bit) & 1 == 1,
                })
            } else {
                None
            }
        })));
    }
    Some(terms)
}

/// The canonical form of a node ignoring its own root condition (label +
/// children's full fuzzy canonical forms).
fn body_key(fuzzy: &FuzzyTree, node: NodeId) -> String {
    let mut child_forms: Vec<String> = fuzzy
        .tree()
        .children(node)
        .iter()
        .map(|&child| fuzzy.fuzzy_canonical_string(child))
        .collect();
    child_forms.sort();
    format!("{:?}({})", fuzzy.tree().label(node), child_forms.join(","))
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

/// Rebuilds the event table keeping only the events mentioned by at least one
/// condition, remapping conditions accordingly; returns the number of events
/// dropped.
pub fn garbage_collect_events(fuzzy: &mut FuzzyTree) -> usize {
    let mentioned = fuzzy.mentioned_events();
    let dropped = fuzzy.events().len() - mentioned.len();
    if dropped == 0 {
        return 0;
    }
    let mut new_table = EventTable::new();
    let mut remap: HashMap<EventId, EventId> = HashMap::new();
    for &old in &mentioned {
        let name = fuzzy.events().name(old).to_string();
        let probability = fuzzy.events().probability(old);
        let new = new_table
            .add_event(name, probability)
            .expect("names and probabilities come from a valid table");
        remap.insert(old, new);
    }
    let mut remapped = crate::fuzzy::ConditionMap::new();
    for (node, condition) in fuzzy.conditions.iter() {
        let literals = condition.literals().iter().map(|lit| Literal {
            event: remap[&lit.event],
            positive: lit.positive,
        });
        remapped.insert(node, Condition::from_literals(literals));
    }
    fuzzy.conditions = remapped;
    fuzzy.events = new_table;
    dropped
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

    /// E8-shape regression for the BDD-lifted re-cover: on every group the
    /// old capped greedy subcube cover could shrink, the lifted cover must
    /// shrink at least as much (it takes the better of the two), and the
    /// cover must carry exactly the union's probability mass.
    #[test]
    fn lifted_cover_is_never_worse_than_the_capped_greedy_one() {
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
            assert!(conditions.len() >= 2, "the deletion must fragment");
            let mut events: Vec<EventId> = conditions.iter().flat_map(|c| c.events()).collect();
            events.sort_unstable();
            events.dedup();
            let greedy = greedy_subcube_cover(&conditions, &events);
            let lifted = disjoint_group_cover(&conditions);
            if let Some(greedy) = greedy {
                let lifted = lifted.expect("the greedy cover shrank, so the lifted one must");
                assert!(
                    lifted.len() <= greedy.len(),
                    "lifted cover has {} terms, greedy {}",
                    lifted.len(),
                    greedy.len()
                );
            }
            if let Some(lifted) = disjoint_group_cover(&conditions) {
                // Exactness: disjoint terms sum to the union's probability.
                let union: f64 =
                    pxml_event::Formula::any_of(conditions.iter()).probability(fuzzy.events());
                let mass: f64 = lifted
                    .iter()
                    .map(|term| term.probability(fuzzy.events()))
                    .sum();
                assert!((mass - union).abs() < 1e-9);
            }
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
        let removed = garbage_collect_events(&mut fuzzy);
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
