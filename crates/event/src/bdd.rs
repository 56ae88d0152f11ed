//! Reduced ordered binary decision diagrams (ROBDDs) over probabilistic
//! events — the exact kernel for `P(c₁ ∨ … ∨ cₙ)`, the one probability
//! question the model asks of a set of conjunctive conditions (a query's
//! matches, the simplifier's re-covered sibling group).
//!
//! Shannon expansion ([`Formula::probability_shannon`](crate::Formula::probability_shannon),
//! the test oracle) is exponential in the number of *distinct events* a
//! disjunction mentions; a hash-consed decision diagram makes the practical
//! cases fast without giving up exactness:
//!
//! * nodes live in an arena and are **hash-consed** through a unique table,
//!   so structurally equal functions share one node;
//! * [`Bdd::any_of`] builds a DNF one condition at a time — a condition is
//!   one bottom-up chain of nodes, folded into the accumulated disjunction by
//!   the classic memoized `apply` recursion for `∨`;
//! * [`Bdd::probability`] is **one weighted model-counting walk** over the
//!   DAG with a per-node cache — linear in BDD size, where Shannon expansion
//!   pays `2^events`;
//! * [`Bdd::disjoint_cover`] reads a pairwise-disjoint conjunctive cover off
//!   the root→⊤ path structure (any two distinct paths fix some variable to
//!   opposite values), which is what lets the simplifier's group re-cover
//!   scale past small event counts.
//!
//! The default variable order is the event-id order of the owning
//! [`EventTable`]. Inside one update's condition that keeps related literals
//! adjacent (the pipeline mentions events in creation order); across the
//! match conditions of a *query* it does not — updates reach persons in
//! arbitrary order, so different persons' events interleave in id order,
//! which is the exponential order for a disjunction of independent
//! conjunctions (pxbench's broad query: 42 mostly independent
//! `person { phone }` matches are ≈ 4 180 nodes as one diagram). The query
//! path therefore never builds that diagram: [`disjunction_probability`]
//! splits a disjunction into its event-independent components first and only
//! sends a component that really is one piece through [`Bdd::any_of`].
//!
//! Path-structure consumers ([`Bdd::disjoint_cover`]) are sensitive to the
//! order — fewer paths mean smaller covers — so [`Bdd::with_order`] lets
//! callers hoist chosen events to the top of the diagram (the simplifier
//! puts uniform-sign "guard" events like deletion confidences first, which
//! collapses deletion-ladder fragments to their minimal cover).
//!
//! A [`Bdd`] is an explicit manager: every node handle ([`BddRef`]) is only
//! meaningful relative to the manager that created it. Managers are cheap to
//! create (two terminal nodes), so per-computation managers are the normal
//! usage pattern.
//!
//! ```
//! use pxml_event::{Bdd, Condition, EventTable, Literal};
//!
//! let mut events = EventTable::new();
//! let w1 = events.add_event("w1", 0.8).unwrap();
//! let w2 = events.add_event("w2", 0.7).unwrap();
//!
//! let mut bdd = Bdd::new();
//! let either = bdd.any_of(&[
//!     Condition::from_literal(Literal::pos(w1)),
//!     Condition::from_literal(Literal::pos(w2)),
//! ]);
//! // P(w1 ∨ w2) = 0.8 + 0.7 − 0.56.
//! assert!((bdd.probability(either, &events) - 0.94).abs() < 1e-12);
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::condition::{Condition, Literal};
use crate::table::{EventId, EventTable};

/// A handle to a node of a [`Bdd`] manager.
///
/// Handles are only meaningful relative to the manager that produced them.
/// Because the manager hash-conses, two handles from the same manager denote
/// the same boolean function **iff they are equal**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false function `⊥`.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true function `⊤`.
    pub const TRUE: BddRef = BddRef(1);

    /// `true` when this is the constant-false function.
    pub fn is_false(self) -> bool {
        self == BddRef::FALSE
    }

    /// `true` when this is the constant-true function.
    pub fn is_true(self) -> bool {
        self == BddRef::TRUE
    }
}

/// Variable index reserved for the two terminal nodes; ordered after every
/// real variable so `min` over node variables picks the topmost decision.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Decision variable (the raw event index), or [`TERMINAL_VAR`].
    var: u32,
    /// Cofactor when the event is false.
    lo: BddRef,
    /// Cofactor when the event is true.
    hi: BddRef,
}

/// A reduced ordered BDD manager: arena, unique table and `∨` cache.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    /// Hash-consing table: `(var, lo, hi) → node`.
    unique: HashMap<(u32, BddRef, BddRef), BddRef>,
    or_cache: HashMap<(BddRef, BddRef), BddRef>,
    /// Custom variable order: events listed in [`Bdd::with_order`] get the
    /// topmost levels in listing order; unlisted events follow in id order.
    /// Empty = plain event-id order.
    levels: HashMap<u32, u64>,
}

impl Default for Bdd {
    /// [`Bdd::new`]: a manager always starts with its two terminals.
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// An empty manager holding only the two terminals, ordering variables
    /// by event id.
    pub fn new() -> Self {
        Bdd {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: BddRef::FALSE,
                    hi: BddRef::FALSE,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: BddRef::TRUE,
                    hi: BddRef::TRUE,
                },
            ],
            unique: HashMap::new(),
            or_cache: HashMap::new(),
            levels: HashMap::new(),
        }
    }

    /// A manager whose variable order starts with `order` (topmost first);
    /// events not listed come after all listed ones, in event-id order. The
    /// order is fixed for the manager's lifetime.
    pub fn with_order(order: impl IntoIterator<Item = EventId>) -> Self {
        let mut bdd = Bdd::new();
        for (level, event) in order.into_iter().enumerate() {
            bdd.levels
                .entry(event.index() as u32)
                .or_insert(level as u64);
        }
        bdd
    }

    /// The position of a variable in the order (smaller = nearer the root);
    /// terminals sort after everything.
    fn level(&self, var: u32) -> u64 {
        if var == TERMINAL_VAR {
            return u64::MAX;
        }
        match self.levels.get(&var) {
            Some(&level) => level,
            // Unlisted events keep id order, after every listed event.
            None => (1u64 << 32) + var as u64,
        }
    }

    /// Number of live nodes (terminals included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The hash-consing constructor: reduced (no redundant tests) and unique
    /// (structurally equal functions share one node).
    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        match self.unique.entry((var, lo, hi)) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(slot) => {
                let fresh = BddRef(self.nodes.len() as u32);
                self.nodes.push(Node { var, lo, hi });
                *slot.insert(fresh)
            }
        }
    }

    /// The function of a conjunctive [`Condition`] — built bottom-up in one
    /// pass, no `apply` needed.
    fn condition(&mut self, condition: &Condition) -> BddRef {
        if !condition.is_consistent() {
            return BddRef::FALSE;
        }
        let mut literals: Vec<Literal> = condition.literals().to_vec();
        literals.sort_unstable_by_key(|lit| self.level(lit.event.index() as u32));
        let mut acc = BddRef::TRUE;
        for literal in literals.iter().rev() {
            let var = literal.event.index() as u32;
            acc = if literal.positive {
                self.mk(var, BddRef::FALSE, acc)
            } else {
                self.mk(var, acc, BddRef::FALSE)
            };
        }
        acc
    }

    /// The disjunction of a set of conjunctive conditions (a DNF), built
    /// incrementally — the existence condition of "at least one of these".
    pub fn any_of<'a>(&mut self, conditions: impl IntoIterator<Item = &'a Condition>) -> BddRef {
        let mut acc = BddRef::FALSE;
        for condition in conditions {
            let node = self.condition(condition);
            acc = self.or(acc, node);
        }
        acc
    }

    /// Splits `a` and `b` on their topmost variable: returns the variable and
    /// both pairs of cofactors (an operand not testing that variable is its
    /// own cofactor on both branches).
    fn cofactors(&self, a: BddRef, b: BddRef) -> (u32, (BddRef, BddRef), (BddRef, BddRef)) {
        let node_a = self.nodes[a.0 as usize];
        let node_b = self.nodes[b.0 as usize];
        let var = if self.level(node_a.var) <= self.level(node_b.var) {
            node_a.var
        } else {
            node_b.var
        };
        let split = |node: Node, handle: BddRef| {
            if node.var == var {
                (node.lo, node.hi)
            } else {
                (handle, handle)
            }
        };
        (var, split(node_a, a), split(node_b, b))
    }

    /// Memoized disjunction.
    fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        if a == b || b.is_false() {
            return a;
        }
        if a.is_false() {
            return b;
        }
        if a.is_true() || b.is_true() {
            return BddRef::TRUE;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&hit) = self.or_cache.get(&key) {
            return hit;
        }
        let (var, (a_lo, a_hi), (b_lo, b_hi)) = self.cofactors(a, b);
        let lo = self.or(a_lo, b_lo);
        let hi = self.or(a_hi, b_hi);
        let result = self.mk(var, lo, hi);
        self.or_cache.insert(key, result);
        result
    }

    /// Exact probability of the function being true under the independent
    /// event probabilities of `table`: one weighted model-counting walk over
    /// the DAG with a per-node cache — **linear in BDD size**.
    ///
    /// # Panics
    /// Panics if the function tests an event `table` does not contain (the
    /// same contract as [`EventTable::probability`]).
    pub fn probability(&self, node: BddRef, table: &EventTable) -> f64 {
        let mut cache: HashMap<BddRef, f64> = HashMap::new();
        self.probability_cached(node, table, &mut cache)
    }

    fn probability_cached(
        &self,
        node: BddRef,
        table: &EventTable,
        cache: &mut HashMap<BddRef, f64>,
    ) -> f64 {
        if node.is_false() {
            return 0.0;
        }
        if node.is_true() {
            return 1.0;
        }
        if let Some(&hit) = cache.get(&node) {
            return hit;
        }
        let data = self.nodes[node.0 as usize];
        let p = table.probability(EventId(data.var));
        let lo = self.probability_cached(data.lo, table, cache);
        let hi = self.probability_cached(data.hi, table, cache);
        let result = p * hi + (1.0 - p) * lo;
        cache.insert(node, result);
        result
    }

    /// A pairwise-disjoint conjunctive cover of the function, read off the
    /// root→⊤ paths: each path fixes the variables it passes through, and any
    /// two distinct paths disagree on the value of some fixed variable, so
    /// the terms are disjoint by construction and their union is exactly the
    /// function.
    ///
    /// Returns `None` when more than `max_terms` terms would be needed, or
    /// when the path walk exceeds an internal step budget proportional to
    /// `max_terms` (dense functions can have few ⊤-paths but exponentially
    /// many ⊥-paths; the budget keeps the walk from paying for them). The
    /// constant-false function yields the empty cover.
    pub fn disjoint_cover(&self, node: BddRef, max_terms: usize) -> Option<Vec<Condition>> {
        let mut terms = Vec::new();
        let mut path: Vec<Literal> = Vec::new();
        // Every recursion step pushes at most one literal, and a ⊤-path is at
        // most `nodes` long, so this bounds the walk to roughly the work of
        // emitting `max_terms + 1` terms over a moderately shared DAG.
        let mut budget = 64 * (max_terms + 1) * (self.nodes.len().min(4096) + 16);
        if self.cover_rec(node, &mut path, &mut terms, max_terms, &mut budget) {
            Some(terms)
        } else {
            None
        }
    }

    fn cover_rec(
        &self,
        node: BddRef,
        path: &mut Vec<Literal>,
        terms: &mut Vec<Condition>,
        max_terms: usize,
        budget: &mut usize,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        if node.is_false() {
            return true;
        }
        if node.is_true() {
            if terms.len() >= max_terms {
                return false;
            }
            terms.push(Condition::from_literals(path.iter().copied()));
            return true;
        }
        let data = self.nodes[node.0 as usize];
        let event = EventId(data.var);
        path.push(Literal::neg(event));
        let lo_ok = self.cover_rec(data.lo, path, terms, max_terms, budget);
        path.pop();
        if !lo_ok {
            return false;
        }
        path.push(Literal::pos(event));
        let hi_ok = self.cover_rec(data.hi, path, terms, max_terms, budget);
        path.pop();
        hi_ok
    }
}

/// Exact probability that **at least one** of `conditions` holds, under the
/// independent event probabilities of `table` — `P(c₁ ∨ … ∨ cₙ)`, the number
/// behind a query's selection probability and every merged answer.
///
/// Events are independent, so conditions that share no event are independent
/// too: the conditions are partitioned into the connected components of the
/// "mentions a common event" relation and the result is
/// `1 − Π(1 − P(componentᵢ))`. A one-condition component is the product of
/// its literals; only a larger one is built as a diagram ([`Bdd::any_of`] +
/// [`Bdd::probability`], all components of a call in one manager, each
/// diagram no larger than its component). A disjunction that is a single
/// component is exactly the plain BDD path, bit for bit.
///
/// The empty disjunction is `0.0`; an always-true member makes it `1.0`;
/// inconsistent members contribute nothing. The cost depends on the literals
/// of `conditions` only, never on the size of `table`.
///
/// # Panics
/// Panics if a condition mentions an event `table` does not contain (the
/// same contract as [`EventTable::probability`]).
pub fn disjunction_probability<'a>(
    conditions: impl IntoIterator<Item = &'a Condition>,
    table: &EventTable,
) -> f64 {
    let conditions: Vec<&Condition> = conditions
        .into_iter()
        .filter(|condition| condition.is_consistent())
        .collect();
    if conditions.iter().any(|condition| condition.is_empty()) {
        return 1.0;
    }
    // Union-find over condition indices, driven by the (event, condition)
    // pairs sorted by event. The smaller index always becomes the root, so a
    // component is named by its first condition in input order.
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..conditions.len()).collect();
    let mut uses: Vec<(EventId, usize)> = conditions
        .iter()
        .enumerate()
        .flat_map(|(i, condition)| condition.literals().iter().map(move |lit| (lit.event, i)))
        .collect();
    uses.sort_unstable();
    for pair in uses.windows(2) {
        if pair[0].0 == pair[1].0 {
            let a = find(&mut parent, pair[0].1);
            let b = find(&mut parent, pair[1].1);
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut members: Vec<(usize, usize)> = (0..conditions.len())
        .map(|i| (find(&mut parent, i), i))
        .collect();
    members.sort_unstable();

    let mut bdd: Option<Bdd> = None;
    let mut probability = |component: &[(usize, usize)]| match component {
        [(_, only)] => conditions[*only].probability(table),
        _ => {
            let bdd = bdd.get_or_insert_with(Bdd::new);
            let root = bdd.any_of(component.iter().map(|&(_, i)| conditions[i]));
            bdd.probability(root, table)
        }
    };
    if members.last().is_some_and(|&(root, _)| root == 0) {
        return probability(&members);
    }
    let none: f64 = members
        .chunk_by(|a, b| a.0 == b.0)
        .map(|component| 1.0 - probability(component))
        .product();
    1.0 - none
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::valuation::enumerate_valuations;
    use std::collections::HashSet;

    fn table() -> (EventTable, EventId, EventId, EventId) {
        let mut t = EventTable::new();
        let w1 = t.add_event("w1", 0.8).unwrap();
        let w2 = t.add_event("w2", 0.7).unwrap();
        let w3 = t.add_event("w3", 0.9).unwrap();
        (t, w1, w2, w3)
    }

    #[test]
    fn terminals_and_literals() {
        let (t, w1, _, _) = table();
        let mut bdd = Bdd::new();
        assert!(BddRef::TRUE.is_true() && BddRef::FALSE.is_false());
        assert_eq!(bdd.probability(BddRef::TRUE, &t), 1.0);
        assert_eq!(bdd.probability(BddRef::FALSE, &t), 0.0);
        let pos = bdd.condition(&Condition::from_literal(Literal::pos(w1)));
        let neg = bdd.condition(&Condition::from_literal(Literal::neg(w1)));
        assert!((bdd.probability(pos, &t) - 0.8).abs() < 1e-12);
        assert!((bdd.probability(neg, &t) - 0.2).abs() < 1e-12);
        // w1 ∨ ¬w1 ≡ ⊤ — canonicity gives the terminal directly.
        assert_eq!(bdd.or(pos, neg), BddRef::TRUE);
    }

    /// A default manager is a new one: without its two terminals the first
    /// node built would take id 0, the handle of ⊥.
    #[test]
    fn default_manager_starts_with_both_terminals() {
        let (t, w1, _, _) = table();
        let mut bdd = Bdd::default();
        assert_eq!(bdd.node_count(), Bdd::new().node_count());
        let root = bdd.any_of([&Condition::from_literal(Literal::pos(w1))]);
        assert!((bdd.probability(root, &t) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let (_, w1, w2, w3) = table();
        let mut bdd = Bdd::new();
        let a = bdd.condition(&Condition::from_literals([
            Literal::pos(w1),
            Literal::neg(w2),
        ]));
        let b = bdd.condition(&Condition::from_literals([
            Literal::neg(w2),
            Literal::pos(w1),
        ]));
        assert_eq!(a, b);
        // A disjunction is one node whichever order its members arrive in.
        let x = Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]);
        let y = Condition::from_literal(Literal::pos(w3));
        assert_eq!(bdd.any_of([&x, &y]), bdd.any_of([&y, &x]));
    }

    #[test]
    fn inconsistent_condition_is_false() {
        let (_, w1, _, _) = table();
        let mut bdd = Bdd::new();
        let bad = Condition::from_literals([Literal::pos(w1), Literal::neg(w1)]);
        assert_eq!(bdd.condition(&bad), BddRef::FALSE);
        assert_eq!(bdd.condition(&Condition::always()), BddRef::TRUE);
    }

    #[test]
    fn and_or_match_probability_laws() {
        let (t, w1, w2, _) = table();
        let mut bdd = Bdd::new();
        let a = Condition::from_literal(Literal::pos(w1));
        let b = Condition::from_literal(Literal::pos(w2));
        let both = bdd.condition(&a.and(&b));
        let either = bdd.any_of([&a, &b]);
        assert!((bdd.probability(both, &t) - 0.56).abs() < 1e-12);
        assert!((bdd.probability(either, &t) - 0.94).abs() < 1e-12);
        // Absorption, (w1 ∧ w2) ∨ w1 ≡ w1: canonicity gives w1's node back.
        let only_a = bdd.condition(&a);
        assert_eq!(bdd.or(both, only_a), only_a);
    }

    #[test]
    fn probability_agrees_with_valuation_enumeration() {
        let (t, w1, w2, w3) = table();
        let mut bdd = Bdd::new();
        // (w1 ∧ ¬w2) ∨ (w2 ∧ w3), the formula.rs cross-check example.
        let conditions = [
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
            Condition::from_literals([Literal::pos(w2), Literal::pos(w3)]),
        ];
        let f = bdd.any_of(&conditions);
        let by_enumeration: f64 = enumerate_valuations(&t)
            .unwrap()
            .into_iter()
            .filter(|v| conditions.iter().any(|c| c.satisfied_by(v)))
            .map(|v| v.probability(&t))
            .sum();
        let by_shannon = Formula::any_of(&conditions).probability_shannon(&t);
        assert!((bdd.probability(f, &t) - by_enumeration).abs() < 1e-12);
        assert!((bdd.probability(f, &t) - by_shannon).abs() < 1e-12);
    }

    #[test]
    fn disjoint_cover_partitions_the_function() {
        let (t, w1, w2, w3) = table();
        let mut bdd = Bdd::new();
        let conditions = [
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
            Condition::from_literals([Literal::pos(w2), Literal::pos(w3)]),
            Condition::from_literals([Literal::neg(w1), Literal::neg(w2)]),
        ];
        let union = bdd.any_of(conditions.iter());
        let cover = bdd.disjoint_cover(union, 16).unwrap();
        // Terms are consistent, pairwise disjoint, and their union is the
        // original function (checked by probability mass: disjoint terms sum).
        let mass: f64 = cover.iter().map(|term| term.probability(&t)).sum();
        assert!((mass - bdd.probability(union, &t)).abs() < 1e-12);
        for (i, a) in cover.iter().enumerate() {
            assert!(a.is_consistent());
            for b in cover.iter().skip(i + 1) {
                assert!(
                    a.literals().iter().any(|lit| b.contains(lit.negated())),
                    "cover terms must be pairwise disjoint"
                );
            }
        }
        // Every term implies the union.
        let mut check = Bdd::new();
        let union2 = check.any_of(conditions.iter());
        for term in &cover {
            let t_node = check.condition(term);
            assert_eq!(check.or(union2, t_node), union2);
        }
    }

    #[test]
    fn disjoint_cover_respects_the_term_cap() {
        let (_, w1, w2, w3) = table();
        let mut bdd = Bdd::new();
        // w1 ⊕-ish structure with 2+ paths to ⊤.
        let conditions = [
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
            Condition::from_literals([Literal::neg(w1), Literal::pos(w3)]),
        ];
        let union = bdd.any_of(conditions.iter());
        assert!(bdd.disjoint_cover(union, 1).is_none());
        assert_eq!(bdd.disjoint_cover(BddRef::FALSE, 0), Some(Vec::new()));
        let single = bdd.disjoint_cover(BddRef::TRUE, 1).unwrap();
        assert_eq!(single, vec![Condition::always()]);
    }

    #[test]
    fn custom_order_shrinks_the_ladder_cover() {
        // Deletion-ladder fragments: first-success pieces of
        // v ∧ (¬c ∨ ¬w0 ∧ ¬w1 ∧ ¬w2). In id order (w's first) the path
        // cover reproduces the ladder; with the shared guards v and c on
        // top it collapses to the 2-term optimum.
        let mut t = EventTable::new();
        let w: Vec<EventId> = (0..3)
            .map(|i| t.add_event(format!("w{i}"), 0.7).unwrap())
            .collect();
        let v = t.add_event("v", 0.8).unwrap();
        let c = t.add_event("c", 0.9).unwrap();
        let mut fragments = vec![Condition::from_literals([
            Literal::pos(v),
            Literal::pos(w[0]),
            Literal::neg(c),
        ])];
        for k in 1..3 {
            let mut lits = vec![Literal::pos(v), Literal::pos(w[k]), Literal::neg(c)];
            lits.extend(w[..k].iter().map(|&e| Literal::neg(e)));
            fragments.push(Condition::from_literals(lits));
        }
        fragments.push(Condition::from_literals(
            [Literal::pos(v)]
                .into_iter()
                .chain(w.iter().map(|&e| Literal::neg(e))),
        ));
        let mut plain = Bdd::new();
        let plain_union = plain.any_of(fragments.iter());
        let mut ordered = Bdd::with_order([v, c]);
        let ordered_union = ordered.any_of(fragments.iter());
        let ordered_cover = ordered
            .disjoint_cover(ordered_union, fragments.len() - 1)
            .unwrap();
        assert_eq!(ordered_cover.len(), 2);
        // Same function, same probability, different diagram shape.
        assert!(
            (plain.probability(plain_union, &t) - ordered.probability(ordered_union, &t)).abs()
                < 1e-12
        );
        let mass: f64 = ordered_cover.iter().map(|term| term.probability(&t)).sum();
        assert!((mass - ordered.probability(ordered_union, &t)).abs() < 1e-12);
    }

    /// The nodes reachable from `root`, terminals included — the diagram
    /// size probability is linear in.
    fn reachable(bdd: &Bdd, root: BddRef) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if seen.insert(node) && !node.is_false() && !node.is_true() {
                let data = bdd.nodes[node.0 as usize];
                stack.extend([data.lo, data.hi]);
            }
        }
        seen.len()
    }

    #[test]
    fn wide_disjunction_stays_small_and_fast() {
        // 32 distinct events: Shannon expansion would pay 2^32; the BDD of a
        // disjunction of single-literal conditions is a chain of 34 nodes.
        let mut t = EventTable::new();
        let events: Vec<EventId> = (0..32)
            .map(|i| t.add_event(format!("w{i}"), 0.5).unwrap())
            .collect();
        let conditions: Vec<Condition> = events
            .iter()
            .map(|&e| Condition::from_literal(Literal::pos(e)))
            .collect();
        let mut bdd = Bdd::new();
        let union = bdd.any_of(conditions.iter());
        assert_eq!(reachable(&bdd, union), 34);
        let p = bdd.probability(union, &t);
        assert!((p - (1.0 - 0.5f64.powi(32))).abs() < 1e-12);
    }
}
