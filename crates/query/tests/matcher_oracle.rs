//! The streaming matcher against the materialising one it replaced.
//!
//! The oracle below collects every candidate list before it tests a node:
//! all elements of the tree for an unanchored root, a copied child list or
//! a collected descendant list for an edge. The matcher under test streams
//! the same candidates, and on a tree with a label index it starts an
//! unanchored root by one rule: from the most selective of its own value
//! postings (or label group) and each named child-axis child's postings (or
//! label group), a child's list mapped to the hits' parents, deduplicated
//! and put in document order, postings ranking before label groups and the
//! shorter list first. Both must return the same matches in the same
//! (document) order on a fresh tree, an indexed tree, a clone that shares
//! the index, and that clone after each mutator.
//!
//! Half the trees are built to spring the traps of starting from a child's
//! list: nested elements of one name, each with children of one name (the
//! hits are in document order, their parents are not), siblings with equal
//! values or no values (two hits, one parent), and elements of the child's
//! name under parents of another name (a hit whose parent the root's label
//! test rejects). Every tree is also queried with the two patterns that walk
//! into all three, `l0 { l1[="v…"] }` and `l0 { l1 }`.

use proptest::prelude::*;
use pxml_query::{Axis, Pattern};
use pxml_tree::{NodeId, Tree};

/// A random data tree: label and optional text value per node, children.
#[derive(Debug, Clone)]
struct Spec {
    label: u8,
    value: Option<u8>,
    children: Vec<Spec>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let leaf = (0u8..4, proptest::option::of(0u8..3)).prop_map(|(label, value)| Spec {
        label,
        value,
        children: Vec::new(),
    });
    leaf.prop_recursive(4, 40, 4, |inner| {
        (0u8..4, proptest::collection::vec(inner, 0..4)).prop_map(|(label, children)| Spec {
            label,
            value: None,
            children,
        })
    })
}

fn build(spec: &Spec) -> Tree {
    fn children(tree: &mut Tree, node: NodeId, spec: &Spec) {
        for child in &spec.children {
            let id = tree.add_element(node, format!("l{}", child.label));
            match child.value {
                Some(value) if child.children.is_empty() => {
                    tree.add_text(id, format!("v{value}"));
                }
                _ => children(tree, id, child),
            }
        }
    }
    let mut tree = Tree::new(format!("l{}", spec.label));
    let root = tree.root();
    children(&mut tree, root, spec);
    tree
}

/// A chain of one to four nested elements, each `l0` or (one in three)
/// `l2`. Each holds up to three `l1` leaves drawn from two values or none,
/// with the next element at a random place among them.
fn trap_strategy() -> impl Strategy<Value = Spec> {
    let level = (
        0u8..3,
        proptest::collection::vec(proptest::option::of(0u8..2), 0..4),
        0usize..4,
    );
    proptest::collection::vec(level, 1..5).prop_map(|levels| {
        let mut nested: Option<Spec> = None;
        for (label, leaves, at) in levels {
            let mut children: Vec<Spec> = leaves
                .into_iter()
                .map(|value| Spec {
                    label: 1,
                    value,
                    children: Vec::new(),
                })
                .collect();
            if let Some(inner) = nested {
                children.insert(at.min(children.len()), inner);
            }
            nested = Some(Spec {
                label: if label == 2 { 2 } else { 0 },
                value: None,
                children,
            });
        }
        nested.expect("at least one level")
    })
}

/// One non-root pattern node: a parent pick, `//` or not, an optional label
/// (`l4` occurs in no tree), an optional value test, an optional join group.
type PatternNodeSpec = (usize, bool, Option<u8>, Option<u8>, Option<u8>);

/// The root's label and value test, `/` or not, and the other nodes.
type PatternSpec = (Option<u8>, Option<u8>, bool, Vec<PatternNodeSpec>);

fn pattern_strategy() -> impl Strategy<Value = PatternSpec> {
    let node = (
        0usize..64,
        any::<bool>(),
        proptest::option::of(0u8..5),
        proptest::option::of(0u8..3),
        proptest::option::of(0u8..2),
    );
    (
        proptest::option::of(0u8..5),
        proptest::option::of(0u8..3),
        any::<bool>(),
        proptest::collection::vec(node, 0..4),
    )
}

fn build_pattern((root, value, anchored, nodes): &PatternSpec) -> Pattern {
    let mut pattern = Pattern::new(root.map(|label| format!("l{label}")).as_deref());
    pattern.set_anchored(*anchored);
    if let Some(value) = value {
        pattern.set_value(pattern.root(), format!("v{value}"));
    }
    let mut ids = vec![pattern.root()];
    let mut joins = Vec::new();
    for (i, &(parent, descendant, label, value, join)) in nodes.iter().enumerate() {
        let axis = if descendant {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let label = label.map(|label| format!("l{label}"));
        let id = pattern.add_child(ids[parent % (i + 1)], axis, label.as_deref());
        if let Some(value) = value {
            pattern.set_value(id, format!("v{value}"));
        }
        if let Some(join) = join {
            while joins.len() <= join as usize {
                joins.push(pattern.new_join(format!("j{}", joins.len())));
            }
            pattern.join(id, joins[join as usize]);
        }
        ids.push(id);
    }
    pattern
}

/// The materialising matcher: every candidate list collected up front.
fn oracle(pattern: &Pattern, tree: &Tree) -> Vec<Vec<NodeId>> {
    fn assign(
        pattern: &Pattern,
        tree: &Tree,
        ids: &[pxml_query::PNodeId],
        assignment: &mut Vec<Option<NodeId>>,
        results: &mut Vec<Vec<NodeId>>,
    ) {
        let next = assignment.iter().take_while(|slot| slot.is_some()).count();
        if next == ids.len() {
            results.push(assignment.iter().map(|slot| slot.unwrap()).collect());
            return;
        }
        let spec = pattern.node(ids[next]);
        let candidates: Vec<NodeId> = match spec.parent {
            None if pattern.is_anchored() => vec![tree.root()],
            None => tree
                .nodes()
                .into_iter()
                .filter(|&n| tree.is_element(n))
                .collect(),
            Some((parent, Axis::Child)) => {
                tree.children(assignment[parent.index()].unwrap()).to_vec()
            }
            Some((parent, Axis::Descendant)) => {
                let mut below = tree.descendants_or_self(assignment[parent.index()].unwrap());
                below.remove(0);
                below
            }
        };
        for candidate in candidates {
            let Some(name) = tree.label(candidate).element_name() else {
                continue;
            };
            if !spec.matches_label(name) {
                continue;
            }
            if let Some(value) = &spec.value {
                if tree.node_value(candidate) != Some(value.as_str()) {
                    continue;
                }
            }
            if let Some(join) = spec.join {
                let value = tree.node_value(candidate);
                if value.is_none()
                    || ids.iter().any(|&other| {
                        pattern.node(other).join == Some(join)
                            && assignment[other.index()]
                                .is_some_and(|image| tree.node_value(image) != value)
                    })
                {
                    continue;
                }
            }
            assignment[next] = Some(candidate);
            assign(pattern, tree, ids, assignment, results);
            assignment[next] = None;
        }
    }
    let ids: Vec<_> = pattern.node_ids().collect();
    let mut results = Vec::new();
    assign(
        pattern,
        tree,
        &ids,
        &mut vec![None; ids.len()],
        &mut results,
    );
    results
}

/// A named mutation of a clone.
type Mutator<'a> = (&'static str, Box<dyn Fn(&mut Tree) + 'a>);

fn streamed(pattern: &Pattern, tree: &Tree) -> Vec<Vec<NodeId>> {
    pattern
        .find_matches(tree)
        .iter()
        .map(|m| m.images().to_vec())
        .collect()
}

fn elements(tree: &Tree) -> Vec<NodeId> {
    tree.nodes()
        .into_iter()
        .filter(|&n| tree.is_element(n))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 256 } else { 2048 }
    ))]

    /// Same matches, same order, in every state a tree's label index can be
    /// in: none, built, inherited by a clone, dropped by a mutation (and
    /// rebuilt from the mutated tree), for the random pattern and for the
    /// probes `l0 { l1[="v…"] }` and `l0 { l1 }`.
    #[test]
    fn streaming_matcher_agrees_with_the_materialising_oracle(
        (trap, random, trapped) in (any::<bool>(), spec_strategy(), trap_strategy()),
        pattern in pattern_strategy(),
        (pick, other, label, probe_value) in (0usize..1000, 0usize..1000, 0u8..5, 0u8..2),
    ) {
        let spec = if trap { trapped } else { random };
        let probe = |value| build_pattern(&(Some(0), None, false, vec![(0, false, Some(1), value, None)]));
        for pattern in [build_pattern(&pattern), probe(Some(probe_value)), probe(None)] {
            let tree = build(&spec);
            let expected = oracle(&pattern, &tree);

            prop_assert!(tree.built_label_index().is_none());
            prop_assert!(streamed(&pattern, &tree) == expected, "fresh tree, {}", pattern);
            prop_assert!(tree.built_label_index().is_none(), "the matcher built an index");
            tree.label_index();
            prop_assert!(streamed(&pattern, &tree) == expected, "indexed tree, {}", pattern);
            let clone = tree.clone();
            prop_assert!(clone.built_label_index().is_some());
            prop_assert!(streamed(&pattern, &clone) == expected, "indexed clone, {}", pattern);

            let targets = elements(&tree);
            let target = targets[pick % targets.len()];
            let all = tree.nodes();
            let source = all[other % all.len()];
            let mutators: [Mutator; 3] = [
                ("add_child", Box::new(|t: &mut Tree| {
                    t.add_element(target, format!("l{label}"));
                })),
                ("remove_subtree", Box::new(|t: &mut Tree| {
                    if source != t.root() {
                        t.remove_subtree(source).unwrap();
                    } else {
                        t.add_element(target, "l0");
                    }
                })),
                ("copy_subtree_from", Box::new(|t: &mut Tree| {
                    t.copy_subtree_from(target, &tree, source);
                })),
            ];
            for (name, mutate) in &mutators {
                let mut mutated = clone.clone();
                mutate(&mut mutated);
                prop_assert!(mutated.built_label_index().is_none(), "{} kept the index", name);
                let expected = oracle(&pattern, &mutated);
                prop_assert!(streamed(&pattern, &mutated) == expected, "after {}, {}", name, pattern);
                mutated.label_index();
                prop_assert!(streamed(&pattern, &mutated) == expected, "after {} + index, {}", name, pattern);
            }
            prop_assert_eq!(&streamed(&pattern, &clone), &streamed(&pattern, &tree));
        }
    }
}
