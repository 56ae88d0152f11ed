//! The patched label index against a fresh build.
//!
//! A tree carries its label index across mutations and patches it: the
//! next `label_index()` re-walks only the subtrees of the topmost nodes the
//! mutations touched and merges them into the old index. The property
//! below runs random histories over a fuzzy document (a people directory
//! with a random tree grafted beside its persons) and, after every step,
//! holds the patched index to [`LabelIndex::build`] of the same tree, field
//! for field (their `Debug` renderings, which spell every field), and the
//! snapshot taken before the step to its own build.
//!
//! The steps mix the tree's mutators through the fuzzy tree (an element, a
//! text, a grafted copy of any subtree, a duplicated subtree, a chain of
//! removals, an element under every first, second or third element, which
//! touches more subtrees than a patch merges) and `pxml-gen` extraction
//! streams through `apply_to_fuzzy_with(Inline)`. Every history also
//! springs the traps of the merge: nested elements of one name, a removed
//! sibling that leaves a text its parent's only child (the parent gains a
//! posting), a second child that takes a parent's posting away, and a
//! name's first element and its last.

use proptest::prelude::*;
use pxml::gen::scenarios::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml::prelude::*;
use pxml::tree::LabelIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random tree blueprint over three names; leaves carry one of two
/// values or none.
#[derive(Debug, Clone)]
struct Spec {
    label: u8,
    value: Option<u8>,
    children: Vec<Spec>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let leaf = (0u8..3, proptest::option::of(0u8..2)).prop_map(|(label, value)| Spec {
        label,
        value,
        children: Vec::new(),
    });
    leaf.prop_recursive(4, 32, 4, |inner| {
        (0u8..3, proptest::collection::vec(inner, 0..4)).prop_map(|(label, children)| Spec {
            label,
            value: None,
            children,
        })
    })
}

fn graft(fuzzy: &mut FuzzyTree, parent: NodeId, spec: &Spec) {
    let node = fuzzy.add_element(parent, format!("l{}", spec.label));
    if let Some(value) = spec.value {
        fuzzy.add_text(node, format!("v{value}"));
    }
    for child in &spec.children {
        graft(fuzzy, node, child);
    }
}

/// People in the directory the extraction stream updates.
const PEOPLE: usize = 12;

/// A step of a history; the numbers pick nodes, names and flags.
#[derive(Debug, Clone, Copy)]
enum Step {
    Element(usize, u8),
    Text(usize, u8),
    Graft(usize, usize),
    Duplicate(usize),
    Removals(usize, usize, usize),
    Extraction(u64),
    /// An element under every `n`-th element but the root: many regions at
    /// once.
    Scatter(usize),
    /// Nested elements of one name, the inner one then touched.
    Nested(usize),
    /// A text and an element added, then the element removed: the text is
    /// left its parent's only child.
    Sibling(usize),
    /// A valued element (made if none is) given a second child.
    SecondChild(usize),
    /// An element of a new name added, then removed.
    FirstAndLast(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let pick = 0usize..1000;
    (0u8..8, pick.clone(), pick.clone(), pick, any::<u64>()).prop_map(|(kind, a, b, c, seed)| {
        let small = (seed % 4) as u8;
        match kind {
            0 => Step::Element(a, small),
            1 => Step::Text(a, small % 2),
            2 => Step::Graft(a, b),
            3 => Step::Duplicate(a),
            4 => Step::Removals(a, b, c),
            7 if small == 0 => Step::Scatter(1 + b % 3),
            _ => Step::Extraction(seed),
        }
    })
}

/// A history: random steps with the four traps at random places.
fn history_strategy() -> impl Strategy<Value = Vec<Step>> {
    (
        proptest::collection::vec(step_strategy(), 2..14),
        (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
    )
        .prop_map(|(mut steps, (a, b, c, d))| {
            for (trap, at) in [
                (Step::Nested(a), a),
                (Step::Sibling(b), b),
                (Step::SecondChild(c), c),
                (Step::FirstAndLast(d), d),
            ] {
                steps.insert(at % (steps.len() + 1), trap);
            }
            steps
        })
}

/// The live node `at` picks, among all (`elements`: element) nodes.
fn pick(tree: &Tree, at: usize, elements: bool) -> NodeId {
    let nodes: Vec<NodeId> = tree
        .nodes()
        .into_iter()
        .filter(|&node| !elements || tree.is_element(node))
        .collect();
    nodes[at % nodes.len()]
}

/// Holds the tree's label index (a patch, when it carries one) to a fresh
/// build, field for field.
fn check(tree: &Tree, step: &str) -> Result<(), TestCaseError> {
    let patched = format!("{:?}", tree.label_index());
    let fresh = format!("{:?}", LabelIndex::build(tree));
    prop_assert!(
        patched == fresh,
        "after {}:\npatched {}\nfresh   {}",
        step,
        patched,
        fresh
    );
    Ok(())
}

/// Runs `step` on `fuzzy`, checking the index after each of its phases.
fn run(
    fuzzy: &mut FuzzyTree,
    step: Step,
    config: &PeopleScenarioConfig,
) -> Result<(), TestCaseError> {
    let root = fuzzy.root();
    let name = format!("{step:?}");
    match step {
        Step::Element(at, label) => {
            let parent = pick(fuzzy.tree(), at, true);
            fuzzy.add_element(parent, format!("l{label}"));
        }
        Step::Text(at, value) => {
            let parent = pick(fuzzy.tree(), at, true);
            fuzzy.add_text(parent, format!("v{value}"));
        }
        Step::Graft(at, from) => {
            let source = fuzzy.tree().clone();
            let parent = pick(&source, at, true);
            let node = pick(&source, from, false);
            fuzzy.graft_subtree(parent, &source, node, Condition::default());
        }
        Step::Duplicate(at) => {
            let node = pick(fuzzy.tree(), at, false);
            if let Some(parent) = fuzzy.tree().parent(node) {
                fuzzy.duplicate_subtree(parent, node, Condition::default());
            }
        }
        Step::Removals(a, b, c) => {
            for at in [a, b, c] {
                let node = pick(fuzzy.tree(), at, false);
                if node != root {
                    fuzzy.remove_subtree(node).unwrap();
                }
            }
        }
        Step::Extraction(seed) => {
            let (update, _) = extraction_update(&mut StdRng::seed_from_u64(seed), config);
            update
                .apply_to_fuzzy_with(fuzzy, SimplifyPolicy::Inline)
                .unwrap();
        }
        Step::Scatter(every) => {
            let tree = fuzzy.tree();
            let parents: Vec<NodeId> = tree
                .nodes()
                .into_iter()
                .filter(|&node| node != root && tree.is_element(node))
                .step_by(every)
                .collect();
            for parent in parents {
                fuzzy.add_element(parent, "l3");
            }
        }
        Step::Nested(at) => {
            let parent = pick(fuzzy.tree(), at, true);
            let outer = fuzzy.add_element(parent, "l0");
            let inner = fuzzy.add_element(outer, "l0");
            fuzzy.add_element(outer, "l0");
            check(fuzzy.tree(), &name)?;
            let deep = fuzzy.add_element(inner, "l0");
            fuzzy.add_text(deep, "v0");
        }
        Step::Sibling(at) => {
            let parent = pick(fuzzy.tree(), at, true);
            let element = fuzzy.add_element(parent, "l1");
            fuzzy.add_text(element, "v1");
            let sibling = fuzzy.add_element(element, "l2");
            check(fuzzy.tree(), &name)?;
            fuzzy.remove_subtree(sibling).unwrap();
            prop_assert_eq!(fuzzy.tree().node_value(element), Some("v1"));
        }
        Step::SecondChild(at) => {
            let tree = fuzzy.tree();
            let valued = tree
                .nodes()
                .into_iter()
                .filter(|&node| tree.is_element(node) && tree.node_value(node).is_some())
                .nth(at % 4);
            let element = match valued {
                Some(element) => element,
                None => {
                    let parent = pick(tree, at, true);
                    let element = fuzzy.add_element(parent, "l2");
                    fuzzy.add_text(element, "v0");
                    check(fuzzy.tree(), &name)?;
                    element
                }
            };
            fuzzy.add_element(element, "l1");
            prop_assert_eq!(fuzzy.tree().node_value(element), None);
        }
        Step::FirstAndLast(at) => {
            let parent = pick(fuzzy.tree(), at, true);
            let first = fuzzy.add_element(parent, "fresh");
            fuzzy.add_text(first, "v0");
            check(fuzzy.tree(), &name)?;
            prop_assert_eq!(fuzzy.tree().label_index().elements("fresh"), [first]);
            fuzzy.remove_subtree(first).unwrap();
        }
    }
    check(fuzzy.tree(), &name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 512 }
    ))]

    /// After every step of a random history the patched index equals a
    /// fresh build, and so does the index of the snapshot the step started
    /// from (a clone sharing the base the patch read). Half the steps let
    /// the patched index go on carrying its base (`label_index`), half
    /// drop it (`refresh_label_index`), so the next patch starts from a
    /// base that is itself a patch either way.
    #[test]
    fn a_patched_label_index_equals_a_fresh_build(
        spec in spec_strategy(),
        steps in history_strategy(),
        refreshes in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let config = PeopleScenarioConfig {
            people: PEOPLE,
            ..PeopleScenarioConfig::default()
        };
        let mut fuzzy = FuzzyTree::from_tree(people_directory(&config));
        let root = fuzzy.root();
        graft(&mut fuzzy, root, &spec);
        fuzzy.refresh_label_index();
        for (i, &step) in steps.iter().enumerate() {
            let snapshot = fuzzy.clone();
            run(&mut fuzzy, step, &config)?;
            check(snapshot.tree(), "the step, on its snapshot")?;
            if refreshes[i % refreshes.len()] {
                fuzzy.refresh_label_index();
            }
        }
    }
}
