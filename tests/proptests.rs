//! Property-based tests over the core data structures and invariants.
//!
//! Strategies generate small random documents, conditions and formulas, and
//! the properties assert the algebraic facts the rest of the system relies
//! on: unordered isomorphism is insensitive to sibling order and decided by
//! canonical strings that no label can forge, the one grouper and
//! possible-world equivalence agree with references written here without
//! strings, probabilities computed by Shannon expansion agree with
//! exhaustive enumeration, the matcher agrees with a brute force over all
//! assignments, a query's answer keys and groups agree with a Steiner tree
//! built per match, XML and PrXML round-trips preserve semantics, and
//! simplification never changes the possible-worlds semantics.

use proptest::prelude::*;
use pxml::event::{disjunction_probability, EventError};
use pxml::gen::{derived_query, random_fuzzy_tree, FuzzyGenConfig, QueryGenConfig};
use pxml::prelude::*;
use pxml::query::{Matching, PNodeId};
use pxml::store::{parse_fuzzy_document, serialize_fuzzy_document};
use pxml::tree::path::steiner_tree;
use pxml::tree::{canonical_string, isomorphism_classes, steiner_canonical_string};
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------------

/// A recursive tree blueprint: label index + children.
#[derive(Debug, Clone)]
struct Spec {
    label: u8,
    value: Option<u8>,
    children: Vec<Spec>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let leaf = (0u8..6, proptest::option::of(0u8..4)).prop_map(|(label, value)| Spec {
        label,
        value,
        children: Vec::new(),
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (0u8..6, proptest::collection::vec(inner, 0..4)).prop_map(|(label, children)| Spec {
            label,
            value: None,
            children,
        })
    })
}

fn build(spec: &Spec) -> Tree {
    let mut tree = Tree::new(format!("l{}", spec.label));
    let root = tree.root();
    build_children(&mut tree, root, spec, false);
    tree
}

fn build_reversed(spec: &Spec) -> Tree {
    let mut tree = Tree::new(format!("l{}", spec.label));
    let root = tree.root();
    build_children(&mut tree, root, spec, true);
    tree
}

fn build_children(tree: &mut Tree, node: NodeId, spec: &Spec, reversed: bool) {
    let mut children: Vec<&Spec> = spec.children.iter().collect();
    if reversed {
        children.reverse();
    }
    for child in children {
        let id = tree.add_element(node, format!("l{}", child.label));
        if let Some(value) = child.value {
            if child.children.is_empty() {
                tree.add_text(id, format!("v{value}"));
            }
        }
        build_children(tree, id, child, reversed);
    }
}

/// A small fuzzy tree: a spec-built tree plus random conditions over up to 4
/// events.
fn fuzzy_strategy() -> impl Strategy<Value = FuzzyTree> {
    fuzzy_strategy_with(&[])
}

/// [`fuzzy_strategy`] with further events of the given probabilities mixed
/// into the conditions (0.0 and 1.0 make certain events).
fn fuzzy_strategy_with(extra: &'static [f64]) -> impl Strategy<Value = FuzzyTree> {
    (
        spec_strategy(),
        proptest::collection::vec((0usize..4 + extra.len(), 0u8..2, 1u32..100), 0..6),
    )
        .prop_map(move |(spec, annotations)| {
            let tree = build(&spec);
            let mut fuzzy = FuzzyTree::from_tree(tree);
            let events: Vec<EventId> = (0..4)
                .map(|i| 0.2 + 0.15 * i as f64)
                .chain(extra.iter().copied())
                .enumerate()
                .map(|(i, probability)| fuzzy.add_event(format!("w{i}"), probability).unwrap())
                .collect();
            let nodes = fuzzy.tree().nodes();
            for (event_index, sign, node_choice) in annotations {
                let node = nodes[(node_choice as usize) % nodes.len()];
                if node == fuzzy.root() {
                    continue;
                }
                let literal = if sign == 0 {
                    Literal::pos(events[event_index])
                } else {
                    Literal::neg(events[event_index])
                };
                let condition = fuzzy.condition(node).and_literal(literal);
                if condition.is_consistent() {
                    fuzzy.set_condition(node, condition).unwrap();
                }
            }
            fuzzy
        })
}

/// [`fuzzy_strategy`] plus the shape deletions leave behind (experiment E8):
/// a `person` under the root with a few uncertain phones and an uncertain
/// email, the email retracted "when the person has a phone" up to twice —
/// one match per phone under a shared confidence event, which fragments the
/// email into same-body siblings the simplifier has to merge back.
fn retracted_strategy() -> impl Strategy<Value = FuzzyTree> {
    (fuzzy_strategy(), 1usize..4, 0usize..3).prop_map(|(mut fuzzy, phones, rounds)| {
        let person = fuzzy.add_element(fuzzy.root(), "person");
        for i in 0..=phones {
            let event = fuzzy.fresh_event(0.5 + 0.1 * i as f64).unwrap();
            let label = if i < phones { "phone" } else { "email" };
            let node = fuzzy.add_element(person, label);
            fuzzy
                .set_condition(node, Condition::from_literal(Literal::pos(event)))
                .unwrap();
        }
        for _ in 0..rounds {
            let pattern = Pattern::parse("person { phone, email }").unwrap();
            let email = pattern.node_ids().nth(2).unwrap();
            UpdateTransaction::new(pattern, 0.9)
                .unwrap()
                .with_delete(email)
                .apply_to_fuzzy(&mut fuzzy)
                .unwrap();
        }
        fuzzy
    })
}

/// The same fuzzy tree rebuilt with every node's children in a shuffled
/// order: same event table, same conditions, fresh node ids.
fn shuffled(fuzzy: &FuzzyTree, seed: u64) -> FuzzyTree {
    rebuilt(fuzzy, seed, &|label| label.to_string())
}

/// [`shuffled`], with every label's string passed through `relabel`.
fn rebuilt(fuzzy: &FuzzyTree, seed: u64, relabel: &dyn Fn(&str) -> String) -> FuzzyTree {
    let relabelled = |label: &Label| match label {
        Label::Element(name) => Label::Element(relabel(name)),
        Label::Text(value) => Label::Text(relabel(value)),
    };
    let mut rng = TestRng::seed_from_u64(seed);
    let mut copy = FuzzyTree::new(relabelled(fuzzy.tree().label(fuzzy.root())));
    for (_, name, probability) in fuzzy.events().iter() {
        copy.add_event(name.to_string(), probability).unwrap();
    }
    let mut stack = vec![(fuzzy.root(), copy.root())];
    while let Some((source, target)) = stack.pop() {
        let mut children = fuzzy.tree().children(source).to_vec();
        for i in (1..children.len()).rev() {
            children.swap(i, rng.gen_range(0..=i));
        }
        for child in children {
            let node = match relabelled(fuzzy.tree().label(child)) {
                Label::Element(name) => copy.add_element(target, name),
                Label::Text(value) => copy.add_text(target, value),
            };
            copy.set_condition(node, fuzzy.condition(child)).unwrap();
            stack.push((child, node));
        }
    }
    copy
}

/// What event names are drawn from: the condition syntax's separators,
/// negation prefixes and keyword letters, XML's own specials, and a letter.
const EVENT_NAME_ALPHABET: [char; 14] = [
    ' ', '\t', ',', '!', '¬', 'n', 'o', 't', 'w', '"', '&', '<', '\'', '-',
];

/// The canonical form's own structure characters and the letters its kind
/// prefixes and annotations are made of, plus two plain letters.
const HOSTILE_ALPHABET: [char; 13] = [
    '(', ')', '[', ']', ',', '|', '\\', '⊤', '!', 'e', 't', 'a', 'b',
];

/// A pool of ten short labels over [`HOSTILE_ALPHABET`]: [`hostile`] sends
/// the generators' `l0`…`l5` to the first six and `v0`…`v3` to the rest.
fn hostile_pool_strategy() -> impl Strategy<Value = Vec<String>> {
    let label = proptest::collection::vec(0..HOSTILE_ALPHABET.len(), 1..4)
        .prop_map(|indices| indices.into_iter().map(|i| HOSTILE_ALPHABET[i]).collect());
    proptest::collection::vec(label, 10)
}

/// `fuzzy` (a [`fuzzy_strategy`] tree) with its labels replaced from `pool`.
fn hostile(fuzzy: &FuzzyTree, pool: &[String]) -> FuzzyTree {
    rebuilt(fuzzy, 0, &|label| {
        let index: usize = label[1..].parse().unwrap();
        pool[if label.starts_with('v') {
            6 + index
        } else {
            index
        }]
        .clone()
    })
}

/// The reference isomorphism of fuzzy subtrees: equal label and condition,
/// and the children matched up one to one, recursively. No strings; the
/// greedy pairing is exact because isomorphism is an equivalence.
fn reference_isomorphic(a: &FuzzyTree, x: NodeId, b: &FuzzyTree, y: NodeId) -> bool {
    if a.tree().label(x) != b.tree().label(y) || a.condition(x) != b.condition(y) {
        return false;
    }
    let mut unmatched = b.tree().children(y).to_vec();
    a.tree().children(x).len() == unmatched.len()
        && a.tree().children(x).iter().all(|&child| {
            unmatched
                .iter()
                .position(|&other| reference_isomorphic(a, child, b, other))
                .map(|at| unmatched.swap_remove(at))
                .is_some()
        })
}

/// `PossibleWorlds::equivalent` as it was defined before the grouper: same
/// number of normalised worlds, and every world of `a` has its mass in `b`,
/// looked up by pairwise isomorphism.
fn reference_equivalent(a: &PossibleWorlds, b: &PossibleWorlds, epsilon: f64) -> bool {
    let (a, b) = (a.normalized(), b.normalized());
    a.len() == b.len()
        && a.iter()
            .all(|(tree, p)| (p - b.probability_of_tree(tree)).abs() <= epsilon)
}

/// Every match of `pattern` in `tree` by brute force: all assignments of
/// pattern nodes to element nodes, first pattern node most significant, each
/// checked against the definition (slide 6). Shares no code with the matcher.
fn brute_force_matches(pattern: &Pattern, tree: &Tree) -> Vec<Vec<NodeId>> {
    let elements: Vec<NodeId> = tree
        .nodes()
        .into_iter()
        .filter(|&n| tree.is_element(n))
        .collect();
    let ids: Vec<PNodeId> = pattern.node_ids().collect();
    let is_match = |images: &[NodeId]| {
        ids.iter().all(|&id| {
            let (spec, image) = (pattern.node(id), images[id.index()]);
            let edge = match spec.parent {
                None => !pattern.is_anchored() || image == tree.root(),
                Some((parent, Axis::Child)) => tree.parent(image) == Some(images[parent.index()]),
                Some((parent, Axis::Descendant)) => {
                    tree.ancestors(image).contains(&images[parent.index()])
                }
            };
            let label = spec
                .label
                .as_deref()
                .is_none_or(|name| tree.label(image).element_name() == Some(name));
            let value = spec
                .value
                .as_deref()
                .is_none_or(|value| tree.node_value(image) == Some(value));
            let join = spec.join.is_none_or(|join| {
                tree.node_value(image).is_some()
                    && ids.iter().all(|&other| {
                        pattern.node(other).join != Some(join)
                            || tree.node_value(images[other.index()]) == tree.node_value(image)
                    })
            });
            edge && label && value && join
        })
    };
    let mut matches = Vec::new();
    let mut odometer = vec![0usize; ids.len()];
    while !elements.is_empty() {
        let images: Vec<NodeId> = odometer.iter().map(|&i| elements[i]).collect();
        if is_match(&images) {
            matches.push(images);
        }
        let Some(digit) = odometer.iter().rposition(|&i| i + 1 < elements.len()) else {
            break;
        };
        odometer[digit] += 1;
        odometer[digit + 1..].fill(0);
    }
    matches
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unordered isomorphism is insensitive to the order in which siblings
    /// are inserted.
    #[test]
    fn isomorphism_ignores_sibling_order(spec in spec_strategy()) {
        let forward = build(&spec);
        let backward = build_reversed(&spec);
        prop_assert!(forward.isomorphic(&backward));
        prop_assert_eq!(forward.node_count(), backward.node_count());
    }

    /// XML serialization round-trips data trees up to isomorphism.
    #[test]
    fn xml_round_trip_preserves_isomorphism(spec in spec_strategy()) {
        let tree = build(&spec);
        let xml = write_data_tree(&tree, true);
        let reparsed = parse_data_tree(&xml).unwrap();
        prop_assert!(tree.isomorphic(&reparsed));
    }

    /// Structural invariants hold on every generated tree.
    #[test]
    fn generated_trees_validate(spec in spec_strategy()) {
        let tree = build(&spec);
        prop_assert!(tree.validate().is_ok());
        prop_assert!(tree.check_storable(|_, _| false).is_ok());
    }

    /// The matcher returns exactly the matches of the definition, in document
    /// order — over every way a pattern root and a pattern edge find their
    /// candidates.
    #[test]
    fn matcher_agrees_with_brute_force(spec in spec_strategy(), anchored in any::<bool>()) {
        let tree = build(&spec);
        for text in [
            "l1 { //l2 }",
            "l1",
            "*",
            "l1 { l2 }",
            "* { //l2[=\"v1\"] }",
            "* { l1[$x], //l2[$x] }",
        ] {
            let mut pattern = Pattern::parse(text).unwrap();
            pattern.set_anchored(anchored);
            let matched: Vec<Vec<NodeId>> = pattern
                .find_matches(&tree)
                .iter()
                .map(|m| m.images().to_vec())
                .collect();
            prop_assert!(
                matched == brute_force_matches(&pattern, &tree),
                "the matcher disagrees with the definition on `{}` (anchored = {})",
                text,
                anchored
            );
        }
    }

    /// Canonical-string equality is isomorphism, whatever the labels spell:
    /// for plain trees and for fuzzy trees, against the reference above, on
    /// a tree and its shuffle (equal), on a tree and itself with two pool
    /// labels made one (a near miss, equal only where the tree does not tell
    /// them apart) and on two unrelated trees.
    #[test]
    fn canonical_strings_decide_isomorphism_under_hostile_labels(
        a in fuzzy_strategy(),
        b in fuzzy_strategy(),
        pool in hostile_pool_strategy(),
        merge in (0usize..10, 0usize..10),
        seed in any::<u64>(),
    ) {
        let mut merged_pool = pool.clone();
        merged_pool[merge.0] = pool[merge.1].clone();
        let x = hostile(&a, &pool);
        for y in &[shuffled(&x, seed), hostile(&a, &merged_pool), hostile(&b, &pool)] {
            prop_assert_eq!(
                x.fuzzy_canonical_string(x.root()) == y.fuzzy_canonical_string(y.root()),
                reference_isomorphic(&x, x.root(), y, y.root())
            );
            let (x, y) = (
                FuzzyTree::from_tree(x.tree().clone()),
                FuzzyTree::from_tree(y.tree().clone()),
            );
            let plainly_isomorphic = reference_isomorphic(&x, x.root(), &y, y.root());
            prop_assert_eq!(
                canonical_string(x.tree()) == canonical_string(y.tree()),
                plainly_isomorphic
            );
            prop_assert_eq!(x.tree().isomorphic(y.tree()), plainly_isomorphic);
        }
    }

    /// The forgery of `simplify.rs`'s regression test, over random hostile
    /// labels: `a { b { p }, c { q } }` against `a { b { p‥q } }` where `‥`
    /// spells what the writer puts between the two text values, without
    /// conditions (the plain form) and with them (the fuzzy form). Random
    /// labels alone almost never collide; a writer that escapes nothing
    /// collides here whenever `b`'s form sorts before `c`'s.
    #[test]
    fn forged_bodies_never_collide(pool in hostile_pool_strategy()) {
        let a = pool[0].as_str();
        for (b, p, c, q) in [
            (&pool[1], &pool[6], &pool[2], &pool[7]),
            (&pool[2], &pool[7], &pool[1], &pool[6]),
        ] {
            let mut honest = Tree::new(a);
            for (element, text) in [(b, p), (c, q)] {
                let node = honest.add_element(honest.root(), element.as_str());
                honest.add_text(node, text.as_str());
            }
            for forgery in [
                format!("{p}),e|{c}(t|{q}"),
                format!("{p}[⊤]),e|{c}[⊤](t|{q}"),
            ] {
                let mut forged = Tree::new(a);
                let node = forged.add_element(forged.root(), b.as_str());
                forged.add_text(node, forgery);
                prop_assert_ne!(canonical_string(&honest), canonical_string(&forged));
                let (x, y) = (FuzzyTree::from_tree(honest.clone()), FuzzyTree::from_tree(forged));
                prop_assert_ne!(
                    x.fuzzy_canonical_string(x.root()),
                    y.fuzzy_canonical_string(y.root())
                );
            }
        }
    }

    /// Two fuzzy trees that differ in one node's condition and nothing else
    /// hold different multisets of (label, condition) pairs, so they are not
    /// isomorphic and their canonical strings must differ.
    #[test]
    fn one_changed_condition_changes_the_canonical_string(
        fuzzy in fuzzy_strategy(),
        pool in hostile_pool_strategy(),
        node_choice in any::<usize>(),
        event_choice in 0usize..4,
    ) {
        let original = hostile(&fuzzy, &pool);
        let nodes = &original.tree().descendants_or_self(original.root())[1..];
        if !nodes.is_empty() {
            let node = nodes[node_choice % nodes.len()];
            let event = original.events().ids().nth(event_choice).unwrap();
            let flipped: Condition = if original.condition(node).mentions(event) {
                original
                    .condition_literals(node)
                    .iter()
                    .filter(|literal| literal.event != event)
                    .copied()
                    .collect()
            } else {
                original.condition(node).and_literal(Literal::pos(event))
            };
            let mut changed = original.clone();
            changed.set_condition(node, flipped).unwrap();
            prop_assert_ne!(
                changed.fuzzy_canonical_string(changed.root()),
                original.fuzzy_canonical_string(original.root())
            );
        }
    }

    /// The grouper's classes are the reference's, in first-occurrence order,
    /// and `PossibleWorlds::equivalent` — two normalised lists compared by
    /// form — agrees with its former pairwise definition: on a world set
    /// against itself reordered, rebuilt child-reversed and with one world's
    /// mass split in two (equivalent), against the same with one mass
    /// changed, and against an unrelated set over the same trees.
    #[test]
    fn grouper_and_world_equivalence_agree_with_their_references(
        specs in proptest::collection::vec(spec_strategy(), 1..4),
        picks in proptest::collection::vec((0usize..8, 1u32..10), 1..8),
        other_picks in proptest::collection::vec((0usize..8, 1u32..10), 1..8),
    ) {
        // Each spec twice: as built and child-reversed (isomorphic).
        let pool: Vec<Tree> = specs
            .iter()
            .flat_map(|spec| [build(spec), build_reversed(spec)])
            .collect();
        let worlds_of = |picks: &[(usize, u32)]| -> Vec<(Tree, f64)> {
            picks
                .iter()
                .map(|&(i, mass)| (pool[i % pool.len()].clone(), mass as f64 / 16.0))
                .collect()
        };

        let trees: Vec<Tree> = worlds_of(&picks).into_iter().map(|(tree, _)| tree).collect();
        let classes = isomorphism_classes(&trees);
        let firsts: Vec<usize> = classes.iter().map(|(_, members)| members[0]).collect();
        prop_assert!(firsts.windows(2).all(|pair| pair[0] < pair[1]), "{:?}", firsts);
        let mut class_of = vec![usize::MAX; trees.len()];
        for (class, (form, members)) in classes.iter().enumerate() {
            prop_assert!(members.windows(2).all(|pair| pair[0] < pair[1]));
            prop_assert_eq!(form.as_str(), canonical_string(&trees[members[0]]));
            for &member in members {
                prop_assert_eq!(std::mem::replace(&mut class_of[member], class), usize::MAX);
            }
        }
        prop_assert!(!class_of.contains(&usize::MAX));
        let plain: Vec<FuzzyTree> = trees.iter().cloned().map(FuzzyTree::from_tree).collect();
        for (i, x) in plain.iter().enumerate() {
            for (j, y) in plain.iter().enumerate() {
                prop_assert_eq!(
                    class_of[i] == class_of[j],
                    reference_isomorphic(x, x.root(), y, y.root())
                );
            }
        }

        let a: PossibleWorlds = worlds_of(&picks).into_iter().collect();
        let (first_pick, first_mass) = picks[0];
        let mut same: Vec<(Tree, f64)> = worlds_of(&picks[1..]);
        same.reverse();
        same.push((pool[(first_pick % pool.len()) ^ 1].clone(), first_mass as f64 / 32.0));
        same.insert(0, (pool[first_pick % pool.len()].clone(), first_mass as f64 / 32.0));
        let mut off = same.clone();
        off[0].1 += 0.5;
        let candidates: [PossibleWorlds; 3] = [
            same.into_iter().collect(),
            off.into_iter().collect(),
            worlds_of(&other_picks).into_iter().collect(),
        ];
        prop_assert!(a.equivalent(&candidates[0], 1e-12));
        prop_assert!(!a.equivalent(&candidates[1], 1e-12));
        for b in &candidates {
            prop_assert_eq!(a.equivalent(b, 1e-12), reference_equivalent(&a, b, 1e-12));
            prop_assert_eq!(b.equivalent(&a, 1e-12), reference_equivalent(b, &a, 1e-12));
        }
    }

    /// An event name either is refused as one of the classes that cannot
    /// round-trip a `pxml:cond` attribute, or survives serialisation: the
    /// reparsed document denotes the same worlds.
    #[test]
    fn accepted_event_names_round_trip_through_prxml(
        names in proptest::collection::vec(
            proptest::collection::vec(0usize..EVENT_NAME_ALPHABET.len(), 0..4),
            2..4,
        ),
    ) {
        let mut fuzzy = FuzzyTree::new("r");
        let mut literals = Vec::new();
        for (i, indices) in names.iter().enumerate() {
            let name: String = indices.iter().map(|&at| EVENT_NAME_ALPHABET[at]).collect();
            let refused = name.is_empty()
                || name == "not"
                || name.starts_with(['!', '¬'])
                || name.contains(|ch: char| ch.is_whitespace() || ch == ',');
            match fuzzy.add_event(name.as_str(), 0.25 + 0.25 * i as f64) {
                Ok(event) => {
                    prop_assert!(!refused, "accepted {:?}", name);
                    literals.push(Literal { event, positive: i % 2 == 0 });
                }
                Err(EventError::DuplicateEventName(_)) => prop_assert!(!refused),
                Err(error) => {
                    prop_assert!(refused, "refused {:?}", name);
                    prop_assert_eq!(error, EventError::InvalidEventName(name));
                }
            }
        }
        for &literal in &literals {
            let node = fuzzy.add_element(fuzzy.root(), "a");
            fuzzy.set_condition(node, Condition::from_literal(literal)).unwrap();
        }
        let all = fuzzy.add_element(fuzzy.root(), "b");
        fuzzy.set_condition(all, Condition::from_literals(literals)).unwrap();
        let reparsed = parse_fuzzy_document(&serialize_fuzzy_document(&fuzzy, false)).unwrap();
        prop_assert!(fuzzy.semantically_equivalent(&reparsed, 1e-12).unwrap());
    }

    /// The probability of a fuzzy tree's worlds always sums to 1, and every
    /// node probability equals the probability mass of the worlds containing
    /// at least as many copies of its label.
    #[test]
    fn fuzzy_expansion_is_a_distribution(fuzzy in fuzzy_strategy()) {
        let worlds = fuzzy.to_possible_worlds().unwrap();
        let total = worlds.total_probability();
        prop_assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }

    /// The probability of the condition `existence(node)` computed locally
    /// (product of literal probabilities) equals the probability mass of the
    /// worlds in which the node's subtree pattern occurs at least as often.
    #[test]
    fn selection_probability_matches_worlds(fuzzy in fuzzy_strategy()) {
        // Use the first element name in sorted order as the query.
        let tree = fuzzy.tree();
        let label = tree
            .nodes()
            .into_iter()
            .filter_map(|node| tree.label(node).element_name())
            .min()
            .unwrap_or("l0")
            .to_string();
        let query = Pattern::element(&label);
        let via_fuzzy = fuzzy.selection_probability(&query);
        let via_worlds = fuzzy
            .to_possible_worlds()
            .unwrap()
            .probability_that(|t| !t.find_elements(&label).is_empty());
        prop_assert!((via_fuzzy - via_worlds).abs() < 1e-9);
    }

    /// The PrXML storage format round-trips fuzzy trees semantically.
    #[test]
    fn prxml_round_trip_preserves_semantics(fuzzy in fuzzy_strategy()) {
        let text = serialize_fuzzy_document(&fuzzy, true);
        let reparsed = parse_fuzzy_document(&text).unwrap();
        prop_assert!(fuzzy.semantically_equivalent(&reparsed, 1e-9).unwrap());
    }

    /// Simplification never changes the possible-worlds semantics and never
    /// grows the document.
    #[test]
    fn simplification_is_semantics_preserving(fuzzy in retracted_strategy()) {
        let mut simplified = fuzzy.clone();
        Simplifier::new().run(&mut simplified).unwrap();
        prop_assert!(fuzzy.semantically_equivalent(&simplified, 1e-9).unwrap());
        prop_assert!(simplified.node_count() <= fuzzy.node_count());
        prop_assert!(simplified.condition_literal_count() <= fuzzy.condition_literal_count());
        prop_assert!(simplified.validate().is_ok());
        // Idempotence: the output is a fixpoint, and a clean document costs
        // one round.
        let again = Simplifier::new().run(&mut simplified).unwrap();
        prop_assert!(again.is_noop() && again.passes == 1, "second run: {:?}", again);
    }

    /// The paper's trees are unordered: simplifying a document and
    /// simplifying the same document with every node's children permuted
    /// (and so with other node ids) give canonically equal results.
    #[test]
    fn simplification_ignores_child_order_and_node_ids(
        mut original in retracted_strategy(),
        seed in any::<u64>(),
    ) {
        let mut permuted = shuffled(&original, seed);
        prop_assert_eq!(
            permuted.fuzzy_canonical_string(permuted.root()),
            original.fuzzy_canonical_string(original.root())
        );
        Simplifier::new().run(&mut original).unwrap();
        Simplifier::new().run(&mut permuted).unwrap();
        prop_assert_eq!(
            permuted.fuzzy_canonical_string(permuted.root()),
            original.fuzzy_canonical_string(original.root())
        );
    }

    /// The disjunction kernel queries run agrees with exhaustive enumeration
    /// on the disjunction of two random conjunctions.
    #[test]
    fn formula_probability_matches_enumeration(
        literal_specs in proptest::collection::vec((0usize..4, any::<bool>()), 1..5),
        or_specs in proptest::collection::vec((0usize..4, any::<bool>()), 1..5),
    ) {
        let mut events = EventTable::new();
        let ids: Vec<EventId> = (0..4)
            .map(|i| events.add_event(format!("e{i}"), 0.1 + 0.2 * i as f64).unwrap())
            .collect();
        let to_literal = |&(index, positive): &(usize, bool)| {
            if positive { Literal::pos(ids[index]) } else { Literal::neg(ids[index]) }
        };
        let a = Condition::from_literals(literal_specs.iter().map(to_literal));
        let b = Condition::from_literals(or_specs.iter().map(to_literal));
        let by_kernel = pxml::event::disjunction_probability([&a, &b], &events);
        let by_enumeration: f64 = pxml::event::enumerate_valuations(&events)
            .unwrap()
            .into_iter()
            .filter(|v| a.satisfied_by(v) || b.satisfied_by(v))
            .map(|v| v.probability(&events))
            .sum();
        prop_assert!((by_kernel - by_enumeration).abs() < 1e-9);
    }

    /// Encoding a possible-worlds set as a fuzzy tree and expanding it back
    /// is the identity (up to normalisation).
    #[test]
    fn encode_expand_round_trip(fuzzy in fuzzy_strategy()) {
        let worlds = fuzzy.to_possible_worlds().unwrap();
        let encoded = encode_possible_worlds(&worlds).unwrap();
        let expanded = encoded.to_possible_worlds().unwrap();
        prop_assert!(expanded.equivalent(&worlds, 1e-9));
    }
}

/// A document for [`scoped_simplification_equals_the_whole_document_run`]:
/// a [`fuzzy_strategy_with`] tree whose conditions may mention a certain
/// event (so it need not be a fixpoint), and below its root
///
/// * a `person` with an uncertain phone and an uncertain email;
/// * a `gadget { a[k], b[¬k] }`: every match of `gadget { a, b }` is
///   inconsistent;
/// * a `twin { t[k], u[¬k] }`: a certain insertion of `t` where `twin { u }`
///   matches is the other half of the `t` already there, a merge at the
///   parent of what the update inserted;
/// * a `pair { box[k] { t }, box[¬k] { u } }`: certainly replacing `u` by `t`
///   where `box { u }` matches makes the two boxes' bodies equal, a merge at
///   the grandparent of what the update inserted.
///
/// Half of the documents are simplified first, so a history's first commit
/// is scoped; the flag says which.
fn history_start_strategy() -> impl Strategy<Value = (FuzzyTree, bool)> {
    (fuzzy_strategy_with(&[1.0, 0.0]), any::<bool>()).prop_map(|(mut fuzzy, simplified)| {
        let root = fuzzy.root();
        let person = fuzzy.add_element(root, "person");
        for label in ["phone", "email"] {
            let event = fuzzy.fresh_event(0.7).unwrap();
            let node = fuzzy.add_conditional_element(
                person,
                label,
                Condition::from_literal(Literal::pos(event)),
            );
            fuzzy.add_text(node, label);
        }
        for (parent, [a, b]) in [("gadget", ["a", "b"]), ("twin", ["t", "u"])] {
            let parent = fuzzy.add_element(root, parent);
            let k = fuzzy.fresh_event(0.5).unwrap();
            for (label, literal) in [(a, Literal::pos(k)), (b, Literal::neg(k))] {
                fuzzy.add_conditional_element(parent, label, Condition::from_literal(literal));
            }
        }
        let pair = fuzzy.add_element(root, "pair");
        let k = fuzzy.fresh_event(0.5).unwrap();
        for (child, literal) in [("t", Literal::pos(k)), ("u", Literal::neg(k))] {
            let node = fuzzy.add_conditional_element(pair, "box", Condition::from_literal(literal));
            fuzzy.add_element(node, child);
        }
        if simplified {
            Simplifier::new().run(&mut fuzzy).unwrap();
        }
        (fuzzy, simplified)
    })
}

/// The commits one step of a random history makes, drawn by `choice` over
/// the current `tree` (see [`history_start_strategy`]): a phone extracted
/// (confidence 0.6, 1, 0 or 0.9), the email retracted where the person has
/// a phone, the phones retracted, an update that matches nothing, one whose
/// every match is inconsistent (it mints an event no condition mentions),
/// one round of the extract-then-clean loop (two commits), the certain
/// `twin` insertion or `pair` replacement, or an update derived from the
/// document.
fn history_step(choice: u8, seed: u64, tree: &Tree) -> Vec<UpdateTransaction> {
    let confidence = [0.6, 1.0, 0.0, 0.9][(seed % 4) as usize];
    let transaction = |text: &str, confidence: f64| {
        UpdateTransaction::new(Pattern::parse(text).unwrap(), confidence).unwrap()
    };
    let extract = |confidence: f64| {
        let update = transaction("person", confidence);
        let person = update.pattern().root();
        let phone = parse_data_tree(&format!("<phone>p{}</phone>", seed % 3)).unwrap();
        update.with_insert(person, phone)
    };
    let clean = |confidence: f64| {
        let update = transaction("person { phone, email }", confidence);
        let email = update.pattern().node_ids().nth(2).unwrap();
        update.with_delete(email)
    };
    match choice {
        0 => vec![extract(confidence)],
        1 => vec![clean(confidence)],
        2 => {
            let update = transaction("person { phone }", confidence);
            let phone = update.pattern().node_ids().nth(1).unwrap();
            vec![update.with_delete(phone)]
        }
        3 => {
            let update = transaction("nosuch", confidence);
            let root = update.pattern().root();
            vec![update.with_insert(root, parse_data_tree("<x/>").unwrap())]
        }
        4 => {
            let update = transaction("gadget { a, b }", confidence);
            let gadget = update.pattern().root();
            vec![update.with_insert(gadget, parse_data_tree("<c/>").unwrap())]
        }
        5 => vec![extract(0.6), clean(0.9)],
        6 => {
            let update = transaction("twin { u }", 1.0);
            let twin = update.pattern().root();
            vec![update.with_insert(twin, parse_data_tree("<t/>").unwrap())]
        }
        7 => {
            let update = transaction("box { u }", 1.0);
            let ids: Vec<PNodeId> = update.pattern().node_ids().collect();
            let replacement = update.with_insert(ids[0], parse_data_tree("<t/>").unwrap());
            vec![replacement.with_delete(ids[1])]
        }
        _ => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let update = pxml::gen::random_update(&mut rng, tree, &Default::default());
            vec![update.with_confidence(confidence).unwrap()]
        }
    }
}

proptest! {
    // The stress job's release run draws four times the debug run's cases.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 24 } else { 96 }
    ))]

    /// A commit simplifies only what its update touched, and that is exact:
    /// after every commit of a random history, the document the warehouse
    /// publishes serialises — tree and event table — to the bytes of the
    /// whole-document [`Simplifier::run`] over the document before the
    /// commit with the update applied. The documents start as fixpoints or
    /// not (through `create_fuzzy_document`), and the histories draw
    /// confidence-1 and confidence-0 updates, updates that match nothing or
    /// only inconsistently, and the extract-then-clean loop.
    ///
    /// At the end of the history the published document is already what a
    /// whole-document pass followed by a checkpoint would leave: a cold open
    /// replaying the whole history from the journal, a checkpoint, a cold
    /// open of that checkpoint and a reopen each serve its bytes — every
    /// open crossing the stored text, as over files — and once it has been
    /// simplified — at the start, or by any commit — [`Simplifier::run`]
    /// over a copy finds nothing to do.
    #[test]
    fn scoped_simplification_equals_the_whole_document_run(
        (start, simplified) in history_start_strategy(),
        steps in proptest::collection::vec((0u8..10, any::<u64>()), 1..12),
    ) {
        let backend = std::sync::Arc::new(MemBackend::new());
        let warehouse = Warehouse::with_backend(backend.clone(), SessionConfig::default()).unwrap();
        warehouse.create_fuzzy_document("doc", start).unwrap();
        let bytes = |fuzzy: &FuzzyTree| serialize_fuzzy_document(fuzzy, false);
        let mut took_a_commit = false;
        for (step, &(choice, seed)) in steps.iter().enumerate() {
            let tree = warehouse.document("doc").unwrap().tree().clone();
            for update in history_step(choice, seed, &tree) {
                let mut oracle = warehouse.document("doc").unwrap();
                let applied = update.apply_to_fuzzy(&mut oracle);
                let committed = warehouse.commit_batch("doc", std::slice::from_ref(&update), None);
                prop_assert!(applied.is_ok() == committed.is_ok(), "step {}", step);
                if applied.is_err() {
                    continue;
                }
                took_a_commit = true;
                Simplifier::new().run(&mut oracle).unwrap();
                let published = warehouse.document("doc").unwrap();
                prop_assert!(
                    bytes(&published) == bytes(&oracle),
                    "step {} (choice {}): scoped\n{}\nwhole document\n{}",
                    step,
                    choice,
                    bytes(&published),
                    bytes(&oracle)
                );
            }
        }

        let mut published = warehouse.document("doc").unwrap();
        let published_bytes = bytes(&published);
        if simplified || took_a_commit {
            let report = Simplifier::new().run(&mut published).unwrap();
            prop_assert!(report.is_noop(), "a run over the published document: {:?}", report);
            prop_assert!(bytes(&published) == published_bytes);
        }
        let replayed = Warehouse::with_backend(backend.clone(), SessionConfig::default()).unwrap();
        prop_assert!(
            bytes(&replayed.document("doc").unwrap()) == published_bytes,
            "cold open replaying the journal"
        );
        warehouse.checkpoint("doc").unwrap();
        prop_assert!(bytes(&warehouse.document("doc").unwrap()) == published_bytes);
        let cold = Warehouse::with_backend(backend, SessionConfig::default()).unwrap();
        prop_assert!(bytes(&cold.document("doc").unwrap()) == published_bytes, "cold open");
        warehouse.reopen_document("doc").unwrap();
        prop_assert!(bytes(&warehouse.document("doc").unwrap()) == published_bytes, "reopen");
    }
}

/// The condition walk agrees with the three passes it replaced. Each row is
/// a seed of `fuzzy_strategy` with a certainly-true and a certainly-false
/// event mixed in, and the node and literal counts that prune → resolve →
/// strip left at commit 61c3fae, the last one to have them — generated
/// there, before the rewrite. None of these documents has siblings to merge
/// (asserted), so one changing round of [`Simplifier::run`] is one condition
/// walk, and the second round only confirms the fixpoint.
#[test]
fn condition_walk_agrees_with_the_three_passes_it_replaced() {
    // (seed, nodes, literals); between them the rows resolve literals, drop
    // certainly-false subtrees (seed 58: 16 nodes → 3), prune against an
    // ancestor (97) and strip implied literals (42, 44, 120).
    const EXPECTED: [(u64, usize, usize); 12] = [
        (6, 2, 0),
        (17, 27, 2),
        (18, 8, 1),
        (42, 8, 1),
        (43, 11, 0),
        (44, 24, 2),
        (48, 11, 1),
        (49, 21, 2),
        (58, 3, 0),
        (86, 12, 2),
        (97, 14, 2),
        (120, 6, 1),
    ];
    let strategy = fuzzy_strategy_with(&[1.0, 0.0]);
    for (seed, nodes, literals) in EXPECTED {
        let mut fuzzy = strategy.generate(&mut TestRng::seed_from_u64(seed));
        let report = Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!((report.merged_nodes, report.passes), (0, 2), "seed {seed}");
        assert_eq!(
            (fuzzy.node_count(), fuzzy.condition_literal_count()),
            (nodes, literals),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// Answers: one key per match, written in place; one tree per group.
// ---------------------------------------------------------------------------

/// The minimal subtree of `tree` containing `nodes`, built the way every
/// match's answer was built before answers were grouped by key: the lowest
/// common ancestor from ancestor lists, then that ancestor's whole subtree
/// filtered down to the paths from it to `nodes`, copied in preorder.
fn reference_steiner_tree(tree: &Tree, nodes: &[NodeId]) -> Tree {
    let lca = tree
        .ancestors_or_self(nodes[0])
        .into_iter()
        .find(|above| {
            nodes
                .iter()
                .all(|&node| tree.ancestors_or_self(node).contains(above))
        })
        .unwrap();
    let keep: std::collections::HashSet<NodeId> = nodes
        .iter()
        .flat_map(|&node| {
            tree.ancestors_or_self(node)
                .into_iter()
                .take_while(|&above| above != lca)
        })
        .chain([lca])
        .collect();
    let mut answer = Tree::new(tree.label(lca).clone());
    let mut copies = std::collections::HashMap::from([(lca, answer.root())]);
    for node in tree.descendants_or_self(lca).into_iter().skip(1) {
        if keep.contains(&node) {
            let parent = copies[&tree.parent(node).unwrap()];
            copies.insert(node, answer.add_child(parent, tree.label(node).clone()));
        }
    }
    answer
}

/// `a` below `x` and `b` below `y` are the same *ordered* tree: equal
/// labels, and children paired off in order.
fn same_ordered_tree(a: &Tree, x: NodeId, b: &Tree, y: NodeId) -> bool {
    a.label(x) == b.label(y)
        && a.children(x).len() == b.children(y).len()
        && a.children(x)
            .iter()
            .zip(b.children(y))
            .all(|(&u, &v)| same_ordered_tree(a, u, b, v))
}

/// The condition under which `matching` exists, from its definition (slide
/// 13): every condition on the root path of every mapped node, and the
/// condition of the text child supplying a value a value test or a join
/// reads.
fn reference_match_condition(
    fuzzy: &FuzzyTree,
    pattern: &Pattern,
    matching: &Matching,
) -> Condition {
    let tree = fuzzy.tree();
    let mut literals = Vec::new();
    for node in matching.mapped_nodes() {
        for above in tree.ancestors_or_self(node) {
            literals.extend_from_slice(fuzzy.condition(above).literals());
        }
    }
    for id in pattern.node_ids() {
        let (spec, image) = (pattern.node(id), matching.image(id));
        let children = tree.children(image);
        let valued = spec.value.is_some() || spec.join.is_some();
        if valued && tree.is_element(image) && children.len() == 1 && tree.is_text(children[0]) {
            literals.extend_from_slice(fuzzy.condition(children[0]).literals());
        }
    }
    Condition::from_literals(literals)
}

/// Child-only patterns whose same-label siblings force several partitions
/// of their nodes by image: `p { c, c }`, `p { c, c, c }` and
/// `p { c { g }, c { g } }`, named after an element of `tree` and a child
/// of it that has a sibling of its own name (any element child, if no
/// element has two of one name), and that child's first element child.
/// Two siblings sharing an image and two apart answer differently, and
/// `(c₁, c₁, c₂)` and `(c₁, c₂, c₂)` are two partitions of one answer.
fn sibling_patterns(tree: &Tree, pick: usize) -> Vec<Pattern> {
    let name = |node: NodeId| tree.label(node).element_name();
    let edges: Vec<(NodeId, NodeId)> = tree
        .nodes()
        .into_iter()
        .flat_map(|parent| {
            tree.children(parent)
                .iter()
                .map(move |&child| (parent, child))
        })
        .filter(|&(parent, child)| name(parent).is_some() && name(child).is_some())
        .collect();
    let twins: Vec<(NodeId, NodeId)> = edges
        .iter()
        .copied()
        .filter(|&(parent, child)| {
            let siblings = tree.children(parent).iter();
            siblings
                .filter(|&&sibling| name(sibling) == name(child))
                .count()
                > 1
        })
        .collect();
    let Some(&(parent, child)) = [twins, edges]
        .iter()
        .find(|edges| !edges.is_empty())
        .map(|edges| &edges[pick % edges.len()])
    else {
        return Vec::new();
    };
    let (p, c) = (name(parent).unwrap(), name(child).unwrap());
    let mut texts = vec![
        format!("{p} {{ {c}, {c} }}"),
        format!("{p} {{ {c}, {c}, {c} }}"),
    ];
    if let Some(g) = tree.children(child).iter().find_map(|&g| name(g)) {
        texts.push(format!("{p} {{ {c} {{ {g} }}, {c} {{ {g} }} }}"));
    }
    texts
        .iter()
        .map(|text| Pattern::parse(text).unwrap())
        .collect()
}

proptest! {
    // The stress job's release run draws eight times the debug run's cases.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 512 }
    ))]

    /// A query groups its matches by a key written over the data tree and
    /// builds one answer tree per group, and that is exact.
    ///
    /// *The key.* On a tree with hostile labels and text nodes, beside a
    /// forged body and the honest one it spells (as in
    /// `forged_bodies_never_collide`) and an element and a text node of one
    /// label: for every single node, both honest leaves, the forged path
    /// and random node sets, the key is the canonical string of the built
    /// minimal subtree, that subtree is the reference's node for node and
    /// in order, and two sets' keys are equal exactly when their reference
    /// subtrees are isomorphic — decided without strings.
    ///
    /// *The groups.* On random fuzzy trees, for derived patterns from
    /// `pxml-gen` (value tests, joins, descendant axes, wildcards) and for
    /// the child-only [`sibling_patterns`], whose matches a query keys once
    /// per partition of the pattern's nodes by image (several groups per
    /// pattern, and several partitions per group), the
    /// matches `query` keeps are the consistent ones with their conditions
    /// from the definition, and `merged_answers` returns the reference's
    /// groups — a Steiner tree per match grouped by
    /// [`isomorphism_classes`] — in the same order, each tree the same
    /// bytes as its first match's, each probability bit-equal to the
    /// disjunction over the group, and every match names its group.
    #[test]
    fn answer_keys_and_groups_agree_with_per_match_steiner_trees(
        spec in spec_strategy(),
        pool in hostile_pool_strategy(),
        picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 1..5), 1..8),
        seed in any::<u64>(),
    ) {
        let mut tree = hostile(&FuzzyTree::from_tree(build(&spec)), &pool).tree().clone();
        let root = tree.root();
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        let (a, p, q) = (pool[0].as_str(), pool[6].as_str(), pool[7].as_str());
        for (b, c) in [(&pool[1], &pool[2]), (&pool[2], &pool[1])] {
            let honest = tree.add_element(root, a);
            let mut leaves = Vec::new();
            for (element, text) in [(b.as_str(), p), (c.as_str(), q)] {
                let node = tree.add_element(honest, element);
                leaves.push(tree.add_text(node, text));
            }
            sets.push(leaves);
            let forged = tree.add_element(root, a);
            let node = tree.add_element(forged, b.as_str());
            let text = tree.add_text(node, format!("{p}),e|{c}(t|{q}"));
            sets.push(vec![forged, text]);
        }
        tree.add_element(root, pool[3].as_str());
        let holder = tree.add_element(root, pool[4].as_str());
        tree.add_text(holder, pool[3].as_str());

        let nodes = tree.nodes();
        sets.extend(nodes.iter().map(|&node| vec![node]));
        sets.extend(picks.iter().map(|pick| {
            let mut set: Vec<NodeId> = pick.iter().map(|&i| nodes[i as usize % nodes.len()]).collect();
            set.sort_unstable();
            set.dedup();
            set
        }));
        let mut keyed = Vec::new();
        for set in &sets {
            let built = steiner_tree(&tree, set).unwrap();
            let reference = reference_steiner_tree(&tree, set);
            let key = steiner_canonical_string(&tree, set).unwrap();
            prop_assert_eq!(&key, &canonical_string(&built));
            prop_assert!(same_ordered_tree(&built, built.root(), &reference, reference.root()));
            prop_assert_eq!(built.node_count(), reference.node_count());
            keyed.push((key, FuzzyTree::from_tree(reference)));
        }
        for (key, x) in &keyed {
            for (other_key, y) in &keyed {
                prop_assert!(
                    (key == other_key) == reference_isomorphic(x, x.root(), y, y.root()),
                    "keys {} and {}",
                    key,
                    other_key
                );
            }
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fuzzy = random_fuzzy_tree(&mut rng, &FuzzyGenConfig {
            condition_probability: 0.45,
            ..FuzzyGenConfig::sized(60, 6)
        });
        let mut queries: Vec<Pattern> = (0..4)
            .map(|_| {
                let config = QueryGenConfig {
                    pattern_nodes: rng.gen_range(1..5),
                    descendant_probability: 0.4,
                    value_probability: 0.3,
                    join_probability: 0.5,
                    wildcard_probability: 0.2,
                };
                derived_query(&mut rng, fuzzy.tree(), &config)
            })
            .collect();
        queries.extend(sibling_patterns(fuzzy.tree(), seed as usize));
        for query in queries {
            let result = fuzzy.query(&query);
            let kept: Vec<(Matching, Condition)> = query
                .find_matches(fuzzy.tree())
                .into_iter()
                .map(|matching| {
                    let condition = reference_match_condition(&fuzzy, &query, &matching);
                    (matching, condition)
                })
                .filter(|(_, condition)| condition.is_consistent())
                .collect();
            prop_assert_eq!(result.len(), kept.len());
            for (found, (matching, condition)) in result.matches.iter().zip(&kept) {
                prop_assert_eq!(found.matching.images(), matching.images());
                prop_assert_eq!(&found.condition, condition);
            }
            let answers: Vec<Tree> = kept
                .iter()
                .map(|(matching, _)| reference_steiner_tree(fuzzy.tree(), &matching.mapped_nodes()))
                .collect();
            let classes = isomorphism_classes(&answers);
            let merged = result.merged_answers(fuzzy.events());
            prop_assert!(merged.len() == classes.len(), "{} groups: {}", query, merged.len());
            for (group, ((answer, probability), (_, members))) in merged.iter().zip(&classes).enumerate() {
                prop_assert_eq!(
                    write_data_tree(answer, false),
                    write_data_tree(&answers[members[0]], false)
                );
                let reference = disjunction_probability(
                    members.iter().map(|&member| &kept[member].1),
                    fuzzy.events(),
                );
                prop_assert_eq!(probability.to_bits(), reference.to_bits());
                for &member in members {
                    prop_assert_eq!(result.matches[member].group, group);
                }
            }
        }
    }
}
