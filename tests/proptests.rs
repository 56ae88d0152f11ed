//! Property-based tests over the core data structures and invariants.
//!
//! Strategies generate small random documents, conditions and formulas, and
//! the properties assert the algebraic facts the rest of the system relies
//! on: unordered isomorphism is insensitive to sibling order, probabilities
//! computed by Shannon expansion agree with exhaustive enumeration, both
//! matcher strategies agree, XML and PrXML round-trips preserve semantics,
//! and simplification never changes the possible-worlds semantics.

use proptest::prelude::*;
use pxml::prelude::*;
use pxml::store::{parse_fuzzy_document, serialize_fuzzy_document};
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
    let mut rng = TestRng::seed_from_u64(seed);
    let mut copy = FuzzyTree::new(fuzzy.tree().label(fuzzy.root()).clone());
    for (_, name, probability) in fuzzy.events().iter() {
        copy.add_event(name, probability).unwrap();
    }
    let mut stack = vec![(fuzzy.root(), copy.root())];
    while let Some((source, target)) = stack.pop() {
        let mut children = fuzzy.tree().children(source).to_vec();
        for i in (1..children.len()).rev() {
            children.swap(i, rng.gen_range(0..=i));
        }
        for child in children {
            let node = match fuzzy.tree().label(child) {
                Label::Element(name) => copy.add_element(target, name.as_str()),
                Label::Text(value) => copy.add_text(target, value.as_str()),
            };
            copy.set_condition(node, fuzzy.condition(child)).unwrap();
            stack.push((child, node));
        }
    }
    copy
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
        prop_assert!(tree.check_data_model().is_ok());
    }

    /// The naive and indexed matchers return exactly the same matches, in
    /// the same (document) order — over every way a pattern root and a
    /// pattern edge find their candidates.
    #[test]
    fn matcher_strategies_agree(spec in spec_strategy(), anchored in any::<bool>()) {
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
            let images = |strategy| -> Vec<Vec<NodeId>> {
                pattern
                    .find_matches_with(&tree, strategy)
                    .iter()
                    .map(|m| m.images().to_vec())
                    .collect()
            };
            prop_assert!(
                images(MatchStrategy::Naive) == images(MatchStrategy::Indexed),
                "strategies disagree on `{}` (anchored = {})",
                text,
                anchored
            );
        }
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
        // Use the most common label as the query.
        let names = fuzzy.tree().element_names();
        let label = names.first().cloned().unwrap_or_else(|| "l0".to_string());
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

    /// Conjunction probability equals the product of literal probabilities,
    /// and the Formula engine agrees with exhaustive enumeration.
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
        let formula = Formula::any_of_conditions(&[a.clone(), b.clone()]);
        let by_shannon = formula.probability(&events);
        let by_enumeration: f64 = pxml::event::enumerate_valuations(&events)
            .unwrap()
            .into_iter()
            .filter(|v| a.satisfied_by(v) || b.satisfied_by(v))
            .map(|v| v.probability(&events))
            .sum();
        prop_assert!((by_shannon - by_enumeration).abs() < 1e-9);
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
