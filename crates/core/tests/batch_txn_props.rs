//! Property-based checks of the batch semantics: committing a batch
//! of two probabilistic updates is equivalent to applying them sequentially,
//! on the fuzzy tree and on the possible-worlds model (the commutation
//! diagram of slide 14, lifted to batches), and the inline simplification
//! policy never changes the semantics of a commit.

use proptest::prelude::*;
use pxml_core::{apply_batch, FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_event::{EventId, Literal};
use pxml_query::Pattern;
use pxml_tree::{parse_data_tree, write_data_tree, Tree, MAX_TREE_DEPTH};

/// Blueprint of a small random fuzzy tree (same shape as
/// `worlds_props::fuzzy_strategy`): nodes pick their parent among the nodes
/// created so far, labels come from a 4-letter alphabet, and consistent
/// event literals are conjoined onto node conditions.
fn fuzzy_strategy() -> impl Strategy<Value = FuzzyTree> {
    (
        proptest::collection::vec((0usize..8, 0u8..4), 0..8),
        proptest::collection::vec(1u32..100, 0..4),
        proptest::collection::vec((0usize..4, any::<bool>(), 1usize..9), 0..6),
    )
        .prop_map(|(nodes, probabilities, annotations)| {
            let mut fuzzy = FuzzyTree::new("root");
            let mut created = vec![fuzzy.root()];
            for (parent_choice, label) in nodes {
                let parent = created[parent_choice % created.len()];
                created.push(fuzzy.add_element(parent, format!("l{label}")));
            }
            let events: Vec<EventId> = probabilities
                .iter()
                .map(|p| fuzzy.fresh_event(*p as f64 / 100.0).unwrap())
                .collect();
            if events.is_empty() {
                return fuzzy;
            }
            for (event_choice, positive, node_choice) in annotations {
                let node = created[node_choice % created.len()];
                if node == fuzzy.root() {
                    continue;
                }
                let event = events[event_choice % events.len()];
                let literal = if positive {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                };
                let condition = fuzzy.condition(node).and_literal(literal);
                if condition.is_consistent() {
                    fuzzy.set_condition(node, condition).unwrap();
                }
            }
            fuzzy
        })
}

/// A small random probabilistic update: insert below the matched root /
/// delete the matched child / both, anchored at a `root { lX }` pattern.
fn update_strategy() -> impl Strategy<Value = UpdateTransaction> {
    (0u8..4, 0u8..3, 50u32..=100).prop_map(|(label, kind, confidence)| {
        let pattern = Pattern::parse(&format!("root {{ l{label} }}")).unwrap();
        let ids: Vec<_> = pattern.node_ids().collect();
        let mut update = UpdateTransaction::new(pattern, confidence as f64 / 100.0).unwrap();
        if kind != 1 {
            update = update.with_insert(ids[0], parse_data_tree("<fresh/>").unwrap());
        }
        if kind != 0 {
            update = update.with_delete(ids[1]);
        }
        update
    })
}

/// An update no document accepts: it matches every `root` and inserts a
/// chain one level taller than the depth bound leaves room for.
fn too_deep_insert() -> UpdateTransaction {
    let mut chain = Tree::new("n");
    let mut node = chain.root();
    for _ in 0..MAX_TREE_DEPTH {
        node = chain.add_element(node, "n");
    }
    let pattern = Pattern::parse("root").unwrap();
    let target = pattern.root();
    UpdateTransaction::certain(pattern).with_insert(target, chain)
}

/// Everything core can observe of a fuzzy tree, as text: the data tree in
/// document order, every node's condition, and the event table.
fn observed(fuzzy: &FuzzyTree) -> String {
    let events: Vec<String> = fuzzy
        .events()
        .iter()
        .map(|(id, name, p)| format!("{}:{name}={p}", id.index()))
        .collect();
    format!(
        "{}\n{}\n{}\nslots={}",
        write_data_tree(fuzzy.tree(), false),
        fuzzy.fuzzy_canonical_string(fuzzy.root()),
        events.join(","),
        fuzzy.tree().slot_count(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A staged batch of two updates equals applying them one at a time on
    /// the fuzzy tree.
    #[test]
    fn batch_of_two_equals_sequential_application(
        fuzzy in fuzzy_strategy(),
        u1 in update_strategy(),
        u2 in update_strategy(),
    ) {
        let (batched, _) =
            apply_batch(&fuzzy, &[u1.clone(), u2.clone()], SimplifyPolicy::Never).unwrap();

        let mut sequential = fuzzy;
        u1.apply_to_fuzzy(&mut sequential).unwrap();
        u2.apply_to_fuzzy(&mut sequential).unwrap();

        prop_assert!(batched.semantically_equivalent(&sequential, 1e-9).unwrap());
    }

    /// The commutation diagram, lifted to batches: committing the batch and
    /// then expanding equals expanding first and updating every world with
    /// each staged update in order.
    #[test]
    fn batch_commutes_with_the_possible_worlds_model(
        fuzzy in fuzzy_strategy(),
        u1 in update_strategy(),
        u2 in update_strategy(),
    ) {
        let via_worlds = fuzzy.to_possible_worlds().unwrap().update(&u1).update(&u2);

        let (committed, _) = apply_batch(&fuzzy, &[u1, u2], SimplifyPolicy::Never).unwrap();
        let via_batch = committed.to_possible_worlds().unwrap();

        prop_assert!(via_batch.equivalent(&via_worlds, 1e-9));
    }

    /// The inline simplification policy shrinks the representation, never
    /// the semantics.
    #[test]
    fn inline_policy_preserves_batch_semantics(
        fuzzy in fuzzy_strategy(),
        u1 in update_strategy(),
        u2 in update_strategy(),
    ) {
        let (plain, _) =
            apply_batch(&fuzzy, &[u1.clone(), u2.clone()], SimplifyPolicy::Never).unwrap();
        let (inlined, stats) = apply_batch(&fuzzy, &[u1, u2], SimplifyPolicy::Inline).unwrap();

        prop_assert_eq!(stats.simplify_runs(), 2);
        prop_assert!(inlined.node_count() <= plain.node_count());
        prop_assert!(inlined.validate().is_ok());
        prop_assert!(inlined.semantically_equivalent(&plain, 1e-9).unwrap());
    }

    /// A batch that fails part-way — its first update has already rewritten
    /// the working copy, which shares every arena chunk with the base — is
    /// an `Err`, and the base reads exactly as it did before the call.
    #[test]
    fn failed_batch_leaves_the_base_untouched(
        fuzzy in fuzzy_strategy(),
        u1 in update_strategy(),
    ) {
        let before = observed(&fuzzy);
        let outcome = apply_batch(&fuzzy, &[u1, too_deep_insert()], SimplifyPolicy::Inline);
        prop_assert!(outcome.is_err());
        prop_assert_eq!(observed(&fuzzy), before);
    }
}
