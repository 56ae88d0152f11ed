//! Property-based checks that *interleaved* batches on distinct documents
//! commute with the possible-worlds semantics: however a scheduler
//! interleaves the commit order of two documents' batch queues, each
//! document ends in the state the worlds model prescribes for its own queue
//! alone. Documents carry disjoint event tables, so their joint distribution
//! is the product of the per-document ones — per-document equivalence *is*
//! the joint claim. This is the semantic ground the warehouse's per-document
//! locking stands on: commits to different documents need no ordering
//! between them.

use proptest::prelude::*;
use pxml_core::{apply_batch, FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_event::{EventId, Literal};
use pxml_query::Pattern;
use pxml_tree::parse_data_tree;

/// Blueprint of a small random fuzzy tree (same shape as the strategy in
/// `batch_txn_props`): nodes pick their parent among the nodes created so
/// far, labels come from a 4-letter alphabet, and consistent event literals
/// are conjoined onto node conditions.
fn fuzzy_strategy() -> impl Strategy<Value = FuzzyTree> {
    (
        proptest::collection::vec((0usize..8, 0u8..4), 0..6),
        proptest::collection::vec(1u32..100, 0..3),
        proptest::collection::vec((0usize..3, any::<bool>(), 1usize..7), 0..4),
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

/// A queue of batches for one document.
fn batch_queue_strategy() -> impl Strategy<Value = Vec<Vec<UpdateTransaction>>> {
    proptest::collection::vec(proptest::collection::vec(update_strategy(), 1..3), 1..3)
}

/// Applies the two documents' batch queues in the interleaved order the
/// boolean schedule dictates (`true` = document A commits its next batch,
/// `false` = document B; exhausted queues fall through to the other, and
/// leftovers drain in order at the end — per-document order is always
/// preserved, as the engine's per-document lock guarantees).
fn apply_interleaved(
    doc_a: &mut FuzzyTree,
    doc_b: &mut FuzzyTree,
    queue_a: &[Vec<UpdateTransaction>],
    queue_b: &[Vec<UpdateTransaction>],
    schedule: &[bool],
) {
    let (mut next_a, mut next_b) = (0, 0);
    let commit_a = |next_a: &mut usize, doc_a: &mut FuzzyTree| {
        *doc_a = apply_batch(doc_a, &queue_a[*next_a], SimplifyPolicy::Never)
            .unwrap()
            .0;
        *next_a += 1;
    };
    let commit_b = |next_b: &mut usize, doc_b: &mut FuzzyTree| {
        *doc_b = apply_batch(doc_b, &queue_b[*next_b], SimplifyPolicy::Never)
            .unwrap()
            .0;
        *next_b += 1;
    };
    for &pick_a in schedule {
        match (pick_a, next_a < queue_a.len(), next_b < queue_b.len()) {
            (true, true, _) | (false, true, false) => commit_a(&mut next_a, doc_a),
            (false, _, true) | (true, false, true) => commit_b(&mut next_b, doc_b),
            _ => break,
        }
    }
    while next_a < queue_a.len() {
        commit_a(&mut next_a, doc_a);
    }
    while next_b < queue_b.len() {
        commit_b(&mut next_b, doc_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the global interleaving, each document's final possible
    /// worlds equal its own queue applied through the worlds model (expand
    /// first, update every world per staged update, in queue order).
    #[test]
    fn interleaved_batches_on_distinct_documents_commute_with_worlds(
        fuzzy_a in fuzzy_strategy(),
        fuzzy_b in fuzzy_strategy(),
        queue_a in batch_queue_strategy(),
        queue_b in batch_queue_strategy(),
        schedule in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let mut doc_a = fuzzy_a.clone();
        let mut doc_b = fuzzy_b.clone();
        apply_interleaved(&mut doc_a, &mut doc_b, &queue_a, &queue_b, &schedule);

        let mut expected_a = fuzzy_a.to_possible_worlds().unwrap();
        for update in queue_a.iter().flatten() {
            expected_a = expected_a.update(update);
        }
        let mut expected_b = fuzzy_b.to_possible_worlds().unwrap();
        for update in queue_b.iter().flatten() {
            expected_b = expected_b.update(update);
        }

        prop_assert!(doc_a.to_possible_worlds().unwrap().equivalent(&expected_a, 1e-9));
        prop_assert!(doc_b.to_possible_worlds().unwrap().equivalent(&expected_b, 1e-9));
    }

    /// Two different interleavings of the same queues agree with each other
    /// document by document (schedule-independence, stated directly).
    #[test]
    fn any_two_interleavings_agree(
        fuzzy_a in fuzzy_strategy(),
        fuzzy_b in fuzzy_strategy(),
        queue_a in batch_queue_strategy(),
        queue_b in batch_queue_strategy(),
        schedule_x in proptest::collection::vec(any::<bool>(), 6),
        schedule_y in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let mut ax = fuzzy_a.clone();
        let mut bx = fuzzy_b.clone();
        apply_interleaved(&mut ax, &mut bx, &queue_a, &queue_b, &schedule_x);
        let mut ay = fuzzy_a;
        let mut by = fuzzy_b;
        apply_interleaved(&mut ay, &mut by, &queue_a, &queue_b, &schedule_y);

        prop_assert!(ax.semantically_equivalent(&ay, 1e-9).unwrap());
        prop_assert!(bx.semantically_equivalent(&by, 1e-9).unwrap());
    }
}
