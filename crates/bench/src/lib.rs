//! Shared workload builders for the experiment harness.
//!
//! Every experiment that needs a generated input (E2–E10 and E13, described
//! in the doc comments of `src/bin/harness.rs`) gets it from here, seeded
//! with [`BENCH_SEED`] so a table is reproducible run to run.

use pxml_core::{FuzzyTree, Update, UpdateTransaction};
use pxml_event::{Condition, EventId, Literal};
use pxml_gen::{
    derived_query, random_fuzzy_tree, random_tree, random_update, FuzzyGenConfig, QueryGenConfig,
    TreeGenConfig, UpdateGenConfig,
};
use pxml_query::{PNodeId, Pattern};
use pxml_tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed seed used by every benchmark workload (reproducibility).
pub const BENCH_SEED: u64 = 0x5eed_cafe;

/// A random plain document with roughly `elements` element nodes.
pub fn document(elements: usize, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    random_tree(&mut rng, &TreeGenConfig::sized(elements))
}

/// A random fuzzy document with roughly `elements` element nodes and
/// `events` probabilistic events.
pub fn fuzzy_document(elements: usize, events: usize, seed: u64) -> FuzzyTree {
    let mut rng = StdRng::seed_from_u64(seed);
    random_fuzzy_tree(&mut rng, &FuzzyGenConfig::sized(elements, events))
}

/// A query derived from `tree` (guaranteed to match) with the given number of
/// pattern nodes.
pub fn query_for(tree: &Tree, pattern_nodes: usize, seed: u64) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    derived_query(
        &mut rng,
        tree,
        &QueryGenConfig {
            pattern_nodes,
            descendant_probability: 0.3,
            value_probability: 0.2,
            join_probability: 0.1,
            wildcard_probability: 0.1,
        },
    )
}

/// A random probabilistic update derived from `tree`.
pub fn update_for(tree: &Tree, seed: u64) -> UpdateTransaction {
    let mut rng = StdRng::seed_from_u64(seed);
    random_update(&mut rng, tree, &UpdateGenConfig::default())
}

/// An insert-only probabilistic update derived from `tree` (used by E4 where
/// the paper notes that insertions are the easy case).
pub fn insert_update_for(tree: &Tree, seed: u64) -> UpdateTransaction {
    let mut rng = StdRng::seed_from_u64(seed);
    random_update(
        &mut rng,
        tree,
        &UpdateGenConfig {
            insert_probability: 1.0,
            delete_probability: 0.0,
            ..UpdateGenConfig::default()
        },
    )
}

/// The slide-12 example document.
pub fn slide12() -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("A");
    let w1 = fuzzy.add_event("w1", 0.8).expect("fresh table");
    let w2 = fuzzy.add_event("w2", 0.7).expect("fresh table");
    let root = fuzzy.root();
    let b = fuzzy.add_element(root, "B");
    fuzzy
        .set_condition(
            b,
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
        )
        .expect("not the root");
    fuzzy.add_element(root, "C");
    let d = fuzzy.add_element(root, "D");
    fuzzy
        .set_condition(d, Condition::from_literal(Literal::pos(w2)))
        .expect("not the root");
    fuzzy
}

/// The document used by the deletion-growth experiment (E5): a root with
/// `rounds` independent uncertain `B_k` children and a single `C` child.
pub fn deletion_growth_document(rounds: usize) -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("A");
    let root = fuzzy.root();
    for k in 1..=rounds {
        let event = fuzzy
            .add_event(format!("x{k}"), 0.5)
            .expect("fresh event names");
        let b = fuzzy.add_element(root, format!("B{k}"));
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(event)))
            .expect("not the root");
    }
    fuzzy.add_element(root, "C");
    fuzzy
}

/// The `k`-th chained conditional deletion of the growth experiment.
pub fn deletion_growth_step(k: usize) -> UpdateTransaction {
    let pattern = Pattern::parse(&format!("/A {{ B{k}, C }}")).expect("static query");
    let ids: Vec<PNodeId> = pattern.node_ids().collect();
    UpdateTransaction::new(pattern, 0.5)
        .expect("valid confidence")
        .with_delete(ids[2])
}

/// The E8 data-cleaning workload: every person carries `phones` uncertain
/// phones and one uncertain email, then `rounds` cleaning transactions
/// retract the email of every person who has *a* phone (confidence 0.9).
///
/// Each retraction matches once per phone with a shared confidence event, so
/// the deletion fragments every email's survivor condition into
/// pairwise-disjoint pieces that are not pairwise mergeable — the realistic
/// shape the simplifier's group re-cover wins back (experiment E8).
pub fn cleaning_history(people: usize, phones: usize, rounds: usize) -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("directory");
    let root = fuzzy.root();
    for p in 0..people {
        let person = fuzzy.add_element(root, "person");
        let name = fuzzy.add_element(person, "name");
        fuzzy.add_text(name, format!("person-{p}"));
        for i in 0..phones {
            let w = fuzzy
                .add_event(format!("w{p}_{i}"), 0.7)
                .expect("fresh event names");
            let phone = fuzzy.add_element(person, "phone");
            fuzzy.add_text(phone, format!("+33-{p}-{i}"));
            fuzzy
                .set_condition(phone, Condition::from_literal(Literal::pos(w)))
                .expect("not the root");
        }
        let v = fuzzy
            .add_event(format!("v{p}"), 0.8)
            .expect("fresh event names");
        let email = fuzzy.add_element(person, "email");
        fuzzy.add_text(email, format!("p{p}@example.org"));
        fuzzy
            .set_condition(email, Condition::from_literal(Literal::pos(v)))
            .expect("not the root");
    }
    for _ in 0..rounds {
        let pattern = Pattern::parse("person { phone, email }").expect("static query");
        let email_node = pattern.node_ids().nth(2).expect("email is the third node");
        Update::matching(pattern)
            .delete_at(email_node)
            .with_confidence(0.9)
            .build()
            .expect("valid confidence")
            .apply_to_fuzzy(&mut fuzzy)
            .expect("update applies");
    }
    fuzzy
}

/// The E13 merged-answer workload: a root with `matches` same-body uncertain
/// `a` children whose conditions together span `events` distinct events
/// (each condition conjoins `literals_per_match` distinct literals, signs
/// mixed). The query `r { a }` then yields `matches` matches that all merge
/// into **one** answer group, so the group's probability is the exact
/// disjunction of all the conditions — the computation whose cost separates
/// the BDD engine (linear in diagram size) from Shannon expansion
/// (exponential in `events`).
pub fn merged_answer_document(
    matches: usize,
    events: usize,
    literals_per_match: usize,
    seed: u64,
) -> FuzzyTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fuzzy = FuzzyTree::new("r");
    let ids: Vec<EventId> = (0..events)
        .map(|i| {
            let probability = rand::Rng::gen_range(&mut rng, 0.05..0.95);
            fuzzy
                .add_event(format!("e{i}"), probability)
                .expect("fresh event names")
        })
        .collect();
    let root = fuzzy.root();
    for m in 0..matches {
        let node = fuzzy.add_element(root, "a");
        let literals = (0..literals_per_match).map(|j| {
            // A contiguous window of events per condition: distinct within
            // one condition, sweeping the full event set across the group —
            // the locality match conditions inherit from shared ancestor
            // chains (and what keeps the union's BDD near-linear; scattered
            // events would make the diagram itself blow up).
            let event = ids[(m + j) % events];
            if (m + j) % 3 == 0 {
                Literal::neg(event)
            } else {
                Literal::pos(event)
            }
        });
        fuzzy
            .set_condition(node, Condition::from_literals(literals))
            .expect("not the root");
    }
    fuzzy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible() {
        let a = document(100, 1);
        let b = document(100, 1);
        assert!(a.isomorphic(&b));
        let fa = fuzzy_document(50, 4, 2);
        let fb = fuzzy_document(50, 4, 2);
        assert!(fa.semantically_equivalent(&fb, 1e-12).unwrap());
    }

    #[test]
    fn derived_queries_and_updates_select_their_documents() {
        let tree = document(150, 3);
        let query = query_for(&tree, 4, 4);
        assert!(!query.find_matches(&tree).is_empty());
        let update = update_for(&tree, 5);
        assert!(!update.pattern().find_matches(&tree).is_empty());
        let insert = insert_update_for(&tree, 6);
        assert!(insert
            .operations()
            .iter()
            .all(|op| matches!(op, pxml_core::UpdateOperation::Insert { .. })));
    }

    #[test]
    fn merged_answer_document_yields_one_group_spanning_all_events() {
        let fuzzy = merged_answer_document(12, 12, 3, 7);
        let query = Pattern::parse("r { a }").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 12);
        let merged = result.merged_answers(fuzzy.events());
        assert_eq!(merged.len(), 1, "same-body matches must merge");
        let mentioned: std::collections::BTreeSet<_> = result
            .matches
            .iter()
            .flat_map(|m| m.condition.events())
            .collect();
        assert_eq!(mentioned.len(), 12, "the group must span every event");
        assert!(merged[0].1 > 0.0 && merged[0].1 <= 1.0);
    }

    #[test]
    fn growth_workload_doubles_copies() {
        let mut fuzzy = deletion_growth_document(3);
        for k in 1..=3 {
            deletion_growth_step(k).apply_to_fuzzy(&mut fuzzy).unwrap();
        }
        assert_eq!(fuzzy.tree().find_elements("C").len(), 8);
    }
}
