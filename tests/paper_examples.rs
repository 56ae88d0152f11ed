//! Exact reproductions of the worked examples of the paper (experiments E1,
//! E2 and E6 of DESIGN.md).

use pxml::core::fuzzy::slide12_example;
use pxml::prelude::*;

/// The slide-9 possible-worlds example: four worlds over `A` with children
/// among `{B, C, D}` and probabilities 0.06 / 0.14 / 0.24 / 0.56.
fn slide9_worlds() -> PossibleWorlds {
    PossibleWorlds::from_worlds(vec![
        (parse_data_tree("<A><C/></A>").unwrap(), 0.06),
        (parse_data_tree("<A><C/><D/></A>").unwrap(), 0.14),
        (parse_data_tree("<A><B/><C/></A>").unwrap(), 0.24),
        (parse_data_tree("<A><B/><C/><D/></A>").unwrap(), 0.56),
    ])
    .unwrap()
}

// ---------------------------------------------------------------------------
// E1 — slide 9.
// ---------------------------------------------------------------------------

#[test]
fn e1_slide9_probabilities_form_a_distribution() {
    let worlds = slide9_worlds();
    assert_eq!(worlds.len(), 4);
    assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
}

#[test]
fn e1_slide9_marginals_are_consistent_with_independent_b_and_d() {
    let worlds = slide9_worlds();
    // In the example, P(B) = 0.8 and P(D) = 0.7 and the two are independent.
    let p_b = worlds.probability_that(|t| !t.find_elements("B").is_empty());
    let p_d = worlds.probability_that(|t| !t.find_elements("D").is_empty());
    let p_bd = worlds
        .probability_that(|t| !t.find_elements("B").is_empty() && !t.find_elements("D").is_empty());
    assert!((p_b - 0.8).abs() < 1e-12);
    assert!((p_d - 0.7).abs() < 1e-12);
    assert!((p_bd - p_b * p_d).abs() < 1e-12);
}

#[test]
fn e1_normalization_merges_isomorphic_worlds_and_preserves_mass() {
    let mut duplicated = PossibleWorlds::new();
    for (tree, p) in slide9_worlds().iter() {
        duplicated.push(tree.clone(), p / 2.0);
        duplicated.push(tree.clone(), p / 2.0);
    }
    let normalized = duplicated.normalized();
    assert_eq!(normalized.len(), 4);
    assert!(normalized.equivalent(&slide9_worlds(), 1e-12));
}

// ---------------------------------------------------------------------------
// E2 — slide 12.
// ---------------------------------------------------------------------------

#[test]
fn e2_slide12_expansion_produces_exactly_the_three_worlds() {
    let fuzzy = slide12_example();
    let worlds = fuzzy.to_possible_worlds().unwrap();
    assert_eq!(worlds.len(), 3);
    let expected = [
        ("<A><C/></A>", 0.06),
        ("<A><C/><D/></A>", 0.70),
        ("<A><B/><C/></A>", 0.24),
    ];
    for (xml, probability) in expected {
        let tree = parse_data_tree(xml).unwrap();
        assert!(
            (worlds.probability_of_tree(&tree) - probability).abs() < 1e-12,
            "world {xml} must have probability {probability}"
        );
    }
}

#[test]
fn e2_expressiveness_round_trip_from_possible_worlds() {
    // The other direction of the expressiveness theorem: encode slide 9's
    // possible worlds as a fuzzy tree and expand it back.
    let worlds = slide9_worlds();
    let encoded = encode_possible_worlds(&worlds).unwrap();
    let expanded = encoded.to_possible_worlds().unwrap();
    assert!(expanded.equivalent(&worlds, 1e-9));
}

#[test]
fn e2_queries_on_slide12_have_the_expected_probabilities() {
    let fuzzy = slide12_example();
    let cases = [
        ("A { B }", 0.24),
        ("A { D }", 0.70),
        ("A { C }", 1.0),
        ("A { B, D }", 0.0), // B and D are mutually exclusive
    ];
    for (text, expected) in cases {
        let query = Pattern::parse(text).unwrap();
        let probability = fuzzy.selection_probability(&query);
        assert!(
            (probability - expected).abs() < 1e-12,
            "query {text}: expected {expected}, got {probability}"
        );
    }
}

// ---------------------------------------------------------------------------
// E6 — slide 15: conditional replacement.
// ---------------------------------------------------------------------------

/// Builds the slide-15 input document `A(B[w1], C[w2])`.
fn slide15_input() -> (FuzzyTree, EventId, EventId) {
    let mut fuzzy = FuzzyTree::new("A");
    let w1 = fuzzy.add_event("w1", 0.8).unwrap();
    let w2 = fuzzy.add_event("w2", 0.7).unwrap();
    let root = fuzzy.root();
    let b = fuzzy.add_element(root, "B");
    fuzzy
        .set_condition(b, Condition::from_literal(Literal::pos(w1)))
        .unwrap();
    let c = fuzzy.add_element(root, "C");
    fuzzy
        .set_condition(c, Condition::from_literal(Literal::pos(w2)))
        .unwrap();
    (fuzzy, w1, w2)
}

/// "Replacement of C by D if B is present, with confidence 0.9."
fn slide15_transaction() -> UpdateTransaction {
    let pattern = Pattern::parse("/A { B, C }").unwrap();
    let ids: Vec<_> = pattern.node_ids().collect();
    UpdateTransaction::new(pattern, 0.9)
        .unwrap()
        .with_insert(ids[0], parse_data_tree("<D/>").unwrap())
        .with_delete(ids[2])
}

#[test]
fn e6_conditional_replacement_produces_the_slide15_fuzzy_tree() {
    let (mut fuzzy, w1, w2) = slide15_input();
    let stats = slide15_transaction().apply_to_fuzzy(&mut fuzzy).unwrap();
    let w3 = stats
        .confidence_event
        .expect("a 0.9-confidence update adds an event");
    assert!((fuzzy.events().probability(w3) - 0.9).abs() < 1e-12);

    // B[w1] is untouched.
    let b = fuzzy.tree().find_elements("B")[0];
    assert_eq!(
        fuzzy.condition(b),
        Condition::from_literal(Literal::pos(w1))
    );

    // C is split into C[¬w1, w2] and C[w1, w2, ¬w3].
    let mut c_conditions: Vec<Condition> = fuzzy
        .tree()
        .find_elements("C")
        .into_iter()
        .map(|c| fuzzy.condition(c))
        .collect();
    c_conditions.sort();
    let mut expected = vec![
        Condition::from_literals([Literal::neg(w1), Literal::pos(w2)]),
        Condition::from_literals([Literal::pos(w1), Literal::pos(w2), Literal::neg(w3)]),
    ];
    expected.sort();
    assert_eq!(c_conditions, expected);

    // D[w1, w2, w3] is inserted.
    let d = fuzzy.tree().find_elements("D")[0];
    assert_eq!(
        fuzzy.condition(d),
        Condition::from_literals([Literal::pos(w1), Literal::pos(w2), Literal::pos(w3)])
    );
}

#[test]
fn e6_replacement_semantics_match_the_possible_worlds_definition() {
    let (fuzzy, _, _) = slide15_input();
    let transaction = slide15_transaction();
    let via_worlds = fuzzy.to_possible_worlds().unwrap().update(&transaction);
    let mut updated = fuzzy.clone();
    transaction.apply_to_fuzzy(&mut updated).unwrap();
    assert!(via_worlds.equivalent(&updated.to_possible_worlds().unwrap(), 1e-9));
}

#[test]
fn e6_replacement_probabilities_are_the_expected_marginals() {
    let (mut fuzzy, _, _) = slide15_input();
    slide15_transaction().apply_to_fuzzy(&mut fuzzy).unwrap();
    // D is present iff B present (0.8) ∧ C present (0.7) ∧ update applied (0.9).
    let d_query = Pattern::parse("A { D }").unwrap();
    assert!((fuzzy.selection_probability(&d_query) - 0.8 * 0.7 * 0.9).abs() < 1e-12);
    // C survives iff it existed and the deletion did not fire:
    // P(w2) − P(w1 ∧ w2 ∧ w3) = 0.7 − 0.504.
    let c_query = Pattern::parse("A { C }").unwrap();
    assert!((fuzzy.selection_probability(&c_query) - (0.7 - 0.504)).abs() < 1e-12);
}
