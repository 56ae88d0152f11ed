//! Cross-cutting integration tests exercised through the `pxml` facade:
//! query-syntax round trips, PrXML persistence through the document store,
//! and end-to-end flows that touch several crates at once.

use pxml::prelude::*;
use pxml::store::{parse_update, serialize_fuzzy_document, serialize_update, StorageBackend};

#[test]
fn query_syntax_round_trips_for_representative_patterns() {
    let cases = [
        "A",
        "*",
        "/A { B, C }",
        "book { author, title }",
        "person { name[=\"alice\"], //phone }",
        "A { B[$x], C { D[$x] } }",
        "* { //leaf[=\"v\"], other }",
    ];
    for text in cases {
        let parsed = Pattern::parse(text).unwrap();
        let rendered = parsed.to_string();
        let reparsed = Pattern::parse(&rendered).unwrap();
        assert_eq!(
            rendered,
            reparsed.to_string(),
            "rendering of {text} must be a fixpoint"
        );
        assert_eq!(parsed.len(), reparsed.len());
        assert_eq!(parsed.is_anchored(), reparsed.is_anchored());
        assert_eq!(parsed.join_count(), reparsed.join_count());
    }
}

#[test]
fn update_transactions_round_trip_through_their_textual_form() {
    let pattern = Pattern::parse("person { name[=\"bob\"] }").unwrap();
    let target = pattern.root();
    let original = UpdateTransaction::new(pattern, 0.65)
        .unwrap()
        .with_insert(target, parse_data_tree("<city>paris</city>").unwrap())
        .with_delete(target);
    let text = serialize_update(&original, true);
    let reparsed = parse_update(&text).unwrap();

    // Same observable behaviour on a document.
    let document =
        parse_data_tree("<directory><person><name>bob</name><old/></person></directory>").unwrap();
    let mut a = FuzzyTree::from_tree(document.clone());
    let mut b = FuzzyTree::from_tree(document);
    original.apply_to_fuzzy(&mut a).unwrap();
    reparsed.apply_to_fuzzy(&mut b).unwrap();
    assert!(a.semantically_equivalent(&b, 1e-9).unwrap());
}

#[test]
fn store_persists_query_results_across_process_boundaries() {
    let dir = std::env::temp_dir().join(format!("pxml-facade-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FsBackend::open(&dir).unwrap();

    // Build an uncertain document, save it, reload it, and check that a
    // query sees the same probabilities.
    let mut doc = FuzzyTree::new("library");
    let scanned = doc.add_event("scan-ok", 0.85).unwrap();
    let book = doc.add_element(doc.root(), "book");
    let title = doc.add_element(book, "title");
    doc.add_text(title, "On Computable Numbers");
    let year = doc.add_element(book, "year");
    let year_text = doc.add_text(year, "1936");
    doc.set_condition(year, Condition::from_literal(Literal::pos(scanned)))
        .unwrap();
    doc.set_condition(year_text, Condition::always()).unwrap();

    store.save_document("library", &doc).unwrap();
    let reloaded = store.load_document("library").unwrap();
    let query = Pattern::parse("book { title, year }").unwrap();
    let before = doc.query(&query);
    let after = reloaded.query(&query);
    assert_eq!(before.len(), after.len());
    assert!((before.matches[0].probability - 0.85).abs() < 1e-12);
    assert!((after.matches[0].probability - 0.85).abs() < 1e-12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn selection_probability_is_monotone_under_evidence() {
    // Adding an independent second uncertain copy of a fact can only increase
    // the probability that the fact is present.
    let mut doc = FuzzyTree::new("person");
    let first = doc.add_event("first-source", 0.5).unwrap();
    let phone_a = doc.add_element(doc.root(), "phone");
    doc.set_condition(phone_a, Condition::from_literal(Literal::pos(first)))
        .unwrap();
    let query = Pattern::parse("person { phone }").unwrap();
    let single = doc.selection_probability(&query);

    let second = doc.add_event("second-source", 0.5).unwrap();
    let phone_b = doc.add_element(doc.root(), "phone");
    doc.set_condition(phone_b, Condition::from_literal(Literal::pos(second)))
        .unwrap();
    let both = doc.selection_probability(&query);
    assert!(both > single);
    assert!((both - 0.75).abs() < 1e-12);
}

#[test]
fn updates_compose_with_queries_through_the_facade() {
    // Ingest → update → query → expand: every layer of the stack in one flow.
    let mut doc = FuzzyTree::from_tree(
        parse_data_tree("<catalog><item><sku>x-1</sku></item></catalog>").unwrap(),
    );
    let pattern = Pattern::parse("item { sku[=\"x-1\"] }").unwrap();
    let target = pattern.root();
    let update = UpdateTransaction::new(pattern, 0.75)
        .unwrap()
        .with_insert(target, parse_data_tree("<price>42</price>").unwrap());
    update.apply_to_fuzzy(&mut doc).unwrap();

    let query = Pattern::parse("item { price }").unwrap();
    assert!((doc.selection_probability(&query) - 0.75).abs() < 1e-12);

    let worlds = doc.to_possible_worlds().unwrap();
    assert_eq!(worlds.len(), 2);
    let priced = worlds.probability_that(|t| !t.find_elements("price").is_empty());
    assert!((priced - 0.75).abs() < 1e-12);
}

/// An uncertain child of `parent` under one fresh event.
fn uncertain_child(fuzzy: &mut FuzzyTree, parent: NodeId, label: &str, probability: f64) {
    let event = fuzzy.fresh_event(probability).unwrap();
    let node = fuzzy.add_element(parent, label);
    fuzzy
        .set_condition(node, Condition::from_literal(Literal::pos(event)))
        .unwrap();
}

/// Retracts `person`'s `item` "when the person has a phone" (the E8 shape):
/// one match per phone under a shared confidence event.
fn retract(fuzzy: &mut FuzzyTree, item: &str) {
    let pattern = Pattern::parse(&format!("person {{ phone, {item} }}")).unwrap();
    let target = pattern.node_ids().nth(2).unwrap();
    UpdateTransaction::new(pattern, 0.9)
        .unwrap()
        .with_delete(target)
        .apply_to_fuzzy(fuzzy)
        .unwrap();
}

/// One person with two uncertain phones and three uncertain contact items,
/// each item retracted once: every item fragments into three same-body
/// pieces, which leaves the simplifier three groups to re-cover under one
/// parent.
fn contact_items_history() -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("person");
    let root = fuzzy.root();
    for (index, label) in ["phone", "phone", "email", "fax", "pager"]
        .into_iter()
        .enumerate()
    {
        uncertain_child(&mut fuzzy, root, label, 0.5 + 0.05 * index as f64);
    }
    for item in ["email", "fax", "pager"] {
        retract(&mut fuzzy, item);
        assert_eq!(fuzzy.tree().find_elements(item).len(), 3);
    }
    fuzzy
}

/// E8's cleaning history: ten people with three uncertain phones and an
/// uncertain email, the emails retracted twice — so the second retraction
/// deletes, in one update, thirty same-depth targets that share parents.
fn cleaning_history() -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("directory");
    for _ in 0..10 {
        let person = fuzzy.add_element(fuzzy.root(), "person");
        for label in ["phone", "phone", "phone", "email"] {
            uncertain_child(&mut fuzzy, person, label, 0.7);
        }
    }
    for _ in 0..2 {
        retract(&mut fuzzy, "email");
    }
    fuzzy
}

/// Update application and the simplifier must each be a function of their
/// input alone: recovery replays the journal through both, so a restart
/// snapshot can only be byte-identical if the copies a deletion makes land
/// in the same place, the same sibling survives a merge and the re-cover
/// hands out its terms the same way every time. Each history is therefore
/// built from scratch in every run, not cloned.
#[test]
fn simplifier_output_is_byte_identical_from_run_to_run() {
    let histories: [(fn() -> FuzzyTree, usize); 2] =
        [(contact_items_history, 3), (cleaning_history, 40)];
    for (history, merged_nodes) in histories {
        let runs: Vec<(String, String)> = (0..16)
            .map(|_| {
                let fuzzy = history();
                let mut copy = fuzzy.clone();
                let report = Simplifier::new().run(&mut copy).unwrap();
                assert_eq!(report.merged_nodes, merged_nodes, "every group ends at 2");
                // Where the worlds can be enumerated at all (the directory
                // has 42 events).
                if let Ok(equivalent) = fuzzy.semantically_equivalent(&copy, 1e-9) {
                    assert!(equivalent);
                }
                (
                    serialize_fuzzy_document(&fuzzy, false),
                    serialize_fuzzy_document(&copy, false),
                )
            })
            .collect();
        for (run, (updated, simplified)) in runs.iter().enumerate() {
            assert_eq!(
                updated, &runs[0].0,
                "run {run} diverged before simplification"
            );
            assert_eq!(
                simplified, &runs[0].1,
                "run {run} diverged after simplification"
            );
        }
    }
}
