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

/// The simplifier's output must be a function of its input alone: recovery
/// replays the journal through it, so a restart snapshot can only be
/// byte-identical if the same sibling survives and the re-cover's duplicates
/// are grafted in the same place every time. One person carries two
/// uncertain phones and three uncertain contact items; retracting each item
/// "when the person has a phone" fragments it into three same-body pieces
/// (the E8 shape), which leaves the group re-cover three groups to rebuild
/// under one parent — in hash-map order, before it grouped by sorting.
#[test]
fn simplifier_output_is_byte_identical_from_run_to_run() {
    let mut fuzzy = FuzzyTree::new("person");
    let root = fuzzy.root();
    for (index, label) in ["phone", "phone", "email", "fax", "pager"]
        .into_iter()
        .enumerate()
    {
        let event = fuzzy
            .add_event(format!("w{index}"), 0.5 + 0.05 * index as f64)
            .unwrap();
        let node = fuzzy.add_element(root, label);
        fuzzy
            .set_condition(node, Condition::from_literal(Literal::pos(event)))
            .unwrap();
    }
    for item in ["email", "fax", "pager"] {
        let pattern = Pattern::parse(&format!("person {{ phone, {item} }}")).unwrap();
        let target = pattern.node_ids().nth(2).unwrap();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_delete(target)
            .apply_to_fuzzy(&mut fuzzy)
            .unwrap();
        assert_eq!(fuzzy.tree().find_elements(item).len(), 3);
    }

    let simplified: Vec<String> = (0..16)
        .map(|_| {
            let mut copy = fuzzy.clone();
            let report = Simplifier::new().run(&mut copy).unwrap();
            assert_eq!(report.merged_nodes, 3, "each group re-covers 3 -> 2");
            assert!(fuzzy.semantically_equivalent(&copy, 1e-9).unwrap());
            serialize_fuzzy_document(&copy, false)
        })
        .collect();
    for (run, document) in simplified.iter().enumerate() {
        assert_eq!(document, &simplified[0], "run {run} diverged from run 0");
    }
}
