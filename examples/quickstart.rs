//! Quickstart: build the paper's running example, query it, then store it in
//! a warehouse and commit an update to it.
//!
//! Run with `cargo run --example quickstart`.

use pxml::prelude::*;

fn main() {
    // -----------------------------------------------------------------------
    // 1. The model layer: the slide-12 fuzzy tree A(B[w1 ∧ ¬w2], C, D[w2]).
    // -----------------------------------------------------------------------
    let mut doc = FuzzyTree::new("A");
    let w1 = doc.add_event("w1", 0.8).expect("fresh event");
    let w2 = doc.add_event("w2", 0.7).expect("fresh event");
    let root = doc.root();
    let b = doc.add_element(root, "B");
    doc.set_condition(
        b,
        Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
    )
    .expect("B is not the root");
    doc.add_element(root, "C");
    let d = doc.add_element(root, "D");
    doc.set_condition(d, Condition::from_literal(Literal::pos(w2)))
        .expect("D is not the root");

    println!("== The fuzzy tree ==");
    println!("{}", doc.tree());
    println!("{}", doc.events());

    // -----------------------------------------------------------------------
    // 2. Possible-worlds semantics: the three worlds of the paper.
    // -----------------------------------------------------------------------
    println!("== Possible worlds ==");
    let worlds = doc
        .to_possible_worlds()
        .expect("few events, cheap expansion");
    for (tree, probability) in worlds.iter() {
        println!("  P = {probability:.2}   {tree}");
    }

    // -----------------------------------------------------------------------
    // 3. Tree-pattern queries with probabilities.
    // -----------------------------------------------------------------------
    println!("\n== Queries ==");
    for text in ["A { B }", "A { D }", "A { B, D }"] {
        let query = Pattern::parse(text).expect("valid query syntax");
        let probability = doc.selection_probability(&query);
        println!("  P({text})  =  {probability:.3}");
    }

    // -----------------------------------------------------------------------
    // 4. The warehouse: persist the document, then commit a probabilistic
    //    update — insert E below A when D is present, with confidence 0.9.
    // -----------------------------------------------------------------------
    let storage =
        std::env::temp_dir().join(format!("pxml-quickstart-example-{}", std::process::id()));
    let warehouse =
        Warehouse::with_config(&storage, SessionConfig::default()).expect("warehouse opens");
    warehouse
        .create_fuzzy_document("slide12", doc.clone())
        .expect("document created");

    let pattern = Pattern::parse("A { D }").expect("valid query syntax");
    let target = pattern.root();
    let update = UpdateTransaction::new(pattern, 0.9)
        .expect("valid confidence")
        .with_insert(
            target,
            parse_data_tree("<E>found-it</E>").expect("valid XML"),
        );
    let receipt = warehouse
        .commit_batch("slide12", std::slice::from_ref(&update), None)
        .expect("commit succeeds");

    println!("\n== After inserting E (confidence 0.9, when D present) ==");
    let stats = &receipt.updates[0];
    println!(
        "  matches: {}, inserted nodes: {}",
        stats.match_count, stats.inserted_nodes
    );
    let updated = warehouse.document("slide12").expect("document exists");
    println!("  {}", updated.tree());
    let e_query = Pattern::parse("A { E }").expect("valid query syntax");
    println!(
        "  P(A has an E child) = {:.3}",
        updated.selection_probability(&e_query)
    );

    // -----------------------------------------------------------------------
    // 5. The two semantics agree (the commutation theorems): committing the
    //    update equals updating every possible world.
    // -----------------------------------------------------------------------
    let via_worlds = doc.to_possible_worlds().expect("expansion").update(&update);
    let via_fuzzy = updated.to_possible_worlds().expect("expansion");
    println!(
        "\nupdate/semantics diagram commutes: {}",
        via_worlds.equivalent(&via_fuzzy, 1e-9)
    );

    drop(warehouse);
    let _ = std::fs::remove_dir_all(&storage);
}
