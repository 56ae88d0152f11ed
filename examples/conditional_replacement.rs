//! The conditional-replacement example of slide 15: "replace C by D if B is
//! present, with confidence 0.9", showing how deletions duplicate nodes and
//! how the apply pipeline's `SimplifyPolicy` keeps documents small — inline,
//! where the duplication is created.
//!
//! Run with `cargo run --example conditional_replacement`.

use pxml::prelude::*;

fn print_document(title: &str, doc: &FuzzyTree) {
    println!("== {title} ==");
    for node in doc.tree().nodes() {
        let indent = "  ".repeat(doc.tree().depth(node));
        let condition = doc.condition(node);
        let annotation = if condition.is_empty() {
            String::new()
        } else {
            format!("   [{}]", condition.display(doc.events()))
        };
        println!("  {indent}{}{annotation}", doc.tree().label(node));
    }
    println!("{}", doc.events());
}

/// The input document: A(B[w1], C[w2]) with P(w1)=0.8, P(w2)=0.7.
fn slide15_document() -> FuzzyTree {
    let mut doc = FuzzyTree::new("A");
    let w1 = doc.add_event("w1", 0.8).expect("fresh event");
    let w2 = doc.add_event("w2", 0.7).expect("fresh event");
    let root = doc.root();
    let b = doc.add_element(root, "B");
    doc.set_condition(b, Condition::from_literal(Literal::pos(w1)))
        .expect("not root");
    let c = doc.add_element(root, "C");
    doc.set_condition(c, Condition::from_literal(Literal::pos(w2)))
        .expect("not root");
    doc
}

/// The probabilistic replacement: where A has children B and C, delete C and
/// insert D, with the given confidence.
fn replacement(confidence: f64) -> UpdateTransaction {
    let pattern = Pattern::parse("/A { B, C }").expect("valid query");
    let ids: Vec<_> = pattern.node_ids().collect();
    UpdateTransaction::new(pattern, confidence)
        .expect("valid confidence")
        .with_insert(ids[0], parse_data_tree("<D/>").expect("valid XML"))
        .with_delete(ids[2])
}

fn main() {
    let mut doc = slide15_document();
    print_document("Before the update", &doc);

    // The slide-15 replacement, applied through the raw pipeline so the
    // duplication it creates stays visible.
    let stats = replacement(0.9)
        .apply_to_fuzzy(&mut doc)
        .expect("update applies");
    println!(
        "applied: {} match(es), {} node(s) inserted, {} duplicated, {} removed\n",
        stats.applied_matches, stats.inserted_nodes, stats.duplicated_nodes, stats.removed_nodes
    );
    print_document("After the conditional replacement (slide 15)", &doc);

    // Chain more low-confidence replacements to show the growth the paper
    // warns about — once without any simplification, once with the pipeline's
    // inline policy.
    let chained = 3;
    let mut raw = doc.clone();
    let mut inline = doc.clone();
    println!("chained low-confidence deletions, SimplifyPolicy::Never vs Inline:");
    for round in 0..chained {
        let delete_c = {
            let pattern = Pattern::parse("/A { B, C }").expect("valid query");
            let ids: Vec<_> = pattern.node_ids().collect();
            UpdateTransaction::new(pattern, 0.5)
                .expect("valid confidence")
                .with_delete(ids[2])
        };
        delete_c
            .apply_to_fuzzy_with(&mut raw, SimplifyPolicy::Never)
            .expect("update applies");
        delete_c
            .apply_to_fuzzy_with(&mut inline, SimplifyPolicy::Inline)
            .expect("update applies");
        println!(
            "  round #{round}: never  → {:>3} nodes, {:>3} literals, {:>2} events   inline → {:>3} nodes, {:>3} literals, {:>2} events",
            raw.node_count(),
            raw.condition_literal_count(),
            raw.event_count(),
            inline.node_count(),
            inline.condition_literal_count(),
            inline.event_count()
        );
    }

    // A final explicit pass over the raw document shows what the bolted-on
    // approach wins back afterwards.
    let before = (
        raw.node_count(),
        raw.condition_literal_count(),
        raw.event_count(),
    );
    let report = Simplifier::new()
        .run(&mut raw)
        .expect("simplification succeeds");
    println!(
        "\npost-hoc simplification of the Never document: {:?}\n  {} → {} nodes, {} → {} literals, {} → {} events",
        report,
        before.0,
        raw.node_count(),
        before.1,
        raw.condition_literal_count(),
        before.2,
        raw.event_count()
    );
    print_document("Inline-simplified document", &inline);
}
