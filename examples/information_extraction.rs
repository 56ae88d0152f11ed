//! Managing imprecise information-extraction output — the motivating use
//! case of the paper's introduction — in a warehouse.
//!
//! Several extraction modules report facts about people with confidence
//! values; each module's facts are committed as one atomic batch. Queries
//! return answers with probabilities, and contradictory evidence (a
//! data-cleaning pass) is handled by probabilistic deletion.
//!
//! Run with `cargo run --example information_extraction`.

use pxml::prelude::*;

/// One extracted fact: who, what, the value, and the extractor's confidence.
struct ExtractedFact {
    person: &'static str,
    field: &'static str,
    value: &'static str,
    confidence: f64,
}

fn insert_fact(fact: &ExtractedFact) -> UpdateTransaction {
    let pattern =
        Pattern::parse(&format!("person {{ name[=\"{}\"] }}", fact.person)).expect("valid query");
    let person = pattern.root();
    let mut subtree = Tree::new(fact.field);
    subtree.add_text(subtree.root(), fact.value);
    UpdateTransaction::new(pattern, fact.confidence)
        .expect("valid confidence")
        .with_insert(person, subtree)
}

fn main() {
    let storage =
        std::env::temp_dir().join(format!("pxml-extraction-example-{}", std::process::id()));
    let warehouse =
        Warehouse::with_config(&storage, SessionConfig::default()).expect("warehouse opens");

    // The initial directory holds two people whose names are certain
    // (human-curated seed data).
    warehouse
        .create_document(
            "directory",
            parse_data_tree(
                "<directory>\
                   <person><name>ada-lovelace</name></person>\
                   <person><name>alan-turing</name></person>\
                 </directory>",
            )
            .expect("valid XML"),
        )
        .expect("document created");

    // Streams of extracted facts with heterogeneous confidences: a precise
    // web extractor, a noisier NLP pipeline, and an OCR pass. Each module's
    // output is one batch.
    let modules: &[(&str, &[ExtractedFact])] = &[
        (
            "web-extractor",
            &[
                ExtractedFact {
                    person: "alan-turing",
                    field: "affiliation",
                    value: "bletchley-park",
                    confidence: 0.95,
                },
                ExtractedFact {
                    person: "ada-lovelace",
                    field: "affiliation",
                    value: "analytical-engine-society",
                    confidence: 0.7,
                },
            ],
        ),
        (
            "nlp-pipeline",
            &[ExtractedFact {
                person: "alan-turing",
                field: "email",
                value: "turing@npl.example",
                confidence: 0.55,
            }],
        ),
        (
            "ocr",
            &[
                ExtractedFact {
                    person: "ada-lovelace",
                    field: "birth-year",
                    value: "1815",
                    confidence: 0.9,
                },
                ExtractedFact {
                    person: "ada-lovelace",
                    field: "birth-year",
                    value: "1816",
                    confidence: 0.4,
                },
            ],
        ),
    ];

    println!("== Ingesting extracted facts (one batch per module) ==");
    for (module, facts) in modules {
        let mut batch = Vec::new();
        for fact in *facts {
            batch.push(insert_fact(fact));
            println!(
                "  [{module:<13}] {}/{} = {:<28} confidence {:.2}",
                fact.person, fact.field, fact.value, fact.confidence
            );
        }
        let receipt = warehouse
            .commit_batch("directory", &batch, None)
            .expect("commit succeeds");
        println!(
            "  [{module:<13}] committed {} update(s) atomically\n",
            receipt.len()
        );
    }

    // Query the directory: per-answer probabilities.
    println!("== What do we believe about birth years? ==");
    let query = Pattern::parse("person { name, birth-year }").expect("valid query");
    let birth_year_node = query
        .node_ids()
        .nth(2)
        .expect("birth-year is the third node");
    let snapshot = warehouse.snapshot("directory").expect("document exists");
    let result = snapshot.fuzzy().query(&query);
    for answer in &result.matches {
        let original = answer.matching.image(birth_year_node);
        let year = snapshot
            .fuzzy()
            .tree()
            .node_value(original)
            .unwrap_or_default();
        println!(
            "  birth-year answer (value {year:?}) holds with probability {:.3}",
            answer.probability
        );
    }

    // A data-cleaning module decides the low-confidence e-mail was spurious
    // and retracts it with confidence 0.8.
    println!("\n== Data cleaning: retract alan-turing's e-mail (confidence 0.8) ==");
    let retract_pattern =
        Pattern::parse("person { name[=\"alan-turing\"], email }").expect("valid query");
    let email_node = retract_pattern
        .node_ids()
        .nth(2)
        .expect("email is the third node");
    let retract = UpdateTransaction::new(retract_pattern, 0.8)
        .expect("valid confidence")
        .with_delete(email_node);
    warehouse
        .commit_batch("directory", &[retract], None)
        .expect("commit succeeds");

    let email_query = Pattern::parse("person { email }").expect("valid query");
    let email_result = warehouse
        .query("directory", &email_query)
        .expect("query runs");
    let still_there: f64 = email_result
        .matches
        .iter()
        .map(|m| m.probability)
        .fold(0.0_f64, f64::max);
    println!("  P(the directory still records an e-mail) = {still_there:.3}");

    // Housekeeping already happened inline (the default SimplifyPolicy), so
    // an explicit pass has little left to do.
    let report = warehouse
        .simplify("directory")
        .expect("simplification succeeds");
    println!(
        "\nexplicit simplification after inline maintenance: {} node(s) merged, {} event(s) dropped",
        report.merged_nodes, report.removed_events
    );

    println!("\n== Final document ==");
    println!(
        "{}",
        pxml::store::serialize_fuzzy_document(
            warehouse
                .snapshot("directory")
                .expect("document exists")
                .fuzzy(),
            true
        )
    );

    drop(warehouse);
    let _ = std::fs::remove_dir_all(&storage);
}
