//! The full warehouse architecture of slide 3: simulated imprecise modules
//! push probabilistic updates in atomically committed batches, a user runs
//! tree-pattern queries, the warehouse simplifies inline and checkpoints
//! itself, and the state survives a restart.
//!
//! Run with `cargo run --example warehouse_pipeline`.

use pxml::gen::scenarios::{people_directory, PeopleScenarioConfig};
use pxml::prelude::*;
use pxml::warehouse::{run_modules, DataCleaningModule, ExtractionModule, SourceModule};

fn main() {
    let storage =
        std::env::temp_dir().join(format!("pxml-warehouse-example-{}", std::process::id()));
    let people = 12;

    // -----------------------------------------------------------------------
    // 1. Open the warehouse and load the seed directory.
    // -----------------------------------------------------------------------
    let warehouse = Warehouse::with_config(
        &storage,
        SessionConfig {
            simplify: SimplifyPolicy::Inline,
            compaction: CompactionPolicy::EveryNBatches(16),
            ..SessionConfig::default()
        },
    )
    .expect("warehouse opens");
    let scenario = PeopleScenarioConfig {
        people,
        ..PeopleScenarioConfig::default()
    };
    warehouse
        .create_document("people", people_directory(&scenario))
        .expect("document created");
    println!(
        "warehouse storage: {}",
        warehouse
            .storage_root()
            .expect("the default backend is file-backed")
            .display()
    );

    // -----------------------------------------------------------------------
    // 2. Three imprecise modules feed the document (slide 3's Module 1..3);
    //    each round-robin round commits one batch.
    // -----------------------------------------------------------------------
    let mut modules: Vec<Box<dyn SourceModule>> = vec![
        Box::new(ExtractionModule::new("web-extractor", 1, people, 40, 0.9)),
        Box::new(ExtractionModule::new("nlp-pipeline", 2, people, 40, 0.6)),
        Box::new(DataCleaningModule::new("data-cleaning", 3, people, 20)),
    ];
    let pushed = run_modules(&warehouse, "people", &mut modules).expect("modules run");
    println!("\n== Updates pushed by the modules ==");
    for (module, count) in &pushed {
        println!("  {module:<15} {count} update transaction(s)");
    }

    // -----------------------------------------------------------------------
    // 3. The query interface: results + confidence.
    // -----------------------------------------------------------------------
    println!("\n== Queries ==");
    for text in [
        "person { phone }",
        "person { email }",
        "person { name, city }",
    ] {
        let query = Pattern::parse(text).expect("valid query");
        let result = warehouse.query("people", &query).expect("query runs");
        let best = result
            .matches
            .iter()
            .map(|m| m.probability)
            .fold(0.0_f64, f64::max);
        println!(
            "  {text:<24} {} probabilistic answer(s), best confidence {:.3}",
            result.len(),
            best
        );
    }

    // -----------------------------------------------------------------------
    // 4. Maintenance and persistence. Inline simplification already ran at
    //    every commit; an explicit pass checkpoints on top.
    // -----------------------------------------------------------------------
    let snapshot = warehouse.document("people").expect("document exists");
    println!("\n== Document health ==");
    println!("  nodes: {}", snapshot.node_count());
    println!("  events: {}", snapshot.event_count());
    println!(
        "  condition literals: {}",
        snapshot.condition_literal_count()
    );
    let report = warehouse
        .simplify("people")
        .expect("simplification succeeds");
    let after = warehouse.document("people").expect("document exists");
    println!(
        "  after explicit simplification: {} nodes, {} events, {} literals ({} passes)",
        after.node_count(),
        after.event_count(),
        after.condition_literal_count(),
        report.passes
    );
    println!("  warehouse stats: {:?}", warehouse.stats());

    // -----------------------------------------------------------------------
    // 5. Restart: recover from the checkpoint + journal.
    // -----------------------------------------------------------------------
    drop(warehouse);
    let reopened = Warehouse::with_config(&storage, SessionConfig::default()).expect("reopens");
    let phones = Pattern::parse("person { phone }").expect("valid query");
    println!(
        "\nafter restart, {} phone answer(s) are still there",
        reopened
            .query("people", &phones)
            .expect("document recovered")
            .len()
    );

    // Clean up the scratch directory so repeated runs start fresh.
    drop(reopened);
    let _ = std::fs::remove_dir_all(&storage);
}
