//! End-to-end test of the probabilistic XML warehouse: imprecise modules
//! push probabilistic updates in committed batches, users query with TPWJ
//! patterns, the store persists everything and recovers after a "crash"
//! (re-open without checkpointing).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pxml::gen::scenarios::{people_directory, PeopleScenarioConfig};
use pxml::prelude::*;
use pxml::warehouse::{run_modules, DataCleaningModule, ExtractionModule, SourceModule};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-e2e-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

/// No compaction: journals hold exactly what was committed.
fn plain_config() -> SessionConfig {
    SessionConfig {
        compaction: CompactionPolicy::Never,
        ..SessionConfig::default()
    }
}

fn scenario_config(people: usize) -> PeopleScenarioConfig {
    PeopleScenarioConfig {
        people,
        ..PeopleScenarioConfig::default()
    }
}

#[test]
fn warehouse_pipeline_queries_reflect_module_confidences() {
    let dir = scratch("pipeline");
    let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
    let people = 10;
    warehouse
        .create_document("people", people_directory(&scenario_config(people)))
        .unwrap();

    // Three modules of different quality feed the warehouse.
    let mut modules: Vec<Box<dyn SourceModule>> = vec![
        Box::new(ExtractionModule::new("ie-web", 101, people, 25, 0.95)),
        Box::new(ExtractionModule::new("nlp-mail", 102, people, 25, 0.6)),
        Box::new(DataCleaningModule::new("cleaning", 103, people, 15)),
    ];
    let pushed = run_modules(&warehouse, "people", &mut modules).unwrap();
    let total_updates: usize = pushed.iter().map(|(_, count)| count).sum();
    assert!(total_updates > 20, "modules must actually push updates");
    assert_eq!(warehouse.stats().updates_applied, total_updates);

    // Every extracted fact is uncertain: probabilities are in (0, 1].
    let snapshot = warehouse.snapshot("people").unwrap();
    assert!(snapshot.fuzzy().validate().is_ok());
    for query_text in ["person { phone }", "person { email }", "person { city }"] {
        let query = Pattern::parse(query_text).unwrap();
        let result = warehouse.query("people", &query).unwrap();
        for m in &result.matches {
            assert!(m.probability > 0.0 && m.probability <= 1.0, "{query_text}");
        }
    }

    // Certain data (the names loaded at creation time) stays certain.
    let names = warehouse
        .query("people", &Pattern::parse("person { name }").unwrap())
        .unwrap();
    assert_eq!(names.len(), people);
    for m in &names.matches {
        assert!((m.probability - 1.0).abs() < 1e-12);
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn warehouse_state_survives_crash_and_restart() {
    let dir = scratch("crash");
    let people = 6;
    let expected_phone_probability;
    {
        // No checkpointing: everything after creation lives in the journal.
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse
            .create_document("people", people_directory(&scenario_config(people)))
            .unwrap();
        let pattern = Pattern::parse("person { name[=\"alice-0\"] }").unwrap();
        let target = pattern.root();
        let phone = UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
            target,
            parse_data_tree("<phone>+33-1-1111-2222</phone>").unwrap(),
        );
        warehouse.commit_batch("people", &[phone], None).unwrap();
        let query = Pattern::parse("person { phone }").unwrap();
        let result = warehouse.query("people", &query).unwrap();
        assert_eq!(result.len(), 1);
        expected_phone_probability = result.matches[0].probability;
        // The warehouse is dropped here without any checkpoint: the on-disk
        // state is the initial document plus the journal.
    }

    let recovered = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
    let query = Pattern::parse("person { phone }").unwrap();
    let result = recovered.query("people", &query).unwrap();
    assert_eq!(result.len(), 1);
    assert!((result.matches[0].probability - expected_phone_probability).abs() < 1e-12);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn recovered_state_is_semantically_identical_to_the_in_memory_one() {
    let dir = scratch("equivalence");
    let people = 5;
    let config = scenario_config(people);
    // The default configuration, inline simplification included: replay
    // simplifies where the live commits did, so the reopened document is the
    // live one byte for byte, not merely an equivalent one.
    let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
    warehouse
        .create_document("people", people_directory(&config))
        .unwrap();
    let mut modules: Vec<Box<dyn SourceModule>> = vec![
        Box::new(ExtractionModule::new("ie", 7, people, 10, 0.8)),
        Box::new(DataCleaningModule::new("clean", 8, people, 6)),
    ];
    run_modules(&warehouse, "people", &mut modules).unwrap();
    let live = warehouse.document("people").unwrap();

    // Re-open from disk (checkpoint + journal replay) and compare.
    let reopened = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
    let recovered = reopened.document("people").unwrap();
    assert_eq!(
        pxml::store::serialize_fuzzy_document(&live, false),
        pxml::store::serialize_fuzzy_document(&recovered, false)
    );
    assert_eq!(live.node_count(), recovered.node_count());
    assert_eq!(live.event_count(), recovered.event_count());
    assert_eq!(
        live.condition_literal_count(),
        recovered.condition_literal_count()
    );
    // Spot-check a query rather than full expansion (the document can carry
    // dozens of events after a module run).
    for text in ["person { phone }", "person { email }", "person { city }"] {
        let query = Pattern::parse(text).unwrap();
        let a = warehouse.query("people", &query).unwrap();
        let b = reopened.query("people", &query).unwrap();
        assert_eq!(a.len(), b.len(), "{text}");
        let mut pa: Vec<f64> = a.matches.iter().map(|m| m.probability).collect();
        let mut pb: Vec<f64> = b.matches.iter().map(|m| m.probability).collect();
        pa.sort_by(f64::total_cmp);
        pb.sort_by(f64::total_cmp);
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert!((x - y).abs() < 1e-9, "{text}");
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The published document is the simplified one: against the raw reference
/// replay of the same journal (every update applied, nothing simplified) it
/// may hold fewer phone copies, but the probability that a person has a phone
/// is the same, and it carries no more literals or events.
#[test]
fn simplification_keeps_warehouse_queries_stable() {
    let dir = scratch("simplify-stable");
    let people = 5;
    let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
    warehouse
        .create_document("people", people_directory(&scenario_config(people)))
        .unwrap();
    let mut modules: Vec<Box<dyn SourceModule>> = vec![
        Box::new(ExtractionModule::new("ie", 31, people, 12, 0.7)),
        Box::new(DataCleaningModule::new("clean", 32, people, 8)),
    ];
    run_modules(&warehouse, "people", &mut modules).unwrap();

    let published = warehouse.document("people").unwrap();
    let raw = FsBackend::open(&dir)
        .unwrap()
        .recover_document("people")
        .unwrap();
    let query = Pattern::parse("person { phone }").unwrap();
    let selection_published = published.selection_probability(&query);
    let selection_raw = raw.selection_probability(&query);
    assert!(
        (selection_published - selection_raw).abs() < 1e-9,
        "published {selection_published} vs raw {selection_raw}"
    );
    assert!(published.condition_literal_count() <= raw.condition_literal_count());
    assert!(published.event_count() <= raw.event_count());
    std::fs::remove_dir_all(dir).unwrap();
}

/// The batch path: several updates committed as one batch are equivalent to
/// committing them one at a time, and arrive in the journal as one atomic
/// entry that recovery replays together.
#[test]
fn staged_batches_commit_atomically_and_recover() {
    let dir_batched = scratch("batched");
    let dir_single = scratch("single");
    let facts: Vec<UpdateTransaction> = ["alice-0", "bob-1", "carol-2"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
            let person = pattern.root();
            UpdateTransaction::new(pattern, 0.6 + 0.1 * i as f64)
                .unwrap()
                .with_insert(
                    person,
                    parse_data_tree(&format!("<phone>+33-{i}</phone>")).unwrap(),
                )
        })
        .collect();

    {
        let warehouse = Warehouse::with_config(&dir_batched, plain_config()).unwrap();
        warehouse
            .create_document("people", people_directory(&scenario_config(4)))
            .unwrap();
        let receipt = warehouse.commit_batch("people", &facts, None).unwrap();
        assert_eq!(receipt.len(), 3);
    }
    // The batch is one journal record holding all three updates.
    let journal = FsBackend::open(&dir_batched).unwrap();
    let batches = journal.read_batches("people").unwrap();
    assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), [3]);
    drop(journal);
    {
        let warehouse = Warehouse::with_config(&dir_single, plain_config()).unwrap();
        warehouse
            .create_document("people", people_directory(&scenario_config(4)))
            .unwrap();
        for fact in &facts {
            warehouse
                .commit_batch("people", std::slice::from_ref(fact), None)
                .unwrap();
        }
    }

    let batched = Warehouse::with_config(&dir_batched, plain_config()).unwrap();
    let single = Warehouse::with_config(&dir_single, plain_config()).unwrap();
    let a = batched.document("people").unwrap();
    let b = single.document("people").unwrap();
    assert!(a.semantically_equivalent(&b, 1e-9).unwrap());
    std::fs::remove_dir_all(dir_batched).unwrap();
    std::fs::remove_dir_all(dir_single).unwrap();
}
