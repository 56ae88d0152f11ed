//! The concurrency and crash-recovery battery for the sharded warehouse
//! engine: barrier-started writer fleets whose final state must equal a
//! per-document sequential replay, and kill-point scenarios with several
//! documents mid-commit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use pxml::gen::scenarios::{people_directory, PeopleScenarioConfig};
use pxml::prelude::*;
use pxml::store::{serialize_batch, StorageBackend, StoreError};
use pxml::warehouse::WarehouseError;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-concurrency-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

/// The people-directory names for `people_directory(people: 4)`.
const PEOPLE: &[&str] = &["alice-0", "bob-0", "carol-0", "dan-0"];

fn directory() -> pxml::tree::Tree {
    people_directory(&PeopleScenarioConfig {
        people: PEOPLE.len(),
        ..PeopleScenarioConfig::default()
    })
}

/// An insertion of a phone with a traceable value under a known person.
fn tagged_phone(person: usize, tag: &str, confidence: f64) -> UpdateTransaction {
    let pattern = Pattern::parse(&format!(
        "person {{ name[=\"{}\"] }}",
        PEOPLE[person % PEOPLE.len()]
    ))
    .unwrap();
    let target = pattern.root();
    let mut phone = pxml::tree::Tree::new("phone");
    phone.add_text(phone.root(), tag);
    UpdateTransaction::new(pattern, confidence)
        .unwrap()
        .with_insert(target, phone)
}

/// The replay-free configuration used throughout: what the threads
/// committed is exactly what the journals hold and what recovery rebuilds.
fn plain_config() -> SessionConfig {
    SessionConfig {
        simplify: SimplifyPolicy::Never,
        compaction: CompactionPolicy::Never,
        ..SessionConfig::default()
    }
}

/// Every value carried by phone inserts in a parsed journal batch list.
fn journal_phone_tags(batches: &[Vec<UpdateTransaction>]) -> Vec<String> {
    batches
        .iter()
        .flatten()
        .flat_map(|update| update.operations())
        .filter_map(|op| match op {
            UpdateOperation::Insert { subtree, .. } => subtree
                .node_value(subtree.root())
                .map(|value| value.to_string()),
            UpdateOperation::Delete { .. } => None,
        })
        .collect()
}

/// N barrier-started writer threads spray commits over M shared documents;
/// afterwards every document must equal the sequential replay of its own
/// journal (which is the store's recovery path), and the engine counters
/// must account for every update.
#[test]
fn concurrent_writers_equal_sequential_replay_per_document() {
    let dir = scratch("writers-vs-replay");
    let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
    let docs = 3;
    let threads = 6;
    let commits_per_thread = 4;
    let names: Vec<String> = (0..docs).map(|i| format!("doc-{i}")).collect();
    for name in &names {
        warehouse.create_document(name, directory()).unwrap();
    }

    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (warehouse, names, barrier) = (&warehouse, &names, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..commits_per_thread {
                    // Each thread walks the documents starting at its own
                    // offset, so every document sees interleaved writers.
                    let update = tagged_phone(t, &format!("t{t}-k{k}"), 0.7);
                    warehouse
                        .commit_batch(&names[(t + k) % docs], &[update], None)
                        .unwrap();
                }
            });
        }
    });

    assert_eq!(
        warehouse.stats().updates_applied,
        threads * commits_per_thread
    );
    // A second store handle over the same directory sees the journals the
    // commits wrote; its recovery (checkpoint + in-order journal replay) is
    // the sequential-replay reference.
    let store = FsBackend::open(&dir).unwrap();
    let mut journaled_total = 0;
    for name in &names {
        let replayed = store.recover_document(name).unwrap();
        let live = warehouse.snapshot(name).unwrap();
        assert!(
            live.fuzzy()
                .semantically_equivalent(&replayed, 1e-9)
                .unwrap(),
            "document {name} diverged from its journal replay"
        );
        journaled_total += store.read_batches(name).unwrap().len();
    }
    assert_eq!(journaled_total, threads * commits_per_thread);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Kill-point with two documents mid-commit: `committed`'s batch passed its
/// commit point (its segment record was fully written) while `staged`'s
/// append died mid-record, leaving a torn tail whose length prefix promises
/// more bytes than the file holds. Recovery replays the first, discards the
/// second, and the two journals stay fully separate.
#[test]
fn crash_with_two_in_flight_documents_recovers_independently() {
    let dir = scratch("two-doc-kill-point");
    {
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("committed", directory()).unwrap();
        warehouse.create_document("staged", directory()).unwrap();
        let batch = [
            tagged_phone(0, "doc-committed-0", 0.8),
            tagged_phone(1, "doc-committed-1", 0.6),
        ];
        warehouse.commit_batch("committed", &batch, None).unwrap();
        // `staged`'s append died mid-record: fabricate the torn tail the way
        // the segment journal would have left it (full header, then only
        // half of the payload the length prefix promises).
        let orphan = tagged_phone(2, "doc-staged-0", 0.9);
        let payload = serialize_batch(std::slice::from_ref(&orphan));
        let mut torn = Vec::new();
        torn.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        torn.extend_from_slice(&1u32.to_le_bytes());
        torn.extend_from_slice(&payload.as_bytes()[..payload.len() / 2]);
        std::fs::write(dir.join("staged.journal.0.0.seg"), torn).unwrap();
        // The warehouse drops here: the crash.
    }

    let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
    let phones = Pattern::parse("person { phone }").unwrap();
    assert_eq!(
        warehouse.query("committed", &phones).unwrap().len(),
        2,
        "the committed batch must replay in full"
    );
    assert!(
        warehouse.query("staged", &phones).unwrap().is_empty(),
        "the torn-tail batch must be discarded"
    );

    // Per-document journals never interleave: `committed`'s journal holds
    // exactly its own two updates, `staged`'s is empty (the torn record was
    // truncated away).
    let store = FsBackend::open(&dir).unwrap();
    let batches = store.read_batches("committed").unwrap();
    assert_eq!(batches.len(), 1);
    assert_eq!(
        journal_phone_tags(&batches),
        vec!["doc-committed-0", "doc-committed-1"]
    );
    assert!(store.read_batches("staged").unwrap().is_empty());
    assert_eq!(
        std::fs::metadata(dir.join("staged.journal.0.0.seg"))
            .unwrap()
            .len(),
        0,
        "the torn tail must be truncated away"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// A journal an earlier build rolled into a second segment file refuses the
/// warehouse's cold open with the store's typed format error naming that
/// file — never a warehouse that serves the document without the batches
/// the second file holds.
#[test]
fn a_rolled_journal_refuses_the_cold_open() {
    let dir = scratch("rolled-journal");
    {
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("doc", directory()).unwrap();
        warehouse
            .commit_batch("doc", &[tagged_phone(0, "s0", 0.8)], None)
            .unwrap();
    }
    // The rolled journal's second file: whole records, as the first.
    std::fs::copy(
        dir.join("doc.journal.0.0.seg"),
        dir.join("doc.journal.0.1.seg"),
    )
    .unwrap();
    let store = std::sync::Arc::new(FsBackend::open(&dir).unwrap());
    match Warehouse::with_backend(store, plain_config()) {
        Err(WarehouseError::Store(StoreError::Format(message))) => {
            assert!(message.contains("doc.journal.0.1.seg"), "got: {message}")
        }
        Err(other) => panic!("expected a format error, got {other}"),
        Ok(_) => panic!("a rolled journal must refuse the cold open"),
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Concurrent commits to two documents followed by a crash: each document
/// recovers exactly its own batches, and neither journal contains a single
/// entry belonging to the other document.
#[test]
fn concurrent_commits_keep_journals_separate_across_a_crash() {
    let dir = scratch("journal-isolation");
    let commits = 3;
    {
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        for i in 0..2 {
            warehouse
                .create_document(&format!("doc-{i}"), directory())
                .unwrap();
        }
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for i in 0..2 {
                let (warehouse, barrier) = (&warehouse, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for k in 0..commits {
                        let update = tagged_phone(k, &format!("doc-{i}-k{k}"), 0.7);
                        warehouse
                            .commit_batch(&format!("doc-{i}"), &[update], None)
                            .unwrap();
                    }
                });
            }
        });
        // Crash: drop without checkpointing.
    }

    let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
    let store = FsBackend::open(&dir).unwrap();
    let phones = Pattern::parse("person { phone }").unwrap();
    for i in 0..2 {
        let name = format!("doc-{i}");
        assert_eq!(warehouse.query(&name, &phones).unwrap().len(), commits);

        let batches = store.read_batches(&name).unwrap();
        assert_eq!(batches.len(), commits, "one journal batch per commit");
        let tags = journal_phone_tags(&batches);
        assert_eq!(tags.len(), commits);
        assert!(
            tags.iter().all(|tag| tag.starts_with(&format!("doc-{i}-"))),
            "journal of {name} holds a foreign entry: {tags:?}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The MVCC battery: readers pin snapshots while a writer streams commits.
/// Every query must complete against *some* published snapshot — phone
/// counts observed by a reader are monotone non-decreasing (snapshots are
/// published in order and never mutated), and a snapshot pinned before the
/// stream keeps its state to the end.
#[test]
fn readers_pin_snapshots_while_writer_streams_commits() {
    let dir = scratch("reader-pins-snapshot");
    let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
    warehouse.create_document("people", directory()).unwrap();
    warehouse
        .commit_batch("people", &[tagged_phone(0, "pre-stream", 0.9)], None)
        .unwrap();
    let pinned = warehouse.snapshot("people").unwrap();
    let pinned_phones = pinned.fuzzy().tree().find_elements("phone").len();

    let commits = 24;
    let readers = 3;
    let phones = Pattern::parse("person { phone }").unwrap();
    let barrier = Barrier::new(readers + 1);
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let (warehouse, barrier, phones) = (&warehouse, &barrier, &phones);
            scope.spawn(move || {
                barrier.wait();
                let mut last_seen = 0;
                let mut last_seq = 0;
                loop {
                    let snapshot = warehouse.snapshot("people").unwrap();
                    assert!(
                        snapshot.seq() >= last_seq,
                        "snapshots must be published in order"
                    );
                    last_seq = snapshot.seq();
                    let seen = warehouse.query("people", phones).unwrap().len();
                    assert!(
                        seen >= last_seen,
                        "a reader observed a rollback: {seen} after {last_seen}"
                    );
                    last_seen = seen;
                    if seen > commits {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
        let (warehouse, barrier) = (&warehouse, &barrier);
        scope.spawn(move || {
            barrier.wait();
            for k in 0..commits {
                let update = tagged_phone(k, &format!("stream-{k}"), 0.8);
                warehouse.commit_batch("people", &[update], None).unwrap();
            }
        });
    });

    // The pre-stream pin is untouched by the 24 commits that followed.
    assert_eq!(
        pinned.fuzzy().tree().find_elements("phone").len(),
        pinned_phones
    );
    assert!(warehouse.snapshot("people").unwrap().seq() > pinned.seq());
    assert_eq!(
        warehouse.query("people", &phones).unwrap().len(),
        commits + 1
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// Mixed traffic from many threads — queries, commits and stats polling over
/// disjoint and shared documents — finishes with a consistent ledger: every
/// thread's commits are counted, every document validates, and a reopened
/// warehouse agrees with the live one.
#[test]
fn mixed_traffic_stress_stays_consistent() {
    let dir = scratch("mixed-stress");
    let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
    let docs = 4;
    let threads = 8;
    let rounds = 6;
    let names: Vec<String> = (0..docs).map(|i| format!("doc-{i}")).collect();
    for name in &names {
        warehouse.create_document(name, directory()).unwrap();
    }
    let barrier = Barrier::new(threads);
    let phones = Pattern::parse("person { phone }").unwrap();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (warehouse, names, barrier, phones) = (&warehouse, &names, &barrier, &phones);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..rounds {
                    let name = &names[(t + k) % docs];
                    if t % 2 == 0 {
                        let update = tagged_phone(t + k, &format!("t{t}-k{k}"), 0.6);
                        warehouse.commit_batch(name, &[update], None).unwrap();
                    } else {
                        let _ = warehouse.query(name, phones).unwrap();
                        let _ = warehouse.stats();
                    }
                }
            });
        }
    });
    let committed = (threads / 2) * rounds;
    let stats = warehouse.stats();
    assert_eq!(stats.updates_applied, committed);
    assert_eq!(stats.queries_evaluated, (threads / 2) * rounds);
    let mut total_phones = 0;
    for name in &names {
        let snapshot = warehouse.snapshot(name).unwrap();
        assert!(snapshot.fuzzy().validate().is_ok());
        total_phones += warehouse.query(name, &phones).unwrap().len();
    }
    assert_eq!(total_phones, committed);

    drop(warehouse);
    let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
    let mut recovered_phones = 0;
    for name in &names {
        recovered_phones += reopened.query(name, &phones).unwrap().len();
    }
    assert_eq!(recovered_phones, committed);
    std::fs::remove_dir_all(dir).unwrap();
}
