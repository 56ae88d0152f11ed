//! The concurrency and crash-recovery battery for the sharded warehouse
//! engine: barrier-started writer fleets whose final state must equal a
//! per-document sequential replay, and kill-point scenarios with several
//! documents mid-commit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use pxml::gen::scenarios::{people_directory, PeopleScenarioConfig};
use pxml::prelude::*;
use pxml::store::{serialize_batch, StorageBackend};

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
fn tagged_phone(person: usize, tag: &str, confidence: f64) -> Update {
    let pattern = Pattern::parse(&format!(
        "person {{ name[=\"{}\"] }}",
        PEOPLE[person % PEOPLE.len()]
    ))
    .unwrap();
    let target = pattern.root();
    let mut phone = pxml::tree::Tree::new("phone");
    phone.add_text(phone.root(), tag);
    Update::matching(pattern)
        .insert_at(target, phone)
        .with_confidence(confidence)
}

/// The replay-free session configuration used throughout: what the threads
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
    let session = Session::open(&dir, plain_config()).unwrap();
    let docs = 3;
    let threads = 6;
    let commits_per_thread = 4;
    let documents: Vec<Document> = (0..docs)
        .map(|i| session.create(&format!("doc-{i}"), directory()).unwrap())
        .collect();

    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let documents = documents.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                barrier.wait();
                for k in 0..commits_per_thread {
                    // Each thread walks the documents starting at its own
                    // offset, so every document sees interleaved writers.
                    let doc = &documents[(t + k) % docs];
                    doc.begin()
                        .stage(tagged_phone(t, &format!("t{t}-k{k}"), 0.7))
                        .commit()
                        .unwrap();
                }
            });
        }
    });

    assert_eq!(
        session.stats().updates_applied,
        threads * commits_per_thread
    );
    // A second store handle over the same directory sees the journals the
    // commits wrote; its recovery (checkpoint + in-order journal replay) is
    // the sequential-replay reference.
    let store = FsBackend::open(&dir).unwrap();
    let mut journaled_total = 0;
    for (i, doc) in documents.iter().enumerate() {
        let name = format!("doc-{i}");
        let replayed = store.recover_document(&name).unwrap();
        let live = doc.snapshot().unwrap();
        assert!(
            live.semantically_equivalent(&replayed, 1e-9).unwrap(),
            "document {name} diverged from its journal replay"
        );
        journaled_total += store.read_batches(&name).unwrap().len();
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
        let session = Session::open(&dir, plain_config()).unwrap();
        let committed = session.create("committed", directory()).unwrap();
        session.create("staged", directory()).unwrap();
        committed
            .begin()
            .stage(tagged_phone(0, "doc-committed-0", 0.8))
            .stage(tagged_phone(1, "doc-committed-1", 0.6))
            .commit()
            .unwrap();
        // `staged`'s append died mid-record: fabricate the torn tail the way
        // the segment journal would have left it (full header, then only
        // half of the payload the length prefix promises).
        let orphan = tagged_phone(2, "doc-staged-0", 0.9).build().unwrap();
        let payload = serialize_batch(std::slice::from_ref(&orphan));
        let mut torn = Vec::new();
        torn.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        torn.extend_from_slice(&1u32.to_le_bytes());
        torn.extend_from_slice(&payload.as_bytes()[..payload.len() / 2]);
        std::fs::write(dir.join("staged.journal.0.0.seg"), torn).unwrap();
        // The session drops here: the crash.
    }

    let session = Session::open(&dir, plain_config()).unwrap();
    let phones = Pattern::parse("person { phone }").unwrap();
    let committed = session.document("committed").unwrap();
    assert_eq!(
        committed.query(&phones).unwrap().len(),
        2,
        "the committed batch must replay in full"
    );
    let staged = session.document("staged").unwrap();
    assert!(
        staged.query(&phones).unwrap().is_empty(),
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

/// Concurrent commits to two documents followed by a crash: each document
/// recovers exactly its own batches, and neither journal contains a single
/// entry belonging to the other document.
#[test]
fn concurrent_commits_keep_journals_separate_across_a_crash() {
    let dir = scratch("journal-isolation");
    let commits = 3;
    {
        let session = Session::open(&dir, plain_config()).unwrap();
        let documents: Vec<Document> = (0..2)
            .map(|i| session.create(&format!("doc-{i}"), directory()).unwrap())
            .collect();
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            for (i, doc) in documents.iter().enumerate() {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    for k in 0..commits {
                        doc.begin()
                            .stage(tagged_phone(k, &format!("doc-{i}-k{k}"), 0.7))
                            .commit()
                            .unwrap();
                    }
                });
            }
        });
        // Crash: drop without checkpointing.
    }

    let session = Session::open(&dir, plain_config()).unwrap();
    let store = FsBackend::open(&dir).unwrap();
    let phones = Pattern::parse("person { phone }").unwrap();
    for i in 0..2 {
        let name = format!("doc-{i}");
        let doc = session.document(&name).unwrap();
        assert_eq!(doc.query(&phones).unwrap().len(), commits);

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
    let session = Session::open(&dir, plain_config()).unwrap();
    let doc = session.create("people", directory()).unwrap();
    doc.begin()
        .stage(tagged_phone(0, "pre-stream", 0.9))
        .commit()
        .unwrap();
    let pinned = doc.pin().unwrap();
    let pinned_phones = pinned.fuzzy().tree().find_elements("phone").len();

    let commits = 24;
    let readers = 3;
    let phones = Pattern::parse("person { phone }").unwrap();
    let barrier = Arc::new(Barrier::new(readers + 1));
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let doc = doc.clone();
            let barrier = barrier.clone();
            let phones = phones.clone();
            scope.spawn(move || {
                barrier.wait();
                let mut last_seen = 0;
                let mut last_seq = 0;
                loop {
                    let snapshot = doc.pin().unwrap();
                    assert!(
                        snapshot.seq() >= last_seq,
                        "snapshots must be published in order"
                    );
                    last_seq = snapshot.seq();
                    let seen = doc.query(&phones).unwrap().len();
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
        let writer_doc = doc.clone();
        let writer_barrier = barrier.clone();
        scope.spawn(move || {
            writer_barrier.wait();
            for k in 0..commits {
                writer_doc
                    .begin()
                    .stage(tagged_phone(k, &format!("stream-{k}"), 0.8))
                    .commit()
                    .unwrap();
            }
        });
    });

    // The pre-stream pin is untouched by the 24 commits that followed.
    assert_eq!(
        pinned.fuzzy().tree().find_elements("phone").len(),
        pinned_phones
    );
    assert!(doc.pin().unwrap().seq() > pinned.seq());
    assert_eq!(doc.query(&phones).unwrap().len(), commits + 1);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Mixed traffic from many threads — queries, commits and stats polling over
/// disjoint and shared documents — finishes with a consistent ledger: every
/// thread's commits are counted, every document validates, and a reopened
/// session agrees with the live one.
#[test]
fn mixed_traffic_stress_stays_consistent() {
    let dir = scratch("mixed-stress");
    let session = Session::open(&dir, plain_config()).unwrap();
    let docs = 4;
    let threads = 8;
    let rounds = 6;
    let documents: Vec<Document> = (0..docs)
        .map(|i| session.create(&format!("doc-{i}"), directory()).unwrap())
        .collect();
    let barrier = Arc::new(Barrier::new(threads));
    let phones = Pattern::parse("person { phone }").unwrap();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let documents = documents.clone();
            let session = session.clone();
            let barrier = barrier.clone();
            let phones = phones.clone();
            scope.spawn(move || {
                barrier.wait();
                for k in 0..rounds {
                    let doc = &documents[(t + k) % docs];
                    if t % 2 == 0 {
                        doc.begin()
                            .stage(tagged_phone(t + k, &format!("t{t}-k{k}"), 0.6))
                            .commit()
                            .unwrap();
                    } else {
                        let _ = doc.query(&phones).unwrap();
                        let _ = session.stats();
                    }
                }
            });
        }
    });
    let committed = (threads / 2) * rounds;
    let stats = session.stats();
    assert_eq!(stats.updates_applied, committed);
    assert_eq!(stats.queries_evaluated, (threads / 2) * rounds);
    let mut total_phones = 0;
    for doc in &documents {
        let snapshot = doc.snapshot().unwrap();
        assert!(snapshot.validate().is_ok());
        total_phones += doc.query(&phones).unwrap().len();
    }
    assert_eq!(total_phones, committed);

    drop(documents);
    drop(session);
    let reopened = Session::open(&dir, plain_config()).unwrap();
    let mut recovered_phones = 0;
    for i in 0..docs {
        recovered_phones += reopened
            .document(&format!("doc-{i}"))
            .unwrap()
            .query(&phones)
            .unwrap()
            .len();
    }
    assert_eq!(recovered_phones, committed);
    std::fs::remove_dir_all(dir).unwrap();
}
