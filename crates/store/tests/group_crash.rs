//! The group-commit crash battery: kill-points of the shared fsync window,
//! simulated by leaving the exact disk state the killed process would have
//! left, then recovering through a fresh [`FsBackend`].
//!
//! The durability contract under test: a grouped commit is acknowledged
//! only after its window's fsync round, so
//!
//! * a kill *before* the round (modeled as the window's writes torn on
//!   disk, the state a device loses when nothing forced the cache out)
//!   discards every member of the window on replay;
//! * a kill *after* the round replays every member;
//! * a mixed window — one member's bytes survived whole, another's torn —
//!   replays exactly the whole one; per-document torn-tail recovery is
//!   unchanged by grouping.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_query::Pattern;
use pxml_store::{serialize_batch, CommitPolicy, FsBackend, FsOptions, StorageBackend};
use pxml_tree::parse_data_tree;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-group-crash-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

fn sample_fuzzy() -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("directory");
    let person = fuzzy.add_element(fuzzy.root(), "person");
    let name = fuzzy.add_element(person, "name");
    fuzzy.add_text(name, "alice");
    fuzzy
}

fn tagged_update(tag: &str) -> UpdateTransaction {
    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
    let target = pattern.root();
    UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
        target,
        parse_data_tree(&format!("<email>{tag}</email>")).unwrap(),
    )
}

/// The e-mail tags a recovered document carries, sorted.
fn recovered_tags(store: &FsBackend, name: &str) -> Vec<String> {
    let recovered = store.recover_document(name).unwrap();
    let mut tags: Vec<String> = recovered
        .tree()
        .find_elements("email")
        .into_iter()
        .map(|node| recovered.tree().node_value(node).unwrap_or("").to_string())
        .collect();
    tags.sort();
    tags
}

/// One whole record as the journal writes it.
fn encode_record(batch: &[UpdateTransaction]) -> Vec<u8> {
    let payload = serialize_batch(batch);
    let mut record = Vec::new();
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    record.extend_from_slice(payload.as_bytes());
    record
}

/// A grouped backend with a window of `window_max_batches` and a fill wait
/// no test waits out: sequential lone appends return immediately through
/// the committer's idle fast-path, and a window made by [`commit_together`]
/// is already full when its leader arrives.
fn grouped(dir: &Path, window_max_batches: usize) -> FsBackend {
    FsBackend::with_options(dir, grouped_options(window_max_batches)).unwrap()
}

fn grouped_options(window_max_batches: usize) -> FsOptions {
    FsOptions {
        commit: CommitPolicy::Grouped {
            window_max_batches,
            window_max_wait: Duration::from_secs(5),
        },
        ..FsOptions::default()
    }
}

/// Commits one `tag`ged batch to each of `docs` through **one shared
/// window**, deterministically and on one thread: enqueueing does not block,
/// so every ticket is in the window before the first wait elects its leader,
/// and a window holding more than one pending append arms the fill-wait by
/// itself — the leader drains them all behind one fsync round.
fn commit_together(store: &FsBackend, docs: &[&str], tag: &str) {
    let tickets: Vec<_> = docs
        .iter()
        .map(|doc| store.append_batch_enqueue(doc, &[tagged_update(tag)]))
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
}

/// Appends `bytes` of a torn record to a document's epoch-0 segment 0,
/// creating it if the window's write never reached a previous segment.
fn tear_into_segment(dir: &Path, doc: &str, torn: &[u8]) {
    let path = dir.join(format!("{doc}.journal.0.0.seg"));
    let mut bytes = if path.exists() {
        fs::read(&path).unwrap()
    } else {
        Vec::new()
    };
    bytes.extend_from_slice(torn);
    fs::write(&path, bytes).unwrap();
}

/// Kill before the window's fsync round: a two-document window was written
/// (torn, as an unflushed cache leaves it) but never synced. Neither member
/// was acknowledged; neither may surface on replay — while both documents'
/// previously acknowledged batches must.
#[test]
fn kill_before_window_fsync_discards_all_members() {
    let dir = scratch("before-fsync");
    {
        // The seeding appends are sequential: the idle fast-path fsyncs
        // each immediately instead of waiting out the fill timeout.
        let store = grouped(&dir, 2);
        for doc in ["doc-a", "doc-b"] {
            store.save_document(doc, &sample_fuzzy()).unwrap();
            store
                .append_batch_enqueue(doc, &[tagged_update("acked")])
                .wait()
                .unwrap();
        }
        // The crash: a window spanning both documents died before its
        // round; each member's record is cut short on disk.
        for doc in ["doc-a", "doc-b"] {
            let torn = encode_record(&[tagged_update("unacked")]);
            tear_into_segment(&dir, doc, &torn[..torn.len() - 5]);
        }
    }
    let reopened = FsBackend::open(&dir).unwrap();
    for doc in ["doc-a", "doc-b"] {
        assert_eq!(
            recovered_tags(&reopened, doc),
            vec!["acked"],
            "{doc}: the unacknowledged window member must not surface"
        );
        assert_eq!(reopened.journal_batches(doc).unwrap(), 1);
    }
    fs::remove_dir_all(dir).unwrap();
}

/// Kill after the window's fsync round: two commits to two documents share
/// one window (one fsync round for both), the process dies right after both
/// acknowledgements — both batches must replay.
#[test]
fn kill_after_window_fsync_replays_all_members() {
    let dir = scratch("after-fsync");
    {
        let store = grouped(&dir, 2);
        store.save_document("doc-a", &sample_fuzzy()).unwrap();
        store.save_document("doc-b", &sample_fuzzy()).unwrap();
        let before = store.durability_stats();
        commit_together(&store, &["doc-a", "doc-b"], "shared");
        let stats = store.durability_stats();
        assert_eq!(stats.grouped_commits - before.grouped_commits, 2);
        assert_eq!(
            stats.fsyncs - before.fsyncs,
            1,
            "both committers must share one fsync round"
        );
        // Dropped without checkpoint: the crash after the round.
    }
    let reopened = FsBackend::open(&dir).unwrap();
    for doc in ["doc-a", "doc-b"] {
        assert_eq!(recovered_tags(&reopened, doc), vec!["shared"]);
        assert_eq!(reopened.journal_batches(doc).unwrap(), 1);
    }
    fs::remove_dir_all(dir).unwrap();
}

/// The mixed window: of two documents in one window, one member's bytes
/// reached the platter whole, the other's were torn. Recovery is
/// per-document — the whole record replays (it was never *acknowledged*,
/// but surfacing a fully-written batch is sound), the torn one is
/// discarded, and neither document's earlier history is disturbed.
#[test]
fn mixed_window_replays_sound_member_and_discards_torn_member() {
    let dir = scratch("mixed-window");
    {
        // Sequential seeding rides the idle fast-path — see
        // `kill_before_window_fsync_discards_all_members`.
        let store = grouped(&dir, 2);
        for doc in ["doc-a", "doc-b"] {
            store.save_document(doc, &sample_fuzzy()).unwrap();
            store
                .append_batch_enqueue(doc, &[tagged_update("base")])
                .wait()
                .unwrap();
        }
        // The crash: doc-a's window member is whole on disk, doc-b's is
        // torn mid-payload.
        tear_into_segment(&dir, "doc-a", &encode_record(&[tagged_update("sound")]));
        let torn = encode_record(&[tagged_update("torn")]);
        tear_into_segment(&dir, "doc-b", &torn[..torn.len() / 2]);
    }
    let reopened = FsBackend::open(&dir).unwrap();
    assert_eq!(recovered_tags(&reopened, "doc-a"), vec!["base", "sound"]);
    assert_eq!(recovered_tags(&reopened, "doc-b"), vec!["base"]);
    assert_eq!(reopened.journal_batches("doc-a").unwrap(), 2);
    assert_eq!(reopened.journal_batches("doc-b").unwrap(), 1);
    // Both documents keep accepting commits on the recovered boundary.
    for doc in ["doc-a", "doc-b"] {
        reopened
            .append_batch(doc, &[tagged_update("after")])
            .unwrap();
    }
    assert_eq!(
        recovered_tags(&reopened, "doc-a"),
        vec!["after", "base", "sound"]
    );
    assert_eq!(recovered_tags(&reopened, "doc-b"), vec!["after", "base"]);
    fs::remove_dir_all(dir).unwrap();
}

/// A window whose member triggers a segment roll, killed right after the
/// round: the fresh segment (and its directory entry — the round syncs the
/// directory when a segment is born) must survive the reopen with every
/// window member.
#[test]
fn window_with_segment_roll_survives_crash_after_fsync() {
    let dir = scratch("window-roll");
    {
        let store = FsBackend::with_options(
            &dir,
            FsOptions {
                segment_roll_bytes: 1, // every record rolls a new segment
                ..grouped_options(2)
            },
        )
        .unwrap();
        store.save_document("doc-a", &sample_fuzzy()).unwrap();
        store.save_document("doc-b", &sample_fuzzy()).unwrap();
        let before = store.durability_stats();
        // Both documents land in one *shared* window per round — the
        // scenario under test.
        for tag in ["r0", "r1"] {
            commit_together(&store, &["doc-a", "doc-b"], tag);
        }
        let stats = store.durability_stats();
        assert_eq!(stats.grouped_commits - before.grouped_commits, 4);
        assert_eq!(
            stats.fsyncs - before.fsyncs,
            2,
            "each round's two members must share one fsync round"
        );
        // Dropped without checkpoint: the crash.
    }
    let reopened = FsBackend::with_options(
        &dir,
        FsOptions {
            segment_roll_bytes: 1,
            ..FsOptions::default()
        },
    )
    .unwrap();
    for doc in ["doc-a", "doc-b"] {
        assert_eq!(recovered_tags(&reopened, doc), vec!["r0", "r1"]);
        assert_eq!(reopened.journal_batches(doc).unwrap(), 2);
    }
    fs::remove_dir_all(dir).unwrap();
}

/// Grouped and per-batch sync commit must be observationally identical on
/// disk: the same barrier-started 8-writer hammer against both policies
/// yields byte-identical journal contents (same batches, same per-document
/// order) and equivalent recovered documents.
#[test]
fn grouped_and_sync_hammers_yield_identical_journals() {
    let writers = 8;
    let commits_per_writer = 6;
    let doc = |w: usize| format!("doc-{w}");
    let run = |store: &FsBackend| {
        for w in 0..writers {
            store.save_document(&doc(w), &sample_fuzzy()).unwrap();
        }
        let barrier = Barrier::new(writers);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let store = &store;
                let barrier = &barrier;
                let name = doc(w);
                scope.spawn(move || {
                    barrier.wait();
                    for c in 0..commits_per_writer {
                        store
                            .append_batch_enqueue(&name, &[tagged_update(&format!("w{w}c{c}"))])
                            .wait()
                            .unwrap();
                    }
                });
            }
        });
    };

    let sync_dir = scratch("hammer-sync");
    let sync_store = FsBackend::open(&sync_dir).unwrap();
    run(&sync_store);

    let grouped_dir = scratch("hammer-grouped");
    // A short fill wait: late windows that never reach 8 members must not
    // stall the tail of the hammer.
    let grouped_store = FsBackend::with_options(
        &grouped_dir,
        FsOptions {
            commit: CommitPolicy::Grouped {
                window_max_batches: writers,
                window_max_wait: Duration::from_millis(10),
            },
            ..FsOptions::default()
        },
    )
    .unwrap();
    run(&grouped_store);

    let stats = grouped_store.durability_stats();
    assert_eq!(stats.grouped_commits, writers * commits_per_writer);

    for w in 0..writers {
        let name = doc(w);
        let from_sync = sync_store.read_batches(&name).unwrap();
        let from_grouped = grouped_store.read_batches(&name).unwrap();
        assert_eq!(
            from_sync.len(),
            commits_per_writer,
            "{name}: every commit journaled exactly once"
        );
        let serialize = |batches: &[Vec<UpdateTransaction>]| -> Vec<String> {
            batches.iter().map(|b| serialize_batch(b)).collect()
        };
        assert_eq!(
            serialize(&from_sync),
            serialize(&from_grouped),
            "{name}: grouped journal must match the sync journal"
        );
        let sync_doc = sync_store.recover_document(&name).unwrap();
        let grouped_doc = grouped_store.recover_document(&name).unwrap();
        assert!(sync_doc
            .semantically_equivalent(&grouped_doc, 1e-9)
            .unwrap());
    }
    fs::remove_dir_all(sync_dir).unwrap();
    fs::remove_dir_all(grouped_dir).unwrap();
}
