//! The segment-level crash battery: every kill-point of the append-only
//! journal and its compaction protocol, simulated by leaving the exact disk
//! state the killed process would have left, then recovering through a fresh
//! [`FsBackend`]. Also covers the open-time debris sweep, the refusal of
//! the two journal layouts this build no longer reads (the pre-segment
//! monolithic journal and a journal rolled into several segment files), and
//! the refusal of a checkpoint whose journal epoch cannot be read.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_query::Pattern;
use pxml_store::{serialize_batch, FsBackend, StorageBackend, StoreError};
use pxml_tree::parse_data_tree;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-segment-crash-{}-{}-{}",
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

/// The e-mail tags a recovered document carries, in replay order.
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

/// One whole record as `append_batch` writes it.
fn encode_record(batch: &[UpdateTransaction]) -> Vec<u8> {
    let payload = serialize_batch(batch);
    let mut record = Vec::new();
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    record.extend_from_slice(payload.as_bytes());
    record
}

/// Kill mid-record: the tail record's payload is cut short of its length
/// prefix. Recovery keeps the whole records before it, discards the tail,
/// and truncates the file so later appends start on a record boundary.
#[test]
fn torn_tail_payload_is_discarded_and_prefix_replays() {
    let dir = scratch("torn-payload");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store
            .append_batch("doc", &[tagged_update("whole")])
            .unwrap();
        // The crash: a second record is half-written into the same segment.
        let torn = encode_record(&[tagged_update("torn")]);
        let mut bytes = fs::read(dir.join("doc.journal.0.0.seg")).unwrap();
        let sound = bytes.len();
        bytes.extend_from_slice(&torn[..torn.len() - 7]);
        fs::write(dir.join("doc.journal.0.0.seg"), &bytes).unwrap();

        let reopened = FsBackend::open(&dir).unwrap();
        assert_eq!(recovered_tags(&reopened, "doc"), vec!["whole"]);
        assert_eq!(
            fs::metadata(dir.join("doc.journal.0.0.seg")).unwrap().len(),
            sound as u64,
            "the torn tail must be truncated away"
        );
        // The next append lands cleanly on the truncated boundary.
        reopened
            .append_batch("doc", &[tagged_update("after")])
            .unwrap();
    }
    let reopened = FsBackend::open(&dir).unwrap();
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["after", "whole"]);
    fs::remove_dir_all(dir).unwrap();
}

/// Kill even earlier: not all of the 8 header bytes made it to disk.
#[test]
fn torn_tail_header_is_discarded() {
    let dir = scratch("torn-header");
    let store = FsBackend::open(&dir).unwrap();
    store.save_document("doc", &sample_fuzzy()).unwrap();
    store
        .append_batch("doc", &[tagged_update("whole")])
        .unwrap();
    let mut bytes = fs::read(dir.join("doc.journal.0.0.seg")).unwrap();
    bytes.extend_from_slice(&[42, 0, 0]); // 3 of 8 header bytes
    fs::write(dir.join("doc.journal.0.0.seg"), &bytes).unwrap();

    let reopened = FsBackend::open(&dir).unwrap();
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["whole"]);
    assert_eq!(reopened.journal_batches("doc").unwrap(), 1);
    fs::remove_dir_all(dir).unwrap();
}

/// Kill between a compaction's checkpoint rename (its commit point) and the
/// deletion of the folded segments: the stale-epoch segments must be ignored
/// by recovery — replaying them would double-apply their batches — and swept
/// by the scan.
#[test]
fn stale_epoch_segments_after_a_compaction_crash_are_ignored() {
    let dir = scratch("stale-epoch");
    let stale_segment = dir.join("doc.journal.0.0.seg");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store
            .append_batch("doc", &[tagged_update("folded")])
            .unwrap();
        let folded = store.recover_document("doc").unwrap();
        let stale_bytes = fs::read(&stale_segment).unwrap();
        store.checkpoint("doc", &folded).unwrap();
        // The crash: resurrect the epoch-0 segment the checkpoint deleted,
        // exactly as if the process died between the rename and the delete.
        fs::write(&stale_segment, stale_bytes).unwrap();
    }
    let reopened = FsBackend::open(&dir).unwrap();
    // Exactly one copy of the folded update: from the checkpoint, not the
    // stale segment.
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["folded"]);
    assert_eq!(reopened.journal_batches("doc").unwrap(), 0);
    assert!(!stale_segment.exists(), "stale-epoch segment swept");
    fs::remove_dir_all(dir).unwrap();
}

/// Segments whose checkpoint is gone — deleted by an operator, or left by
/// an earlier build's document removal killed between its two deletions —
/// are swept at the next open instead of leaking into a same-named
/// re-created document.
#[test]
fn orphaned_segments_without_a_checkpoint_are_swept_at_open() {
    let dir = scratch("orphan-segments");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store
            .append_batch("doc", &[tagged_update("ghost")])
            .unwrap();
        // The checkpoint is gone, the segment stays.
        fs::remove_file(dir.join("doc.pxml")).unwrap();
    }
    let reopened = FsBackend::open(&dir).unwrap();
    assert!(!dir.join("doc.journal.0.0.seg").exists(), "orphan swept");
    // A re-created document starts clean.
    reopened.save_document("doc", &sample_fuzzy()).unwrap();
    assert!(recovered_tags(&reopened, "doc").is_empty());
    fs::remove_dir_all(dir).unwrap();
}

/// A checkpoint whose `pxml:epoch` is present but not a number names no
/// journal: the document's first touch is refused with a typed format error
/// naming the checkpoint, before any file is removed. Read as epoch 0, it
/// made the live epoch-1 journal look stale, and the touch deleted it with
/// every acknowledged commit since the fold.
#[test]
fn a_malformed_checkpoint_epoch_is_refused_and_the_journal_kept() {
    let dir = scratch("malformed-epoch");
    let checkpoint = dir.join("doc.pxml");
    let segment = dir.join("doc.journal.1.0.seg");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store
            .append_batch("doc", &[tagged_update("folded")])
            .unwrap();
        let folded = store.recover_document("doc").unwrap();
        store.checkpoint("doc", &folded).unwrap();
        store.append_batch("doc", &[tagged_update("live")]).unwrap();
    }
    let text = fs::read_to_string(&checkpoint).unwrap();
    assert!(text.contains("pxml:epoch=\"1\""), "{text}");
    fs::write(
        &checkpoint,
        text.replace("pxml:epoch=\"1\"", "pxml:epoch=\"1x\""),
    )
    .unwrap();
    let journal = fs::read(&segment).unwrap();

    let store = FsBackend::open(&dir).unwrap();
    match store.read_batches("doc") {
        Err(StoreError::Format(message)) => {
            assert!(message.contains("doc.pxml"), "got: {message}")
        }
        other => panic!("expected a format error, got {other:?}"),
    }
    assert_eq!(fs::read(&segment).unwrap(), journal, "the journal stays");
    fs::remove_dir_all(dir).unwrap();
}

/// A half-written compaction output (the `.tmp` the checkpoint writer was
/// killed over before its rename) is swept at open and the previous
/// checkpoint + journal remain authoritative.
#[test]
fn half_written_compaction_output_is_swept_at_open() {
    let dir = scratch("compaction-tmp");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store.append_batch("doc", &[tagged_update("kept")]).unwrap();
        // The crash: a compaction died mid-write of its staged checkpoint.
        fs::write(dir.join(".doc.pxml.tmp"), "half a checkpoi").unwrap();
    }
    let reopened = FsBackend::open(&dir).unwrap();
    assert!(!dir.join(".doc.pxml.tmp").exists(), "staging debris swept");
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["kept"]);
    assert_eq!(reopened.journal_batches("doc").unwrap(), 1);
    fs::remove_dir_all(dir).unwrap();
}

/// Segment records are the only journal layout: a pre-segment monolithic
/// `<name>.journal` beside a live checkpoint is refused at open with a typed
/// format error naming the file — never skipped, which would serve the
/// document without its journaled updates — and left untouched on disk.
#[test]
fn legacy_monolithic_journal_is_refused_at_open() {
    let dir = scratch("legacy-refused");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
    }
    let legacy = format!(
        "<pxml:journal>{}</pxml:journal>",
        serialize_batch(&[tagged_update("old")])
    );
    fs::write(dir.join("doc.journal"), &legacy).unwrap();

    match FsBackend::open(&dir) {
        Err(StoreError::Format(message)) => {
            assert!(message.contains("doc.journal"), "got: {message}")
        }
        other => panic!("expected a format error, got {other:?}"),
    }
    assert_eq!(fs::read_to_string(dir.join("doc.journal")).unwrap(), legacy);

    // Moved out of the way by an operator, the store opens again.
    fs::remove_file(dir.join("doc.journal")).unwrap();
    let store = FsBackend::open(&dir).unwrap();
    assert_eq!(store.journal_batches("doc").unwrap(), 0);
    fs::remove_dir_all(dir).unwrap();
}

/// A journal an earlier build rolled into several files: replaying only its
/// first file would serve the document without the later batches, so the
/// document's first touch is refused with a typed format error naming the
/// rolled file (`tests/concurrency.rs` checks the same through a warehouse's
/// cold open), and both files stay byte for byte. Folded by the build that wrote them,
/// the same files are stale-epoch debris, swept like any other.
#[test]
fn a_rolled_journal_is_refused_not_skipped() {
    let dir = scratch("rolled-refused");
    FsBackend::open(&dir)
        .unwrap()
        .save_document("doc", &sample_fuzzy())
        .unwrap();
    let files = [
        (
            dir.join("doc.journal.0.0.seg"),
            encode_record(&[tagged_update("s0")]),
        ),
        (
            dir.join("doc.journal.0.1.seg"),
            encode_record(&[tagged_update("s1")]),
        ),
    ];
    for (path, bytes) in &files {
        fs::write(path, bytes).unwrap();
    }

    let store = FsBackend::open(&dir).unwrap();
    for _ in 0..2 {
        match store.journal_batches("doc") {
            Err(StoreError::Format(message)) => {
                assert!(message.contains("doc.journal.0.1.seg"), "got: {message}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }
    assert!(matches!(
        store.recover_document("doc"),
        Err(StoreError::Format(_))
    ));
    for (path, bytes) in &files {
        assert_eq!(&fs::read(path).unwrap(), bytes, "{}", path.display());
    }

    // What the upgrade note asks for: the build that wrote the files folds
    // them into an epoch-1 checkpoint — the crash before its deletions is
    // staged here by putting both files back.
    for (path, _) in &files {
        fs::remove_file(path).unwrap();
    }
    let mut folded = sample_fuzzy();
    for tag in ["s0", "s1"] {
        tagged_update(tag).apply_to_fuzzy(&mut folded).unwrap();
    }
    FsBackend::open(&dir)
        .unwrap()
        .checkpoint("doc", &folded)
        .unwrap();
    for (path, bytes) in &files {
        fs::write(path, bytes).unwrap();
    }
    let reopened = FsBackend::open(&dir).unwrap();
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["s0", "s1"]);
    assert_eq!(reopened.journal_batches("doc").unwrap(), 0);
    for (path, _) in &files {
        assert!(!path.exists(), "stale {} swept", path.display());
    }
    fs::remove_dir_all(dir).unwrap();
}

/// The kill-point of an epoch's first append — the only append that creates
/// a journal file: the process died immediately after it was acknowledged.
/// The append's fsync round syncs the store directory whenever the record is
/// its epoch's first, so the acknowledged batch cannot be lost to an
/// unflushed directory entry — the new epoch's file must be found and
/// replayed at reopen.
#[test]
fn crash_right_after_an_epochs_first_append_keeps_its_file() {
    let dir = scratch("after-first-append");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store
            .append_batch("doc", &[tagged_update("folded")])
            .unwrap();
        let folded = store.recover_document("doc").unwrap();
        store.checkpoint("doc", &folded).unwrap();
        assert!(!dir.join("doc.journal.1.0.seg").exists());
        store
            .append_batch("doc", &[tagged_update("fresh")])
            .unwrap();
        // Dropped without checkpoint: the crash right after the ack.
    }
    assert!(
        dir.join("doc.journal.1.0.seg").exists(),
        "the epoch's file must still have its directory entry"
    );
    let reopened = FsBackend::open(&dir).unwrap();
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["folded", "fresh"]);
    assert_eq!(reopened.journal_batches("doc").unwrap(), 1);
    fs::remove_dir_all(dir).unwrap();
}

/// The fully-written-record kill-point: the process died immediately after
/// `append_batch` returned (fsync done). The batch is durable and must
/// replay — the counterpart of the torn-tail discard.
#[test]
fn crash_after_append_returns_replays_the_batch() {
    let dir = scratch("durable-append");
    {
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store
            .append_batch("doc", &[tagged_update("a"), tagged_update("b")])
            .unwrap();
        // Dropped without checkpoint: the crash.
    }
    let reopened = FsBackend::open(&dir).unwrap();
    assert_eq!(recovered_tags(&reopened, "doc"), vec!["a", "b"]);
    fs::remove_dir_all(dir).unwrap();
}
