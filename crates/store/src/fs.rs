//! [`FsBackend`]: the durable file-system backend with an **append-only
//! segment journal**.
//!
//! Layout of a store rooted at `dir`:
//!
//! ```text
//! dir/
//!   <name>.pxml                   -- last checkpoint (PrXML; carries pxml:epoch)
//!   <name>.journal.<e>.<s>.seg    -- journal segment: epoch <e>, sequence <s>
//! ```
//!
//! # Who owns what
//!
//! Three modules carry the journal, one concern each:
//!
//! * [`crate::journal`] — the **record codec**: a segment file is a sequence
//!   of length-prefixed `<pxml:batch>` records, and that module alone knows
//!   their bytes (framing, the walk over a segment's whole records, what
//!   counts as torn);
//! * `segment.rs` — the **per-document segment state**: file naming, the
//!   journal cursor behind each document's write mutex, the one-time load
//!   that rebuilds it from disk (dropping stale-epoch segments, truncating a
//!   torn tail), writing one record with the roll rule, and undoing records
//!   no fsync covered;
//! * this module — the **backend**: options, the open-time sweep,
//!   checkpoints, the fsync round, the two append arms and the
//!   [`StorageBackend`] implementation.
//!
//! A batch is encoded **once**, by the committing thread, in
//! [`FsBackend::append_batch_enqueue`]; everything below that entry point —
//! the group-commit window, the leader's flush, the segment write — handles
//! the encoded record and its update count, never the batch.
//!
//! # Appends
//!
//! An append ([`FsBackend::append_batch_enqueue`]; [`FsBackend::append_batch`]
//! is that call plus the wait on its ticket) adds one record to the
//! highest-sequence segment of the current epoch (rolling to a new sequence
//! number once the active segment exceeds the roll threshold) and fsyncs it,
//! alone or inside a group-commit window — commit cost is **O(batch)**,
//! independent of how many batches the journal already holds. The two arms
//! stay two on purpose: the synchronous one holds the document's meta lock
//! across its own fsync (a failed round rolls back exactly its record; were
//! the lock dropped, the rollback would truncate a same-document
//! neighbour's), the grouped one writes under each document's lock in turn
//! and shares one round, with the committer's one-window-at-a-time rule
//! standing in for the lock.
//!
//! # Crash recovery
//!
//! Recovery replays the checkpoint plus the records of every segment of the
//! checkpoint's **epoch**, in (sequence, offset) order:
//!
//! * a **torn tail record** (the process died mid-append: a short header or
//!   fewer payload bytes than the length prefix promises) is detected in the
//!   highest-sequence segment, discarded and truncated away — the batch never
//!   reached its commit point. A short record *before* the tail is real
//!   corruption and reported as an error;
//! * a **compaction** ([`FsBackend::checkpoint`]) writes the new checkpoint
//!   (tmp + rename, stamped with `epoch + 1`) and only then deletes the
//!   folded segments. The rename is the single commit point: a crash in
//!   between leaves old-epoch segments on disk, which recovery ignores (their
//!   batches are already inside the checkpoint) and the next open sweeps.
//!
//! [`FsBackend::open`] also sweeps stale debris: `.tmp` staging files of
//! checkpoints/compactions that never reached their rename, and orphaned
//! segment files whose checkpoint is gone (the remains of a document removal
//! killed halfway). Segment records are the **only** journal layout it reads:
//! a root holding a pre-segment monolithic `<name>.journal` beside a live
//! `<name>.pxml` is refused with a typed [`StoreError::Format`] rather than
//! opened with that journal silently ignored.
//!
//! # Concurrency
//!
//! Every operation on a document takes a **per-document** mutex (shared by
//! all clones of the backend) that also guards the document's journal cursor,
//! so same-document operations serialize while unrelated documents proceed in
//! parallel — there is no store-wide lock held across I/O. Checkpoint reads
//! are rename-safe: a concurrent compaction swaps the file atomically, so a
//! reader sees either the previous or the new checkpoint, never a torn file.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{LockClass, Mutex};
use pxml_core::{FuzzyTree, UpdateTransaction};

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::fault::{FaultKind, FaultOp, FaultPlan};
use crate::format::{parse_fuzzy_document, serialize_fuzzy_document_with_epoch};
use crate::group::{
    CommitPolicy, CommitSlot, CommitTicket, DurabilityStats, GroupCommitter, PendingAppend,
};
use crate::journal::{encode_record, parse_batch, EncodedRecord, SoundRecords, TEAR_BYTES};
use crate::segment::{parse_segment_name, Cursor, Segments};

/// Default segment roll threshold: once the active segment grows past this
/// many bytes, the next append starts a new segment file. Bounding the
/// active segment bounds the per-append fsync work (on file systems where
/// fsync cost grows with file size) and the torn-tail scan — both part of
/// the flat-commit-cost claim pxbench's `store.append_us` /
/// `store.append_mem_us` track (the journal-length sweep is ROADMAP item
/// 6's E20).
pub const DEFAULT_SEGMENT_ROLL_BYTES: u64 = 512 * 1024;

/// Construction options for [`FsBackend`] ([`FsBackend::with_options`]).
#[derive(Debug, Clone)]
pub struct FsOptions {
    /// Segment roll threshold in bytes; see [`DEFAULT_SEGMENT_ROLL_BYTES`].
    pub segment_roll_bytes: u64,
    /// How acknowledged appends become durable: per-append fsync rounds
    /// ([`CommitPolicy::Sync`], the default) or cross-document group commit
    /// ([`CommitPolicy::Grouped`]).
    pub commit: CommitPolicy,
    /// Artificial latency added to every fsync round, serialized through a
    /// shared device gate — a benchmark aid modelling storage whose flush
    /// cost dominates (the regime group commit exists for), so E14 measures
    /// the protocol rather than the page cache of the build machine.
    /// `Duration::ZERO` (the default) disables the model entirely.
    pub simulated_sync_latency: Duration,
    /// The fault plan the backend consults at its append entry point, in its
    /// fsync funnel and at its checkpoint write (see [`crate::fault`]) — the
    /// single door faults enter the storage stack by. `None` (the default)
    /// disables injection entirely.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for FsOptions {
    fn default() -> Self {
        FsOptions {
            segment_roll_bytes: DEFAULT_SEGMENT_ROLL_BYTES,
            commit: CommitPolicy::default(),
            simulated_sync_latency: Duration::ZERO,
            fault: None,
        }
    }
}

/// The (possibly simulated) flush device: fsync rounds serialize on the gate
/// for `latency` each when the model is enabled.
#[derive(Debug)]
struct Device {
    latency: Duration,
    gate: Mutex<()>,
}

/// The lock-free durability counters behind [`FsBackend::durability_stats`].
#[derive(Debug, Default)]
struct SyncCounters {
    fsyncs: AtomicUsize,
    grouped_commits: AtomicUsize,
    grouped_windows: AtomicUsize,
}

/// Everything a backend's clones, tickets and barriers share.
#[derive(Debug)]
struct Shared {
    segments: Segments,
    /// The group committer under [`CommitPolicy::Grouped`]; `None` makes
    /// the append entry point write and fsync in place. The committer holds
    /// no reference back to this state — a flush borrows the backend at wait
    /// time — so there is no cycle.
    group: Option<GroupCommitter>,
    device: Device,
    counters: SyncCounters,
    /// The fault plan of [`FsOptions::fault`], consulted at the append entry
    /// point, by the fsync funnel and at the checkpoint write; `None` in
    /// production.
    fault: Option<Arc<FaultPlan>>,
}

/// The file-system storage backend (see the module docs for the on-disk
/// format and crash-recovery rules).
///
/// Cloning is one reference-count bump and clones share everything — the
/// per-document mutexes in particular, so a backend handed to several
/// threads keeps same-document operations serialized.
#[derive(Debug, Clone)]
pub struct FsBackend {
    shared: Arc<Shared>,
}

impl FsBackend {
    /// Opens (creating it if needed) a store rooted at `root` and sweeps
    /// stale debris (`.tmp` staging files, orphaned segments of removed
    /// documents). Refuses a root that holds a pre-segment monolithic
    /// `<name>.journal` beside a live checkpoint (see the module docs).
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::with_options(root, FsOptions::default())
    }

    /// [`FsBackend::open`] with full [`FsOptions`] — notably the
    /// [`CommitPolicy`] selecting per-append fsyncs or group commit.
    pub fn with_options(root: impl AsRef<Path>, options: FsOptions) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let group = match options.commit {
            CommitPolicy::Sync => None,
            CommitPolicy::Grouped {
                window_max_batches,
                window_max_wait,
            } => Some(GroupCommitter::new(window_max_batches, window_max_wait)),
        };
        let backend = FsBackend {
            shared: Arc::new(Shared {
                segments: Segments::new(root, options.segment_roll_bytes),
                group,
                device: Device {
                    latency: options.simulated_sync_latency,
                    gate: Mutex::with_class(LockClass::Device, ()),
                },
                counters: SyncCounters::default(),
                fault: options.fault,
            }),
        };
        backend.sweep()?;
        Ok(backend)
    }

    fn segments(&self) -> &Segments {
        &self.shared.segments
    }

    /// The open-time sweep: discard commit debris that never reached a
    /// rename commit point and drop segments orphaned by a half-done removal.
    fn sweep(&self) -> Result<(), StoreError> {
        let mut checkpoints: Vec<String> = Vec::new();
        let mut segments: Vec<(PathBuf, String)> = Vec::new();
        for entry in fs::read_dir(self.root())? {
            let path = entry?.path();
            let (Some(file_name), Some(ext)) = (
                path.file_name().and_then(|n| n.to_str()).map(String::from),
                path.extension().and_then(|e| e.to_str()).map(String::from),
            ) else {
                continue;
            };
            match ext.as_str() {
                // A `.tmp` is a staged checkpoint or compaction output that
                // was killed before its rename: the state it carried never
                // reached a commit point, so it must not survive into
                // recovery.
                "tmp" => fs::remove_file(&path)?,
                "seg" => {
                    if let Some(parsed) = parse_segment_name(&file_name) {
                        segments.push((path, parsed.document));
                    }
                }
                // A pre-segment monolithic journal of a live document: this
                // build cannot replay it, and opening the document without
                // it would silently serve a different distribution.
                "journal" if path.with_extension("pxml").exists() => {
                    return Err(StoreError::Format(format!(
                        "{} is a pre-segment monolithic journal, a layout this version \
                         no longer reads — refusing to open its document without it",
                        path.display()
                    )));
                }
                "pxml" => {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        checkpoints.push(stem.to_string());
                    }
                }
                _ => {}
            }
        }
        // Orphaned segments: a document removal deletes the checkpoint first,
        // so segments without a checkpoint belong to a removal that died
        // before finishing.
        for (path, document) in &segments {
            if !checkpoints.contains(document) {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        self.segments().root()
    }

    /// Counts one `op` against the fault plan, if one is installed, and
    /// returns the fault it injects — each of the three doors calls this
    /// exactly once per operation.
    fn injected(&self, op: FaultOp) -> Option<(FaultKind, StoreError)> {
        self.shared.fault.as_ref()?.decide(op)
    }

    /// The atomic checkpoint write itself, assuming the caller holds the
    /// document's mutex. Every checkpoint — a save, a fold, `simplify`'s —
    /// is staged here, so this is where the fault plan's checkpoint door is:
    /// an injected fault (a torn write degrades to a plain error) fires
    /// before anything is staged, leaving the old checkpoint and the whole
    /// journal.
    fn write_checkpoint(
        &self,
        name: &str,
        fuzzy: &FuzzyTree,
        epoch: u64,
    ) -> Result<(), StoreError> {
        if let Some((_, error)) = self.injected(FaultOp::Checkpoint) {
            return Err(error);
        }
        let target = self.segments().document_path(name);
        let temporary = self.root().join(format!(".{name}.pxml.tmp"));
        let mut file = fs::File::create(&temporary)?;
        file.write_all(serialize_fuzzy_document_with_epoch(fuzzy, true, epoch).as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&temporary, &target)?;
        // Make the rename itself power-loss durable. For a compaction this is
        // also an ordering barrier: the folded segments are deleted only
        // after this, so the deletions can never reach disk ahead of the new
        // checkpoint.
        self.segments().sync_dir()
    }

    /// The committer-less arm of [`FsBackend::append_batch_enqueue`]: one
    /// record written to the active segment and covered by its own fsync
    /// round — **O(batch)**, never a rewrite of earlier records — with the
    /// document's meta lock held from the write to the end of the round.
    /// `torn` carries the error of an injected [`FaultKind::TornWrite`]: the
    /// record lands, its tail is sheared off through the segment handle
    /// still held, and the error is returned with the cursor left stale — a
    /// reopen rescans it.
    fn append_now(
        &self,
        name: &str,
        record: &EncodedRecord,
        torn: Option<StoreError>,
    ) -> Result<(), StoreError> {
        let segments = self.segments();
        segments.with_loaded(name, |meta| {
            if !self.contains(name) {
                return Err(StoreError::MissingDocument(name.to_string()));
            }
            let saved = meta.cursor;
            let appended = segments.write_record(name, meta, record)?;
            if let Err(error) =
                self.fsync_round(std::slice::from_ref(&appended.file), appended.fresh)
            {
                // The record is in the page cache but never reached the
                // device: roll it back so replay surfaces exactly the
                // acknowledged batches and nothing more.
                segments.rollback_unsynced(name, meta, saved);
                return Err(error);
            }
            match torn {
                None => Ok(()),
                Some(error) => {
                    let sheared = meta.cursor.active_len.saturating_sub(TEAR_BYTES);
                    appended.file.set_len(sheared)?;
                    appended.file.sync_all()?;
                    Err(error)
                }
            }
        })
    }

    /// One fsync round — the durability point of every record written since
    /// the previous round. Data files are flushed first, then (when any
    /// record started a fresh segment) the directory entry: a segment file's
    /// existence is a directory mutation, and power loss right after a roll
    /// must not unlink a segment whose batches were already acknowledged.
    /// Every append path funnels through here, so no roll site can skip the
    /// directory flush.
    ///
    /// Counts **one** `fsyncs` round however many files the round covers —
    /// the round is the unit the device serializes on, and the quantity
    /// group commit divides.
    fn fsync_round(&self, files: &[fs::File], fresh_segment: bool) -> Result<(), StoreError> {
        let shared = &*self.shared;
        if let Some((_, error)) = self.injected(FaultOp::Fsync) {
            // An injected fsync fault (a torn write degrades to a plain
            // error here) preempts the round entirely: the data was written
            // but never reached the device — exactly the state a real fsync
            // failure leaves (callers roll the records back).
            return Err(error);
        }
        if shared.device.latency > Duration::ZERO {
            let _gate = shared.device.gate.lock();
            std::thread::sleep(shared.device.latency);
        }
        for file in files {
            file.sync_data()?;
        }
        if fresh_segment {
            shared.segments.sync_dir()?;
        }
        shared.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes one drained group-commit window: writes every member's
    /// record under its document's meta lock (one document at a time, in
    /// first-appearance order, so same-document records land in enqueue —
    /// i.e. commit — order and the one-lock-at-a-time rule holds), then
    /// issues a **single** shared fsync round and completes every slot.
    /// The members arrive encoded, so the flush only writes. A per-member
    /// failure is carried on that member's slot and, for same-document
    /// successors (whose bytes would land after the torn record), on theirs
    /// too.
    ///
    /// A failed **window fsync** errors every written slot, rolls every
    /// touched document back to its pre-window cursor
    /// (`Segments::rollback_unsynced`), and returns the failure message so
    /// the committer poisons itself — no slot is ever acknowledged past a
    /// failed round, and the fsync is never retried (see the
    /// [`crate::group`] module docs).
    pub(crate) fn flush_window(&self, window: Vec<PendingAppend>) -> Result<(), String> {
        let segments = self.segments();
        // Members grouped by document, documents in first-appearance order.
        let mut docs: Vec<Vec<PendingAppend>> = Vec::new();
        let mut position: HashMap<String, usize> = HashMap::new();
        for member in window {
            match position.get(&member.name) {
                Some(&at) => docs[at].push(member),
                None => {
                    position.insert(member.name.clone(), docs.len());
                    docs.push(vec![member]);
                }
            }
        }
        // The written-but-not-yet-durable slots, plus one open handle per
        // touched segment file (same-document members usually share one).
        let mut written = Vec::new();
        let mut files: Vec<fs::File> = Vec::new();
        let mut fresh_segment = false;
        // Per-document pre-window cursors, so a failed window fsync can roll
        // every touched journal back to its last durable state.
        let mut saved_cursors: Vec<(&str, Cursor)> = Vec::new();
        for members in &docs {
            let name = members[0].name.as_str();
            let staged = segments.with_loaded(name, |meta| {
                if !self.contains(name) {
                    return Err(StoreError::MissingDocument(name.to_string()));
                }
                let saved = meta.cursor;
                let mut last_seq = None;
                let mut doc_failed: Option<String> = None;
                for member in members {
                    if let Some(message) = &doc_failed {
                        member.slot.complete_err(message.clone());
                        continue;
                    }
                    match segments.write_record(name, meta, &member.record) {
                        Ok(appended) => {
                            fresh_segment |= appended.fresh;
                            if last_seq != Some(appended.seq) {
                                last_seq = Some(appended.seq);
                                files.push(appended.file);
                            }
                            written.push(&member.slot);
                        }
                        Err(error) => {
                            let message = error.to_string();
                            member.slot.complete_err(message.clone());
                            doc_failed = Some(message);
                        }
                    }
                }
                Ok(saved)
            });
            match staged {
                Ok(saved) => saved_cursors.push((name, saved)),
                // The document could not be loaded or is gone: nothing of it
                // was written, and none of its members can land.
                Err(error) => {
                    let message = error.to_string();
                    for member in members {
                        member.slot.complete_err(message.clone());
                    }
                }
            }
        }
        if written.is_empty() {
            return Ok(());
        }
        match self.fsync_round(&files, fresh_segment) {
            Ok(()) => {
                for slot in &written {
                    slot.complete_ok();
                }
                let counters = &self.shared.counters;
                counters
                    .grouped_commits
                    .fetch_add(written.len(), Ordering::Relaxed);
                counters.grouped_windows.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(error) => {
                let message = error.to_string();
                // Roll back before any waiter can observe the failure: when
                // a ticket resolves Err, the journal already holds exactly
                // the acknowledged prefix again. The caller poisons the
                // committer, so no new window can race these truncations.
                for (name, saved) in saved_cursors {
                    let meta = segments.meta(name);
                    segments.rollback_unsynced(name, &mut meta.lock(), saved);
                }
                for slot in &written {
                    slot.complete_err(message.clone());
                }
                Err(message)
            }
        }
    }

    /// Drives the window protocol until `slot` resolves — what waiting on
    /// (or dropping) a window [`CommitTicket`] runs.
    pub(crate) fn wait_for_slot(&self, slot: &CommitSlot) -> Result<(), StoreError> {
        match &self.shared.group {
            Some(group) => group.wait(slot, self),
            // Window tickets are minted only below, by a backend that has a
            // committer; never acknowledge one that somehow lost it.
            None => Err(StoreError::Io(std::io::Error::other(
                "commit ticket of a backend without a group committer",
            ))),
        }
    }

    /// Number of journaled batches awaiting a checkpoint (O(1)).
    pub fn journal_batches(&self, name: &str) -> Result<usize, StoreError> {
        self.segments()
            .with_loaded(name, |meta| Ok(meta.cursor.batches))
    }

    /// Total record bytes in the journal's segments (O(1)).
    pub fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        self.segments()
            .with_loaded(name, |meta| Ok(meta.cursor.bytes))
    }
}

impl StorageBackend for FsBackend {
    fn list_documents(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(self.root())? {
            let path = entry?.path();
            if path.extension().and_then(|ext| ext.to_str()) == Some("pxml") {
                if let Some(stem) = path.file_stem().and_then(|stem| stem.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn contains(&self, name: &str) -> bool {
        self.segments().document_path(name).exists()
    }

    fn save_document(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        self.segments()
            .with_loaded(name, |meta| self.write_checkpoint(name, fuzzy, meta.epoch))
    }

    fn load_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        let path = self.segments().document_path(name);
        if !path.exists() {
            return Err(StoreError::MissingDocument(name.to_string()));
        }
        let text = fs::read_to_string(path)?;
        parse_fuzzy_document(&text)
    }

    /// The name's meta mutex deliberately stays in the registry: dropping it
    /// would let a thread still holding the old `Arc` interleave its append
    /// with a writer of a same-named *re-created* document under a fresh
    /// mutex, silently corrupting a segment. One retained mutex per name ever
    /// removed is a bounded price for that guarantee.
    fn remove_document(&self, name: &str) -> Result<(), StoreError> {
        // Settle any in-flight group-commit window first (before the meta
        // lock — the flush needs it): a window flushing after the removal
        // would resurrect segment files for the deleted document.
        self.group_barrier();
        let segments = self.segments();
        let meta = segments.meta(name);
        let mut meta = meta.lock();
        let path = segments.document_path(name);
        if !path.exists() {
            return Err(StoreError::MissingDocument(name.to_string()));
        }
        // Checkpoint first: if the removal dies halfway, the leftover
        // segments are recognizably orphaned (no checkpoint) and swept at the
        // next open. The directory flush pins that ordering against power
        // loss too.
        fs::remove_file(path)?;
        segments.sync_dir()?;
        for (segment, _) in segments.segments_of(name)? {
            fs::remove_file(segment)?;
        }
        meta.forget();
        Ok(())
    }

    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
        let segments = self.segments();
        segments.with_loaded(name, |meta| {
            let mut batches = Vec::with_capacity(meta.cursor.batches);
            for path in segments.current_segment_paths(name, meta) {
                for record in SoundRecords::new(&fs::read(&path)?) {
                    batches.push(parse_batch(record.payload)?);
                }
            }
            Ok(batches)
        })
    }

    /// The append entry point — every journal write starts here. Consults
    /// the fault plan once, encodes the batch (here, on the committing
    /// thread — nothing below this call sees the batch again), then hands
    /// the record to the group-commit window and returns a [`CommitTicket`]
    /// that resolves at the window's fsync; without a committer
    /// ([`CommitPolicy::Sync`]) the append runs to completion here and the
    /// ticket comes back already resolved.
    fn append_batch_enqueue(&self, name: &str, batch: &[UpdateTransaction]) -> CommitTicket {
        let torn = match self.injected(FaultOp::Append) {
            Some((FaultKind::TornWrite, error)) => Some(error),
            Some((_, error)) => return CommitTicket::resolved(Err(error)),
            None => None,
        };
        let record = encode_record(batch);
        let group = match &self.shared.group {
            Some(group) if torn.is_none() => group,
            _ => {
                // No committer — or a torn write, which cannot resolve
                // asynchronously (the shear must follow the write before
                // the caller sees the ticket): settle any open window first
                // so enqueue order holds, then write in place.
                self.group_barrier();
                return CommitTicket::resolved(self.append_now(name, &record, torn));
            }
        };
        // Fail a missing document eagerly, before it can poison a window.
        // (A removal racing the window is still caught by the flush itself.)
        if !self.contains(name) {
            return CommitTicket::resolved(Err(StoreError::MissingDocument(name.to_string())));
        }
        CommitTicket::window(group.enqueue(name, record), self.clone())
    }

    /// Waits out any in-flight group-commit window and flushes everything
    /// enqueued. Runs **before** this backend takes a document meta lock:
    /// the flush itself takes those locks, so a barrier under one would
    /// self-deadlock.
    fn group_barrier(&self) {
        if let Some(group) = &self.shared.group {
            group.barrier(self);
        }
    }

    /// Fsync/window counters since this backend (or the clone family it
    /// belongs to) was opened. Lock-free snapshot.
    fn durability_stats(&self) -> DurabilityStats {
        let counters = &self.shared.counters;
        DurabilityStats {
            fsyncs: counters.fsyncs.load(Ordering::Relaxed),
            grouped_commits: counters.grouped_commits.load(Ordering::Relaxed),
            grouped_windows: counters.grouped_windows.load(Ordering::Relaxed),
        }
    }

    fn journal_length(&self, name: &str) -> Result<usize, StoreError> {
        self.segments()
            .with_loaded(name, |meta| Ok(meta.cursor.updates))
    }

    /// The reset after a failed commit: clears a poisoned group committer
    /// (safe — the failing flush already rolled its unsynced records back)
    /// and drops the document's cached journal cursor, so the next touch
    /// rescans the on-disk truth (truncating any torn tail).
    fn reopen_document(&self, name: &str) -> Result<(), StoreError> {
        if let Some(group) = &self.shared.group {
            group.clear_poison();
        }
        self.segments().meta(name).lock().forget();
        Ok(())
    }

    /// Checkpoints a document: writes `fuzzy` as the new checkpoint (stamped
    /// with the next journal epoch) and deletes the folded segments. The
    /// checkpoint rename is the single commit point — a crash before it keeps
    /// the old checkpoint + journal, a crash after it leaves stale-epoch
    /// segments that recovery ignores and the next open/scan sweeps.
    fn checkpoint(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        // Settle any in-flight group-commit window first (before the meta
        // lock — the flush needs it): a pre-fold batch flushing *after* the
        // fold would land in the new epoch and be double-applied by replay.
        self.group_barrier();
        let segments = self.segments();
        segments.with_loaded(name, |meta| {
            let next_epoch = meta.epoch + 1;
            // The folded segments, derived from the cursor *before* the fold
            // — no directory scan on this per-compaction path (the load
            // already swept any stale-epoch stragglers at first touch).
            let folded = segments.current_segment_paths(name, meta);
            self.write_checkpoint(name, fuzzy, next_epoch)?;
            // From here on the checkpoint owns the journal's content; the old
            // segments are garbage whether or not these deletions complete.
            meta.epoch = next_epoch;
            meta.cursor = Cursor::default();
            for segment in folded {
                fs::remove_file(segment)?;
            }
            Ok(())
        })
    }

    // Inherent too: pxbench calls it on a concrete `FsBackend` without the
    // trait in scope.
    fn journal_batches(&self, name: &str) -> Result<usize, StoreError> {
        FsBackend::journal_batches(self, name)
    }

    // Inherent too, for the same reason.
    fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        FsBackend::journal_size_bytes(self, name)
    }

    fn root_dir(&self) -> Option<&Path> {
        Some(self.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::extract_epoch;
    use pxml_core::UpdateOperation;
    use pxml_query::Pattern;
    use pxml_tree::parse_data_tree;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory for one test.
    fn scratch(label: &str) -> PathBuf {
        let unique = format!(
            "pxml-store-test-{}-{}-{}",
            std::process::id(),
            label,
            COUNTER.fetch_add(1, Ordering::SeqCst)
        );
        std::env::temp_dir().join(unique)
    }

    fn sample_fuzzy() -> FuzzyTree {
        use pxml_event::{Condition, Literal};
        let mut fuzzy = FuzzyTree::new("directory");
        let w = fuzzy.add_event("w", 0.6).unwrap();
        let person = fuzzy.add_element(fuzzy.root(), "person");
        let name = fuzzy.add_element(person, "name");
        fuzzy.add_text(name, "alice");
        let phone = fuzzy.add_element(person, "phone");
        fuzzy.add_text(phone, "+33-1");
        fuzzy
            .set_condition(phone, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        fuzzy
    }

    fn sample_update() -> UpdateTransaction {
        let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
        let target = pattern.root();
        UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
            target,
            parse_data_tree("<email>alice@example.org</email>").unwrap(),
        )
    }

    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".seg"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn open_save_load_round_trip() {
        let dir = scratch("roundtrip");
        let store = FsBackend::open(&dir).unwrap();
        assert!(store.list_documents().unwrap().is_empty());
        let fuzzy = sample_fuzzy();
        store.save_document("people", &fuzzy).unwrap();
        assert!(store.contains("people"));
        assert_eq!(store.list_documents().unwrap(), vec!["people"]);
        let loaded = store.load_document("people").unwrap();
        assert!(fuzzy.semantically_equivalent(&loaded, 1e-12).unwrap());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_documents_are_reported() {
        let dir = scratch("missing");
        let store = FsBackend::open(&dir).unwrap();
        assert!(matches!(
            store.load_document("ghost"),
            Err(StoreError::MissingDocument(_))
        ));
        assert!(matches!(
            store.append_batch("ghost", &[sample_update()]),
            Err(StoreError::MissingDocument(_))
        ));
        assert!(matches!(
            store.remove_document("ghost"),
            Err(StoreError::MissingDocument(_))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn saving_twice_overwrites_atomically() {
        let dir = scratch("overwrite");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        let replacement = FuzzyTree::new("empty");
        store.save_document("doc", &replacement).unwrap();
        let loaded = store.load_document("doc").unwrap();
        assert_eq!(loaded.node_count(), 1);
        // No temporary files are left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn journal_append_read_and_recover() {
        let dir = scratch("journal");
        let store = FsBackend::open(&dir).unwrap();
        let fuzzy = sample_fuzzy();
        store.save_document("people", &fuzzy).unwrap();
        assert_eq!(store.journal_length("people").unwrap(), 0);

        let update = sample_update();
        store
            .append_batch("people", std::slice::from_ref(&update))
            .unwrap();
        store.append_batch("people", &[update]).unwrap();
        assert_eq!(store.journal_length("people").unwrap(), 2);
        assert_eq!(store.journal_batches("people").unwrap(), 2);
        assert_eq!(store.read_batches("people").unwrap().len(), 2);
        assert!(store.journal_size_bytes("people").unwrap() > 0);

        // Recovery replays the journal on top of the checkpoint.
        let recovered = store.recover_document("people").unwrap();
        assert_eq!(recovered.tree().find_elements("email").len(), 2);
        // The checkpoint itself is untouched.
        let checkpointed = store.load_document("people").unwrap();
        assert!(checkpointed.tree().find_elements("email").is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_equals_in_memory_application() {
        let dir = scratch("recovery-equivalence");
        let store = FsBackend::open(&dir).unwrap();
        let mut in_memory = sample_fuzzy();
        store.save_document("people", &in_memory).unwrap();
        let update = sample_update();
        store
            .append_batch("people", std::slice::from_ref(&update))
            .unwrap();
        update.apply_to_fuzzy(&mut in_memory).unwrap();
        let recovered = store.recover_document("people").unwrap();
        assert!(recovered.semantically_equivalent(&in_memory, 1e-9).unwrap());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_journal_and_bumps_epoch() {
        let dir = scratch("checkpoint");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        store.append_batch("people", &[sample_update()]).unwrap();
        let recovered = store.recover_document("people").unwrap();
        store.checkpoint("people", &recovered).unwrap();
        assert_eq!(store.journal_length("people").unwrap(), 0);
        assert!(segment_files(&dir).is_empty(), "folded segments deleted");
        let text = fs::read_to_string(dir.join("people.pxml")).unwrap();
        assert_eq!(extract_epoch(&text), 1, "checkpoint carries the new epoch");
        let loaded = store.load_document("people").unwrap();
        assert_eq!(loaded.tree().find_elements("email").len(), 1);

        // Appends after the fold land in the new epoch and replay on top.
        store.append_batch("people", &[sample_update()]).unwrap();
        assert_eq!(
            segment_files(&dir),
            vec!["people.journal.1.0.seg".to_string()]
        );
        let reopened = FsBackend::open(&dir).unwrap();
        let recovered = reopened.recover_document("people").unwrap();
        assert_eq!(recovered.tree().find_elements("email").len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_document_preserves_the_epoch() {
        let dir = scratch("save-epoch");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store.checkpoint("doc", &sample_fuzzy()).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        let text = fs::read_to_string(dir.join("doc.pxml")).unwrap();
        assert_eq!(extract_epoch(&text), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn remove_document_deletes_files() {
        let dir = scratch("remove");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("doc", &sample_fuzzy()).unwrap();
        store.append_batch("doc", &[sample_update()]).unwrap();
        store.remove_document("doc").unwrap();
        assert!(!store.contains("doc"));
        assert!(store.list_documents().unwrap().is_empty());
        assert!(segment_files(&dir).is_empty());
        assert_eq!(store.journal_length("doc").unwrap(), 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn multi_update_batch_is_one_journal_entry() {
        let dir = scratch("batch");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        store
            .append_batch("people", &[sample_update(), sample_update()])
            .unwrap();
        assert_eq!(store.read_batches("people").unwrap().len(), 1);
        assert_eq!(store.journal_length("people").unwrap(), 2);
        let recovered = store.recover_document("people").unwrap();
        assert_eq!(recovered.tree().find_elements("email").len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn appends_roll_into_new_segments_past_the_threshold() {
        let dir = scratch("roll");
        // A 1-byte threshold rolls after every record.
        let rolling = || FsOptions {
            segment_roll_bytes: 1,
            ..FsOptions::default()
        };
        let store = FsBackend::with_options(&dir, rolling()).unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        for _ in 0..3 {
            store.append_batch("people", &[sample_update()]).unwrap();
        }
        assert_eq!(
            segment_files(&dir),
            vec![
                "people.journal.0.0.seg".to_string(),
                "people.journal.0.1.seg".to_string(),
                "people.journal.0.2.seg".to_string(),
            ]
        );
        assert_eq!(store.journal_batches("people").unwrap(), 3);
        // A fresh handle rebuilds the same meters from the headers and
        // continues the sequence instead of overwriting.
        let reopened = FsBackend::with_options(&dir, rolling()).unwrap();
        assert_eq!(reopened.journal_batches("people").unwrap(), 3);
        reopened.append_batch("people", &[sample_update()]).unwrap();
        assert_eq!(segment_files(&dir).len(), 4);
        assert_eq!(
            reopened
                .recover_document("people")
                .unwrap()
                .tree()
                .find_elements("email")
                .len(),
            4
        );
        fs::remove_dir_all(dir).unwrap();
    }

    /// Clones of one store share the per-document mutexes: concurrent
    /// appends to the same journal from several threads must all land.
    #[test]
    fn concurrent_appends_to_one_document_all_land() {
        let dir = scratch("concurrent-appends");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        let threads = 4;
        let per_thread = 5;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let store = store.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..per_thread {
                        store.append_batch("people", &[sample_update()]).unwrap();
                    }
                });
            }
        });
        assert_eq!(
            store.read_batches("people").unwrap().len(),
            threads * per_thread
        );
        assert_eq!(
            store.journal_batches("people").unwrap(),
            threads * per_thread
        );
        fs::remove_dir_all(dir).unwrap();
    }

    /// Appends to *different* documents run from several threads write two
    /// independent journals that never interleave entries.
    #[test]
    fn concurrent_appends_to_distinct_documents_stay_separate() {
        let dir = scratch("distinct-appends");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("a", &sample_fuzzy()).unwrap();
        store.save_document("b", &sample_fuzzy()).unwrap();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            for name in ["a", "b"] {
                let store = store.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..6 {
                        let pattern = Pattern::parse("person { name }").unwrap();
                        let target = pattern.root();
                        let update = UpdateTransaction::new(pattern, 0.5).unwrap().with_insert(
                            target,
                            parse_data_tree(&format!("<tag-{name}-{i}/>")).unwrap(),
                        );
                        store.append_batch(name, &[update]).unwrap();
                    }
                });
            }
        });
        for name in ["a", "b"] {
            let batches = store.read_batches(name).unwrap();
            assert_eq!(batches.len(), 6);
            for update in batches.into_iter().flatten() {
                let own = update.operations().iter().all(|op| match op {
                    UpdateOperation::Insert { subtree, .. } => subtree
                        .label(subtree.root())
                        .as_str()
                        .starts_with(&format!("tag-{name}-")),
                    UpdateOperation::Delete { .. } => false,
                });
                assert!(own, "journal of `{name}` holds only its own updates");
            }
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn multiple_documents_coexist() {
        let dir = scratch("multi");
        let store = FsBackend::open(&dir).unwrap();
        store.save_document("a", &sample_fuzzy()).unwrap();
        store.save_document("b", &FuzzyTree::new("other")).unwrap();
        assert_eq!(store.list_documents().unwrap(), vec!["a", "b"]);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A grouped backend opened with the default window: tests construct it
    /// with a generous fill deadline so coalescing is deterministic-ish but
    /// a lone committer never stalls noticeably.
    fn grouped(dir: &Path, window_max_batches: usize) -> FsBackend {
        FsBackend::with_options(
            dir,
            FsOptions {
                commit: CommitPolicy::Grouped {
                    window_max_batches,
                    window_max_wait: Duration::from_millis(5),
                },
                ..FsOptions::default()
            },
        )
        .unwrap()
    }

    /// A lone committer under `Grouped` becomes its own window leader: the
    /// append lands durably, journal contents match the sync path, and the
    /// stats record one grouped commit in one window.
    #[test]
    fn grouped_single_committer_leads_its_own_window() {
        let dir = scratch("grouped-single");
        let store = grouped(&dir, 8);
        store.save_document("people", &sample_fuzzy()).unwrap();
        store
            .append_batch_enqueue("people", &[sample_update()])
            .wait()
            .unwrap();
        assert_eq!(store.journal_batches("people").unwrap(), 1);
        assert_eq!(
            store
                .recover_document("people")
                .unwrap()
                .tree()
                .find_elements("email")
                .len(),
            1
        );
        let stats = store.durability_stats();
        assert_eq!(stats.grouped_commits, 1);
        assert_eq!(stats.grouped_windows, 1);
        assert!(stats.fsyncs >= 1);
        assert!((stats.mean_window_occupancy() - 1.0).abs() < 1e-12);
        fs::remove_dir_all(dir).unwrap();
    }

    /// Barrier-started grouped appends across two documents: all land, the
    /// two journals stay separate, and the windows issued strictly fewer
    /// fsync rounds than there were commits (the coalescing claim).
    #[test]
    fn grouped_appends_across_documents_coalesce_fsyncs() {
        let dir = scratch("grouped-coalesce");
        let store = grouped(&dir, 4);
        store.save_document("a", &sample_fuzzy()).unwrap();
        store.save_document("b", &sample_fuzzy()).unwrap();
        let baseline = store.durability_stats().fsyncs;
        let threads = 4;
        let per_thread = 3;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = store.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let name = if t % 2 == 0 { "a" } else { "b" };
                    barrier.wait();
                    for _ in 0..per_thread {
                        store
                            .append_batch_enqueue(name, &[sample_update()])
                            .wait()
                            .unwrap();
                    }
                });
            }
        });
        let commits = threads * per_thread;
        assert_eq!(store.journal_batches("a").unwrap(), commits / 2);
        assert_eq!(store.journal_batches("b").unwrap(), commits / 2);
        let stats = store.durability_stats();
        assert_eq!(stats.grouped_commits, commits);
        assert!(
            stats.fsyncs - baseline < commits,
            "windows must coalesce: {} fsync rounds for {commits} commits",
            stats.fsyncs - baseline
        );
        assert!(stats.mean_window_occupancy() >= 1.0);
        fs::remove_dir_all(dir).unwrap();
    }

    /// Dropping an unresolved ticket still flushes the enqueued batch — an
    /// enqueue is never silently abandoned.
    #[test]
    fn dropped_ticket_still_flushes_the_batch() {
        let dir = scratch("grouped-drop-ticket");
        let store = grouped(&dir, 8);
        store.save_document("people", &sample_fuzzy()).unwrap();
        let ticket = store.append_batch_enqueue("people", &[sample_update()]);
        drop(ticket);
        assert_eq!(store.journal_batches("people").unwrap(), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    /// An enqueue against a missing document fails eagerly with a resolved
    /// ticket instead of poisoning a window.
    #[test]
    fn grouped_enqueue_rejects_missing_documents() {
        let dir = scratch("grouped-missing");
        let store = grouped(&dir, 8);
        let ticket = store.append_batch_enqueue("ghost", &[sample_update()]);
        assert!(ticket.is_durable());
        assert!(matches!(ticket.wait(), Err(StoreError::MissingDocument(_))));
        fs::remove_dir_all(dir).unwrap();
    }

    /// `remove_document` barriers the window first: a batch enqueued before
    /// the removal flushes durably (its ticket resolves Ok), and the removal
    /// then deletes everything — no segment file is resurrected afterwards.
    #[test]
    fn removal_barriers_in_flight_grouped_appends() {
        let dir = scratch("grouped-remove-barrier");
        let store = grouped(&dir, 8);
        store.save_document("people", &sample_fuzzy()).unwrap();
        let ticket = store.append_batch_enqueue("people", &[sample_update()]);
        store.remove_document("people").unwrap();
        ticket.wait().unwrap();
        assert!(!store.contains("people"));
        assert!(segment_files(&dir).is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    /// `checkpoint` barriers the window first: a batch enqueued before the
    /// fold is flushed into the pre-fold epoch, so replay sees it exactly
    /// once (inside the checkpoint, not double-applied on top).
    #[test]
    fn checkpoint_barriers_then_folds_enqueued_batches() {
        let dir = scratch("grouped-checkpoint-barrier");
        let store = grouped(&dir, 8);
        store.save_document("people", &sample_fuzzy()).unwrap();
        let ticket = store.append_batch_enqueue("people", &[sample_update()]);
        // Fold with a state that already contains the enqueued update, as
        // the warehouse does (it applies in memory at enqueue time).
        let mut folded = sample_fuzzy();
        sample_update().apply_to_fuzzy(&mut folded).unwrap();
        store.checkpoint("people", &folded).unwrap();
        ticket.wait().unwrap();
        assert_eq!(store.journal_batches("people").unwrap(), 0);
        let recovered = store.recover_document("people").unwrap();
        assert_eq!(recovered.tree().find_elements("email").len(), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A failed fsync on the synchronous path rolls the record back: the
    /// error surfaces, the journal holds exactly the acknowledged batches
    /// (no phantom), and the document keeps working afterwards.
    #[test]
    fn sync_fsync_failure_rolls_the_record_back() {
        use crate::fault::{is_injected, FaultOp, FaultPlan};
        let dir = scratch("fsync-fail-sync");
        let plan = Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 2));
        let store = FsBackend::with_options(
            &dir,
            FsOptions {
                fault: Some(plan),
                ..FsOptions::default()
            },
        )
        .unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        store.append_batch("people", &[sample_update()]).unwrap();
        let error = store
            .append_batch("people", &[sample_update()])
            .unwrap_err();
        assert!(is_injected(&error), "unexpected error: {error}");
        assert_eq!(store.journal_batches("people").unwrap(), 1);
        assert_eq!(store.read_batches("people").unwrap().len(), 1);
        // A fresh handle rebuilds the same truth from disk.
        let reopened = FsBackend::open(&dir).unwrap();
        assert_eq!(reopened.journal_batches("people").unwrap(), 1);
        // The sync path carries no poison: the next append just works.
        store.append_batch("people", &[sample_update()]).unwrap();
        assert_eq!(store.journal_batches("people").unwrap(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    /// An injected checkpoint fault is a typed error that stages nothing —
    /// the old checkpoint and the whole journal stay, on this handle and on
    /// a fresh one — and the next un-faulted checkpoint folds. A torn write
    /// at this door is a plain error.
    #[test]
    fn checkpoint_fault_leaves_old_checkpoint_and_full_journal() {
        use crate::fault::{FaultKind, FaultOp, FaultPlan, INJECTED_FAULT};
        let dir = scratch("checkpoint-fault");
        // Checkpoint #1 is the save; #2 and #3 are the faulted folds.
        let plan = Arc::new(
            FaultPlan::new()
                .fail_nth(FaultOp::Checkpoint, 2)
                .fail_nth_with(FaultOp::Checkpoint, 3, FaultKind::TornWrite),
        );
        let store = FsBackend::with_options(
            &dir,
            FsOptions {
                fault: Some(plan.clone()),
                ..FsOptions::default()
            },
        )
        .unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        store.append_batch("people", &[sample_update()]).unwrap();
        let recovered = store.recover_document("people").unwrap();
        for faults in 1..=2 {
            let error = store.checkpoint("people", &recovered).unwrap_err();
            assert!(
                matches!(&error, StoreError::Io(io) if io.to_string().contains(INJECTED_FAULT)),
                "unexpected error: {error}"
            );
            assert_eq!(plan.injected_faults(), faults);
            for handle in [store.clone(), FsBackend::open(&dir).unwrap()] {
                assert_eq!(handle.journal_batches("people").unwrap(), 1);
                let checkpointed = handle.load_document("people").unwrap();
                assert!(checkpointed.tree().find_elements("email").is_empty());
            }
            let text = fs::read_to_string(dir.join("people.pxml")).unwrap();
            assert_eq!(extract_epoch(&text), 0);
            assert!(!dir.join(".people.pxml.tmp").exists(), "nothing was staged");
        }
        store.checkpoint("people", &recovered).unwrap();
        assert_eq!(plan.ops(FaultOp::Checkpoint), 4);
        assert_eq!(store.journal_batches("people").unwrap(), 0);
        assert!(segment_files(&dir).is_empty(), "folded segments deleted");
        let reopened = FsBackend::open(&dir).unwrap();
        let folded = reopened.recover_document("people").unwrap();
        assert_eq!(folded.tree().find_elements("email").len(), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A failed window fsync errors every ticket, rolls the window's records
    /// back, and poisons the committer — recovery requires a reopen, which
    /// restores write availability with the journal equal to the
    /// acknowledged prefix.
    #[test]
    fn grouped_fsync_failure_poisons_until_reopen() {
        use crate::fault::{is_injected, FaultOp, FaultPlan};
        let dir = scratch("fsync-fail-grouped");
        let plan = Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 1));
        let store = FsBackend::with_options(
            &dir,
            FsOptions {
                commit: CommitPolicy::Grouped {
                    window_max_batches: 4,
                    window_max_wait: Duration::from_millis(5),
                },
                fault: Some(plan),
                ..FsOptions::default()
            },
        )
        .unwrap();
        store.save_document("people", &sample_fuzzy()).unwrap();
        let error = store
            .append_batch_enqueue("people", &[sample_update()])
            .wait()
            .unwrap_err();
        assert!(is_injected(&error), "unexpected error: {error}");
        // Rolled back: no journal on disk, meters agree.
        assert_eq!(store.journal_batches("people").unwrap(), 0);
        assert!(segment_files(&dir).is_empty());
        // Poisoned: the next grouped append fails without touching the
        // device — there is no retry-fsync-then-ack.
        let fsyncs_before = store.durability_stats().fsyncs;
        let poisoned = store
            .append_batch_enqueue("people", &[sample_update()])
            .wait()
            .unwrap_err();
        assert!(poisoned.to_string().contains("poisoned"));
        assert_eq!(store.durability_stats().fsyncs, fsyncs_before);
        // Reopen lifts the poison; the journal holds the durable state.
        store.reopen_document("people").unwrap();
        let recovered = store.recover_document("people").unwrap();
        assert!(recovered.tree().find_elements("email").is_empty());
        store
            .append_batch_enqueue("people", &[sample_update()])
            .wait()
            .unwrap();
        assert_eq!(store.journal_batches("people").unwrap(), 1);
        assert_eq!(
            store
                .recover_document("people")
                .unwrap()
                .tree()
                .find_elements("email")
                .len(),
            1
        );
        fs::remove_dir_all(dir).unwrap();
    }

    /// An injected torn write, under either policy: the error is the
    /// injected one, the record landed minus its sheared tail, the meters
    /// stay stale until a reopen truncates the torn record away — and an
    /// earlier unresolved ticket of the same document still lands first.
    #[test]
    fn torn_write_shears_the_record_until_reopen() {
        use crate::fault::{is_injected, FaultKind, FaultOp, FaultPlan};
        for commit in [CommitPolicy::Sync, CommitPolicy::grouped()] {
            let dir = scratch("torn-write");
            let plan = FaultPlan::new().fail_nth_with(FaultOp::Append, 2, FaultKind::TornWrite);
            let store = FsBackend::with_options(
                &dir,
                FsOptions {
                    commit,
                    fault: Some(Arc::new(plan)),
                    ..FsOptions::default()
                },
            )
            .unwrap();
            store.save_document("people", &sample_fuzzy()).unwrap();
            let first = store.append_batch_enqueue("people", &[sample_update()]);
            let error = store
                .append_batch("people", &[sample_update()])
                .unwrap_err();
            assert!(is_injected(&error), "unexpected error: {error}");
            first.wait().unwrap();
            let segment = dir.join("people.journal.0.0.seg");
            let whole = 2 * encode_record(&[sample_update()]).bytes.len() as u64;
            assert_eq!(fs::metadata(&segment).unwrap().len(), whole - TEAR_BYTES);
            assert_eq!(store.journal_batches("people").unwrap(), 2, "stale meters");
            store.reopen_document("people").unwrap();
            let recovered = store.recover_document("people").unwrap();
            assert_eq!(recovered.tree().find_elements("email").len(), 1);
            assert_eq!(store.journal_batches("people").unwrap(), 1);
            assert_eq!(fs::metadata(&segment).unwrap().len(), whole / 2);
            fs::remove_dir_all(dir).unwrap();
        }
    }
}
