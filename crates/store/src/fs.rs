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
//! # Segment format
//!
//! A segment file is a sequence of **records**, one per committed batch:
//!
//! ```text
//! [payload_len: u32 LE][update_count: u32 LE][payload: UTF-8 <pxml:batch> XML]
//! ```
//!
//! An append ([`FsBackend::append_batch_enqueue`]; [`FsBackend::append_batch`]
//! is that call plus the wait on its ticket) adds one record to the
//! highest-sequence segment of the current epoch (rolling to a new sequence
//! number once the active segment exceeds the roll threshold) and fsyncs it,
//! alone or inside a group-commit window — commit cost is **O(batch)**,
//! independent of how many batches the journal already holds.
//! The `update_count` header field lets the store rebuild its per-document
//! journal meters (batches, updates, bytes) by walking headers only, so
//! [`FsBackend::journal_length`] is O(1) after the one-time scan.
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
//! all clones of the backend) that also guards the document's journal meters,
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
use crate::format::{extract_epoch, parse_fuzzy_document, serialize_fuzzy_document_with_epoch};
use crate::group::{CommitPolicy, CommitTicket, DurabilityStats, GroupCommitter, PendingAppend};
use crate::journal::{parse_batch, serialize_batch};

/// Bytes of each record header: `payload_len: u32 LE` + `update_count: u32 LE`.
const RECORD_HEADER_BYTES: u64 = 8;

/// Bytes an injected [`FaultKind::TornWrite`] shears off the record it tore:
/// enough to leave the payload shorter than its header promises.
const TEAR_BYTES: u64 = 3;

/// Default segment roll threshold: once the active segment grows past this
/// many bytes, the next append starts a new segment file. Bounding the
/// active segment bounds the per-append fsync work (on file systems where
/// fsync cost grows with file size) and the torn-tail scan — both part of
/// the flat-commit-cost claim E12 measures.
pub const DEFAULT_SEGMENT_ROLL_BYTES: u64 = 512 * 1024;

/// Per-document journal meters and append cursor, rebuilt once per process by
/// scanning record headers and kept incrementally current afterwards. The
/// mutex around it doubles as the document's write lock.
#[derive(Debug, Default)]
struct DocMeta {
    /// Whether the on-disk state has been scanned into the fields below.
    loaded: bool,
    /// The journal epoch of the document's checkpoint.
    epoch: u64,
    /// Sequence number of the active (highest) segment; `None` while the
    /// journal is empty.
    active_seq: Option<u64>,
    /// Bytes already in the active segment (the roll trigger).
    active_len: u64,
    /// Committed batches awaiting a checkpoint.
    batches: usize,
    /// Journaled updates awaiting a checkpoint.
    updates: usize,
    /// Total record bytes across the journal's segments.
    bytes: u64,
}

impl DocMeta {
    fn reset_journal(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.active_seq = None;
        self.active_len = 0;
        self.batches = 0;
        self.updates = 0;
        self.bytes = 0;
    }

    /// The cursor/meter state a failed fsync must roll back to.
    fn snapshot(&self) -> MetaSnapshot {
        MetaSnapshot {
            active_seq: self.active_seq,
            active_len: self.active_len,
            batches: self.batches,
            updates: self.updates,
            bytes: self.bytes,
        }
    }

    fn restore(&mut self, saved: &MetaSnapshot) {
        self.active_seq = saved.active_seq;
        self.active_len = saved.active_len;
        self.batches = saved.batches;
        self.updates = saved.updates;
        self.bytes = saved.bytes;
    }
}

/// A copy of [`DocMeta`]'s journal cursor and meters, taken before records
/// are written so a failed fsync round can roll the document back to its
/// last durable state (see [`FsBackend::rollback_unsynced`]).
#[derive(Debug, Clone, Copy)]
struct MetaSnapshot {
    active_seq: Option<u64>,
    active_len: u64,
    batches: usize,
    updates: usize,
    bytes: u64,
}

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
    /// Deliberate-window mode for tests and benchmarks of the grouped
    /// policy: when `true`, a solo window leader waits out the fill window
    /// (`window_max_wait`) even with no sign of concurrent committers,
    /// instead of taking the idle fast-path that fsyncs a lone append
    /// immediately (see [`GroupCommitter`]'s module docs). `false` (the
    /// default) is what production sessions want.
    pub group_fill_idle_windows: bool,
    /// The fault plan the backend consults at its append entry point and
    /// in its fsync funnel (see [`crate::fault`]) — the single door faults
    /// enter the storage stack by. `None` (the default) disables injection
    /// entirely.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for FsOptions {
    fn default() -> Self {
        FsOptions {
            segment_roll_bytes: DEFAULT_SEGMENT_ROLL_BYTES,
            commit: CommitPolicy::default(),
            simulated_sync_latency: Duration::ZERO,
            group_fill_idle_windows: false,
            fault: None,
        }
    }
}

/// The (possibly simulated) flush device shared by all clones of one
/// backend: fsync rounds serialize on the gate for `latency` each when the
/// model is enabled.
#[derive(Debug)]
struct Device {
    latency: Duration,
    gate: Mutex<()>,
}

/// The lock-free durability counters behind [`FsBackend::durability_stats`],
/// shared by all clones.
#[derive(Debug, Default)]
struct SyncCounters {
    fsyncs: AtomicUsize,
    grouped_commits: AtomicUsize,
    grouped_windows: AtomicUsize,
}

/// The file-system storage backend (see the module docs for the on-disk
/// format and crash-recovery rules).
///
/// Cloning is cheap and clones share the per-document mutexes, so a backend
/// handed to several threads keeps same-document operations serialized.
#[derive(Debug, Clone)]
pub struct FsBackend {
    root: PathBuf,
    roll_bytes: u64,
    /// One meta + write mutex per document name, shared across clones; never
    /// held for two documents at once. A name's entry deliberately survives
    /// document removal (see [`FsBackend::remove_document`]).
    metas: Arc<Mutex<HashMap<String, Arc<Mutex<DocMeta>>>>>,
    /// The group committer under [`CommitPolicy::Grouped`]; `None` makes
    /// the append entry point write and fsync in place.
    group: Option<Arc<GroupCommitter>>,
    device: Arc<Device>,
    counters: Arc<SyncCounters>,
    /// The fault plan of [`FsOptions::fault`], consulted at the append entry
    /// point and by the fsync funnel; `None` in production.
    fault: Option<Arc<FaultPlan>>,
}

/// One just-written journal record: the still-open (not yet fsync'd)
/// segment file, its sequence number, and whether this record created the
/// file — a directory mutation the covering fsync round must flush too.
struct AppendedRecord {
    file: fs::File,
    seq: u64,
    fresh: bool,
}

/// The parsed form of a segment file name `<name>.journal.<epoch>.<seq>.seg`.
struct SegmentName {
    document: String,
    epoch: u64,
    seq: u64,
}

/// Parses a segment file name from the right, so document names containing
/// dots stay unambiguous.
fn parse_segment_name(file_name: &str) -> Option<SegmentName> {
    let rest = file_name.strip_suffix(".seg")?;
    let (rest, seq) = rest.rsplit_once('.')?;
    let (rest, epoch) = rest.rsplit_once('.')?;
    let document = rest.strip_suffix(".journal")?;
    Some(SegmentName {
        document: document.to_string(),
        epoch: epoch.parse().ok()?,
        seq: seq.parse().ok()?,
    })
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
            } => Some(Arc::new(GroupCommitter::new(
                window_max_batches,
                window_max_wait,
                options.group_fill_idle_windows,
            ))),
        };
        let backend = FsBackend {
            root,
            roll_bytes: options.segment_roll_bytes.max(1),
            metas: Arc::new(Mutex::with_class(
                LockClass::JournalRegistry,
                HashMap::new(),
            )),
            group,
            device: Arc::new(Device {
                latency: options.simulated_sync_latency,
                gate: Mutex::with_class(LockClass::Device, ()),
            }),
            counters: Arc::new(SyncCounters::default()),
            fault: options.fault,
        };
        backend.sweep()?;
        Ok(backend)
    }

    /// A clone with the group committer detached: it shares every meter,
    /// counter and the device gate, but its appends write in place. Window
    /// flushes and ticket waits run through such a handle so they can never
    /// re-enter the committer they serve.
    fn degrouped(&self) -> FsBackend {
        FsBackend {
            group: None,
            ..self.clone()
        }
    }

    /// The open-time sweep: discard commit debris that never reached a
    /// rename commit point and drop segments orphaned by a half-done removal.
    fn sweep(&self) -> Result<(), StoreError> {
        let mut checkpoints: Vec<String> = Vec::new();
        let mut segments: Vec<(PathBuf, SegmentName)> = Vec::new();
        for entry in fs::read_dir(&self.root)? {
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
                        segments.push((path, parsed));
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
        for (path, parsed) in &segments {
            if !checkpoints.iter().any(|c| c == &parsed.document) {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Flushes the store directory itself: file creations, renames and
    /// unlinks live in the directory entry, and `fsync` of the file alone
    /// does not make them power-loss durable. Called whenever an operation's
    /// durability or ordering depends on a directory mutation having reached
    /// disk.
    fn sync_dir(&self) -> Result<(), StoreError> {
        fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }

    /// The meta/write mutex of one document (created on first use). The
    /// registry lock is held only long enough to clone the per-document
    /// `Arc`.
    fn meta(&self, name: &str) -> Arc<Mutex<DocMeta>> {
        self.metas
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::with_class(LockClass::Journal, DocMeta::default())))
            .clone()
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn document_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.pxml"))
    }

    fn segment_path(&self, name: &str, epoch: u64, seq: u64) -> PathBuf {
        self.root.join(format!("{name}.journal.{epoch}.{seq}.seg"))
    }

    /// The document's current-epoch segment files, derived from the loaded
    /// journal meters — sequences run contiguously from 0 to the active one,
    /// so no directory scan is needed on the hot paths (reads, compaction).
    fn current_segment_paths(&self, name: &str, meta: &DocMeta) -> Vec<PathBuf> {
        match meta.active_seq {
            None => Vec::new(),
            Some(active) => (0..=active)
                .map(|seq| self.segment_path(name, meta.epoch, seq))
                .collect(),
        }
    }

    /// All segment files of one document (any epoch), found by scanning the
    /// store directory — O(total store entries), so reserved for the paths
    /// that genuinely need to see stale or orphaned files (the first load of
    /// a document and its removal).
    fn segments_of(&self, name: &str) -> Result<Vec<(PathBuf, SegmentName)>, StoreError> {
        let mut segments = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(parsed) = parse_segment_name(file_name) {
                if parsed.document == name {
                    segments.push((path, parsed));
                }
            }
        }
        segments.sort_by_key(|(_, parsed)| (parsed.epoch, parsed.seq));
        Ok(segments)
    }

    /// Rebuilds a document's journal meters from disk if this is the first
    /// touch: reads the checkpoint's epoch, drops segments of older epochs
    /// (the debris of a compaction killed between its rename commit point and
    /// the segment deletion — their batches are already folded into the
    /// checkpoint), truncates a torn tail record, and sums the headers.
    fn ensure_loaded(&self, name: &str, meta: &mut DocMeta) -> Result<(), StoreError> {
        if meta.loaded {
            return Ok(());
        }
        let checkpoint = self.document_path(name);
        let epoch = if checkpoint.exists() {
            extract_epoch(&fs::read_to_string(&checkpoint)?)
        } else {
            0
        };
        meta.reset_journal(epoch);
        let segments = self.segments_of(name)?;
        let last_current = segments
            .iter()
            .rev()
            .find(|(_, parsed)| parsed.epoch == epoch)
            .map(|(path, _)| path.clone());
        for (path, parsed) in segments {
            if parsed.epoch != epoch {
                fs::remove_file(&path)?;
                continue;
            }
            let is_tail = Some(&path) == last_current.as_ref();
            let scan = scan_segment(&path, is_tail)?;
            if scan.torn_at.is_some() {
                // The tail record never reached its commit point (the append
                // died mid-write): truncate it away so the next append starts
                // on a record boundary.
                let file = fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.sound_bytes)?;
                file.sync_all()?;
            }
            meta.batches += scan.batches;
            meta.updates += scan.updates;
            meta.bytes += scan.sound_bytes;
            meta.active_seq = Some(parsed.seq);
            meta.active_len = scan.sound_bytes;
        }
        meta.loaded = true;
        Ok(())
    }

    /// The atomic checkpoint write itself, assuming the caller holds the
    /// document's mutex.
    fn write_checkpoint(
        &self,
        name: &str,
        fuzzy: &FuzzyTree,
        epoch: u64,
    ) -> Result<(), StoreError> {
        let target = self.document_path(name);
        let temporary = self.root.join(format!(".{name}.pxml.tmp"));
        let mut file = fs::File::create(&temporary)?;
        file.write_all(serialize_fuzzy_document_with_epoch(fuzzy, true, epoch).as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&temporary, &target)?;
        // Make the rename itself power-loss durable. For a compaction this is
        // also an ordering barrier: the folded segments are deleted only
        // after this, so the deletions can never reach disk ahead of the new
        // checkpoint.
        self.sync_dir()?;
        Ok(())
    }

    /// The committer-less arm of [`FsBackend::append_batch_enqueue`]: one
    /// length-prefixed record written to the active segment and covered by
    /// its own fsync round — **O(batch)**, never a rewrite of earlier
    /// records. The write lands in a new segment file when the active one
    /// has grown past the roll threshold. `torn` carries the error of an
    /// injected [`FaultKind::TornWrite`]: the record lands, its tail is
    /// sheared off through the segment handle still held, and the error is
    /// returned with the meters left stale — a reopen rescans them.
    fn append_now(
        &self,
        name: &str,
        batch: &[UpdateTransaction],
        torn: Option<StoreError>,
    ) -> Result<(), StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        if !self.contains(name) {
            return Err(StoreError::MissingDocument(name.to_string()));
        }
        let saved = meta.snapshot();
        let appended = self.write_record(name, &mut meta, batch)?;
        if let Err(error) = self.fsync_round(std::slice::from_ref(&appended.file), appended.fresh) {
            // The record is in the page cache but never reached the device:
            // roll it back so replay surfaces exactly the acknowledged
            // batches and nothing more.
            self.rollback_unsynced(name, &mut meta, &saved);
            return Err(error);
        }
        match torn {
            None => Ok(()),
            Some(error) => {
                let sheared = meta.active_len.saturating_sub(TEAR_BYTES);
                appended.file.set_len(sheared)?;
                appended.file.sync_all()?;
                Err(error)
            }
        }
    }

    /// Best-effort undo of the records written for `name` since `saved` but
    /// never covered by a successful fsync round: segments created after the
    /// snapshot are removed, the previously active segment is truncated back
    /// to its durable length, and the meters are restored. If the disk
    /// refuses even the rollback, the cached meters are invalidated so the
    /// next touch rescans the on-disk truth instead of trusting stale state.
    ///
    /// Callers must hold the document's meta lock *and* guarantee no new
    /// window can flush concurrently (the committer is poisoned first on the
    /// grouped path; the sync path holds the meta lock throughout).
    fn rollback_unsynced(&self, name: &str, meta: &mut DocMeta, saved: &MetaSnapshot) {
        let epoch = meta.epoch;
        let rolled: std::io::Result<()> = (|| {
            if let Some(active) = meta.active_seq {
                let first_new = saved.active_seq.map_or(0, |seq| seq + 1);
                for seq in first_new..=active {
                    let path = self.segment_path(name, epoch, seq);
                    if path.exists() {
                        fs::remove_file(&path)?;
                    }
                }
            }
            if let Some(seq) = saved.active_seq {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(self.segment_path(name, epoch, seq))?;
                file.set_len(saved.active_len)?;
            }
            Ok(())
        })();
        meta.restore(saved);
        if rolled.is_err() {
            meta.loaded = false;
        }
    }

    /// Writes one record into the document's active segment (rolling past
    /// the threshold) and updates the journal meters, but does **not**
    /// fsync: the caller completes durability through
    /// [`FsBackend::fsync_round`], either alone (the synchronous append) or
    /// shared with other documents (a group-commit window). Both paths
    /// therefore roll — and flush fresh directory entries — by the exact
    /// same rules. The caller holds the document's meta lock with the meta
    /// loaded.
    ///
    /// The meters advance before the fsync: the bytes are in the file once
    /// `write_all` returns, so the meters stay consistent with what
    /// [`FsBackend::read_batches`] sees even if the later fsync fails (at
    /// reopen they are rebuilt from disk either way).
    fn write_record(
        &self,
        name: &str,
        meta: &mut DocMeta,
        batch: &[UpdateTransaction],
    ) -> Result<AppendedRecord, StoreError> {
        let record = encode_record(batch);
        let seq = match meta.active_seq {
            Some(seq) if meta.active_len < self.roll_bytes => seq,
            Some(seq) => seq + 1,
            None => 0,
        };
        let fresh = meta.active_seq != Some(seq);
        let path = self.segment_path(name, meta.epoch, seq);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(&record)?;
        if fresh {
            meta.active_seq = Some(seq);
            meta.active_len = record.len() as u64;
        } else {
            meta.active_len += record.len() as u64;
        }
        meta.batches += 1;
        meta.updates += batch.len();
        meta.bytes += record.len() as u64;
        Ok(AppendedRecord { file, seq, fresh })
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
        if let Some((_, error)) = self
            .fault
            .as_ref()
            .and_then(|plan| plan.decide(FaultOp::Fsync))
        {
            // An injected fsync fault (a torn write degrades to a plain
            // error here) preempts the round entirely: the data was written
            // but never reached the device — exactly the state a real fsync
            // failure leaves (callers roll the records back).
            return Err(error);
        }
        if self.device.latency > Duration::ZERO {
            let _gate = self.device.gate.lock();
            std::thread::sleep(self.device.latency);
        }
        for file in files {
            file.sync_data()?;
        }
        if fresh_segment {
            self.sync_dir()?;
        }
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes one drained group-commit window: writes every member's
    /// record under its document's meta lock (one document at a time, in
    /// first-appearance order, so same-document records land in enqueue —
    /// i.e. commit — order and the one-lock-at-a-time rule holds), then
    /// issues a **single** shared fsync round and completes every slot.
    /// A per-member failure is carried on that member's slot and, for
    /// same-document successors (whose bytes would land after the torn
    /// record), on theirs too.
    ///
    /// A failed **window fsync** errors every written slot, rolls every
    /// touched document back to its pre-window state
    /// ([`FsBackend::rollback_unsynced`]), and returns the failure message
    /// so the committer poisons itself — no slot is ever acknowledged past
    /// a failed round, and the fsync is never retried (see the
    /// [`crate::group`] module docs).
    pub(crate) fn flush_window(&self, window: Vec<PendingAppend>) -> Result<(), String> {
        if window.is_empty() {
            return Ok(());
        }
        let mut order: Vec<String> = Vec::new();
        let mut by_doc: HashMap<String, Vec<PendingAppend>> = HashMap::new();
        for member in window {
            if !by_doc.contains_key(&member.name) {
                order.push(member.name.clone());
            }
            by_doc.entry(member.name.clone()).or_default().push(member);
        }
        // The written-but-not-yet-durable slots, plus one open handle per
        // touched segment file (same-document members usually share one).
        let mut written = Vec::new();
        let mut files: Vec<fs::File> = Vec::new();
        let mut open_segments: HashMap<(String, u64), ()> = HashMap::new();
        let mut fresh_segment = false;
        // Per-document pre-window snapshots, so a failed window fsync can
        // roll every touched journal back to its last durable state.
        let mut doc_snapshots: Vec<(String, MetaSnapshot)> = Vec::new();
        for name in order {
            // `order` holds each name once and `by_doc` was keyed from the
            // same members, so a miss can only mean the grouping above went
            // wrong — skip the name rather than panic with slots unresolved
            // (their tickets would surface the stall as a hang otherwise).
            let Some(members) = by_doc.remove(&name) else {
                continue;
            };
            let meta = self.meta(&name);
            let mut meta = meta.lock();
            let precheck = self.ensure_loaded(&name, &mut meta).and_then(|()| {
                if self.contains(&name) {
                    Ok(())
                } else {
                    Err(StoreError::MissingDocument(name.clone()))
                }
            });
            if let Err(error) = precheck {
                let message = error.to_string();
                for member in &members {
                    member.slot.complete_err(message.clone());
                }
                continue;
            }
            doc_snapshots.push((name.clone(), meta.snapshot()));
            let mut doc_failed: Option<String> = None;
            for member in members {
                if let Some(message) = &doc_failed {
                    member.slot.complete_err(message.clone());
                    continue;
                }
                match self.write_record(&name, &mut meta, &member.batch) {
                    Ok(appended) => {
                        fresh_segment |= appended.fresh;
                        if open_segments
                            .insert((name.clone(), appended.seq), ())
                            .is_none()
                        {
                            files.push(appended.file);
                        }
                        written.push(member.slot);
                    }
                    Err(error) => {
                        let message = error.to_string();
                        member.slot.complete_err(message.clone());
                        doc_failed = Some(message);
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
                self.counters
                    .grouped_commits
                    .fetch_add(written.len(), Ordering::Relaxed);
                self.counters
                    .grouped_windows
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(error) => {
                let message = error.to_string();
                // Roll back before any waiter can observe the failure: when
                // a ticket resolves Err, the journal already holds exactly
                // the acknowledged prefix again. The caller poisons the
                // committer, so no new window can race these truncations.
                for (name, saved) in &doc_snapshots {
                    let meta = self.meta(name);
                    let mut meta = meta.lock();
                    self.rollback_unsynced(name, &mut meta, saved);
                }
                for slot in &written {
                    slot.complete_err(message.clone());
                }
                Err(message)
            }
        }
    }

    /// Number of journaled batches awaiting a checkpoint (O(1)).
    pub fn journal_batches(&self, name: &str) -> Result<usize, StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        Ok(meta.batches)
    }

    /// Total record bytes in the journal's segments (O(1)).
    pub fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        Ok(meta.bytes)
    }
}

impl StorageBackend for FsBackend {
    fn list_documents(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
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
        self.document_path(name).exists()
    }

    fn save_document(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        self.write_checkpoint(name, fuzzy, meta.epoch)
    }

    fn load_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        let path = self.document_path(name);
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
        let meta = self.meta(name);
        let mut meta = meta.lock();
        let path = self.document_path(name);
        if !path.exists() {
            return Err(StoreError::MissingDocument(name.to_string()));
        }
        // Checkpoint first: if the removal dies halfway, the leftover
        // segments are recognizably orphaned (no checkpoint) and swept at the
        // next open. The directory flush pins that ordering against power
        // loss too.
        fs::remove_file(path)?;
        self.sync_dir()?;
        for (segment, _) in self.segments_of(name)? {
            fs::remove_file(segment)?;
        }
        meta.reset_journal(0);
        meta.loaded = false;
        Ok(())
    }

    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        let mut batches = Vec::with_capacity(meta.batches);
        for path in self.current_segment_paths(name, &meta) {
            let bytes = fs::read(&path)?;
            let mut offset = 0usize;
            while let Some(record) = sound_record(&bytes, offset) {
                batches.push(parse_batch(record.payload)?);
                offset = record.next;
            }
        }
        Ok(batches)
    }

    fn append_batch(&self, name: &str, batch: &[UpdateTransaction]) -> Result<(), StoreError> {
        self.append_batch_enqueue(name, batch).wait()
    }

    /// The append entry point — every journal write starts here. Consults
    /// the fault plan once, then hands the batch to the group-commit window
    /// and returns a [`CommitTicket`] that resolves at the window's fsync;
    /// without a committer ([`CommitPolicy::Sync`]) the append runs to
    /// completion here and the ticket comes back already resolved.
    fn append_batch_enqueue(&self, name: &str, batch: &[UpdateTransaction]) -> CommitTicket {
        let torn = match self
            .fault
            .as_ref()
            .and_then(|plan| plan.decide(FaultOp::Append))
        {
            Some((FaultKind::TornWrite, error)) => Some(error),
            Some((_, error)) => return CommitTicket::resolved(Err(error)),
            None => None,
        };
        let group = match &self.group {
            Some(group) if torn.is_none() => group,
            _ => {
                // No committer — or a torn write, which cannot resolve
                // asynchronously (the shear must follow the write before
                // the caller sees the ticket): settle any open window first
                // so enqueue order holds, then write in place.
                self.group_barrier();
                return CommitTicket::resolved(self.append_now(name, batch, torn));
            }
        };
        // Fail a missing document eagerly, before it can poison a window.
        // (A removal racing the window is still caught by the flush itself.)
        if !self.contains(name) {
            return CommitTicket::resolved(Err(StoreError::MissingDocument(name.to_string())));
        }
        let slot = group.enqueue(name, batch);
        CommitTicket::window(slot, group.clone(), self.degrouped())
    }

    /// Waits out any in-flight group-commit window and flushes everything
    /// enqueued. Runs **before** this backend takes a document meta lock:
    /// the flush itself takes those locks, so a barrier under one would
    /// self-deadlock.
    fn group_barrier(&self) {
        if let Some(group) = &self.group {
            group.barrier(&self.degrouped());
        }
    }

    /// Fsync/window counters since this backend (or the clone family it
    /// belongs to) was opened. Lock-free snapshot.
    fn durability_stats(&self) -> DurabilityStats {
        DurabilityStats {
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            grouped_commits: self.counters.grouped_commits.load(Ordering::Relaxed),
            grouped_windows: self.counters.grouped_windows.load(Ordering::Relaxed),
        }
    }

    fn journal_length(&self, name: &str) -> Result<usize, StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        Ok(meta.updates)
    }

    /// In-place recovery after a failed commit: clears a poisoned group
    /// committer (safe — the failing flush already rolled its unsynced
    /// records back), drops the document's cached journal meters so the next
    /// touch rescans the on-disk truth (truncating any torn tail), and
    /// returns the recovered tree. `Warehouse::reopen_document` routes
    /// through this to lift a document out of quarantine.
    fn reopen_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        if let Some(group) = &self.group {
            group.clear_poison();
        }
        {
            let meta = self.meta(name);
            let mut meta = meta.lock();
            meta.loaded = false;
        }
        self.recover_document(name)
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
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        let next_epoch = meta.epoch + 1;
        // The folded segments, derived from the meters *before* the fold —
        // no directory scan on this per-compaction path (`ensure_loaded`
        // already swept any stale-epoch stragglers at first touch).
        let folded = self.current_segment_paths(name, &meta);
        self.write_checkpoint(name, fuzzy, next_epoch)?;
        // From here on the checkpoint owns the journal's content; the old
        // segments are garbage whether or not these deletions complete.
        meta.reset_journal(next_epoch);
        for segment in folded {
            fs::remove_file(segment)?;
        }
        Ok(())
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

/// Encodes one batch as a segment record (header + `<pxml:batch>` payload).
fn encode_record(batch: &[UpdateTransaction]) -> Vec<u8> {
    let payload = serialize_batch(batch);
    let mut record = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    record.extend_from_slice(payload.as_bytes());
    record
}

/// One whole record decoded from a segment.
struct SoundRecord<'a> {
    payload: &'a str,
    /// The header's update count — how many journaled updates the batch
    /// carries.
    updates: u32,
    /// Offset just past the record, where the next one starts.
    next: usize,
}

/// The sound record starting at `offset`, or `None` when the remaining bytes
/// are empty or torn (short header / short payload).
fn sound_record(bytes: &[u8], offset: usize) -> Option<SoundRecord<'_>> {
    let header_end = offset.checked_add(RECORD_HEADER_BYTES as usize)?;
    if header_end > bytes.len() {
        return None;
    }
    let payload_len = u32::from_le_bytes(bytes.get(offset..offset + 4)?.try_into().ok()?) as usize;
    let updates = u32::from_le_bytes(bytes.get(offset + 4..offset + 8)?.try_into().ok()?);
    let payload_end = header_end.checked_add(payload_len)?;
    if payload_end > bytes.len() {
        return None;
    }
    let payload = std::str::from_utf8(&bytes[header_end..payload_end]).ok()?;
    Some(SoundRecord {
        payload,
        updates,
        next: payload_end,
    })
}

/// One segment's header walk: record/update counts and the byte length of
/// the sound prefix.
struct SegmentScan {
    batches: usize,
    updates: usize,
    /// Bytes of whole records; anything beyond is a torn tail.
    sound_bytes: u64,
    /// Offset of a torn tail record, when one exists.
    torn_at: Option<u64>,
}

/// Walks a segment's record headers. A torn record is tolerated (reported
/// via `torn_at`) only when `tail` — in any other segment it means real
/// corruption, because appends only ever touch the journal's last segment.
fn scan_segment(path: &Path, tail: bool) -> Result<SegmentScan, StoreError> {
    let bytes = fs::read(path)?;
    let mut scan = SegmentScan {
        batches: 0,
        updates: 0,
        sound_bytes: 0,
        torn_at: None,
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        match sound_record(&bytes, offset) {
            // The record decodes its own update count, so the header is
            // never re-sliced here (the old re-slice panicked on a torn
            // header instead of reporting corruption through `StoreError`).
            Some(record) => {
                scan.batches += 1;
                scan.updates += record.updates as usize;
                offset = record.next;
                scan.sound_bytes = offset as u64;
            }
            None if tail => {
                scan.torn_at = Some(offset as u64);
                break;
            }
            None => {
                return Err(StoreError::Format(format!(
                    "segment {} holds a torn record at offset {offset} but is not the \
                     journal tail — the journal is corrupt",
                    path.display()
                )));
            }
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Reopen lifts the poison and recovers the durable state.
        let recovered = store.reopen_document("people").unwrap();
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
            let whole = 2 * encode_record(&[sample_update()]).len() as u64;
            assert_eq!(fs::metadata(&segment).unwrap().len(), whole - TEAR_BYTES);
            assert_eq!(store.journal_batches("people").unwrap(), 2, "stale meters");
            let recovered = store.reopen_document("people").unwrap();
            assert_eq!(recovered.tree().find_elements("email").len(), 1);
            assert_eq!(store.journal_batches("people").unwrap(), 1);
            assert_eq!(fs::metadata(&segment).unwrap().len(), whole / 2);
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn segment_names_parse_from_the_right() {
        let parsed = parse_segment_name("people.journal.3.12.seg").unwrap();
        assert_eq!(parsed.document, "people");
        assert_eq!((parsed.epoch, parsed.seq), (3, 12));
        let dotted = parse_segment_name("people.v2.journal.0.1.seg").unwrap();
        assert_eq!(dotted.document, "people.v2");
        assert!(parse_segment_name("people.journal.x.1.seg").is_none());
        assert!(parse_segment_name("people.pxml").is_none());
    }
}
