//! Per-document segment state of [`FsBackend`](crate::FsBackend): where a
//! document's files live, what its journal looks like right now, and the
//! only two mutations of a journal's tail — writing one record and undoing
//! the records no fsync covered.
//!
//! ```text
//! dir/
//!   <name>.pxml                   -- last checkpoint (PrXML; carries pxml:epoch)
//!   <name>.journal.<e>.<s>.seg    -- journal segment: epoch <e>, sequence <s>
//! ```
//!
//! [`Segments`] owns the naming, the registry of per-document [`DocMeta`]s
//! (the journal [`Cursor`] behind the document's write mutex), the one-time
//! load that rebuilds a cursor from disk — dropping stale-epoch segments and
//! truncating a torn tail — and [`Segments::with_loaded`], the single way an
//! operation gets at a document's loaded state. It handles **encoded**
//! records only: what a record's bytes mean is [`crate::journal`]'s business,
//! when they are fsynced (and what a failed fsync undoes) is [`crate::fs`]'s.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{LockClass, Mutex};

use crate::error::StoreError;
use crate::format::extract_epoch;
use crate::journal::{scan_segment, EncodedRecord};

/// A journal's append cursor and meters. One `Copy` value, so taking it
/// before records are written, putting it back after a failed fsync and
/// zeroing it at a fold are assignments.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    /// Sequence number of the active (highest) segment; `None` while the
    /// journal is empty.
    pub(crate) active_seq: Option<u64>,
    /// Bytes already in the active segment (the roll trigger).
    pub(crate) active_len: u64,
    /// Committed batches awaiting a checkpoint.
    pub(crate) batches: usize,
    /// Total record bytes across the journal's segments.
    pub(crate) bytes: u64,
}

/// Per-document journal state, rebuilt once per process by scanning record
/// headers and kept incrementally current afterwards. The mutex around it
/// doubles as the document's write lock.
#[derive(Debug, Default)]
pub(crate) struct DocMeta {
    /// Whether the on-disk state has been scanned into the fields below.
    loaded: bool,
    /// The journal epoch of the document's checkpoint.
    pub(crate) epoch: u64,
    pub(crate) cursor: Cursor,
}

impl DocMeta {
    /// Drops the cached state: the next touch rescans the on-disk truth
    /// (truncating any torn tail) instead of trusting it.
    pub(crate) fn forget(&mut self) {
        *self = DocMeta::default();
    }
}

/// One just-written journal record: the still-open (not yet fsync'd)
/// segment file, its sequence number, and whether this record created the
/// file — a directory mutation the covering fsync round must flush too.
pub(crate) struct AppendedRecord {
    pub(crate) file: fs::File,
    pub(crate) seq: u64,
    pub(crate) fresh: bool,
}

/// The parsed form of a segment file name `<name>.journal.<epoch>.<seq>.seg`.
pub(crate) struct SegmentName {
    pub(crate) document: String,
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
}

/// Parses a segment file name from the right, so document names containing
/// dots stay unambiguous.
pub(crate) fn parse_segment_name(file_name: &str) -> Option<SegmentName> {
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

/// The files and journal cursors of one store directory (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Segments {
    root: PathBuf,
    roll_bytes: u64,
    /// One meta + write mutex per document name; never held for two
    /// documents at once. A name's entry deliberately survives document
    /// removal (see `FsBackend::remove_document`).
    metas: Mutex<HashMap<String, Arc<Mutex<DocMeta>>>>,
}

impl Segments {
    pub(crate) fn new(root: PathBuf, roll_bytes: u64) -> Self {
        Segments {
            root,
            roll_bytes: roll_bytes.max(1),
            metas: Mutex::with_class(LockClass::JournalRegistry, HashMap::new()),
        }
    }

    /// The directory backing the store.
    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    /// Flushes the store directory itself: file creations, renames and
    /// unlinks live in the directory entry, and `fsync` of the file alone
    /// does not make them power-loss durable. Called whenever an operation's
    /// durability or ordering depends on a directory mutation having reached
    /// disk.
    pub(crate) fn sync_dir(&self) -> Result<(), StoreError> {
        fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }

    /// The meta/write mutex of one document (created on first use). The
    /// registry lock is held only long enough to clone the per-document
    /// `Arc`.
    pub(crate) fn meta(&self, name: &str) -> Arc<Mutex<DocMeta>> {
        self.metas
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::with_class(LockClass::Journal, DocMeta::default())))
            .clone()
    }

    /// Runs `body` on the document's journal state with its write lock held
    /// and the state loaded from disk — the prelude of every operation that
    /// reads or moves a cursor.
    pub(crate) fn with_loaded<R>(
        &self,
        name: &str,
        body: impl FnOnce(&mut DocMeta) -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        let meta = self.meta(name);
        let mut meta = meta.lock();
        self.ensure_loaded(name, &mut meta)?;
        body(&mut meta)
    }

    pub(crate) fn document_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.pxml"))
    }

    fn segment_path(&self, name: &str, epoch: u64, seq: u64) -> PathBuf {
        self.root.join(format!("{name}.journal.{epoch}.{seq}.seg"))
    }

    /// The document's current-epoch segment files, derived from the loaded
    /// cursor — sequences run contiguously from 0 to the active one, so no
    /// directory scan is needed on the hot paths (reads, compaction).
    pub(crate) fn current_segment_paths(&self, name: &str, meta: &DocMeta) -> Vec<PathBuf> {
        match meta.cursor.active_seq {
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
    pub(crate) fn segments_of(
        &self,
        name: &str,
    ) -> Result<Vec<(PathBuf, SegmentName)>, StoreError> {
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

    /// Rebuilds a document's cursor from disk if this is the first touch:
    /// reads the checkpoint's epoch, drops segments of older epochs (the
    /// debris of a compaction killed between its rename commit point and the
    /// segment deletion — their batches are already folded into the
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
        meta.epoch = epoch;
        meta.cursor = Cursor::default();
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
            let scan = scan_segment(&fs::read(&path)?, is_tail, &path.display())?;
            if scan.torn {
                // The tail record never reached its commit point (the append
                // died mid-write): truncate it away so the next append starts
                // on a record boundary.
                let file = fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.sound_bytes)?;
                file.sync_all()?;
            }
            meta.cursor.batches += scan.batches;
            meta.cursor.bytes += scan.sound_bytes;
            meta.cursor.active_seq = Some(parsed.seq);
            meta.cursor.active_len = scan.sound_bytes;
        }
        meta.loaded = true;
        Ok(())
    }

    /// Writes one record into the document's active segment (rolling past
    /// the threshold) and advances the cursor, but does **not** fsync: the
    /// caller completes durability through the backend's fsync round, either
    /// alone (the synchronous append) or shared with other documents (a
    /// group-commit window). Both paths therefore roll — and flush fresh
    /// directory entries — by the exact same rules. The caller holds the
    /// document's meta lock with the meta loaded.
    ///
    /// The cursor advances before the fsync: the bytes are in the file once
    /// `write_all` returns, so it stays consistent with what a replay reads
    /// even if the later fsync fails (at reopen it is rebuilt from disk
    /// either way).
    pub(crate) fn write_record(
        &self,
        name: &str,
        meta: &mut DocMeta,
        record: &EncodedRecord,
    ) -> Result<AppendedRecord, StoreError> {
        let cursor = &mut meta.cursor;
        let seq = match cursor.active_seq {
            Some(seq) if cursor.active_len < self.roll_bytes => seq,
            Some(seq) => seq + 1,
            None => 0,
        };
        let fresh = cursor.active_seq != Some(seq);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.segment_path(name, meta.epoch, seq))?;
        file.write_all(&record.bytes)?;
        let len = record.bytes.len() as u64;
        if fresh {
            cursor.active_seq = Some(seq);
            cursor.active_len = len;
        } else {
            cursor.active_len += len;
        }
        cursor.batches += 1;
        cursor.bytes += len;
        Ok(AppendedRecord { file, seq, fresh })
    }

    /// Best-effort undo of the records written for `name` since the cursor
    /// stood at `saved` but never covered by a successful fsync round:
    /// segments created since are removed, the previously active segment is
    /// truncated back to its durable length, and the cursor is put back. If
    /// the disk refuses even the rollback, the cached state is dropped so the
    /// next touch rescans the on-disk truth instead of trusting stale state.
    ///
    /// Callers must hold the document's meta lock *and* guarantee no new
    /// window can flush concurrently (the committer is poisoned first on the
    /// grouped path; the sync path holds the meta lock throughout).
    pub(crate) fn rollback_unsynced(&self, name: &str, meta: &mut DocMeta, saved: Cursor) {
        let epoch = meta.epoch;
        let rolled: std::io::Result<()> = (|| {
            if let Some(active) = meta.cursor.active_seq {
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
        meta.cursor = saved;
        if rolled.is_err() {
            meta.loaded = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
