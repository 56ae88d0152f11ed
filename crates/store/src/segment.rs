//! Per-document journal state of [`FsBackend`](crate::FsBackend): where a
//! document's files live, what its journal looks like right now, and the
//! only mutations of a journal: writing one record, undoing the records no
//! fsync covered, and the two halves of a fold — rotating appends to the
//! next epoch, and forgetting the epochs a renamed checkpoint folded.
//!
//! ```text
//! dir/
//!   <name>.pxml                   -- last checkpoint (PrXML; carries pxml:epoch)
//!   <name>.journal.<e>.0.seg      -- the journal of epoch <e>
//! ```
//!
//! A document has one journal file per epoch, and a cold open replays the
//! files of the checkpoint's epoch and of every newer epoch, in epoch
//! order. A fold rotates appends to the next epoch before its checkpoint
//! is written, so while that checkpoint is in flight (or after it failed,
//! until a later fold lands; the warehouse begins at most one per fold
//! interval) two or more un-folded epochs sit on disk. Once the
//! checkpoint of epoch `e` is renamed, the files of the epochs before `e`
//! are garbage. The `.0` is a sequence number that is always zero:
//! earlier builds rolled a long journal into `.1`, `.2`, … files, and
//! keeping the name keeps every store they wrote without rolling readable
//! as is. An un-folded epoch's file with any other sequence is refused at
//! first touch (see [`Segments::with_loaded`]).
//!
//! [`Segments`] owns the naming, the registry of per-document [`DocMeta`]s
//! (the journal [`Cursor`]s behind the document's write mutex), the one-time
//! load that rebuilds them from disk — dropping folded segments and
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
/// zeroing it at a rotation are assignments.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    /// Committed batches awaiting a checkpoint: read only by the inherent
    /// [`FsBackend::journal_batches`](crate::FsBackend::journal_batches).
    pub(crate) batches: usize,
    /// Record bytes in the epoch's journal file: the offset the next record
    /// lands at.
    pub(crate) bytes: u64,
}

/// Per-document journal state, rebuilt once per process by scanning record
/// headers and kept incrementally current afterwards. The mutex around it
/// doubles as the document's write lock.
#[derive(Debug, Default)]
pub(crate) struct DocMeta {
    /// Whether the on-disk state has been scanned into the fields below.
    loaded: bool,
    /// The epoch appends go to: the newest one a cold open replays.
    pub(crate) epoch: u64,
    /// The journal cursor of `epoch`.
    pub(crate) cursor: Cursor,
    /// The older un-folded epochs, oldest first, with their cursors: the
    /// checkpoint's own epoch, then each epoch a fold rotated past whose
    /// checkpoint has not been renamed. Nothing appends to them any more.
    sealed: Vec<(u64, Cursor)>,
}

impl DocMeta {
    /// Drops the cached state: the next touch rescans the on-disk truth
    /// (truncating any torn tail) instead of trusting it.
    pub(crate) fn forget(&mut self) {
        *self = DocMeta::default();
    }

    /// The epoch the document's checkpoint carries: the oldest un-folded
    /// one.
    pub(crate) fn checkpoint_epoch(&self) -> u64 {
        self.sealed.first().map_or(self.epoch, |&(epoch, _)| epoch)
    }

    /// Every un-folded epoch with its cursor, in replay order.
    pub(crate) fn epochs(&self) -> impl Iterator<Item = (u64, Cursor)> + '_ {
        let current = (self.epoch, self.cursor);
        self.sealed.iter().copied().chain(std::iter::once(current))
    }

    /// What a cold open would replay: the batches and bytes of every
    /// un-folded epoch.
    pub(crate) fn unfolded(&self) -> Cursor {
        self.epochs()
            .fold(Cursor::default(), |sum, (_, cursor)| Cursor {
                batches: sum.batches + cursor.batches,
                bytes: sum.bytes + cursor.bytes,
            })
    }

    /// Seals the current epoch and makes `epoch`, holding `cursor`, the one
    /// appends go to.
    fn advance(&mut self, epoch: u64, cursor: Cursor) {
        self.sealed.push((self.epoch, self.cursor));
        self.epoch = epoch;
        self.cursor = cursor;
    }

    /// The first half of a fold: later appends go to a fresh epoch, whose
    /// number is returned — the epoch the fold's checkpoint will carry.
    pub(crate) fn rotate(&mut self) -> u64 {
        self.advance(self.epoch + 1, Cursor::default());
        self.epoch
    }

    /// The bookkeeping of a renamed checkpoint of `epoch`: forgets the
    /// epochs before it, whose batches the checkpoint holds, and returns
    /// them so their files can go.
    pub(crate) fn fold_through(&mut self, epoch: u64) -> Vec<(u64, Cursor)> {
        let kept = self
            .sealed
            .iter()
            .position(|&(sealed, _)| sealed >= epoch)
            .unwrap_or(self.sealed.len());
        self.sealed.drain(..kept).collect()
    }
}

/// One just-written journal record: the still-open (not yet fsync'd)
/// journal file, and whether the record is the epoch's first — its write
/// may have created the file, a directory mutation the covering fsync round
/// must flush too.
pub(crate) struct AppendedRecord {
    pub(crate) file: fs::File,
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
    /// One meta + write mutex per document name, kept for the store's
    /// lifetime; never held for two documents at once.
    metas: Mutex<HashMap<String, Arc<Mutex<DocMeta>>>>,
}

impl Segments {
    pub(crate) fn new(root: PathBuf) -> Self {
        Segments {
            root,
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
    /// `Arc`. Only the first use of a name allocates its key.
    pub(crate) fn meta(&self, name: &str) -> Arc<Mutex<DocMeta>> {
        let mut metas = self.metas.lock();
        if let Some(meta) = metas.get(name) {
            return Arc::clone(meta);
        }
        let meta = Arc::new(Mutex::with_class(LockClass::Journal, DocMeta::default()));
        metas.insert(name.to_string(), Arc::clone(&meta));
        meta
    }

    /// Runs `body` on the document's journal state with its write lock held
    /// and the state loaded from disk — the prelude of every operation that
    /// reads or moves a cursor. The first touch of a document one of whose
    /// un-folded epochs holds a rolled journal (a segment with a nonzero
    /// sequence) fails with [`StoreError::Format`] naming the file, and keeps
    /// failing until an operator deals with it.
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

    /// The journal file of one epoch.
    pub(crate) fn journal_path(&self, name: &str, epoch: u64) -> PathBuf {
        self.root.join(format!("{name}.journal.{epoch}.0.seg"))
    }

    /// All segment files of one document (any epoch), found by scanning the
    /// store directory — O(total store entries), so reserved for the first
    /// load of a document, which must see its folded and un-folded files.
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
        Ok(segments)
    }

    /// Rebuilds a document's cursors from disk if this is the first touch:
    /// reads the checkpoint's epoch, refuses an unreadable epoch or a rolled
    /// un-folded journal (before touching any file), drops segments of
    /// epochs older than the checkpoint's (the debris of a fold killed
    /// between its rename commit point and the segment deletion — their
    /// batches are already folded into the checkpoint), truncates torn tail
    /// records, and sums the headers of the checkpoint's epoch and of every
    /// newer one, in epoch order.
    fn ensure_loaded(&self, name: &str, meta: &mut DocMeta) -> Result<(), StoreError> {
        if meta.loaded {
            return Ok(());
        }
        let checkpoint = self.document_path(name);
        let folded = if checkpoint.exists() {
            extract_epoch(&fs::read_to_string(&checkpoint)?, &checkpoint)?
        } else {
            0
        };
        let mut segments = self.segments_of(name)?;
        // Replaying only the first file of a rolled journal would silently
        // serve a different distribution.
        if let Some((path, _)) = segments
            .iter()
            .find(|(_, parsed)| parsed.epoch >= folded && parsed.seq != 0)
        {
            return Err(StoreError::Format(format!(
                "{} belongs to a journal rolled into several files, a layout this \
                 version no longer reads — refusing to open its document without it \
                 (checkpoint the document with the build that wrote it)",
                path.display()
            )));
        }
        segments.sort_by_key(|(_, parsed)| parsed.epoch);
        meta.forget();
        meta.epoch = folded;
        for (path, parsed) in segments {
            if parsed.epoch < folded {
                fs::remove_file(&path)?;
                continue;
            }
            let scan = scan_segment(&fs::read(&path)?);
            if scan.torn {
                // The tail record never reached its commit point (the append
                // died mid-write): truncate it away so the next append starts
                // on a record boundary.
                let file = fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.sound_bytes)?;
                file.sync_all()?;
            }
            let cursor = Cursor {
                batches: scan.batches,
                bytes: scan.sound_bytes,
            };
            if parsed.epoch == meta.epoch {
                meta.cursor = cursor;
            } else {
                meta.advance(parsed.epoch, cursor);
            }
        }
        meta.loaded = true;
        Ok(())
    }

    /// Appends one record to the document's journal file and advances the
    /// cursor, but does **not** fsync: the caller completes durability
    /// through the backend's fsync round, either alone (the synchronous
    /// append) or shared with other documents (a group-commit window). Both
    /// paths therefore flush the epoch's fresh directory entry by the exact
    /// same rule. The caller holds the document's meta lock with the meta
    /// loaded.
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
        let fresh = meta.cursor.bytes == 0;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path(name, meta.epoch))?;
        file.write_all(&record.bytes)?;
        meta.cursor.batches += 1;
        meta.cursor.bytes += record.bytes.len() as u64;
        Ok(AppendedRecord { file, fresh })
    }

    /// Best-effort undo of the records written for `name` since the cursor
    /// stood at `saved` but never covered by a successful fsync round: the
    /// journal file is truncated back to `saved.bytes` (removed when that is
    /// zero — the records undone were the epoch's first), and the cursor is
    /// put back. If the disk refuses even the rollback, the cached state is
    /// dropped so the next touch rescans the on-disk truth instead of
    /// trusting stale state.
    ///
    /// Callers must hold the document's meta lock *and* guarantee no new
    /// window can flush concurrently (the committer is poisoned first on the
    /// grouped path; the sync path holds the meta lock throughout).
    pub(crate) fn rollback_unsynced(&self, name: &str, meta: &mut DocMeta, saved: Cursor) {
        let path = self.journal_path(name, meta.epoch);
        let undone = if saved.bytes > 0 {
            fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|file| file.set_len(saved.bytes))
        } else if path.exists() {
            fs::remove_file(&path)
        } else {
            Ok(())
        };
        meta.cursor = saved;
        if undone.is_err() {
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
