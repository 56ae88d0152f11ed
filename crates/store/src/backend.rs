//! The pluggable storage abstraction: [`StorageBackend`].
//!
//! The paper's warehouse (Section 6 / slide 16) is a persistent
//! probabilistic tree plus a journal of probabilistic updates; *how* that
//! pair is laid out is an implementation choice. This trait names the
//! operations the warehouse engine needs so the same document set can be
//! served from alternative representations — the shipped implementations are
//! [`FsBackend`](crate::FsBackend) (durable append-only segment journal on
//! the file system) and [`MemBackend`](crate::MemBackend) (in-process, for
//! tests and benches).

use pxml_core::{FuzzyTree, UpdateTransaction};

use crate::error::StoreError;
use crate::group::{CommitTicket, DurabilityStats};

/// A store of named probabilistic XML documents, each a **checkpoint** (the
/// last materialized fuzzy tree) plus a **journal** of committed update
/// batches applied since that checkpoint.
///
/// # Locking and atomicity contract
///
/// Every implementation must guarantee, per document:
///
/// * **Mutations serialize per document.** Two concurrent calls to
///   [`append_batch_enqueue`](StorageBackend::append_batch_enqueue),
///   [`save_document`](StorageBackend::save_document),
///   [`checkpoint`](StorageBackend::checkpoint) or
///   [`remove_document`](StorageBackend::remove_document) for the *same*
///   document must behave as if executed one after the other; mutations of
///   *distinct* documents should be able to proceed in parallel (the
///   warehouse engine relies on this for multi-document throughput).
///   Backends are handed out as `Arc<dyn StorageBackend>` shared across
///   threads, so this serialization must be internal.
/// * **An append is atomic and ordered.** Once its ticket resolves `Ok`,
///   recovery sees the batch exactly once, after every previously appended
///   batch; if the process dies before that, recovery sees either the whole
///   batch or none of it — never a partial or reordered batch. Durable
///   backends must have flushed the batch to stable storage before the
///   ticket resolves.
/// * **`checkpoint` folds atomically.** The new checkpoint replaces the old
///   one and empties the journal as one logical step: a crash at any point
///   leaves recovery with either (old checkpoint + full journal) or (new
///   checkpoint + empty journal) — journal batches are never replayed on top
///   of a checkpoint that already contains them, and never lost.
/// * **Reads are torn-free.** [`load_document`](StorageBackend::load_document),
///   [`read_batches`](StorageBackend::read_batches) and the journal meters
///   observe some committed state, never a half-written one.
///
/// The contract deliberately does **not** require cross-document atomicity or
/// a global snapshot: the engine's per-document locks provide all ordering
/// above the storage layer.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// The names of the stored documents (sorted).
    fn list_documents(&self) -> Result<Vec<String>, StoreError>;

    /// Returns `true` if a document with this name exists.
    fn contains(&self, name: &str) -> bool;

    /// Saves a document checkpoint without touching its journal (used when a
    /// document is first created; the journal is empty then).
    fn save_document(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError>;

    /// Loads the last checkpoint of a document (ignoring any journal).
    fn load_document(&self, name: &str) -> Result<FuzzyTree, StoreError>;

    /// Appends one committed transaction batch to a document's journal: hands
    /// the batch to the backend's commit pipeline and returns a
    /// [`CommitTicket`] that resolves once the batch is durable — under
    /// group commit, at the fsync its window shares with concurrently
    /// committed batches of *other* documents. The batch must not be
    /// acknowledged to clients until the ticket resolves `Ok`; on a crash
    /// before that, recovery never surfaces it. A backend without a commit
    /// pipeline runs the append to completion inside this call and returns
    /// [`CommitTicket::resolved`] with its outcome, so polling or waiting on
    /// the ticket never blocks. Cost must not grow with the journal's
    /// accumulated length — O(batch).
    fn append_batch_enqueue(&self, name: &str, batch: &[UpdateTransaction]) -> CommitTicket;

    /// The committed batches of a document's journal, in commit order.
    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError>;

    /// Number of journaled updates awaiting a checkpoint. Backends keep this
    /// O(1) from journal metadata — it is polled on every commit.
    fn journal_length(&self, name: &str) -> Result<usize, StoreError>;

    /// Number of journaled batches awaiting a checkpoint (O(1); drives
    /// `CompactionPolicy::EveryNBatches`).
    fn journal_batches(&self, name: &str) -> Result<usize, StoreError>;

    /// Total serialized size of the journal in bytes (O(1)).
    fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError>;

    /// Checkpoints a document: writes `fuzzy` as the new checkpoint and
    /// empties the journal, atomically in the sense of the trait contract.
    fn checkpoint(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError>;

    /// Deletes a document, its checkpoint and its journal.
    fn remove_document(&self, name: &str) -> Result<(), StoreError>;

    /// The directory backing the store, when it has one (`None` for purely
    /// in-memory backends).
    fn root_dir(&self) -> Option<&std::path::Path> {
        None
    }

    /// Durably appends one committed transaction batch and returns once it
    /// is durable: [`append_batch_enqueue`](StorageBackend::append_batch_enqueue)
    /// followed by [`CommitTicket::wait`] — same journal order, same
    /// durability point.
    fn append_batch(&self, name: &str, batch: &[UpdateTransaction]) -> Result<(), StoreError> {
        self.append_batch_enqueue(name, batch).wait()
    }

    /// Fsync/window observability counters of the backend's durability
    /// pipeline.
    ///
    /// The default implementation returns all-zero stats — backends without
    /// a durability pipeline (or without instrumentation) have nothing to
    /// report, and callers must treat zeros as "not instrumented", not as
    /// "free durability".
    fn durability_stats(&self) -> DurabilityStats {
        DurabilityStats::default()
    }

    /// Drains the backend's group-commit pipeline: waits out any in-flight
    /// fsync window and flushes everything enqueued, so every batch whose
    /// ticket was handed out before this call is durable when it returns.
    /// Long-running embedders (the `pxml-server` tenant LRU, graceful
    /// shutdown) call this before dropping a backend so pipelined commits
    /// are never abandoned mid-window.
    ///
    /// The default implementation is a **no-op**: backends without a group
    /// committer have nothing in flight once their synchronous calls return.
    fn group_barrier(&self) {}

    /// The updates recorded in a document's journal, flattened to
    /// application order.
    fn read_journal(&self, name: &str) -> Result<Vec<UpdateTransaction>, StoreError> {
        Ok(self.read_batches(name)?.into_iter().flatten().collect())
    }

    /// The **raw replay**: the last checkpoint with every journaled update
    /// applied on top and no simplification anywhere. It is the reference
    /// for "what the journal holds" — the crash suites read their ledgers
    /// from it, the benchmark times it, and the warehouse's tests compare
    /// against it on small documents — and **never what a warehouse
    /// publishes**: on a history whose live run simplified after every
    /// update, its size is unbounded (every conditional deletion multiplies
    /// what the ones before it left behind). The published tree is
    /// `Warehouse`'s replay of [`load_document`](StorageBackend::load_document)
    /// plus [`read_batches`](StorageBackend::read_batches) through the same
    /// per-update step its commits run.
    fn recover_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        let mut fuzzy = self.load_document(name)?;
        for update in self.read_journal(name)? {
            update.apply_to_fuzzy(&mut fuzzy)?;
        }
        Ok(fuzzy)
    }

    /// Resets the backend's state for `name` after a failed commit: clears a
    /// poisoned commit pipeline and drops anything cached about the
    /// document's journal, so the next touch re-establishes the on-disk
    /// truth (truncating a torn or unsynced tail). It replays nothing and
    /// returns no tree — `Warehouse::reopen_document` calls it and then
    /// replays the checkpoint and the surviving journal itself, the way a
    /// cold open does.
    ///
    /// The default implementation does nothing: backends without caches or a
    /// commit pipeline have nothing to reset.
    fn reopen_document(&self, _name: &str) -> Result<(), StoreError> {
        Ok(())
    }
}
