//! # pxml-store
//!
//! Storage for probabilistic XML documents behind a pluggable backend
//! abstraction.
//!
//! The paper's prototype stores fuzzy XML documents as plain files on the
//! file system ("File system storage", slide 16). This crate provides that
//! substrate in a durable form, and the trait that lets the warehouse run
//! over alternative representations:
//!
//! * [`backend`] — the [`StorageBackend`] trait: checkpoint + journal
//!   operations with a documented per-document locking/atomicity contract;
//! * [`mod@format`] — the **PrXML** textual format: a fuzzy tree is written as an
//!   ordinary XML document whose uncertain nodes carry a `pxml:cond`
//!   attribute, whose event table is stored in a `pxml:events` header, and
//!   whose root carries the journal epoch its checkpoint folded;
//! * [`journal`] — the textual form of probabilistic update transactions,
//!   and the **record codec** of the segment journal: the only module that
//!   knows a journal record's bytes (header + `<pxml:batch>` payload, the
//!   walk over a segment's whole records, what counts as a torn tail);
//! * [`fs`] — [`FsBackend`]: the durable file-system backend with an
//!   **append-only segment journal**, one file per document and checkpoint
//!   epoch (O(batch) commits, torn-tail crash recovery). It encodes a batch
//!   once, at its append entry point, and owns options, the open-time sweep,
//!   checkpoints, the fsync round and the two append arms; the per-document
//!   segment state under it (file naming, the journal cursor behind each
//!   document's write mutex, load + torn-tail truncation, the record write
//!   and its rollback) is the private `segment` module;
//! * [`group`] — the cross-document **group-commit** layer: [`CommitPolicy`],
//!   the leader/follower window protocol coalescing many documents'
//!   (already encoded) appends into one fsync round, and the
//!   [`CommitTicket`] handle of an enqueued append;
//! * [`mem`] — [`MemBackend`]: the in-process backend for tests and benchmarks,
//!   holding the checkpoint text and journal records [`FsBackend`] writes;
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   installed through [`FsOptions::fault`] and consulted by [`FsBackend`]
//!   at its append entry point and fsync funnel (the chaos battery and the
//!   E18 sweep run the whole stack over it).
//!
//! ```no_run
//! use pxml_core::FuzzyTree;
//! use pxml_store::{FsBackend, StorageBackend};
//!
//! let store = FsBackend::open("/tmp/pxml-warehouse").unwrap();
//! store.save_document("people", &FuzzyTree::new("directory")).unwrap();
//! let loaded = store.load_document("people").unwrap();
//! assert_eq!(loaded.node_count(), 1);
//! ```

pub mod backend;
pub mod error;
pub mod fault;
pub mod format;
pub mod fs;
pub mod group;
pub mod journal;
pub mod mem;
mod segment;

pub use backend::StorageBackend;
pub use error::StoreError;
pub use fault::{is_injected, FaultKind, FaultOp, FaultPlan};
pub use format::{parse_fuzzy_document, serialize_fuzzy_document};
pub use fs::{FsBackend, FsOptions};
pub use group::{CommitPolicy, CommitTicket, DurabilityStats};
pub use journal::{parse_batch, parse_update, serialize_batch, serialize_update};
pub use mem::MemBackend;
