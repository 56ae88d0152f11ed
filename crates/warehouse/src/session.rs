//! The transactional document-session API: [`Session`], [`Document`] handles
//! and staged-update [`Txn`]s.
//!
//! The paper's architecture (slide 3) is an *engine*: imprecise modules open
//! the warehouse, stage probabilistic updates, and commit; users query. This
//! module is that shape. A [`Session`] owns the storage-backed engine;
//! [`Document`] is a cheap, cloneable handle to one named document;
//! [`Document::begin`] opens a [`Txn`] that accepts any number of fluently
//! built updates and commits them atomically — applied through the
//! policy-aware pipeline (inline simplification by default), journaled as one
//! durable batch, rolled back together on error, and replayed by crash
//! recovery on reopen.
//!
//! ```no_run
//! use pxml_core::Update;
//! use pxml_query::Pattern;
//! use pxml_tree::parse_data_tree;
//! use pxml_warehouse::{Session, SessionConfig};
//!
//! let session = Session::open("/tmp/pxml-wh", SessionConfig::default()).unwrap();
//! let people = session
//!     .create("people", parse_data_tree("<directory><person><name>alice</name></person></directory>").unwrap())
//!     .unwrap();
//!
//! // Stage two probabilistic updates and commit them as one transaction.
//! let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
//! let person = pattern.root();
//! let receipt = people
//!     .begin()
//!     .stage(
//!         Update::matching(pattern.clone())
//!             .insert_at(person, parse_data_tree("<phone>+33-1</phone>").unwrap())
//!             .with_confidence(0.8),
//!     )
//!     .stage(
//!         Update::matching(pattern)
//!             .insert_at(person, parse_data_tree("<email>a@example.org</email>").unwrap())
//!             .with_confidence(0.6),
//!     )
//!     .commit()
//!     .unwrap();
//! assert_eq!(receipt.len(), 2);
//!
//! let answers = people
//!     .query(&Pattern::parse("person { phone }").unwrap())
//!     .unwrap();
//! assert_eq!(answers.len(), 1);
//! ```

use std::path::Path;
use std::sync::Arc;

use pxml_core::{
    BatchStats, FuzzyQueryResult, FuzzyTree, SimplifyPolicy, SimplifyReport, Update,
    UpdateTransaction,
};
use pxml_query::Pattern;
use pxml_store::{CommitPolicy, StorageBackend};
use pxml_tree::Tree;

use crate::warehouse::{AsyncCommit, DocSnapshot, Warehouse, WarehouseError, WarehouseStats};

/// When the commit pipeline folds a document's journal into a fresh
/// checkpoint (a **compaction**: the checkpoint write and the journal
/// truncation are one crash-safe step of the storage backend).
///
/// Compaction trades a periodic O(document) checkpoint write for bounded
/// journal replay at recovery; between compactions every commit stays
/// O(batch) in the segment journal. The policy is evaluated *after* the
/// batch is durable and published, so a compaction failure neither loses the
/// commit nor fails it: the journal stays as it was, the next commit tries
/// the fold again, and [`Document::checkpoint`] reports why it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// Never compact; the journal grows until an explicit
    /// [`Document::checkpoint`].
    Never,
    /// Compact once the journal holds this many committed batches.
    EveryNBatches(usize),
}

impl CompactionPolicy {
    /// Whether a journal holding this many batches is due for compaction.
    pub fn is_due(&self, batches: usize) -> bool {
        match self {
            CompactionPolicy::Never => false,
            CompactionPolicy::EveryNBatches(n) => *n > 0 && batches >= *n,
        }
    }
}

/// Maintenance policy of a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// When the apply pipeline simplifies committed documents; defaults to
    /// [`SimplifyPolicy::Inline`] so deletion-induced duplication is won back
    /// where it is created.
    pub simplify: SimplifyPolicy,
    /// When the commit pipeline folds the journal into a fresh checkpoint;
    /// defaults to [`CompactionPolicy::EveryNBatches`]`(64)`.
    pub compaction: CompactionPolicy,
    /// How the storage backend turns acknowledged commits into durable
    /// ones: per-commit fsyncs ([`CommitPolicy::Sync`], the default) or
    /// cross-document group commit ([`CommitPolicy::Grouped`]). Honoured by
    /// [`Session::open`]'s file-system backend; sessions opened over an
    /// explicit backend keep that backend's own configuration.
    pub commit: CommitPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            simplify: SimplifyPolicy::Inline,
            compaction: CompactionPolicy::EveryNBatches(64),
            commit: CommitPolicy::Sync,
        }
    }
}

/// A handle to an open, storage-backed probabilistic XML warehouse.
///
/// Cloning is cheap (the engine is shared); a session and all its
/// [`Document`] handles can be used from several threads at once.
#[derive(Clone)]
pub struct Session {
    engine: Arc<Warehouse>,
}

impl Session {
    /// Opens (creating it if needed) a session backed by the given directory
    /// through the default [`pxml_store::FsBackend`], recovering every stored
    /// document (checkpoint + journal replay).
    pub fn open(path: impl AsRef<Path>, config: SessionConfig) -> Result<Self, WarehouseError> {
        Ok(Session {
            engine: Arc::new(Warehouse::with_config(path, config)?),
        })
    }

    /// Opens a session over an explicit storage backend — e.g. a
    /// [`pxml_store::MemBackend`] for tests, or a custom implementation of
    /// [`StorageBackend`].
    pub fn open_with_backend(
        backend: Arc<dyn StorageBackend>,
        config: SessionConfig,
    ) -> Result<Self, WarehouseError> {
        Ok(Session {
            engine: Arc::new(Warehouse::with_backend(backend, config)?),
        })
    }

    /// The directory backing the session, when its storage backend has one
    /// (`None` for in-memory backends).
    pub fn storage_root(&self) -> Option<&Path> {
        self.engine.storage_root()
    }

    /// The names of the loaded documents (sorted).
    pub fn document_names(&self) -> Vec<String> {
        self.engine.document_names()
    }

    /// Creates a new document from a certain data tree and returns its
    /// handle.
    pub fn create(&self, name: &str, tree: Tree) -> Result<Document, WarehouseError> {
        self.engine.create_document(name, tree)?;
        self.document(name)
    }

    /// Creates a new document from an existing fuzzy tree and returns its
    /// handle.
    pub fn create_fuzzy(&self, name: &str, fuzzy: FuzzyTree) -> Result<Document, WarehouseError> {
        self.engine.create_fuzzy_document(name, fuzzy)?;
        self.document(name)
    }

    /// A handle to an existing document.
    pub fn document(&self, name: &str) -> Result<Document, WarehouseError> {
        if !self.engine.contains(name) {
            return Err(WarehouseError::UnknownDocument(name.to_string()));
        }
        Ok(Document {
            engine: self.engine.clone(),
            name: name.to_string(),
        })
    }

    /// Removes a document from the session and from storage. Outstanding
    /// handles to it start reporting `UnknownDocument`.
    pub fn drop_document(&self, name: &str) -> Result<(), WarehouseError> {
        self.engine.drop_document(name)
    }

    /// Running counters since the session was opened.
    pub fn stats(&self) -> WarehouseStats {
        self.engine.stats()
    }

    /// Drains the storage backend's group-commit pipeline: every
    /// [`Txn::commit_async`] whose handle was issued before this call is
    /// durable when it returns (see
    /// [`Warehouse::group_barrier`]). Call before dropping a long-lived
    /// session whose commits may still sit in an open fsync window.
    pub fn group_barrier(&self) {
        self.engine.group_barrier();
    }

    /// The shared engine behind the session (escape hatch for tooling that
    /// needs engine-level access, e.g. committing a prebuilt batch directly).
    pub fn engine(&self) -> &Warehouse {
        &self.engine
    }
}

/// A cheap, cloneable handle to one named document of a [`Session`].
#[derive(Clone)]
pub struct Document {
    engine: Arc<Warehouse>,
    name: String,
}

impl Document {
    /// The document's name in the session.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Begins a staged transaction against this document. Nothing happens
    /// until [`Txn::commit`].
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            document: self,
            staged: Vec::new(),
            error: None,
        }
    }

    /// Evaluates a TPWJ query against the document (slide 3's query
    /// interface: "query → results + confidence").
    pub fn query(&self, pattern: &Pattern) -> Result<FuzzyQueryResult, WarehouseError> {
        self.engine.query(&self.name, pattern)
    }

    /// A snapshot of the document's current fuzzy tree.
    ///
    /// This clones the tree out of the published snapshot; prefer
    /// [`Document::pin`] when a shared, immutable view is enough.
    pub fn snapshot(&self) -> Result<FuzzyTree, WarehouseError> {
        self.engine.document(&self.name)
    }

    /// Pins the document's current published snapshot in O(1).
    ///
    /// The returned [`DocSnapshot`] is an `Arc` over immutable state: it
    /// never blocks writers, never changes under the caller, and stays
    /// readable even after the document is dropped from the warehouse.
    pub fn pin(&self) -> Result<DocSnapshot, WarehouseError> {
        self.engine.snapshot(&self.name)
    }

    /// Runs the simplifier on the document and persists the result as a
    /// fresh checkpoint.
    pub fn simplify(&self) -> Result<SimplifyReport, WarehouseError> {
        self.engine.simplify(&self.name)
    }

    /// Writes the document's current in-memory state as a checkpoint and
    /// truncates its journal.
    pub fn checkpoint(&self) -> Result<(), WarehouseError> {
        self.engine.checkpoint(&self.name)
    }

    /// Number of journaled updates awaiting a compaction — an observability
    /// hook for monitoring journal growth against the session's
    /// [`CompactionPolicy`]. O(1) from the backend's journal meters.
    pub fn journal_length(&self) -> Result<usize, WarehouseError> {
        self.engine.journal_length(&self.name)
    }

    /// Serialized size of the journal in bytes — O(1) from the backend's
    /// journal meters, like [`Document::journal_length`].
    pub fn journal_size_bytes(&self) -> Result<u64, WarehouseError> {
        self.engine.journal_size_bytes(&self.name)
    }
}

/// A staged update batch against one [`Document`].
///
/// Updates are staged fluently ([`Txn::stage`] accepts both the
/// [`Update`] builder and prebuilt [`UpdateTransaction`]s) and applied only
/// at [`Txn::commit`], atomically: the whole batch is applied through the
/// policy-aware pipeline to a working copy, journaled as one durable entry
/// (the backend's durable journal append is the commit point), and swapped
/// in. An error before
/// the commit point — including a staging error — changes nothing at all,
/// and nothing after it (see
/// [`Warehouse::commit_batch`](crate::Warehouse::commit_batch) on
/// post-commit maintenance) can turn a committed batch into an error.
#[must_use = "a Txn does nothing until commit() is called"]
pub struct Txn<'a> {
    document: &'a Document,
    staged: Vec<UpdateTransaction>,
    error: Option<WarehouseError>,
}

impl Txn<'_> {
    /// Stages one probabilistic update. Build errors (e.g. an out-of-range
    /// confidence) are remembered and reported by [`Txn::commit`], keeping
    /// the chain fluent.
    pub fn stage(mut self, update: impl Into<Update>) -> Self {
        match update.into().build() {
            Ok(transaction) => self.staged.push(transaction),
            Err(err) => {
                self.error.get_or_insert(WarehouseError::Core(err));
            }
        }
        self
    }

    /// Number of updates staged so far.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// `true` when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Commits the staged batch atomically; returns the per-update
    /// statistics. A transaction with a staging error commits nothing and
    /// returns that error.
    pub fn commit(self) -> Result<BatchStats, WarehouseError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        self.document
            .engine
            .commit_batch(&self.document.name, &self.staged, None)
    }

    /// Commits the staged batch through the asynchronous write pipeline:
    /// the call returns an [`AsyncCommit`] as soon as the batch is applied
    /// and enqueued into the backend's commit window, and the handle
    /// resolves ([`AsyncCommit::wait`], or polled via
    /// [`AsyncCommit::is_durable`]) at the window's fsync. Under a
    /// [`CommitPolicy::Sync`] backend the handle comes back already
    /// resolved. See
    /// [`Warehouse::commit_batch_async`](crate::Warehouse::commit_batch_async)
    /// for the durability contract.
    pub fn commit_async(self) -> Result<AsyncCommit, WarehouseError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        self.document
            .engine
            .commit_batch_async(&self.document.name, &self.staged, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::parse_data_tree;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn scratch(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pxml-session-test-{}-{}-{}",
            std::process::id(),
            label,
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ))
    }

    fn directory() -> Tree {
        parse_data_tree(
            "<directory>\
               <person><name>alice</name></person>\
               <person><name>bob</name></person>\
             </directory>",
        )
        .unwrap()
    }

    fn add_fact(name: &str, field: &str, value: &str, confidence: f64) -> Update {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
        let person = pattern.root();
        let mut subtree = Tree::new(field);
        subtree.add_text(subtree.root(), value);
        Update::matching(pattern)
            .insert_at(person, subtree)
            .with_confidence(confidence)
    }

    #[test]
    fn session_create_stage_commit_query() {
        let dir = scratch("cycle");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        assert_eq!(session.document_names(), vec!["people"]);

        let receipt = people
            .begin()
            .stage(add_fact("alice", "phone", "+33-1", 0.8))
            .stage(add_fact("bob", "phone", "+33-2", 0.6))
            .commit()
            .unwrap();
        assert_eq!(receipt.len(), 2);
        assert_eq!(receipt.applied_matches(), 2);

        let phones = Pattern::parse("person { phone }").unwrap();
        let result = people.query(&phones).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(session.stats().updates_applied, 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `Document::pin` hands out the published snapshot without copying it,
    /// and the pin stays frozen while later commits publish successors.
    #[test]
    fn pinned_snapshot_survives_later_commits() {
        let dir = scratch("pin");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        let pinned = people.pin().unwrap();

        people
            .begin()
            .stage(add_fact("alice", "phone", "+33-1", 0.8))
            .commit()
            .unwrap();

        assert!(pinned.fuzzy().tree().find_elements("phone").is_empty());
        let current = people.pin().unwrap();
        assert!(current.seq() > pinned.seq());
        assert_eq!(current.fuzzy().tree().find_elements("phone").len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn batch_commit_is_one_journal_entry_and_recovers() {
        let dir = scratch("durability");
        {
            let session = Session::open(
                &dir,
                SessionConfig {
                    compaction: CompactionPolicy::Never,
                    ..SessionConfig::default()
                },
            )
            .unwrap();
            let people = session.create("people", directory()).unwrap();
            people
                .begin()
                .stage(add_fact("alice", "phone", "+33-1", 0.8))
                .stage(add_fact("alice", "email", "a@example.org", 0.7))
                .commit()
                .unwrap();
            // Dropped without a checkpoint: state only lives in the journal.
        }
        let reopened = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = reopened.document("people").unwrap();
        assert_eq!(
            people
                .query(&Pattern::parse("person { phone }").unwrap())
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            people
                .query(&Pattern::parse("person { email }").unwrap())
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn staging_error_aborts_the_whole_txn() {
        let dir = scratch("staging-error");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        let before = people.snapshot().unwrap();
        let err = people
            .begin()
            .stage(add_fact("alice", "phone", "+33-1", 0.8))
            .stage(add_fact("bob", "phone", "+33-2", 1.5)) // invalid confidence
            .commit()
            .unwrap_err();
        assert!(matches!(err, WarehouseError::Core(_)));
        // Nothing was applied or journaled.
        let after = people.snapshot().unwrap();
        assert!(before.semantically_equivalent(&after, 1e-9).unwrap());
        assert_eq!(session.stats().updates_applied, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn journal_failure_rolls_back_the_in_memory_document() {
        let dir = scratch("journal-failure");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        let before = people.snapshot().unwrap();
        // Sabotage durability: remove the storage directory so the journal
        // append cannot happen.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = people
            .begin()
            .stage(add_fact("alice", "phone", "+33-1", 0.8))
            .commit()
            .unwrap_err();
        assert!(matches!(err, WarehouseError::Store(_)));
        // The in-memory document was rolled back.
        let after = people.snapshot().unwrap();
        assert!(after.semantically_equivalent(&before, 1e-9).unwrap());
        assert_eq!(session.stats().updates_applied, 0);
    }

    #[test]
    fn empty_txn_commits_nothing() {
        let dir = scratch("empty");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        let txn = people.begin();
        assert!(txn.is_empty());
        let receipt = txn.commit().unwrap();
        assert!(receipt.is_empty());
        assert_eq!(session.stats().updates_applied, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn inline_policy_simplifies_deletion_output_at_commit() {
        let dir = scratch("inline-simplify");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        people
            .begin()
            .stage(add_fact("alice", "phone", "+33-1", 0.8))
            .commit()
            .unwrap();
        // Retract the phone: deletion duplicates, the inline policy cleans.
        let pattern = Pattern::parse("person { name[=\"alice\"], phone }").unwrap();
        let phone = pattern.node_ids().nth(2).unwrap();
        let receipt = people
            .begin()
            .stage(
                Update::matching(pattern)
                    .delete_at(phone)
                    .with_confidence(0.5),
            )
            .commit()
            .unwrap();
        assert_eq!(receipt.simplify_runs(), 1);
        assert!(people.snapshot().unwrap().validate().is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn document_handles_are_shareable_across_threads() {
        let dir = scratch("threads");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        let people = session.create("people", directory()).unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let doc = people.clone();
            handles.push(std::thread::spawn(move || {
                let who = if i % 2 == 0 { "alice" } else { "bob" };
                doc.begin()
                    .stage(add_fact(who, "phone", "+33-9", 0.7))
                    .commit()
                    .unwrap();
                doc.query(&Pattern::parse("person { phone }").unwrap())
                    .unwrap()
                    .len()
            }));
        }
        for handle in handles {
            assert!(handle.join().unwrap() >= 1);
        }
        assert_eq!(session.stats().updates_applied, 4);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A session over the in-memory backend runs the full pipeline — create,
    /// staged commit, query, journal meters — and a second session over the
    /// *same* backend recovers the documents from checkpoint + journal
    /// replay, exactly like a file-system reopen.
    #[test]
    fn mem_backend_session_round_trips_and_recovers() {
        let backend: Arc<dyn pxml_store::StorageBackend> = Arc::new(pxml_store::MemBackend::new());
        let config = SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        };
        let session = Session::open_with_backend(backend.clone(), config).unwrap();
        assert!(session.storage_root().is_none());
        let people = session.create("people", directory()).unwrap();
        people
            .begin()
            .stage(add_fact("alice", "phone", "+33-1", 0.8))
            .commit()
            .unwrap();
        assert_eq!(people.journal_length().unwrap(), 1);

        let recovered = Session::open_with_backend(backend, config).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        assert_eq!(
            recovered
                .document("people")
                .unwrap()
                .query(&phones)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn unknown_documents_are_rejected() {
        let dir = scratch("unknown");
        let session = Session::open(&dir, SessionConfig::default()).unwrap();
        assert!(matches!(
            session.document("ghost"),
            Err(WarehouseError::UnknownDocument(_))
        ));
        let people = session.create("people", directory()).unwrap();
        session.drop_document("people").unwrap();
        // The outstanding handle now reports the document as gone.
        assert!(matches!(
            people.query(&Pattern::parse("person").unwrap()),
            Err(WarehouseError::UnknownDocument(_))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
