//! The probabilistic XML warehouse engine.
//!
//! [`Warehouse`] is the one engine API — what the server, the benchmark,
//! the module runners and embedding code all open: named fuzzy-tree
//! documents behind the paper's two doors (slide 3), *(update transaction,
//! confidence)* in through [`Warehouse::commit_batch`] and *query → answers +
//! confidence* out through [`Warehouse::query`], over durable storage. It is
//! sharded and per-document-locked.
//!
//! # Concurrency model: MVCC snapshots
//!
//! The document registry is split into a fixed number of shards, each an
//! independently locked map from document name to an `Arc`-shared document
//! slot. A slot holds the document's state as an **immutable, `Arc`-shared
//! snapshot** plus a commit mutex that serializes writers:
//!
//! ```text
//! Warehouse
//! ├── shards[hash(name) % N]: RwLock<HashMap<String, Arc<DocSlot>>>
//! │        │  (held only to look up / insert a slot)
//! │        └── slot: Arc<DocSlot>
//! │             ├── commit: Mutex<()>        (one writer pipeline at a time)
//! │             └── state: RwLock<DocState>  (published Arc<snapshot> +
//! │                                           quarantine; held O(1) only)
//! ├── stats: atomic counters (never block anything)
//! └── store: Arc<dyn StorageBackend> (per-document serialization per the
//!            trait contract; FsBackend by default)
//! ```
//!
//! **Readers never block writers and writers never block readers.** A query
//! pins the current snapshot — an `Arc` clone under the state lock, O(1) —
//! and then runs entirely lock-free against immutable data. A commit takes
//! the commit mutex (serializing only against other writers of the *same*
//! document), clones the pinned snapshot's fuzzy tree — a copy-on-write
//! clone that shares every arena chunk with the snapshot, and whose event
//! table is a copy of `Copy` entries that shares its name store: four
//! allocations whatever the document — applies the batch (path-copying only
//! the chunks it touches),
//! journals it (the durable commit point), and publishes the result by
//! swapping the `Arc` under a briefly-held state write lock. The state lock
//! is therefore only
//! ever held for pointer reads and swaps; a slow query can no longer stall
//! a commit, and a streaming writer cannot stall readers (experiment E15
//! measures exactly this).
//!
//! Lock ordering rules (every method obeys them, so the engine cannot
//! deadlock):
//!
//! 1. a shard lock is never held while acquiring any document lock —
//!    resolving a name clones the slot's `Arc` under the shard lock and
//!    drops the shard lock first;
//! 2. within one document, the commit mutex is acquired before the state
//!    lock, never the reverse;
//! 3. no document lock is ever held while acquiring a shard lock, and no
//!    method ever holds two documents' locks at once.
//!
//! Memory reclamation is reference-counted: a published snapshot stays
//! alive exactly as long as some reader still pins it (or it is current);
//! when the last `Arc` drops, the chunks that were *not* shared with newer
//! snapshots are freed with it. Dead arena slots left behind by deletions
//! are reclaimed by folding a compaction into the commit pipeline once the
//! slot count outgrows the live count (see [`Warehouse::commit_batch`]).
//!
//! A document is never removed: once created (or recovered) its slot stays
//! in its shard for the warehouse's lifetime, so a resolved slot is always
//! the name's current one and pinning it cannot fail.
//!
//! Failure handling is quarantine-based: a commit whose durable append
//! fails never publishes (MVCC rollback is dropping the working copy), and
//! the document is marked quarantined — every later *write* is refused with
//! a typed error carrying the original cause, while readers keep serving
//! the last durable snapshot. [`Warehouse::reopen_document`] lifts the
//! quarantine: it drops the in-memory state, has the backend re-establish
//! the on-disk truth (truncating unsynced tails, clearing a poisoned group
//! committer) and republishes the checkpoint + journal replay. See README
//! § "Failure model & recovery".
//!
//! A document is a function of its journal: what a checkpoint plus a
//! journal denotes has one definition, every journaled update in order
//! through the per-update step the commit itself ran (apply, then inline
//! simplification), and one private replay turns files into a published
//! tree for the cold open and for `reopen_document` alike. So
//! the live tree, the cold-open tree and the reopened tree are the same
//! bytes, and recovery costs what the history cost live — never the raw,
//! unsimplified replay, whose size doubles with every round of conditional
//! deletions (the storage trait keeps that one as the reference tests
//! compare against).
//!
//! Every counter has one home. [`Warehouse::stats`] reads the engine's own
//! atomics (updates, queries, checkpoints) and carries the storage
//! backend's [`DurabilityStats`] (fsync rounds, grouped commits and
//! windows, and the one window-occupancy rule) as its `durability` field,
//! unchanged; the journal's meters (batches, for compaction, and bytes)
//! stay with the backend.
//!
//! These rules are not just prose: every lock here carries a
//! `parking_lot::LockClass` (`Shard`, `DocEntry`, …) and the whole test
//! battery can run under a lockdep-style order witness with
//! `cargo test --features lock-witness`, which panics on the first
//! acquisition that violates the declared class order or closes a cycle in
//! the global acquisition-order graph. `cargo run -p pxml-check --bin lint`
//! additionally enforces the construction-site rules (no `std::sync` locks
//! outside the shims, a class annotation at every lock construction). See
//! README § "Concurrency correctness".

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, Mutex, RwLock};
use pxml_core::{
    apply_batch, BatchStats, CoreError, FuzzyQueryResult, FuzzyTree, SimplifyPolicy,
    UpdateTransaction,
};
use pxml_query::Pattern;
use pxml_store::{CommitTicket, DurabilityStats, FsBackend, FsOptions, StorageBackend, StoreError};
use pxml_tree::Tree;

use crate::session::SessionConfig;

/// Errors raised by the warehouse.
#[derive(Debug)]
pub enum WarehouseError {
    /// Propagated storage error.
    Store(StoreError),
    /// Propagated model error.
    Core(CoreError),
    /// The requested document is not loaded in the warehouse.
    UnknownDocument(String),
    /// A document with this name already exists.
    DuplicateDocument(String),
    /// The document is quarantined after a failed commit: writes are refused
    /// until [`Warehouse::reopen_document`] re-establishes the on-disk truth.
    /// Readers are unaffected — they keep serving the last durable snapshot.
    Quarantined {
        /// The quarantined document.
        document: String,
        /// The failure that quarantined it (the first one; later refusals
        /// carry the same original cause).
        reason: String,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Store(err) => write!(f, "{err}"),
            WarehouseError::Core(err) => write!(f, "{err}"),
            WarehouseError::UnknownDocument(name) => {
                write!(f, "document `{name}` is not part of the warehouse")
            }
            WarehouseError::DuplicateDocument(name) => {
                write!(f, "document `{name}` already exists in the warehouse")
            }
            WarehouseError::Quarantined { document, reason } => {
                write!(
                    f,
                    "document `{document}` is quarantined after a failed commit \
                     (reopen it to recover): {reason}"
                )
            }
        }
    }
}

impl std::error::Error for WarehouseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarehouseError::Store(err) => Some(err),
            WarehouseError::Core(err) => Some(err),
            _ => None,
        }
    }
}

impl From<StoreError> for WarehouseError {
    fn from(err: StoreError) -> Self {
        WarehouseError::Store(err)
    }
}

impl From<CoreError> for WarehouseError {
    fn from(err: CoreError) -> Self {
        WarehouseError::Core(err)
    }
}

/// Running counters exposed by [`Warehouse::stats`].
///
/// The engine counters (updates, queries, checkpoints) are lock-free
/// atomics; `durability` is the storage backend's equally
/// lock-free [`durability_stats`](pxml_store::StorageBackend::durability_stats)
/// snapshot, all zero on backends without instrumentation (e.g.
/// `MemBackend`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarehouseStats {
    /// Update transactions accepted.
    pub updates_applied: usize,
    /// Queries evaluated.
    pub queries_evaluated: usize,
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Fsync rounds and group-commit windows of the storage backend.
    pub durability: DurabilityStats,
}

/// The engine-internal counters behind [`WarehouseStats`]: plain atomics, so
/// recording an update or reading a snapshot never takes any lock and can
/// never block (or be blocked by) a commit.
#[derive(Default)]
struct StatsCounters {
    updates_applied: AtomicUsize,
    queries_evaluated: AtomicUsize,
    checkpoints: AtomicUsize,
}

impl StatsCounters {
    fn snapshot(&self, durability: DurabilityStats) -> WarehouseStats {
        WarehouseStats {
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            queries_evaluated: self.queries_evaluated.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            durability,
        }
    }
}

/// An immutable, `Arc`-shared snapshot of one document's state, pinned in
/// O(1) by [`Warehouse::snapshot`]. Everything behind the handle — tree,
/// conditions, event table — is frozen: queries against it run lock-free,
/// and commits that land after the pin publish *new* snapshots without
/// touching this one. Cloning the handle is a reference-count bump.
///
/// The snapshot's memory is reclaimed when the last handle drops; arena
/// chunks shared with newer snapshots survive with them (structural
/// sharing), so holding an old snapshot costs only the chunks that have
/// since been rewritten.
#[derive(Debug, Clone)]
pub struct DocSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    fuzzy: FuzzyTree,
    seq: u64,
}

impl DocSnapshot {
    /// The first snapshot of a document entering the warehouse (created,
    /// or opened cold), its label index current: queries never build one,
    /// and the first commit's match starts from it.
    fn first(mut fuzzy: FuzzyTree) -> Self {
        fuzzy.refresh_label_index();
        DocSnapshot {
            inner: Arc::new(SnapshotInner { fuzzy, seq: 0 }),
        }
    }

    /// The snapshot `fuzzy` as the successor of `self`, its label index
    /// current: patched from the index `self` carried by re-walking what
    /// the commit touched (built, after a compaction).
    fn successor(&self, mut fuzzy: FuzzyTree) -> Self {
        fuzzy.refresh_label_index();
        DocSnapshot {
            inner: Arc::new(SnapshotInner {
                fuzzy,
                seq: self.inner.seq + 1,
            }),
        }
    }

    /// The frozen fuzzy tree.
    pub fn fuzzy(&self) -> &FuzzyTree {
        &self.inner.fuzzy
    }

    /// The document's commit sequence number at the time of the pin: 0 at
    /// creation/recovery, +1 per published commit (or reopen). Strictly
    /// monotonic per document, so two pins can be ordered.
    pub fn seq(&self) -> u64 {
        self.inner.seq
    }
}

/// The published, swappable part of a document slot.
struct DocState {
    snapshot: DocSnapshot,
    /// Set when a commit's durable append failed: the in-memory snapshot and
    /// the journal may disagree, so every *write* path refuses with
    /// [`WarehouseError::Quarantined`] until [`Warehouse::reopen_document`]
    /// replays the journal and clears this. Readers ignore it — the published
    /// snapshot is still the last durable state (the blocking commit path
    /// never publishes a batch whose append failed).
    quarantined: Option<String>,
}

/// One document's engine-resident state.
struct DocSlot {
    /// Serializes writers: held across the whole apply → journal → swap →
    /// maintenance pipeline of [`Warehouse::commit_batch`] (and by
    /// `checkpoint`/`reopen_document`, which must not interleave with a
    /// commit). Readers never touch it.
    commit: Mutex<()>,
    /// The published snapshot + quarantine. Only ever held long enough to
    /// clone or swap the snapshot `Arc` — O(1), never across an apply,
    /// a query, or storage I/O.
    state: RwLock<DocState>,
}

impl DocSlot {
    fn live(snapshot: DocSnapshot) -> Slot {
        Arc::new(DocSlot {
            commit: Mutex::with_class(LockClass::DocCommit, ()),
            state: RwLock::with_class(
                LockClass::DocEntry,
                DocState {
                    snapshot,
                    quarantined: None,
                },
            ),
        })
    }
}

/// A shared handle to one document's locks + published state.
type Slot = Arc<DocSlot>;

/// Dead-slot slack tolerated before a commit folds an arena compaction into
/// its pipeline: compaction runs once `slot_count > 2 × node_count + SLACK`,
/// so churn-heavy documents stay within a constant factor of their live
/// size while small documents never pay for rebuilds.
const SLOT_SLACK: usize = 64;

/// One shard of the document registry.
struct Shard {
    slots: RwLock<HashMap<String, Slot>>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            slots: RwLock::with_class(LockClass::Shard, HashMap::new()),
        }
    }
}

/// Number of registry shards. Sixteen keeps the birthday-collision rate of
/// *registry* operations (create/lookup) low for the document counts
/// the warehouse targets; note that post-lookup work never holds a shard
/// lock, so shard collisions only cost contention on the name lookup itself.
const SHARD_COUNT: usize = 16;

/// The probabilistic XML warehouse engine: named fuzzy-tree documents with a
/// query interface, an atomic batch-commit pipeline and durable storage.
///
/// All methods take `&self`; the warehouse is internally synchronised with a
/// sharded registry of per-document locks (see the module docs for the lock
/// ordering rules) so it can be shared behind an `Arc` by many module
/// threads, or borrowed by scoped ones. A `&self` method touching one
/// document synchronises only with other users of *that* document, never
/// with traffic on the rest of the warehouse.
pub struct Warehouse {
    store: Arc<dyn StorageBackend>,
    config: SessionConfig,
    shards: Vec<Shard>,
    stats: StatsCounters,
}

impl Warehouse {
    /// Opens the engine backed by the given directory through the default
    /// [`FsBackend`], recovering every stored document (checkpoint + journal
    /// replay). The backend inherits the configuration's
    /// [`CommitPolicy`](pxml_store::CommitPolicy) (`config.commit`), so a
    /// `Grouped` warehouse gets cross-document fsync coalescing out of the
    /// box.
    pub fn with_config(
        path: impl AsRef<Path>,
        config: SessionConfig,
    ) -> Result<Self, WarehouseError> {
        let backend = FsBackend::with_options(
            path,
            FsOptions {
                commit: config.commit,
                ..FsOptions::default()
            },
        )?;
        Self::with_backend(Arc::new(backend), config)
    }

    /// Opens the engine over an explicit storage backend, recovering every
    /// stored document by replaying its journal over its checkpoint.
    pub fn with_backend(
        store: Arc<dyn StorageBackend>,
        config: SessionConfig,
    ) -> Result<Self, WarehouseError> {
        let shards: Vec<Shard> = (0..SHARD_COUNT).map(|_| Shard::default()).collect();
        let warehouse = Warehouse {
            store,
            config,
            shards,
            stats: StatsCounters::default(),
        };
        for name in warehouse.store.list_documents()? {
            let snapshot = DocSnapshot::first(warehouse.replay(&name)?);
            warehouse
                .shard(&name)
                .slots
                .write()
                .insert(name, DocSlot::live(snapshot));
        }
        Ok(warehouse)
    }

    /// The document a checkpoint plus a journal denotes: every journaled
    /// update, in order, through the step the commit that journaled it ran
    /// ([`pxml_core::apply_batch`]'s loop body under
    /// [`SimplifyPolicy::Inline`]), in place on the loaded checkpoint. The
    /// cold open and [`Warehouse::reopen_document`] publish only what this
    /// returns, so both hold the tree the live warehouse held — the same
    /// bytes — and recovery costs what the history cost live: a loaded
    /// checkpoint is not marked as a simplification fixpoint, so the first
    /// replayed update runs the whole-document simplifier and every later
    /// one simplifies only what it touched, as its live commit did. (A
    /// commit that passed `Some(SimplifyPolicy::Never)` is the one
    /// exception: the override is not journaled.)
    ///
    /// The label index is built once over the loaded checkpoint and patched
    /// after every replayed update, so each replayed match starts from it,
    /// as its live commit's did, and the tree returned is indexed.
    fn replay(&self, name: &str) -> Result<FuzzyTree, WarehouseError> {
        let mut fuzzy = self.store.load_document(name)?;
        fuzzy.refresh_label_index();
        for update in self.store.read_journal(name)? {
            update.apply_to_fuzzy_with(&mut fuzzy, SimplifyPolicy::Inline)?;
            fuzzy.refresh_label_index();
        }
        Ok(fuzzy)
    }

    /// The shard a document name maps to.
    fn shard(&self, name: &str) -> &Shard {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % self.shards.len()]
    }

    /// Resolves a name to its document slot. The shard lock is held only
    /// long enough to clone the `Arc`; the caller locks the slot afterwards,
    /// so lookups never block behind another document's commit.
    fn slot(&self, name: &str) -> Result<Slot, WarehouseError> {
        self.shard(name)
            .slots
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| WarehouseError::UnknownDocument(name.to_string()))
    }

    /// The names of the loaded documents (sorted). Shard locks are taken one
    /// at a time, so the listing is a point-in-time view per shard, not a
    /// global snapshot.
    pub fn document_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| shard.slots.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Whether a document with this name is loaded.
    pub fn contains(&self, name: &str) -> bool {
        self.shard(name).slots.read().contains_key(name)
    }

    /// Creates a new document from a certain data tree.
    pub fn create_document(&self, name: &str, tree: Tree) -> Result<(), WarehouseError> {
        self.create_fuzzy_document(name, FuzzyTree::from_tree(tree))
    }

    /// Creates a new document from an existing fuzzy tree.
    ///
    /// The shard's write lock is held across the (fast, atomic) initial save
    /// so a duplicate-name race cannot create the same document twice; this
    /// briefly delays *registry lookups* of same-shard names but never an
    /// in-flight commit, which operates on its already-resolved slot.
    pub fn create_fuzzy_document(
        &self,
        name: &str,
        fuzzy: FuzzyTree,
    ) -> Result<(), WarehouseError> {
        // The label index is built before the shard lock is taken.
        let snapshot = DocSnapshot::first(fuzzy);
        let mut slots = self.shard(name).slots.write();
        if slots.contains_key(name) {
            return Err(WarehouseError::DuplicateDocument(name.to_string()));
        }
        self.store.save_document(name, snapshot.fuzzy())?;
        slots.insert(name.to_string(), DocSlot::live(snapshot));
        Ok(())
    }

    /// Pins the slot's current snapshot — an `Arc` bump under the briefly
    /// held state read lock.
    fn pin(slot: &DocSlot) -> DocSnapshot {
        slot.state.read().snapshot.clone()
    }

    /// Write-path gate: a quarantined document refuses every mutation with
    /// the typed error until a reopen clears it. Read paths never call this —
    /// readers keep serving the last durable snapshot through the quarantine.
    fn check_quarantine(slot: &DocSlot, name: &str) -> Result<(), WarehouseError> {
        if let Some(reason) = &slot.state.read().quarantined {
            return Err(WarehouseError::Quarantined {
                document: name.to_string(),
                reason: reason.clone(),
            });
        }
        Ok(())
    }

    /// Quarantines a document after a failed durable append. First failure
    /// wins: a refusal caused by an existing quarantine never overwrites the
    /// original reason.
    fn quarantine(slot: &DocSlot, reason: String) {
        let mut state = slot.state.write();
        if state.quarantined.is_none() {
            state.quarantined = Some(reason);
        }
    }

    /// Pins the current snapshot of a document: O(1), and the returned
    /// handle stays valid (and immutable) no matter what commits or reopens
    /// happen afterwards.
    pub fn snapshot(&self, name: &str) -> Result<DocSnapshot, WarehouseError> {
        let slot = self.slot(name)?;
        Ok(Self::pin(&slot))
    }

    /// A copy of a document's current fuzzy tree. This pins the current
    /// snapshot and clones it *outside* any lock. The tree and its
    /// conditions clone copy-on-write (shared arena chunks: O(chunks)
    /// pointer bumps) and the event table copies its `Copy` entries and
    /// shares its name store: four allocations in all, whatever the number
    /// of events. Prefer [`Warehouse::snapshot`] when read-only access is
    /// enough.
    pub fn document(&self, name: &str) -> Result<FuzzyTree, WarehouseError> {
        let snapshot = self.snapshot(name)?;
        Ok(snapshot.fuzzy().clone())
    }

    /// Evaluates a TPWJ query against a document (slide 3's query interface:
    /// "query → results + confidence"). Pins the current snapshot in O(1)
    /// and evaluates **lock-free** against it: queries never block — and are
    /// never blocked by — commits, not even commits to the same document.
    pub fn query(&self, name: &str, pattern: &Pattern) -> Result<FuzzyQueryResult, WarehouseError> {
        let snapshot = self.snapshot(name)?;
        let result = snapshot.fuzzy().query(pattern);
        self.stats.queries_evaluated.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// Evaluates a TPWJ query and merges the matches into distinct answer
    /// trees with exact probabilities, all against **one** pinned snapshot:
    /// the match set, the event table the conditions refer to, and the
    /// selection probability are guaranteed mutually consistent even while
    /// commits stream into the same document. Returns the snapshot's commit
    /// sequence number, the selection probability (probability that at
    /// least one match exists) and the merged `(answer tree, probability)`
    /// pairs. This is the evaluation path behind the server's `query`
    /// frame.
    pub fn query_merged(
        &self,
        name: &str,
        pattern: &Pattern,
    ) -> Result<MergedQuery, WarehouseError> {
        let snapshot = self.snapshot(name)?;
        let result = snapshot.fuzzy().query(pattern);
        let events = snapshot.fuzzy().events();
        let answers = result.merged_answers(events);
        // One answer group holds every match, so its disjunction *is* the
        // selection; only several groups need the all-matches disjunction.
        let selection = match answers.as_slice() {
            [(_, only)] => *only,
            _ => result.selection_probability(events),
        };
        self.stats.queries_evaluated.fetch_add(1, Ordering::Relaxed);
        Ok(MergedQuery {
            seq: snapshot.seq(),
            selection,
            answers,
        })
    }

    /// Commits a batch of update transactions to a document atomically: the
    /// batch is applied to a copy-on-write clone of the current snapshot
    /// through the pipeline every replay runs ([`pxml_core::apply_batch`]
    /// with inline simplification), journaled as one durable entry (the
    /// fsync'd journal-record append is the commit point), and only then
    /// published as the document's new snapshot by an O(1) pointer swap —
    /// an error *before* the commit point leaves the published snapshot and
    /// the journal exactly as they were. Configured maintenance (checkpoint
    /// folding) runs after the commit point and cannot fail the call:
    /// a fold that cannot be written leaves the old checkpoint and the full
    /// journal, the next blocking commit tries again, and the failure itself
    /// is what an explicit [`Warehouse::checkpoint`] returns.
    ///
    /// Locking: the document's commit mutex is held start to finish, so
    /// writers to the same document serialize (no lost updates); the state
    /// lock is held only for the O(1) base pin and the final swap. Commits
    /// to other documents run in parallel, and queries — even against *this*
    /// document — are never blocked: they keep reading the pre-commit
    /// snapshot until the swap publishes the new one.
    ///
    /// The apply path-copies only the arena chunks the batch touches
    /// (structural sharing with the base snapshot), so the tree's copy work
    /// is O(changed path), not O(document); the working copy's event table
    /// is one copy of `Copy` entries, and its names are shared, not
    /// copied. Inline simplification starts from each
    /// update's footprint — what it inserted, copied and removed — so on a
    /// snapshot an earlier commit left simplified it costs what the update
    /// touched plus the depth of the tree, and gives the bytes a
    /// whole-document [`Simplifier::run`](pxml_core::Simplifier::run) would.
    /// When deletions have left the arena with more than
    /// `2 × live + SLOT_SLACK` slots, a compaction is folded in before the
    /// swap, reclaiming the dead slots (the snapshot stays a simplification
    /// fixpoint).
    ///
    /// `policy` is frozen for pxbench, whose trace compiles against this
    /// signature: `None` means [`SimplifyPolicy::Inline`], and
    /// `Some(SimplifyPolicy::Never)` is the one commit whose replay can
    /// differ from the live tree, because the override is not journaled.
    /// ROADMAP item 11 deletes the parameter.
    pub fn commit_batch(
        &self,
        name: &str,
        batch: &[UpdateTransaction],
        policy: Option<SimplifyPolicy>,
    ) -> Result<BatchStats, WarehouseError> {
        Ok(self.commit(name, batch, policy, true)?.stats)
    }

    /// The one commit body behind [`Warehouse::commit_batch`] and
    /// [`Warehouse::commit_batch_async`]. Staging is shared — slot, commit
    /// mutex, base pin, quarantine gate, apply to a copy-on-write clone
    /// (rollback = dropping the clone), ticketed journal append — and the
    /// paths differ only in `wait_durable`: the blocking path waits out the
    /// ticket, publishes, then runs due compaction under the commit mutex;
    /// the async path publishes and hands the unresolved ticket back.
    fn commit(
        &self,
        name: &str,
        batch: &[UpdateTransaction],
        policy: Option<SimplifyPolicy>,
        wait_durable: bool,
    ) -> Result<AsyncCommit, WarehouseError> {
        let policy = policy.unwrap_or(SimplifyPolicy::Inline);
        let slot = self.slot(name)?;
        let commit = slot.commit.lock();
        let base = Self::pin(&slot);
        Self::check_quarantine(&slot, name)?;
        if batch.is_empty() {
            return Ok(AsyncCommit {
                stats: BatchStats::default(),
                ticket: CommitTicket::resolved(Ok(())),
                guard: None,
            });
        }
        let (working, stats) = apply_batch(base.fuzzy(), batch, policy)?;
        // The ticketed append lets the backend share this batch's fsync with
        // concurrent commits to other documents. The blocking path waits it
        // out before publishing; the async path settles only a ticket that
        // came back already resolved (a committer-less backend's finished
        // append, a poisoned committer's refusal), so a failure known now
        // never publishes.
        let mut ticket = self.store.append_batch_enqueue(name, batch);
        if wait_durable || ticket.is_durable() {
            if let Err(error) = ticket.wait() {
                // The durable commit point failed. MVCC rollback is dropping
                // the working copy — the published snapshot never moved —
                // but the journal (and, under group commit, the whole
                // pipeline) can no longer be trusted: quarantine the
                // document so writes stop until a reopen re-establishes the
                // on-disk truth. Readers keep serving the snapshot we just
                // declined to replace.
                Self::quarantine(&slot, error.to_string());
                return Err(error.into());
            }
            ticket = CommitTicket::resolved(Ok(()));
        }
        let published = Self::publish(&slot, &base, working);

        // The commit happened: record it before any maintenance can fail.
        self.stats
            .updates_applied
            .fetch_add(batch.len(), Ordering::Relaxed);
        // Compaction rides the blocking pipeline (the async path skips it,
        // see `commit_batch_async`). The commit mutex is still held, so the
        // save + truncate cannot interleave with another commit's journal
        // append.
        if wait_durable {
            // The batch is journaled and published, so nothing from here on
            // may fail the call: told `Err`, a client retries and the batch
            // is applied twice. A fold that fails leaves "old checkpoint +
            // full journal", which the backend contract keeps consistent,
            // and the meter stays due, so the next blocking commit retries
            // it; `Warehouse::checkpoint` is where the failure is reported.
            // lint: allow(io-result-drop)
            let _ = self.fold_if_due(name, &published);
        }
        drop(commit);
        Ok(AsyncCommit {
            stats,
            ticket,
            guard: Some(slot),
        })
    }

    /// Folds the journal into a checkpoint of `snapshot` when the configured
    /// [`CompactionPolicy`](crate::session::CompactionPolicy) says it is due
    /// — one O(1) meter read otherwise. Caller must hold the slot's commit
    /// mutex.
    fn fold_if_due(&self, name: &str, snapshot: &DocSnapshot) -> Result<(), StoreError> {
        if self
            .config
            .compaction
            .is_due(self.store.journal_batches(name)?)
        {
            self.store.checkpoint(name, snapshot.fuzzy())?;
            self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Publishes `working` as the document's next snapshot (reclaiming dead
    /// arena slots first when they outnumber the live ones) and returns the
    /// published handle. Caller must hold the slot's commit mutex.
    fn publish(slot: &DocSlot, base: &DocSnapshot, mut working: FuzzyTree) -> DocSnapshot {
        if working.tree().slot_count() > 2 * working.tree().node_count() + SLOT_SLACK {
            working.compact_slots();
        }
        let next = base.successor(working);
        slot.state.write().snapshot = next.clone();
        next
    }

    /// Commits a batch through the **asynchronous write pipeline**:
    /// identical to [`Warehouse::commit_batch`] up to the journal hand-off,
    /// but instead of blocking for the durability fsync it *enqueues* the
    /// batch into the backend's commit window and returns an [`AsyncCommit`]
    /// that resolves at the window's fsync. The in-memory document is
    /// swapped before returning — the enqueue is the logical commit point —
    /// so later reads in this process see the batch immediately.
    ///
    /// The durability contract is deliberately weaker than the blocking
    /// path's, in exactly one way: a window fsync failure *after* this call
    /// returns cannot roll the in-memory state back. The error surfaces at
    /// [`AsyncCommit::wait`], and a restart recovers to the journal without
    /// the batch — the same outcome as crashing before a synchronous commit
    /// returned. Callers must not acknowledge the commit to *their* clients
    /// until `wait` returns `Ok`.
    ///
    /// Post-commit maintenance (compaction) is skipped on this path: the
    /// journal meters only settle at the fsync, and a compaction here would
    /// force the window to flush early, defeating the coalescing. The next
    /// blocking commit (or an explicit [`Warehouse::checkpoint`]) picks the
    /// fold up.
    ///
    /// `policy` is [`Warehouse::commit_batch`]'s frozen parameter, with the
    /// same meaning: `None` is [`SimplifyPolicy::Inline`], and
    /// `Some(SimplifyPolicy::Never)` is not journaled, so its replay can
    /// differ. ROADMAP item 11 deletes it.
    pub fn commit_batch_async(
        &self,
        name: &str,
        batch: &[UpdateTransaction],
        policy: Option<SimplifyPolicy>,
    ) -> Result<AsyncCommit, WarehouseError> {
        self.commit(name, batch, policy, false)
    }

    /// Serialized size of a document's journal in bytes — O(1) from the
    /// backend's journal meters.
    pub fn journal_size_bytes(&self, name: &str) -> Result<u64, WarehouseError> {
        self.slot(name)?;
        Ok(self.store.journal_size_bytes(name)?)
    }

    /// Writes the current in-memory state of a document as a checkpoint and
    /// truncates its journal.
    pub fn checkpoint(&self, name: &str) -> Result<(), WarehouseError> {
        let slot = self.slot(name)?;
        {
            // The commit mutex — not the state lock — excludes concurrent
            // commits, whose journal appends must not interleave with the
            // save + truncate. Readers are unaffected.
            let _commit = slot.commit.lock();
            let snapshot = Self::pin(&slot);
            Self::check_quarantine(&slot, name)?;
            self.store.checkpoint(name, snapshot.fuzzy())?;
        }
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Lifts a document out of quarantine: takes the commit mutex (waiting
    /// out any in-flight writer), has the backend reset what it holds about
    /// the document ([`StorageBackend::reopen_document`]: a poisoned commit
    /// pipeline cleared, the journal rescanned and any unsynced or torn tail
    /// truncated at the next read), and publishes the replay of the
    /// checkpoint and the surviving journal — the one a cold open of the
    /// same files runs, so the two publish the same tree — as the document's
    /// next snapshot with the quarantine cleared. No acknowledged commit is
    /// lost: everything the journal holds is replayed, and the failing
    /// append was rolled back before it ever resolved. The work is that of
    /// the journaled commits themselves, so at most a fold interval's worth.
    ///
    /// Readers that pinned a pre-reopen snapshot keep it unchanged; the
    /// published sequence number still advances, so pins stay ordered. Safe
    /// on a healthy document too, where it simply re-publishes the durable
    /// state.
    pub fn reopen_document(&self, name: &str) -> Result<(), WarehouseError> {
        let slot = self.slot(name)?;
        let _commit = slot.commit.lock();
        // The commit mutex keeps the published snapshot (and its sequence
        // number) from moving until the swap below.
        let current = Self::pin(&slot);
        self.store.reopen_document(name)?;
        let next = current.successor(self.replay(name)?);
        let mut state = slot.state.write();
        state.snapshot = next;
        state.quarantined = None;
        Ok(())
    }

    /// Whether a document is currently quarantined (false for unknown names).
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.slot(name)
            .map(|slot| slot.state.read().quarantined.is_some())
            .unwrap_or(false)
    }

    /// The quarantined documents and the failure that quarantined each,
    /// sorted by name. Reads only the in-memory slots — never storage — so
    /// the server's `stats` frame can afford it on every request. Shard locks
    /// are taken one at a time and dropped before the per-document state
    /// reads (lock rule 1), so the listing is a per-shard point-in-time view.
    pub fn quarantined_documents(&self) -> Vec<(String, String)> {
        let mut quarantined = Vec::new();
        for shard in &self.shards {
            let slots: Vec<(String, Slot)> = shard
                .slots
                .read()
                .iter()
                .map(|(name, slot)| (name.clone(), slot.clone()))
                .collect();
            for (name, slot) in slots {
                if let Some(reason) = slot.state.read().quarantined.clone() {
                    quarantined.push((name, reason));
                }
            }
        }
        quarantined.sort();
        quarantined
    }

    /// Running counters since the warehouse was opened. Reads atomics only —
    /// never blocks, and never delays a commit.
    pub fn stats(&self) -> WarehouseStats {
        self.stats.snapshot(self.store.durability_stats())
    }

    /// Drains the storage backend's group-commit pipeline (see
    /// [`StorageBackend::group_barrier`]): every async commit whose handle
    /// was issued before this call is durable when it returns. Long-running
    /// embedders call this before dropping the warehouse — the `pxml-server`
    /// tenant LRU runs it on eviction and graceful shutdown so pipelined
    /// commits are never abandoned mid-window. A no-op on `Sync`-policy and
    /// in-memory backends.
    pub fn group_barrier(&self) {
        self.store.group_barrier();
    }

    /// Test hook: runs `body` while holding `name`'s commit mutex — a writer
    /// frozen mid-pipeline — proving what the mutex does (serialize writers)
    /// and does not (block readers) cover.
    #[cfg(test)]
    pub(crate) fn with_document_commit_locked<R>(
        &self,
        name: &str,
        body: impl FnOnce() -> R,
    ) -> Result<R, WarehouseError> {
        let slot = self.slot(name)?;
        let _commit = slot.commit.lock();
        Ok(body())
    }
}

/// The result of [`Warehouse::query_merged`]: a query answer whose pieces
/// are mutually consistent because they were all read from one pinned
/// snapshot.
#[derive(Debug, Clone)]
pub struct MergedQuery {
    /// Commit sequence number of the snapshot the query ran against.
    pub seq: u64,
    /// Probability that at least one match exists in a random world.
    pub selection: f64,
    /// Distinct merged answer trees with their exact probabilities.
    pub answers: Vec<(Tree, f64)>,
}

/// The in-flight handle of an asynchronous commit
/// ([`Warehouse::commit_batch_async`]): the batch is applied in memory and
/// enqueued in the backend's commit window; durability arrives at the
/// window's fsync.
///
/// Dropping the handle without waiting still flushes the batch (the
/// underlying ticket blocks for its window on drop), but discards the
/// outcome — wait on it before acknowledging the commit to anyone.
#[must_use = "an async commit is durable only once its handle resolves"]
pub struct AsyncCommit {
    stats: BatchStats,
    ticket: CommitTicket,
    /// The document slot to quarantine if the window fsync later fails: an
    /// async commit publishes *before* durability, so a deferred failure
    /// leaves the in-memory state ahead of the journal — exactly what
    /// quarantine + reopen exist to repair. `None` only for empty batches.
    guard: Option<Slot>,
}

impl fmt::Debug for AsyncCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncCommit")
            .field("durable", &self.ticket.is_durable())
            .finish_non_exhaustive()
    }
}

impl AsyncCommit {
    /// The per-update statistics of the (already applied) batch.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// `true` once the batch's durability outcome is known — a non-blocking
    /// poll; [`AsyncCommit::wait`] returns the outcome itself.
    pub fn is_durable(&self) -> bool {
        self.ticket.is_durable()
    }

    /// Blocks until the batch's window has fsync'd and returns the batch
    /// statistics — the point at which the commit may be acknowledged.
    ///
    /// On a window-fsync failure the batch was already published in memory
    /// but rolled back on disk, so this quarantines the document before
    /// returning the error: subsequent writes are refused until
    /// [`Warehouse::reopen_document`] discards the phantom in-memory state
    /// and replays the journal.
    pub fn wait(self) -> Result<BatchStats, WarehouseError> {
        let AsyncCommit {
            stats,
            ticket,
            guard,
        } = self;
        match ticket.wait() {
            Ok(()) => Ok(stats),
            Err(error) => {
                if let Some(slot) = &guard {
                    Warehouse::quarantine(slot, error.to_string());
                }
                Err(error.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CompactionPolicy;
    use pxml_tree::parse_data_tree;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Duration;

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn scratch(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pxml-warehouse-test-{}-{}-{}",
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

    fn add_phone(name: &str, confidence: f64) -> UpdateTransaction {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
        let target = pattern.root();
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_insert(target, parse_data_tree("<phone>+33-1</phone>").unwrap())
    }

    fn add_email(name: &str, confidence: f64) -> UpdateTransaction {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
        let target = pattern.root();
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_insert(
                target,
                parse_data_tree("<email>a@example.org</email>").unwrap(),
            )
    }

    /// The snapshot's document as the store would write it.
    fn serialized(snapshot: &DocSnapshot) -> String {
        pxml_store::serialize_fuzzy_document(snapshot.fuzzy(), false)
    }

    fn commit_one(
        warehouse: &Warehouse,
        name: &str,
        update: &UpdateTransaction,
    ) -> Result<BatchStats, WarehouseError> {
        warehouse.commit_batch(name, std::slice::from_ref(update), None)
    }

    /// The engine defaults used by most tests, without compaction: the
    /// journal holds exactly what the test committed.
    fn plain_config() -> SessionConfig {
        SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        }
    }

    /// Merged answers come back in document order of each distinct answer's
    /// first match — neither sorted nor in hash order — so a wire-level
    /// oracle can compare answer lists position by position.
    #[test]
    fn merged_answers_arrive_in_document_order_of_first_match() {
        let warehouse =
            Warehouse::with_backend(Arc::new(pxml_store::MemBackend::new()), plain_config())
                .unwrap();
        let tree = parse_data_tree(
            "<dir>\
               <person><name>p1</name></person>\
               <org><name>o1</name></org>\
               <person><name>p2</name></person>\
               <club><name>c1</name></club>\
             </dir>",
        )
        .unwrap();
        warehouse.create_document("dir", tree).unwrap();
        let merged = warehouse
            .query_merged("dir", &Pattern::parse("* { name }").unwrap())
            .unwrap();
        let roots: Vec<&str> = merged
            .answers
            .iter()
            .map(|(answer, _)| answer.label(answer.root()).element_name().unwrap())
            .collect();
        assert_eq!(roots, ["person", "org", "club"]);
    }

    #[test]
    fn create_query_update_cycle() {
        let dir = scratch("cycle");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        assert_eq!(warehouse.document_names(), vec!["people"]);

        // Initially no phone.
        let phones = Pattern::parse("person { phone }").unwrap();
        assert!(warehouse.query("people", &phones).unwrap().is_empty());

        // An extraction module reports a phone number for alice with
        // confidence 0.8.
        let stats = commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
        assert_eq!(stats.updates[0].applied_matches, 1);

        let result = warehouse.query("people", &phones).unwrap();
        assert_eq!(result.len(), 1);
        assert!((result.matches[0].probability - 0.8).abs() < 1e-12);

        let totals = warehouse.stats();
        assert_eq!(totals.updates_applied, 1);
        assert_eq!(totals.queries_evaluated, 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unknown_and_duplicate_documents_are_rejected() {
        let dir = scratch("errors");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        assert!(matches!(
            warehouse.create_document("people", directory()),
            Err(WarehouseError::DuplicateDocument(_))
        ));
        let query = Pattern::parse("person").unwrap();
        assert!(matches!(
            warehouse.query("ghost", &query),
            Err(WarehouseError::UnknownDocument(_))
        ));
        assert!(matches!(
            commit_one(&warehouse, "ghost", &add_phone("alice", 0.5)),
            Err(WarehouseError::UnknownDocument(_))
        ));
        assert!(matches!(
            warehouse.snapshot("ghost"),
            Err(WarehouseError::UnknownDocument(_))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn updates_survive_a_restart_via_journal_replay() {
        let dir = scratch("restart");
        {
            let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
            warehouse.create_document("people", directory()).unwrap();
            commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
            commit_one(&warehouse, "people", &add_phone("bob", 0.6)).unwrap();
        }
        // Re-open: the checkpoint has no phones, the journal has both.
        let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        let result = reopened.query("people", &phones).unwrap();
        assert_eq!(result.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn compaction_policy_folds_the_journal() {
        let dir = scratch("compaction-policy");
        let warehouse = Warehouse::with_config(
            &dir,
            SessionConfig {
                compaction: CompactionPolicy::EveryNBatches(2),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        warehouse.create_document("people", directory()).unwrap();
        commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
        assert_eq!(warehouse.store.journal_batches("people").unwrap(), 1);
        commit_one(&warehouse, "people", &add_phone("bob", 0.9)).unwrap();
        // After the second batch the journal is folded into the checkpoint.
        assert_eq!(warehouse.stats().checkpoints, 1);
        assert_eq!(warehouse.store.journal_batches("people").unwrap(), 0);
        let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        assert_eq!(reopened.query("people", &phones).unwrap().len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A commit that is journaled and published is `Ok` whatever happens to
    /// the fold that follows it: told `Err`, a retrying client would apply
    /// the batch twice. The failed fold leaves the journal whole, the
    /// explicit verb says why it fails, and the next commit folds once the
    /// cause is gone. Two causes: the checkpoint's staging path made
    /// un-creatable, and a fault plan failing checkpoints #2 (the due fold)
    /// and #3 (the explicit verb) — #1 is the document's creation.
    #[test]
    fn a_failed_post_commit_fold_does_not_fail_the_commit() {
        use pxml_store::{FaultOp, FaultPlan, FsBackend, FsOptions};
        for plan in [
            None,
            Some(
                FaultPlan::new()
                    .fail_nth(FaultOp::Checkpoint, 2)
                    .fail_nth(FaultOp::Checkpoint, 3),
            ),
        ] {
            let dir = scratch("fold-fails");
            let config = SessionConfig {
                compaction: CompactionPolicy::EveryNBatches(2),
                ..SessionConfig::default()
            };
            let obstruction = plan.is_none().then(|| dir.join(".people.pxml.tmp"));
            let options = FsOptions {
                fault: plan.map(Arc::new),
                ..FsOptions::default()
            };
            let backend = FsBackend::with_options(&dir, options).unwrap();
            let warehouse = Warehouse::with_backend(Arc::new(backend), config).unwrap();
            warehouse.create_document("people", directory()).unwrap();
            if let Some(obstruction) = &obstruction {
                std::fs::create_dir(obstruction).unwrap();
            }

            commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
            let stats = commit_one(&warehouse, "people", &add_phone("bob", 0.9))
                .expect("the batch is durable and published: a failed fold is not its failure");
            assert_eq!(stats.len(), 1);
            assert!(!warehouse.is_quarantined("people"));
            assert_eq!(warehouse.stats().checkpoints, 0);
            assert_eq!(warehouse.store.journal_batches("people").unwrap(), 2);
            assert!(matches!(
                warehouse.checkpoint("people"),
                Err(WarehouseError::Store(_))
            ));

            if let Some(obstruction) = &obstruction {
                std::fs::remove_dir(obstruction).unwrap();
            }
            commit_one(&warehouse, "people", &add_phone("alice", 0.5)).unwrap();
            assert_eq!(warehouse.stats().checkpoints, 1);
            assert_eq!(warehouse.store.journal_batches("people").unwrap(), 0);
            drop(warehouse);
            let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
            let phones = Pattern::parse("person { phone }").unwrap();
            assert_eq!(reopened.query("people", &phones).unwrap().len(), 3);
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// Documents hash across shards, and the registry behaves identically
    /// however many documents share a shard.
    #[test]
    fn many_documents_spread_over_the_shards() {
        let dir = scratch("many-docs");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        let count = 3 * SHARD_COUNT;
        for i in 0..count {
            warehouse
                .create_document(&format!("doc-{i}"), directory())
                .unwrap();
        }
        assert_eq!(warehouse.document_names().len(), count);
        // Every populated shard resolves its own documents.
        for i in 0..count {
            let name = format!("doc-{i}");
            assert!(warehouse.contains(&name));
            commit_one(&warehouse, &name, &add_phone("alice", 0.7)).unwrap();
        }
        assert_eq!(warehouse.stats().updates_applied, count);
        // At least two distinct shards are in use (3×SHARD_COUNT names into
        // SHARD_COUNT buckets cannot all collide unless hashing is broken).
        let used = warehouse
            .shards
            .iter()
            .filter(|shard| !shard.slots.read().is_empty())
            .count();
        assert!(used > 1, "all {count} documents hashed into one shard");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The core claims of the MVCC engine, tested deterministically: while
    /// one document's commit mutex is held (a writer frozen mid-pipeline),
    /// (1) queries and commits against *another* document complete, (2)
    /// queries against the busy document itself complete too — readers pin
    /// the published snapshot and never touch the commit mutex — and (3) a
    /// second *writer* of the busy document does wait.
    #[test]
    fn readers_and_other_documents_stay_available_while_one_commits() {
        let dir = scratch("independent-locks");
        let warehouse = std::sync::Arc::new(Warehouse::with_config(&dir, plain_config()).unwrap());
        warehouse.create_document("busy", directory()).unwrap();
        warehouse.create_document("idle", directory()).unwrap();

        let (done_tx, done_rx) = mpsc::channel();
        let (blocked_tx, blocked_rx) = mpsc::channel();
        warehouse
            .with_document_commit_locked("busy", || {
                // A thread works the *other* document while `busy` commits.
                let shared = warehouse.clone();
                let worker = std::thread::spawn(move || {
                    let phones = Pattern::parse("person { phone }").unwrap();
                    assert!(shared.query("idle", &phones).unwrap().is_empty());
                    commit_one(&shared, "idle", &add_phone("alice", 0.9)).unwrap();
                    assert_eq!(shared.query("idle", &phones).unwrap().len(), 1);
                    done_tx.send(()).unwrap();
                });
                done_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("work on `idle` must not wait for `busy`'s commit");
                worker.join().unwrap();

                // A reader of `busy` itself completes immediately — from
                // its own thread, like real readers (the shard map ranks
                // above the commit mutex, so the holder must not re-enter
                // it): it reads the published snapshot, not the writer's
                // working copy.
                let shared = warehouse.clone();
                let (read_tx, read_rx) = mpsc::channel();
                let reader = std::thread::spawn(move || {
                    let phones = Pattern::parse("person { phone }").unwrap();
                    read_tx
                        .send(shared.query("busy", &phones).unwrap().len())
                        .unwrap();
                });
                let busy_matches = read_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a query against the committing document must not block");
                reader.join().unwrap();
                assert_eq!(busy_matches, 0);

                // A second writer of `busy` does wait for the pipeline.
                let shared = warehouse.clone();
                let writer = std::thread::spawn(move || {
                    commit_one(&shared, "busy", &add_phone("bob", 0.7)).unwrap();
                    blocked_tx.send(()).unwrap();
                });
                assert!(
                    blocked_rx.recv_timeout(Duration::from_millis(100)).is_err(),
                    "a second commit to the same document must serialize"
                );
                writer
            })
            .unwrap()
            .join()
            .unwrap();
        // Once the pipeline finishes the blocked writer completes and its
        // commit is visible.
        blocked_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        assert_eq!(warehouse.query("busy", &phones).unwrap().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Barrier-started commits from many threads to disjoint documents all
    /// land, and each document ends up exactly as its own journal says.
    #[test]
    fn concurrent_commits_to_distinct_documents_all_land() {
        let dir = scratch("parallel-commits");
        let warehouse = std::sync::Arc::new(Warehouse::with_config(&dir, plain_config()).unwrap());
        let docs = 4;
        for i in 0..docs {
            warehouse
                .create_document(&format!("doc-{i}"), directory())
                .unwrap();
        }
        let per_doc = 5;
        let barrier = std::sync::Arc::new(Barrier::new(docs));
        std::thread::scope(|scope| {
            for i in 0..docs {
                let warehouse = warehouse.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let name = format!("doc-{i}");
                    barrier.wait();
                    for k in 0..per_doc {
                        let who = if k % 2 == 0 { "alice" } else { "bob" };
                        commit_one(&warehouse, &name, &add_phone(who, 0.6)).unwrap();
                    }
                });
            }
        });
        assert_eq!(warehouse.stats().updates_applied, docs * per_doc);
        let phones = Pattern::parse("person { phone }").unwrap();
        for i in 0..docs {
            assert_eq!(
                warehouse.query(&format!("doc-{i}"), &phones).unwrap().len(),
                per_doc
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `stats()` is atomic-read only: a reader thread hammering it while
    /// writers commit always sees monotonically non-decreasing counters and
    /// never deadlocks or blocks a commit.
    #[test]
    fn stats_reads_never_block_and_stay_monotonic_during_commits() {
        let dir = scratch("stats-hammer");
        let warehouse = std::sync::Arc::new(Warehouse::with_config(&dir, plain_config()).unwrap());
        warehouse.create_document("a", directory()).unwrap();
        warehouse.create_document("b", directory()).unwrap();
        let writers = 2;
        let per_writer = 10;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let reader = {
                let warehouse = warehouse.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut last = 0usize;
                    let mut reads = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let now = warehouse.stats().updates_applied;
                        assert!(now >= last, "updates_applied went backwards");
                        last = now;
                        reads += 1;
                    }
                    reads
                })
            };
            let mut handles = Vec::new();
            for w in 0..writers {
                let warehouse = warehouse.clone();
                handles.push(scope.spawn(move || {
                    let name = if w == 0 { "a" } else { "b" };
                    for _ in 0..per_writer {
                        commit_one(&warehouse, name, &add_phone("alice", 0.7)).unwrap();
                    }
                }));
            }
            for handle in handles {
                handle.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            let reads = reader.join().unwrap();
            assert!(reads > 0, "the stats reader must actually have run");
        });
        assert_eq!(warehouse.stats().updates_applied, writers * per_writer);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A `Grouped` session config reaches the backend: commits land, the
    /// durability counters flow back through `stats()`, and grouped mode
    /// issues fewer fsync rounds than there were commits once several
    /// writers share windows.
    #[test]
    fn grouped_commit_policy_threads_through_to_stats() {
        let dir = scratch("grouped-policy");
        let config = SessionConfig {
            commit: pxml_store::CommitPolicy::Grouped {
                window_max_batches: 4,
                window_max_wait: Duration::from_millis(5),
            },
            ..plain_config()
        };
        let warehouse = std::sync::Arc::new(Warehouse::with_config(&dir, config).unwrap());
        let docs = 4;
        for i in 0..docs {
            warehouse
                .create_document(&format!("doc-{i}"), directory())
                .unwrap();
        }
        let per_doc = 3;
        let barrier = std::sync::Arc::new(Barrier::new(docs));
        std::thread::scope(|scope| {
            for i in 0..docs {
                let warehouse = warehouse.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let name = format!("doc-{i}");
                    barrier.wait();
                    for _ in 0..per_doc {
                        commit_one(&warehouse, &name, &add_phone("alice", 0.7)).unwrap();
                    }
                });
            }
        });
        let stats = warehouse.stats();
        let commits = docs * per_doc;
        assert_eq!(stats.updates_applied, commits);
        let durability = stats.durability;
        assert_eq!(durability.grouped_commits, commits);
        assert!(durability.grouped_windows >= 1);
        assert!(
            durability.fsyncs < commits + docs, // + docs: one round per initial save
            "grouped windows must coalesce fsyncs: {} rounds for {commits} commits",
            durability.fsyncs
        );
        assert!(durability.mean_window_occupancy() >= 1.0);
        // Everything recovers: the journals hold exactly the commits.
        let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        for i in 0..docs {
            assert_eq!(
                reopened.query(&format!("doc-{i}"), &phones).unwrap().len(),
                per_doc
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The durability counters have one home, the backend: `stats()` hands
    /// its snapshot through whole, and a backend without instrumentation
    /// reports zeros while the engine's own counters still move.
    #[test]
    fn stats_carry_the_backends_durability_snapshot_unchanged() {
        let dir = scratch("durability-home");
        let on_disk = Warehouse::with_config(&dir, plain_config()).unwrap();
        let in_memory =
            Warehouse::with_backend(Arc::new(pxml_store::MemBackend::new()), plain_config())
                .unwrap();
        for warehouse in [&on_disk, &in_memory] {
            warehouse.create_document("people", directory()).unwrap();
            commit_one(warehouse, "people", &add_phone("alice", 0.8)).unwrap();
            let stats = warehouse.stats();
            assert_eq!(stats.updates_applied, 1);
            assert_eq!(stats.durability, warehouse.store.durability_stats());
        }
        assert!(on_disk.stats().durability.fsyncs >= 1, "the commit's round");
        assert_eq!(in_memory.stats().durability, DurabilityStats::default());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The async pipeline: `commit_batch_async` returns with the in-memory
    /// state already swapped, and `wait` resolves at the fsync with the
    /// batch durable in the journal.
    #[test]
    fn async_commit_swaps_immediately_and_resolves_durable() {
        let dir = scratch("async-commit");
        let config = SessionConfig {
            commit: pxml_store::CommitPolicy::Grouped {
                window_max_batches: 8,
                window_max_wait: Duration::from_millis(5),
            },
            ..plain_config()
        };
        let warehouse = Warehouse::with_config(&dir, config).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        let handle = warehouse
            .commit_batch_async("people", &[add_phone("alice", 0.8)], None)
            .unwrap();
        // The enqueue is the logical commit point: reads see the batch now.
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 1);
        let stats = handle.wait().unwrap();
        assert_eq!(stats.updates[0].applied_matches, 1);
        assert_eq!(warehouse.stats().updates_applied, 1);
        // Durable: a reopen replays it.
        drop(warehouse);
        let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
        assert_eq!(reopened.query("people", &phones).unwrap().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `commit_batch_async` on a `Sync` backend degrades cleanly: the handle
    /// comes back already resolved.
    #[test]
    fn async_commit_on_sync_backend_is_preresolved() {
        let dir = scratch("async-sync");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let handle = warehouse
            .commit_batch_async("people", &[add_phone("bob", 0.6)], None)
            .unwrap();
        assert!(handle.is_durable());
        handle.wait().unwrap();
        assert_eq!(warehouse.store.journal_batches("people").unwrap(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn journal_size_bytes_tracks_commits() {
        let dir = scratch("journal-size");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        assert_eq!(warehouse.journal_size_bytes("people").unwrap(), 0);
        commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
        assert!(warehouse.journal_size_bytes("people").unwrap() > 0);
        assert!(matches!(
            warehouse.journal_size_bytes("ghost"),
            Err(WarehouseError::UnknownDocument(_))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A snapshot taken while a commit is in flight reflects exactly the
    /// pre-commit state, and a snapshot pinned before the commit keeps that
    /// state forever — publishing swaps a pointer, it never mutates what
    /// readers already hold.
    #[test]
    fn snapshot_mid_commit_reflects_pre_commit_state() {
        let dir = scratch("mid-commit-snapshot");
        let warehouse = std::sync::Arc::new(Warehouse::with_config(&dir, plain_config()).unwrap());
        warehouse.create_document("people", directory()).unwrap();
        commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        let pinned = warehouse.snapshot("people").unwrap();

        let (committed_tx, committed_rx) = mpsc::channel();
        warehouse
            .with_document_commit_locked("people", || {
                let shared = warehouse.clone();
                let writer = std::thread::spawn(move || {
                    commit_one(&shared, "people", &add_phone("bob", 0.6)).unwrap();
                    committed_tx.send(()).unwrap();
                });
                assert!(
                    committed_rx
                        .recv_timeout(Duration::from_millis(100))
                        .is_err(),
                    "the spawned commit must be parked on the commit mutex"
                );
                // Snapshots taken *now* — mid-commit, from a reader thread
                // (the shard map ranks above the commit mutex in the lock
                // order, so the mutex holder itself must not re-enter it) —
                // see the pre-commit state, without blocking.
                let shared = warehouse.clone();
                let reader_pattern = phones.clone();
                let (read_tx, read_rx) = mpsc::channel();
                let reader = std::thread::spawn(move || {
                    let mid = shared.snapshot("people").unwrap();
                    let matches = shared.query("people", &reader_pattern).unwrap().len();
                    let observed = shared.document("people").unwrap();
                    let canonical = observed.fuzzy_canonical_string(observed.root());
                    read_tx.send((mid.seq(), matches, canonical)).unwrap();
                });
                let (mid_seq, matches, canonical) = read_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("mid-commit readers must not block on the commit mutex");
                reader.join().unwrap();
                assert_eq!(mid_seq, pinned.seq());
                assert_eq!(matches, 1);
                assert_eq!(
                    canonical,
                    pinned.fuzzy().fuzzy_canonical_string(pinned.fuzzy().root())
                );
                writer
            })
            .unwrap()
            .join()
            .unwrap();
        committed_rx.recv_timeout(Duration::from_secs(30)).unwrap();

        // The commit landed, but the pinned snapshot is frozen in time.
        let current = warehouse.snapshot("people").unwrap();
        assert!(current.seq() > pinned.seq());
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 2);
        assert_eq!(pinned.fuzzy().tree().find_elements("phone").len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The whole point of the chunked arena: a commit path-copies only the
    /// chunks its batch touches. Ten single-insert commits against a large
    /// document must copy a handful of chunks each, nowhere near the full
    /// chunk count a clone-the-world pipeline would pay per commit.
    #[test]
    fn commits_copy_only_the_touched_chunks() {
        let dir = scratch("cow-chunks");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        let mut xml = String::from("<directory>");
        for i in 0..300 {
            xml.push_str(&format!("<person><name>p{i:03}</name></person>"));
        }
        xml.push_str("</directory>");
        warehouse
            .create_document("people", parse_data_tree(&xml).unwrap())
            .unwrap();

        let before = warehouse.snapshot("people").unwrap();
        let chunks = before.fuzzy().tree().slot_count().div_ceil(64);
        assert!(chunks >= 10, "document must span many chunks");
        let copies_before = before.fuzzy().tree().chunk_copies();

        let commits = 10;
        for i in 0..commits {
            let update = add_phone(&format!("p{i:03}"), 0.9);
            commit_one(&warehouse, "people", &update).unwrap();
        }

        let after = warehouse.snapshot("people").unwrap();
        let copied = after.fuzzy().tree().chunk_copies() - copies_before;
        // Each commit touches the tail chunk (append) and the chunk holding
        // the matched person; leave slack for condition bookkeeping.
        assert!(
            copied <= commits * 4,
            "expected O(touched chunks) copies, got {copied} across {commits} commits \
             of a {chunks}-chunk document"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Regression for the arena slot leak: `remove_subtree` only marks slots
    /// dead and insertion always appends, so a long insert/delete churn used
    /// to grow the arena without bound. The commit pipeline now compacts the
    /// arena when dead slots dominate, keeping the slot count within a
    /// constant factor of the live node count.
    #[test]
    fn arena_slots_reclaimed_after_churn() {
        let dir = scratch("slot-churn");
        let warehouse = Warehouse::with_config(&dir, plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();

        let delete_phone = {
            let pattern = Pattern::parse("person { name[=\"alice\"], phone }").unwrap();
            let phone = pattern.node_ids().nth(2).unwrap();
            UpdateTransaction::certain(pattern).with_delete(phone)
        };
        for _ in 0..200 {
            commit_one(&warehouse, "people", &add_phone("alice", 1.0)).unwrap();
            // Certain deletion: the subtree is removed outright, leaving a
            // dead slot behind.
            commit_one(&warehouse, "people", &delete_phone).unwrap();
        }
        commit_one(&warehouse, "people", &add_phone("alice", 1.0)).unwrap();

        let snapshot = warehouse.snapshot("people").unwrap();
        let tree = snapshot.fuzzy().tree();
        assert!(
            tree.slot_count() <= 2 * tree.node_count() + SLOT_SLACK,
            "arena leaked: {} slots for {} live nodes",
            tree.slot_count(),
            tree.node_count()
        );
        // The churn didn't corrupt anything: exactly the final phone is live.
        let phones = Pattern::parse("person { phone }").unwrap();
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The quarantine battery, blocking path: an injected fsync failure on a
    /// commit (1) surfaces the storage error and publishes nothing, (2)
    /// leaves readers on the last durable snapshot, (3) refuses every
    /// subsequent write with the typed quarantine error, and (4) is fully
    /// repaired by `reopen_document` — write availability back, zero
    /// acknowledged commits lost, zero phantom commits.
    #[test]
    fn failed_commit_quarantines_writes_but_readers_survive() {
        let dir = scratch("quarantine-sync");
        // `save_document` syncs outside the fault-counted fsync rounds, so
        // round #2 is the second commit's append.
        let plan = std::sync::Arc::new(
            pxml_store::FaultPlan::new().fail_nth(pxml_store::FaultOp::Fsync, 2),
        );
        let backend = FsBackend::with_options(
            &dir,
            FsOptions {
                fault: Some(plan),
                ..FsOptions::default()
            },
        )
        .unwrap();
        let warehouse =
            Warehouse::with_backend(std::sync::Arc::new(backend), plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();

        let err = commit_one(&warehouse, "people", &add_phone("bob", 0.6)).unwrap_err();
        assert!(matches!(err, WarehouseError::Store(_)), "got {err}");
        // Readers: still the last durable snapshot, not the failed batch.
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 1);
        assert!(warehouse.is_quarantined("people"));
        let listed = warehouse.quarantined_documents();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, "people");
        // Writers: every mutation path reports the typed error.
        assert!(matches!(
            commit_one(&warehouse, "people", &add_phone("bob", 0.6)),
            Err(WarehouseError::Quarantined { .. })
        ));
        assert!(matches!(
            warehouse.commit_batch_async("people", &[add_phone("bob", 0.6)], None),
            Err(WarehouseError::Quarantined { .. })
        ));
        assert!(matches!(
            warehouse.checkpoint("people"),
            Err(WarehouseError::Quarantined { .. })
        ));

        // Reopen: quarantine lifted, no data lost, writes land again.
        warehouse.reopen_document("people").unwrap();
        assert!(!warehouse.is_quarantined("people"));
        assert!(warehouse.quarantined_documents().is_empty());
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 1);
        commit_one(&warehouse, "people", &add_phone("bob", 0.6)).unwrap();
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 2);
        // And the repair is durable: a cold restart replays exactly the
        // acknowledged commits.
        drop(warehouse);
        let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
        assert_eq!(reopened.query("people", &phones).unwrap().len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The quarantine battery, async path: the enqueue published the batch
    /// in memory before the window fsync failed, so the deferred error at
    /// `wait` quarantines the document, and `reopen_document` discards the
    /// phantom in-memory state — the journal never acknowledged the batch.
    #[test]
    fn async_window_failure_quarantines_at_wait_and_reopen_discards_phantom() {
        let dir = scratch("quarantine-async");
        let plan = std::sync::Arc::new(
            pxml_store::FaultPlan::new().fail_nth(pxml_store::FaultOp::Fsync, 1),
        );
        let backend = FsBackend::with_options(
            &dir,
            FsOptions {
                commit: pxml_store::CommitPolicy::Grouped {
                    window_max_batches: 4,
                    window_max_wait: Duration::from_millis(5),
                },
                fault: Some(plan),
                ..FsOptions::default()
            },
        )
        .unwrap();
        let warehouse =
            Warehouse::with_backend(std::sync::Arc::new(backend), plain_config()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        let pinned = warehouse.snapshot("people").unwrap();

        let handle = warehouse
            .commit_batch_async("people", &[add_phone("alice", 0.8)], None)
            .unwrap();
        // The enqueue is the logical commit point: in-memory reads see it.
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 1);
        // The window fsync fails: the deferred error surfaces at wait and
        // quarantines the document.
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, WarehouseError::Store(_)), "got {err}");
        assert!(warehouse.is_quarantined("people"));
        assert!(matches!(
            commit_one(&warehouse, "people", &add_phone("bob", 0.6)),
            Err(WarehouseError::Quarantined { .. })
        ));

        // Reopen: the phantom batch is gone (it was never durable), the
        // sequence still advances past every earlier pin, and writes land.
        warehouse.reopen_document("people").unwrap();
        assert!(!warehouse.is_quarantined("people"));
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 0);
        assert!(warehouse.snapshot("people").unwrap().seq() > pinned.seq());
        commit_one(&warehouse, "people", &add_phone("bob", 0.6)).unwrap();
        assert_eq!(warehouse.query("people", &phones).unwrap().len(), 1);
        drop(warehouse);
        let reopened = Warehouse::with_config(&dir, plain_config()).unwrap();
        assert_eq!(reopened.query("people", &phones).unwrap().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A healed quarantine publishes what a cold open of the same files
    /// publishes, and both publish the tree the live warehouse held when the
    /// fault hit: every acked commit, nothing of the failed one. The history
    /// has conditional retractions, whose duplication the live path
    /// simplified away after every update — as the replay does.
    #[test]
    fn reopen_publishes_the_same_tree_as_a_cold_open() {
        let dir = scratch("reopen-vs-cold");
        // Each retraction matches once per phone under one shared confidence
        // event, so it fragments the email's condition into disjoint copies.
        let retract_email_given_a_phone = |confidence: f64| {
            let pattern = Pattern::parse("person { name[=\"alice\"], phone, email }").unwrap();
            let email = pattern.node_ids().nth(3).unwrap();
            UpdateTransaction::new(pattern, confidence)
                .unwrap()
                .with_delete(email)
        };
        let history = [
            add_phone("alice", 0.8),
            add_phone("alice", 0.6),
            add_email("alice", 0.7),
            retract_email_given_a_phone(0.9),
            add_phone("bob", 0.5),
            retract_email_given_a_phone(0.4),
        ];
        // The initial save syncs outside the counted rounds: round #n is the
        // n-th commit's, and the one after the history fails.
        let plan =
            pxml_store::FaultPlan::new().fail_nth(pxml_store::FaultOp::Fsync, history.len() + 1);
        let options = FsOptions {
            fault: Some(Arc::new(plan)),
            ..FsOptions::default()
        };
        let backend = FsBackend::with_options(&dir, options).unwrap();
        let warehouse =
            Warehouse::with_backend(Arc::new(backend), SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        for update in &history {
            commit_one(&warehouse, "people", update).unwrap();
        }
        let live = warehouse.snapshot("people").unwrap();
        commit_one(&warehouse, "people", &add_phone("bob", 0.3)).unwrap_err();
        assert!(warehouse.is_quarantined("people"));
        warehouse.reopen_document("people").unwrap();
        let healed = warehouse.snapshot("people").unwrap();
        assert_eq!(serialized(&healed), serialized(&live));

        let cold = Warehouse::with_backend(
            Arc::new(FsBackend::open(&dir).unwrap()),
            SessionConfig::default(),
        )
        .unwrap();
        let cold = cold.snapshot("people").unwrap();
        assert_eq!(healed.fuzzy().node_count(), cold.fuzzy().node_count());
        assert_eq!(
            healed.fuzzy().condition_literal_count(),
            cold.fuzzy().condition_literal_count()
        );
        assert_eq!(serialized(&healed), serialized(&cold));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A checkpoint loads back unmarked on every backend: the commit after a
    /// cold open of a checkpointed document runs the whole-document
    /// simplifier, and walks the same nodes over `MemBackend` as over
    /// `FsBackend`.
    #[test]
    fn a_cold_opened_checkpoint_simplifies_alike_on_both_backends() {
        let walked_after_cold_open = |store: Arc<dyn StorageBackend>| {
            let warehouse = Warehouse::with_backend(store.clone(), plain_config()).unwrap();
            warehouse.create_document("people", directory()).unwrap();
            commit_one(&warehouse, "people", &add_phone("alice", 0.8)).unwrap();
            warehouse.checkpoint("people").unwrap();
            let cold = Warehouse::with_backend(store, plain_config()).unwrap();
            let stats = commit_one(&cold, "people", &add_email("bob", 0.7)).unwrap();
            stats.updates[0].simplify.as_ref().unwrap().nodes_walked
        };
        let dir = scratch("cold-checkpoint-walk");
        let over_fs = walked_after_cold_open(Arc::new(FsBackend::open(&dir).unwrap()));
        let over_mem = walked_after_cold_open(Arc::new(pxml_store::MemBackend::new()));
        assert_eq!(
            over_mem, over_fs,
            "nodes walked by the commit after a cold open"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The paper's extraction-then-cleaning loop: three uncertain phones and
    /// an uncertain e-mail, then eleven rounds of "insert a phone" and
    /// "`person { phone, email }`, delete the e-mail". Every retraction
    /// multiplies the e-mail copies the ones before it left, so the raw
    /// replay of this journal (c) is hundreds of times the live tree, which
    /// simplified after every update. A recovery that published the raw
    /// replay, or simplified it once at the end, would cost `2^rounds` of
    /// what the history cost live and publish another tree; a cold open (a)
    /// and a healed quarantine (b) publish the live one, byte for byte.
    #[test]
    fn a_cleaning_history_reopens_to_the_live_tree_not_the_raw_replay() {
        let dir = scratch("one-history-one-tree");
        let retract_email = {
            let pattern = Pattern::parse("person { phone, email }").unwrap();
            let email = pattern.node_ids().nth(2).unwrap();
            UpdateTransaction::new(pattern, 0.9)
                .unwrap()
                .with_delete(email)
        };
        let mut history = vec![
            add_phone("alice", 0.8),
            add_phone("alice", 0.7),
            add_phone("alice", 0.5),
            add_email("alice", 0.7),
        ];
        for _ in 0..11 {
            history.push(add_phone("alice", 0.6));
            history.push(retract_email.clone());
        }
        // The initial save syncs outside the counted rounds: round #n is the
        // n-th commit's, and the one after the history fails.
        let plan =
            pxml_store::FaultPlan::new().fail_nth(pxml_store::FaultOp::Fsync, history.len() + 1);
        let options = FsOptions {
            fault: Some(Arc::new(plan)),
            ..FsOptions::default()
        };
        let backend = FsBackend::with_options(&dir, options).unwrap();
        let warehouse =
            Warehouse::with_backend(Arc::new(backend), SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        for update in &history {
            commit_one(&warehouse, "people", update).unwrap();
        }
        let live = warehouse.snapshot("people").unwrap();
        let live_bytes = serialized(&live);

        // (a) A cold open of the same root.
        let store = Arc::new(FsBackend::open(&dir).unwrap());
        let cold = Warehouse::with_backend(store.clone(), SessionConfig::default()).unwrap();
        let cold = cold.snapshot("people").unwrap();
        assert_eq!(serialized(&cold), live_bytes);

        // (b) A failed commit, the quarantine, the reopen: everything acked,
        // nothing else.
        commit_one(&warehouse, "people", &add_phone("bob", 0.3)).unwrap_err();
        assert!(warehouse.is_quarantined("people"));
        warehouse.reopen_document("people").unwrap();
        let healed = warehouse.snapshot("people").unwrap();
        assert_eq!(serialized(&healed), live_bytes);

        // (c) The raw reference replay of the same journal.
        let raw = store.recover_document("people").unwrap();
        assert!(
            raw.node_count() > 100 * live.fuzzy().node_count(),
            "raw replay: {} nodes, live: {}",
            raw.node_count(),
            live.fuzzy().node_count()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A batch whose second update cannot apply is an `Err` carrying the
    /// model error, and nothing of it exists anywhere: the published
    /// snapshot is the same object serialising to the same bytes, the
    /// journal is empty, no update is counted.
    #[test]
    fn a_batch_that_fails_to_apply_changes_nothing() {
        let warehouse =
            Warehouse::with_backend(Arc::new(pxml_store::MemBackend::new()), plain_config())
                .unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let before = warehouse.snapshot("people").unwrap();
        let bytes = pxml_store::serialize_fuzzy_document(before.fuzzy(), false);

        let mut chain = Tree::new("n");
        let mut node = chain.root();
        for _ in 0..pxml_tree::MAX_TREE_DEPTH {
            node = chain.add_element(node, "n");
        }
        let pattern = Pattern::parse("person").unwrap();
        let person = pattern.root();
        let too_deep = UpdateTransaction::certain(pattern).with_insert(person, chain);
        let err = warehouse
            .commit_batch("people", &[add_phone("alice", 0.8), too_deep], None)
            .unwrap_err();
        assert!(matches!(
            err,
            WarehouseError::Core(CoreError::InsertionTooDeep(_))
        ));

        let after = warehouse.snapshot("people").unwrap();
        assert_eq!(after.seq(), before.seq());
        assert_eq!(
            pxml_store::serialize_fuzzy_document(after.fuzzy(), false),
            bytes
        );
        assert_eq!(warehouse.store.journal_batches("people").unwrap(), 0);
        assert_eq!(warehouse.stats().updates_applied, 0);
        assert!(!warehouse.is_quarantined("people"));
    }

    #[test]
    fn warehouse_is_shareable_across_threads() {
        let dir = scratch("threads");
        let warehouse = std::sync::Arc::new(Warehouse::with_config(&dir, plain_config()).unwrap());
        warehouse.create_document("people", directory()).unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let shared = warehouse.clone();
            handles.push(std::thread::spawn(move || {
                let who = if i % 2 == 0 { "alice" } else { "bob" };
                commit_one(&shared, "people", &add_phone(who, 0.7)).unwrap();
                let query = Pattern::parse("person { phone }").unwrap();
                shared.query("people", &query).unwrap().len()
            }));
        }
        for handle in handles {
            assert!(handle.join().unwrap() >= 1);
        }
        assert_eq!(warehouse.stats().updates_applied, 4);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
