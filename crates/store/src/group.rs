//! Group commit: cross-document fsync coalescing for the segment journal.
//!
//! Under [`CommitPolicy::Sync`] every append pays one fsync round per batch
//! per document. Under many concurrent writers those fsyncs —
//! not the CPU work — cap commit throughput: eight writers on eight documents
//! issue eight device flushes where one would durably cover them all. The
//! `GroupCommitter` closes that gap with the leader/follower protocol real
//! databases use:
//!
//! 1. a committer **enqueues** its batch — already encoded, by the committing
//!    thread, into the record its segment will hold — into the shared window
//!    and receives a [`CommitTicket`];
//! 2. the first committer to wait on an open window becomes the **leader**:
//!    it keeps the window open briefly (until `window_max_batches` batches
//!    have gathered or `window_max_wait` has elapsed), drains every enqueued
//!    append — across *all* documents — writes their records, and issues a
//!    **single fsync round** for the whole window;
//! 3. every other member is a **follower**: it blocks until the leader
//!    completes its slot and wakes it.
//!
//! This module owns the window protocol and nothing else: it never looks
//! inside a record (that is [`crate::journal`]) and never touches a file —
//! the leader hands the drained window to its backend's flush
//! ([`crate::fs`]), which writes and fsyncs. The committer is a field of the
//! backend's shared state; a [`CommitTicket`] holds that shared state (one
//! `Arc`) and reaches the committer through it.
//!
//! # Durability contract
//!
//! Identical to the `Sync` policy's: a commit is **acknowledged** (its
//! ticket resolves `Ok`) only after its window's fsync round, and crash
//! replay never surfaces an unacknowledged batch — before the round the
//! records are at most torn tails that recovery truncates away. Grouping
//! changes *when* the fsync happens and *how many batches it covers*, never
//! what an acknowledgement means.
//!
//! The committer runs without a background thread: leadership is taken at
//! wait time by whichever committer arrives first, so an idle store costs
//! nothing and process exit cannot strand a flusher thread.
//!
//! # Fsync failure poisons the committer
//!
//! A failed window fsync errors **every** ticket in that window — none is
//! acknowledged — and **poisons** the committer: every later enqueue fails
//! immediately until the document is re-opened
//! (`StorageBackend::reopen_document`), which clears the poison and has the
//! next touch re-establish the on-disk truth. The committer never retries
//! the fsync and then acks: after a failed fsync the kernel may have
//! *dropped* the dirty pages while clearing the error flag, so a retry that
//! returns success proves nothing about the lost writes — the PostgreSQL
//! "fsyncgate" bug class. The unsynced records themselves are rolled back
//! (truncated away) by the failing flush, so recovery replays exactly the
//! acknowledged prefix.
//!
//! # Idle fast-path
//!
//! A leader whose window holds a single batch and has seen no evidence of
//! concurrent committers — no second pending append, no enqueue racing a
//! previous window — drains immediately instead of waiting out
//! `window_max_wait`: a sequential writer pays sync-path latency, not one
//! fill timeout per commit. The first sign of concurrency (an enqueue that
//! finds the window occupied or a leader mid-flush) re-arms the fill-wait so
//! racing committers coalesce again; a fill-wait that still drains solo
//! disarms it.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, LockClass, Mutex, MutexGuard};

use crate::error::StoreError;
use crate::fs::FsBackend;
use crate::journal::EncodedRecord;

/// How a backend turns an acknowledged append into a durable one.
///
/// Selected through `SessionConfig` (or `FsOptions` at the store layer); see
/// the README's "Commit pipeline" section for a tuning table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CommitPolicy {
    /// One fsync round per append, issued synchronously before the append
    /// returns — the historical behaviour and the default. Lowest latency
    /// for a single writer; under `N` concurrent writers the rounds
    /// serialize on the device.
    #[default]
    Sync,
    /// Appends gather in a shared cross-document window and one fsync round
    /// covers the whole window (leader/follower group commit). Adds up to
    /// `window_max_wait` of latency per commit; divides the number of device
    /// flush rounds by up to `window_max_batches`.
    Grouped {
        /// The window drains as soon as it holds this many batches
        /// (clamped to at least 1).
        window_max_batches: usize,
        /// The window drains no later than this long after it opened, full
        /// or not — the latency bound a lone committer pays.
        window_max_wait: Duration,
    },
}

impl CommitPolicy {
    /// A `Grouped` policy with defaults sized for the sharded engine's
    /// 8-thread sweet spot: windows of up to 8 batches, drained within 2 ms.
    pub fn grouped() -> Self {
        CommitPolicy::Grouped {
            window_max_batches: 8,
            window_max_wait: Duration::from_millis(2),
        }
    }
}

/// Fsync/window observability counters of a storage backend.
///
/// `fsyncs` counts **device flush rounds**, not individual file syncs: a
/// grouped window touching eight documents syncs eight files behind one
/// shared round and counts **1** — which is exactly the quantity group
/// commit divides, and what E14 asserts shrinks below the commit count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Fsync barrier rounds issued to the backing device (each round may
    /// sync several files and the directory).
    pub fsyncs: usize,
    /// Batches acknowledged through a group-commit window.
    pub grouped_commits: usize,
    /// Group-commit windows flushed (only windows that durably landed at
    /// least one batch are counted).
    pub grouped_windows: usize,
}

impl DurabilityStats {
    /// Mean batches per flushed window — the coalescing factor group commit
    /// achieved (0.0 before any window has flushed).
    pub fn mean_window_occupancy(&self) -> f64 {
        if self.grouped_windows == 0 {
            0.0
        } else {
            self.grouped_commits as f64 / self.grouped_windows as f64
        }
    }
}

const SLOT_PENDING: u8 = 0;
const SLOT_OK: u8 = 1;
const SLOT_ERR: u8 = 2;

/// One enqueued batch's completion state, shared between its ticket holder
/// and the window leader that flushes it.
pub(crate) struct CommitSlot {
    /// The atomic the acknowledgement decision reads: acquire/release only,
    /// so the record write happens-before the ack.
    state: AtomicU8, // lint: protocol-atomic
    error: Mutex<Option<String>>,
}

impl CommitSlot {
    fn new() -> Arc<Self> {
        Arc::new(CommitSlot {
            state: AtomicU8::new(SLOT_PENDING),
            error: Mutex::with_class(LockClass::CommitSlot, None),
        })
    }

    /// Marks the slot durable. The `Release` store pairs with the waiter's
    /// `Acquire` load so the record write happens-before the acknowledgement.
    pub(crate) fn complete_ok(&self) {
        self.state.store(SLOT_OK, Ordering::Release);
    }

    /// Marks the slot failed, carrying the failure message (StoreError is
    /// not clonable, so per-slot outcomes travel as text).
    pub(crate) fn complete_err(&self, message: String) {
        *self.error.lock() = Some(message);
        self.state.store(SLOT_ERR, Ordering::Release);
    }

    fn status(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn take_error(&self) -> StoreError {
        let message = self
            .error
            .lock()
            .take()
            .unwrap_or_else(|| "group-commit window failed".to_string());
        StoreError::Io(std::io::Error::other(message))
    }
}

/// One window member: an encoded record bound for `name`'s journal, plus the
/// slot its outcome lands on.
pub(crate) struct PendingAppend {
    pub(crate) name: String,
    pub(crate) record: EncodedRecord,
    pub(crate) slot: Arc<CommitSlot>,
}

/// The window state behind the committer's mutex.
struct Window {
    /// Appends enqueued into the currently open window.
    pending: Vec<PendingAppend>,
    /// Whether a leader currently owns a drained window (windows flush one
    /// at a time; the next leader is elected only after the previous one
    /// finishes, which also keeps journal order equal to enqueue order).
    leader_active: bool,
    /// When the oldest pending append was enqueued — the clock the leader's
    /// `window_max_wait` deadline runs against.
    opened_at: Option<Instant>,
    /// Evidence of concurrent committers: set when an enqueue finds the
    /// window already occupied or a leader mid-flush, cleared when a full
    /// fill-wait still drains a solo window. Gates the idle fast-path (see
    /// the module docs).
    concurrency_hint: bool,
    /// Set when a window fsync failed: the committer refuses all further
    /// work (every enqueue fails immediately) until the store is re-opened
    /// or a document reopen clears it. See "Fsync failure poisons the
    /// committer" in the module docs.
    poisoned: Option<String>,
}

/// The error message enqueues and drains carry while the committer is
/// poisoned.
fn poisoned_message(cause: &str) -> String {
    format!("group committer poisoned by a failed fsync (reopen the document to recover): {cause}")
}

/// The leader/follower group committer of one [`FsBackend`] (see the module
/// docs for the protocol and durability contract).
///
/// The committer lives inside its backend's shared state and holds no
/// reference back — flushes borrow the backend at wait time — so there is no
/// cycle, and nothing a flush calls can re-enter the committer.
pub(crate) struct GroupCommitter {
    window_max_batches: usize,
    window_max_wait: Duration,
    window: Mutex<Window>,
    wakeup: Condvar,
}

impl fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupCommitter")
            .field("window_max_batches", &self.window_max_batches)
            .field("window_max_wait", &self.window_max_wait)
            .finish_non_exhaustive()
    }
}

impl GroupCommitter {
    pub(crate) fn new(window_max_batches: usize, window_max_wait: Duration) -> Self {
        GroupCommitter {
            window_max_batches: window_max_batches.max(1),
            window_max_wait,
            window: Mutex::with_class(
                LockClass::GroupCommitter,
                Window {
                    pending: Vec::new(),
                    leader_active: false,
                    opened_at: None,
                    concurrency_hint: false,
                    poisoned: None,
                },
            ),
            wakeup: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Window> {
        self.window.lock()
    }

    /// Enqueues an encoded record into the open window and returns its slot.
    /// The append is not durable (and must not be acknowledged) until the
    /// slot completes — [`GroupCommitter::wait`] does both. On a poisoned
    /// committer the slot comes back already failed and nothing is enqueued.
    pub(crate) fn enqueue(&self, name: &str, record: EncodedRecord) -> Arc<CommitSlot> {
        let slot = CommitSlot::new();
        let mut window = self.lock();
        if let Some(cause) = &window.poisoned {
            let message = poisoned_message(cause);
            drop(window);
            slot.complete_err(message);
            return slot;
        }
        if window.leader_active || !window.pending.is_empty() {
            // Someone else is committing right now: re-arm the fill-wait so
            // the racing appends coalesce into shared windows.
            window.concurrency_hint = true;
        }
        if window.opened_at.is_none() {
            window.opened_at = Some(Instant::now());
        }
        window.pending.push(PendingAppend {
            name: name.to_string(),
            record,
            slot: slot.clone(),
        });
        drop(window);
        // Wake a leader sitting in its fill-wait: the window may be full now.
        self.wakeup.notify_all();
        slot
    }

    /// Blocks until `slot` is durable (or failed), driving the protocol:
    /// a waiter that finds no active leader becomes one, fills its window up
    /// to the policy bounds, drains it and flushes it through `backend`;
    /// everyone else sleeps until the leader's wake-up.
    pub(crate) fn wait(&self, slot: &CommitSlot, backend: &FsBackend) -> Result<(), StoreError> {
        loop {
            match slot.status() {
                SLOT_OK => return Ok(()),
                SLOT_ERR => return Err(slot.take_error()),
                _ => {}
            }
            let window = self.lock();
            // Re-check under the lock: a leader may have completed the slot
            // between the fast-path check and the lock.
            if slot.status() != SLOT_PENDING {
                continue;
            }
            // Our slot is still pending, so it is still in the queue: the
            // step below follows a leader, or fails or flushes a window that
            // holds it, and the next iteration observes the outcome.
            self.step(window, backend, true);
        }
    }

    /// Quiesces the committer: waits out any in-flight window and flushes
    /// everything enqueued, leaving no batch buffered. Operations that must
    /// observe a settled journal (compaction folds, document removal) run
    /// this first — otherwise a window flushing *after* e.g. a checkpoint
    /// fold would land pre-fold batches in the post-fold epoch and replay
    /// would double-apply them.
    pub(crate) fn barrier(&self, backend: &FsBackend) {
        loop {
            let window = self.lock();
            if !window.leader_active && window.pending.is_empty() {
                return;
            }
            // Drain immediately — no fill-wait: the barrier caller must not
            // stall for the window deadline. On a poisoned committer the
            // step fails the queue, which *is* the settled state a barrier
            // caller needs.
            self.step(window, backend, false);
        }
    }

    /// One step of the window protocol, shared by [`GroupCommitter::wait`]
    /// and [`GroupCommitter::barrier`]: follow the active leader until its
    /// wake-up, or fail the whole queue on a poisoned committer, or take
    /// leadership of the open window — fill it when `fill_wait` and the
    /// policy say so — drain it and flush it through `backend`.
    fn step(&self, mut window: MutexGuard<'_, Window>, backend: &FsBackend, fill_wait: bool) {
        if window.leader_active {
            // Follower: the leader always notifies after it releases
            // leadership, and every slot it drained is completed by then.
            self.wakeup.wait(&mut window);
            return;
        }
        if let Some(cause) = window.poisoned.clone() {
            // Poisoned: nothing may flush. Fail whatever is queued (a
            // waiter's own slot included — it was enqueued before the poison
            // landed).
            let drained = std::mem::take(&mut window.pending);
            window.opened_at = None;
            drop(window);
            let message = poisoned_message(&cause);
            for member in &drained {
                member.slot.complete_err(message.clone());
            }
            self.wakeup.notify_all();
            return;
        }
        // No leader: take leadership and fill the window. Idle fast-path: a
        // lone append with no evidence of concurrency skips the fill-wait
        // entirely (see the module docs).
        window.leader_active = true;
        let fill = fill_wait && (window.concurrency_hint || window.pending.len() > 1);
        if fill {
            let opened = window.opened_at.unwrap_or_else(Instant::now);
            while window.pending.len() < self.window_max_batches {
                let elapsed = opened.elapsed();
                if elapsed >= self.window_max_wait {
                    break;
                }
                self.wakeup
                    .wait_for(&mut window, self.window_max_wait - elapsed);
            }
            if window.pending.len() == 1 {
                // A full fill-wait still drained solo: the concurrency is
                // over, let the next lone committer fast-path again.
                window.concurrency_hint = false;
            }
        }
        let drained = std::mem::take(&mut window.pending);
        window.opened_at = None;
        // Flush outside the lock so new appends can enqueue into the next
        // window meanwhile; `leader_active` stays set, serializing windows
        // (and journal order) until this one is fully complete.
        drop(window);
        let flushed = backend.flush_window(drained);
        let mut window = self.lock();
        if let Err(cause) = flushed {
            // The window fsync failed: every slot in it is already errored
            // and the unsynced records rolled back — poison the committer so
            // nothing flushes until a reopen (see the module docs for why
            // there is no retry).
            window.poisoned = Some(cause);
        }
        window.leader_active = false;
        drop(window);
        self.wakeup.notify_all();
    }

    /// Lifts the poison after a document reopen re-established the on-disk
    /// truth. Safe because the failing flush already rolled its unsynced
    /// records back — there is no half-durable window to resume.
    pub(crate) fn clear_poison(&self) {
        self.lock().poisoned = None;
    }
}

/// What a [`CommitTicket`] still owes its holder.
enum TicketInner {
    /// The append already completed synchronously with this outcome.
    Resolved(Result<(), StoreError>),
    /// The append sits in a group-commit window of `backend`; resolving
    /// means driving the window protocol until `slot` completes.
    Window {
        slot: Arc<CommitSlot>,
        backend: FsBackend,
    },
}

/// A pending acknowledgement of an enqueued journal append.
///
/// Returned by
/// [`StorageBackend::append_batch_enqueue`](crate::StorageBackend::append_batch_enqueue):
/// the batch is in its backend's commit pipeline, and the ticket resolves —
/// via [`CommitTicket::wait`], or polled through [`CommitTicket::is_durable`]
/// — once the window fsync makes it durable (or fails). Backends without a
/// group-commit window return tickets that are already resolved.
///
/// Dropping an unresolved ticket **blocks until the append completes**, then
/// discards the outcome: an enqueued batch is never silently abandoned, and
/// the durability error, if any, still surfaces at recovery time.
#[must_use = "an enqueued append is acknowledged only by waiting on its ticket"]
pub struct CommitTicket {
    inner: Option<TicketInner>,
}

impl fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitTicket")
            .field("durable", &self.is_durable())
            .finish()
    }
}

impl CommitTicket {
    /// A ticket for an append that already completed synchronously with
    /// `outcome` — what every backend without a group-commit pipeline
    /// returns.
    pub fn resolved(outcome: Result<(), StoreError>) -> Self {
        CommitTicket {
            inner: Some(TicketInner::Resolved(outcome)),
        }
    }

    pub(crate) fn window(slot: Arc<CommitSlot>, backend: FsBackend) -> Self {
        CommitTicket {
            inner: Some(TicketInner::Window { slot, backend }),
        }
    }

    /// `true` once the append's outcome is known (durably flushed or
    /// failed) — a non-blocking poll; [`CommitTicket::wait`] returns the
    /// outcome itself.
    pub fn is_durable(&self) -> bool {
        match &self.inner {
            None | Some(TicketInner::Resolved(_)) => true,
            Some(TicketInner::Window { slot, .. }) => slot.status() != SLOT_PENDING,
        }
    }

    /// Blocks until the append is durable and returns its outcome. A waiter
    /// that finds no window leader becomes the leader itself and flushes
    /// the window (see the [module docs](self)).
    pub fn wait(mut self) -> Result<(), StoreError> {
        match self.inner.take() {
            None => Ok(()),
            Some(TicketInner::Resolved(outcome)) => outcome,
            Some(TicketInner::Window { slot, backend }) => backend.wait_for_slot(&slot),
        }
    }
}

impl Drop for CommitTicket {
    fn drop(&mut self) {
        if let Some(TicketInner::Window { slot, backend }) = self.inner.take() {
            // A dropped ticket deliberately discards the outcome: the batch
            // still flushes, and the durability error (if any) resurfaces at
            // recovery time — see the type docs.
            // lint: allow(io-result-drop)
            let _ = backend.wait_for_slot(&slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::DurabilityStats;

    /// A fresh sync-policy backend has flushed no grouped window: the
    /// occupancy must be an exact `0.0`, never `0/0 = NaN` — the server's
    /// `stats` frame serializes this value for brand-new tenants.
    #[test]
    fn occupancy_zero_windows_is_zero_not_nan() {
        let fresh = DurabilityStats::default();
        assert_eq!(fresh.mean_window_occupancy(), 0.0);
        // Sync commits bump fsyncs without ever opening a window; the
        // guard keys off windows, not commits.
        let sync_only = DurabilityStats {
            fsyncs: 17,
            grouped_commits: 0,
            grouped_windows: 0,
        };
        let occupancy = sync_only.mean_window_occupancy();
        assert!(occupancy.is_finite());
        assert_eq!(occupancy, 0.0);
    }

    #[test]
    fn occupancy_is_commits_per_window() {
        let stats = DurabilityStats {
            fsyncs: 3,
            grouped_commits: 24,
            grouped_windows: 3,
        };
        assert_eq!(stats.mean_window_occupancy(), 8.0);
    }
}
