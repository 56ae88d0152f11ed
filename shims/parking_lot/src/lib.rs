//! Offline stand-in for the [`parking_lot`](https://crates.io/crates/parking_lot)
//! crate: `Mutex`, `RwLock` and `Condvar` with the non-poisoning
//! `parking_lot` API, implemented over `std::sync`. A poisoned std lock (a
//! panic while holding the guard) is recovered by taking the inner value,
//! matching `parking_lot`'s behaviour of simply not having poisoning.
//!
//! # Lock-order witness
//!
//! Beyond the stock API, every lock carries a static [`LockClass`] label
//! (assigned at construction with [`Mutex::with_class`] /
//! [`RwLock::with_class`]) and, under the `lock-witness` feature, every
//! acquisition is checked by a lockdep-style witness:
//!
//! - a **declared order** over the ranked classes
//!   (server-conns → server-admission → server-tenants → shard → doc-commit →
//!   folder → doc-entry → group-committer → journal-registry →
//!   journal → device → commit-slot): acquiring a class at or below the highest rank
//!   already held by the current thread panics immediately, even if the
//!   schedule happened not to deadlock this time;
//! - a **global acquisition-order graph** over *all* classes: each
//!   "`A` held while acquiring `B`" observation adds an `A → B` edge, and an
//!   acquisition that would close a cycle (`B → … → A` already witnessed,
//!   possibly on another thread, in another test, at another time) panics
//!   with both class labels.
//!
//! The witness is panic-based rather than log-based so the existing test
//! battery doubles as a lockdep sweep: `cargo test --features lock-witness`
//! fails on the first ordering violation any test provokes. With the feature
//! disabled the instrumentation compiles away and the types behave exactly
//! like the plain shim. [`witness::enabled`] reports at runtime whether the
//! build is instrumented, so witness self-tests can skip themselves in
//! uninstrumented runs instead of failing.
//!
//! # Schedule explorer hooks
//!
//! Every `Mutex` lock, `Condvar` wait, `wait_for` or notify
//! is also a scheduling point of [`sched`]: on a thread that
//! [`sched::run`] started, the operation first hands control back to the
//! run's chooser, which picks the one thread that runs until its next
//! point. Every other thread — and every thread while no run is in
//! progress — pays one atomic load per operation and behaves exactly like
//! the plain shim. `RwLock` is not a scheduling point.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// Static identity of a lock for the lock-order witness.
///
/// The ranked classes mirror the engine's declared acquisition order (see
/// README "Concurrency correctness"); a thread must only ever acquire them
/// in strictly increasing rank. The `Test*` classes are unranked — they
/// participate only in the acquisition-order graph's cycle detection — and
/// exist for the witness's own self-tests. `Unclassified` is what
/// [`Mutex::new`] assigns; the repo linter (`pxml-check`) keeps engine
/// crates from constructing unclassified locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LockClass {
    /// The server's connection registry — stream handles and join handles of
    /// live connections, touched by the accept loop and shutdown (rank 0).
    ServerConns,
    /// An admission gate's in-flight counter; held only inside
    /// `try_enter`/`leave`, never across an engine call (rank 1).
    ServerAdmission,
    /// The server's tenant LRU registry; held while lazily opening a tenant
    /// warehouse, so it ranks ahead of every engine class (rank 2).
    ServerTenants,
    /// A warehouse shard's slot map (rank 3).
    Shard,
    /// One document's commit pipeline — the writer-serialization mutex held
    /// across apply → journal → snapshot swap (rank 4).
    DocCommit,
    /// A warehouse's fold queue — the documents whose checkpoint its folder
    /// thread has yet to write; held only to queue, settle or wait, never
    /// across storage I/O (rank 5).
    Folder,
    /// One document's published-state cell behind its shard slot; only ever
    /// held for the O(1) snapshot read or pointer swap (rank 6).
    DocEntry,
    /// The group committer's shared window (rank 7).
    GroupCommitter,
    /// The store's name → journal-handle registry (rank 8).
    JournalRegistry,
    /// One document's journal write handle (rank 9).
    Journal,
    /// The simulated storage device gate (rank 10).
    Device,
    /// A group-commit slot's error cell (rank 11).
    CommitSlot,
    /// Unranked class for witness self-tests.
    TestA,
    /// Unranked class for witness self-tests.
    TestB,
    /// Unranked class for witness self-tests.
    TestC,
    /// No class declared; cycle-checked but unranked.
    Unclassified,
}

impl LockClass {
    /// The label used in witness panic messages and docs.
    pub const fn label(self) -> &'static str {
        match self {
            LockClass::ServerConns => "server-conns",
            LockClass::ServerAdmission => "server-admission",
            LockClass::ServerTenants => "server-tenants",
            LockClass::Shard => "shard",
            LockClass::DocCommit => "doc-commit",
            LockClass::Folder => "folder",
            LockClass::DocEntry => "doc-entry",
            LockClass::GroupCommitter => "group-committer",
            LockClass::JournalRegistry => "journal-registry",
            LockClass::Journal => "journal",
            LockClass::Device => "device",
            LockClass::CommitSlot => "commit-slot",
            LockClass::TestA => "test-a",
            LockClass::TestB => "test-b",
            LockClass::TestC => "test-c",
            LockClass::Unclassified => "unclassified",
        }
    }

    /// Position in the declared acquisition order; `None` for classes that
    /// are only cycle-checked. The ranked classes are declared first, in
    /// rank order.
    pub const fn rank(self) -> Option<u8> {
        let index = self as u8;
        if index <= LockClass::CommitSlot as u8 {
            Some(index)
        } else {
            None
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The lockdep-style witness behind the `lock-witness` feature (see the
/// crate docs). Uninstrumented builds keep the module with no-op hooks so
/// callers can probe [`witness::enabled`] unconditionally.
#[cfg(feature = "lock-witness")]
pub mod witness {
    use super::LockClass;
    use std::cell::RefCell;
    use std::sync::Mutex as StdMutex;

    const CLASSES: usize = 16;

    thread_local! {
        /// Classes of the locks the current thread holds, in acquisition
        /// order (a stack, except guards may be released out of order).
        static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// The acquisition-order graph over class indices: `[a][b]` records
    /// that some thread acquired class `b` while holding class `a`.
    type Graph = [[bool; CLASSES]; CLASSES];

    /// The process-global graph.
    static GRAPH: StdMutex<Graph> = StdMutex::new([[false; CLASSES]; CLASSES]);

    /// Is `to` reachable from `from` over recorded edges (`from == to`
    /// counts as reachable, so same-class nesting closes a cycle)?
    fn reaches(g: &Graph, from: usize, to: usize) -> bool {
        let mut seen = [false; CLASSES];
        let mut stack = vec![from];
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if !std::mem::replace(&mut seen[node], true) {
                stack.extend((0..CLASSES).filter(|&next| g[node][next]));
            }
        }
        false
    }

    /// `true`: this build carries the witness.
    pub fn enabled() -> bool {
        true
    }

    pub(crate) fn on_acquire(class: LockClass) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if !held.is_empty() {
                check(&held, class);
            }
            held.push(class);
        });
    }

    pub(crate) fn on_release(class: LockClass) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == class) {
                held.remove(pos);
            }
        });
    }

    /// Panics if acquiring `class` while `held` would violate the declared
    /// rank order or close a cycle in the global graph. Violating edges are
    /// *not* recorded, so one caught inversion does not poison the graph
    /// for the rest of the process.
    fn check(held: &[LockClass], class: LockClass) {
        for &h in held {
            if let (Some(held_rank), Some(new_rank)) = (h.rank(), class.rank()) {
                if new_rank <= held_rank {
                    panic!(
                        "lock-order witness: acquiring `{class}` while holding `{h}` \
                         violates the declared order server-conns -> server-admission -> \
                         server-tenants -> shard -> doc-commit -> folder -> doc-entry -> \
                         group-committer -> journal-registry -> journal -> device -> \
                         commit-slot"
                    );
                }
            }
        }
        let mut g = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
        for &h in held {
            let (from, to) = (h as usize, class as usize);
            if g[from][to] {
                continue;
            }
            if reaches(&g, to, from) {
                panic!(
                    "lock-order witness: acquiring `{class}` while holding `{h}` \
                     closes a cycle in the acquisition-order graph (a `{class}` was \
                     already held, directly or transitively, while acquiring `{h}`)"
                );
            }
            g[from][to] = true;
        }
    }
}

/// No-op witness hooks for uninstrumented builds.
#[cfg(not(feature = "lock-witness"))]
pub mod witness {
    use super::LockClass;

    /// `false`: this build is not instrumented.
    pub fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn on_acquire(_class: LockClass) {}

    #[inline(always)]
    pub(crate) fn on_release(_class: LockClass) {}
}

/// Deterministic scheduling of real threads for the schedule explorer (see
/// the crate docs). [`sched::run`] starts one managed thread per body and
/// lets exactly one of them hold the baton at a time. At every scheduling
/// point the holder parks, asks the run's chooser which
/// [`sched::Runnable`] thread goes next and hands it the baton (often
/// itself: then nothing sleeps). The lock and condvar state the chooser
/// needs is kept here, so a thread is offered only when its operation can
/// complete: a lock once it is free, a condvar waiter once it is notified
/// or, for a `wait_for`, as a timeout.
pub mod sched {
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    /// Runs in progress in the process: while it is zero, every hook is this
    /// one load.
    static RUNS: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// The run a managed thread belongs to, and its index in that run.
        static MANAGED: RefCell<Option<(Arc<Run>, usize)>> = const { RefCell::new(None) };
    }

    /// A managed thread the chooser may hand the baton to.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Runnable {
        pub thread: usize,
        /// Running it ends the thread's `Condvar::wait_for` with a timeout.
        pub times_out: bool,
    }

    /// A run's chooser: given the runnable threads (never none), the one to
    /// run next.
    pub type Chooser<'a> = dyn FnMut(&[Runnable]) -> usize + Send + 'a;

    /// Where a managed thread is parked.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Status {
        /// At a point that can always proceed: its start or a notify.
        Ready,
        /// About to acquire the lock at this address.
        Lock(usize),
        /// Waiting on a condvar, to reacquire `lock` when it wakes.
        Wait {
            cv: usize,
            lock: usize,
            timed: bool,
            notified: bool,
        },
        Done,
    }

    struct State {
        threads: Vec<Status>,
        /// The managed thread allowed to run, if any.
        baton: Option<usize>,
        /// The addresses of the locks managed threads hold.
        held: Vec<usize>,
        panics: Vec<String>,
        /// The chooser [`run`] was given, its lifetime erased so that the
        /// parked thread itself can call it: handing the baton straight on
        /// saves the two context switches of a round trip through `run`'s
        /// thread at every point. `run` returns only once the run has ended,
        /// after which no thread passes the baton again, and only the thread
        /// passing it — one at a time, under this state's lock — calls it.
        chooser: *mut Chooser<'static>,
        /// How the run ended, once it has.
        ended: Option<Result<(), String>>,
    }

    // SAFETY: every field but `chooser` is `Send`. `chooser` points at a
    // `Send` closure that only the thread passing the baton calls, one at a
    // time under the state's lock, while `run` keeps it alive (see the
    // field).
    unsafe impl Send for State {}

    impl State {
        fn runnable(&self) -> Vec<Runnable> {
            let free = |lock: usize| !self.held.contains(&lock);
            let mut runnable = Vec::new();
            for (thread, status) in self.threads.iter().enumerate() {
                let times_out = match *status {
                    Status::Ready => false,
                    Status::Lock(lock) if free(lock) => false,
                    Status::Wait {
                        lock,
                        timed,
                        notified,
                        ..
                    } if (notified || timed) && free(lock) => !notified,
                    _ => continue,
                };
                runnable.push(Runnable { thread, times_out });
            }
            runnable
        }

        /// What each thread of a deadlocked run is stuck on.
        fn deadlock(&self) -> String {
            let mut stuck = Vec::new();
            for (thread, status) in self.threads.iter().enumerate() {
                let on = if let Status::Lock(_) = status {
                    "for a lock"
                } else {
                    "on a condvar"
                };
                if *status != Status::Done {
                    stuck.push(format!("thread {thread} waits {on}"));
                }
            }
            format!("deadlock: {}", stuck.join(", "))
        }
    }

    struct Run {
        state: Mutex<State>,
        /// One condvar per managed thread, then the one [`run`] waits on.
        turns: Vec<Condvar>,
    }

    impl Run {
        fn lock(&self) -> MutexGuard<'_, State> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Blocks until `me` holds the baton.
        fn await_turn<'a>(
            &self,
            mut state: MutexGuard<'a, State>,
            me: usize,
        ) -> MutexGuard<'a, State> {
            while state.baton != Some(me) {
                state = self.turns[me]
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            state
        }

        /// Hands the baton on from `me`: to the thread the chooser picks, or
        /// back to [`run`] once every thread is done or none can run.
        fn pass(&self, state: &mut State, me: usize) {
            let runnable = state.runnable();
            if runnable.is_empty() {
                let all_done = state.threads.iter().all(|&status| status == Status::Done);
                state.ended = Some(if all_done {
                    Ok(())
                } else {
                    Err(state.deadlock())
                });
                state.baton = None;
                self.turns[state.threads.len()].notify_one();
                return;
            }
            // SAFETY: the caller holds the state's lock, and the run has not
            // ended, so `run` is still waiting and its chooser alive (see
            // `State::chooser`).
            let chosen = unsafe { (*state.chooser)(&runnable) };
            assert!(
                runnable.iter().any(|r| r.thread == chosen),
                "the chooser picked thread {chosen}, which cannot run"
            );
            if let Status::Lock(lock) | Status::Wait { lock, .. } = state.threads[chosen] {
                state.held.push(lock);
            }
            state.baton = Some(chosen);
            if chosen != me {
                self.turns[chosen].notify_one();
            }
        }

        /// Parks `me` at a scheduling point with `status`, passes the baton,
        /// and returns once `me` holds it again.
        fn park(&self, me: usize, status: Status) -> MutexGuard<'_, State> {
            let mut state = self.lock();
            if let Status::Wait { lock, .. } = status {
                state.held.retain(|&held| held != lock);
            }
            state.threads[me] = status;
            self.pass(&mut state, me);
            self.await_turn(state, me)
        }
    }

    /// The calling thread's run and index, if [`run`] started it.
    fn managed() -> Option<(Arc<Run>, usize)> {
        if RUNS.load(Ordering::Relaxed) == 0 {
            return None;
        }
        MANAGED.with(|managed| managed.borrow().clone())
    }

    /// `Mutex::lock`: returns once the lock at `lock` is free and recorded
    /// as the caller's.
    pub(crate) fn acquire(lock: usize) {
        if let Some((run, me)) = managed() {
            drop(run.park(me, Status::Lock(lock)));
        }
    }

    /// A guard of the lock at `lock` dropped.
    pub(crate) fn release(lock: usize) {
        if let Some((run, _)) = managed() {
            run.lock().held.retain(|&held| held != lock);
        }
    }

    /// `Condvar::notify_*`: every waiter on `cv` wakes (a `notify_one` may
    /// wake more than one, as a spurious wake-up can).
    pub(crate) fn notify(cv: usize) {
        if let Some((run, me)) = managed() {
            let mut state = run.park(me, Status::Ready);
            for status in &mut state.threads {
                if let Status::Wait {
                    cv: waited,
                    notified,
                    ..
                } = status
                {
                    *notified |= *waited == cv;
                }
            }
        }
    }

    /// `Condvar::wait` / `wait_for` off a run: hands the std `guard` back.
    /// On a run it drops the guard, parks until the chooser wakes the caller
    /// with the lock at `lock` free again and recorded as the caller's, and
    /// returns whether the wait timed out.
    pub(crate) fn wait<G>(cv: usize, lock: usize, timed: bool, guard: G) -> Result<bool, G> {
        let Some((run, me)) = managed() else {
            return Err(guard);
        };
        drop(guard);
        let status = Status::Wait {
            cv,
            lock,
            timed,
            notified: false,
        };
        // A waiter the chooser ran before anyone notified it timed out.
        let timed_out = run.park(me, status).threads[me] == status;
        Ok(timed_out)
    }

    /// Runs `bodies` on managed threads, one at a time. At every scheduling
    /// point — each thread's start and exit and every hooked operation —
    /// `choose` picks the thread to run next. It runs on the thread passing
    /// the baton, under the run's lock, so it must not touch a lock of this
    /// crate. Returns the panics of the bodies, or a deadlock: threads left
    /// with none runnable. The threads of a deadlocked run stay parked for
    /// good.
    pub fn run(
        bodies: Vec<Box<dyn FnOnce() + Send>>,
        choose: &mut Chooser<'_>,
    ) -> Result<(), String> {
        let count = bodies.len();
        let run = Arc::new(Run {
            state: Mutex::new(State {
                threads: vec![Status::Ready; count],
                baton: None,
                held: Vec::new(),
                panics: Vec::new(),
                // SAFETY: only the lifetime is erased; see `State::chooser`.
                chooser: unsafe {
                    std::mem::transmute::<*mut Chooser<'_>, *mut Chooser<'static>>(choose)
                },
                ended: None,
            }),
            turns: (0..=count).map(|_| Condvar::new()).collect(),
        });
        RUNS.fetch_add(1, Ordering::Relaxed);
        let mut handles = Vec::new();
        for (me, body) in bodies.into_iter().enumerate() {
            let run = Arc::clone(&run);
            handles.push(std::thread::spawn(move || {
                MANAGED.with(|managed| *managed.borrow_mut() = Some((Arc::clone(&run), me)));
                drop(run.await_turn(run.lock(), me));
                let outcome = catch_unwind(AssertUnwindSafe(body));
                let mut state = run.lock();
                if let Err(payload) = outcome {
                    let text = payload.downcast_ref::<&str>().map(|text| text.to_string());
                    let message = text.or_else(|| payload.downcast_ref::<String>().cloned());
                    state.panics.push(format!(
                        "thread {me} panicked: {}",
                        message.unwrap_or_default()
                    ));
                }
                state.threads[me] = Status::Done;
                run.pass(&mut state, me);
                drop(state);
                MANAGED.with(|managed| managed.borrow_mut().take());
            }));
        }
        let mut state = run.lock();
        run.pass(&mut state, count);
        let outcome = loop {
            match state.ended.take() {
                Some(outcome) => break outcome,
                None => {
                    state = run.turns[count]
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner())
                }
            }
        };
        let panics = std::mem::take(&mut state.panics);
        drop(state);
        RUNS.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_ok() {
            for handle in handles {
                // The bodies' panics were caught and are reported below.
                let _ = handle.join();
            }
        }
        match outcome {
            Ok(()) if !panics.is_empty() => Err(panics.join("; ")),
            outcome => outcome,
        }
    }
}

pub struct Mutex<T: ?Sized> {
    class: LockClass,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex::with_class(LockClass::Unclassified, value)
    }

    /// A mutex labelled with its [`LockClass`] for the lock-order witness.
    pub const fn with_class(class: LockClass, value: T) -> Self {
        Mutex {
            class,
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The class declared at construction.
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// The lock's identity for [`sched`].
    fn addr(&self) -> usize {
        self as *const Self as *const u8 as usize
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Check before blocking: a would-be deadlock should panic with the
        // class pair, not hang.
        witness::on_acquire(self.class);
        sched::acquire(self.addr());
        MutexGuard {
            mutex: self,
            inner: Some(self.lock_inner()),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard of a [`Mutex`]. The inner std guard sits behind an `Option`
/// only so [`Condvar::wait`] can atomically give the lock up and take it
/// back; user code always observes it present.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("mutex guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("mutex guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            witness::on_release(self.mutex.class);
            sched::release(self.mutex.addr());
        }
    }
}

pub struct RwLock<T: ?Sized> {
    class: LockClass,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock::with_class(LockClass::Unclassified, value)
    }

    /// An rwlock labelled with its [`LockClass`] for the lock-order witness.
    pub const fn with_class(class: LockClass, value: T) -> Self {
        RwLock {
            class,
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The class declared at construction.
    pub fn class(&self) -> LockClass {
        self.class
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        witness::on_acquire(self.class);
        RwLockGuard {
            class: self.class,
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        witness::on_acquire(self.class);
        RwLockGuard {
            class: self.class,
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard of an [`RwLock`] over `G`, the std read or write guard.
pub struct RwLockGuard<G> {
    class: LockClass,
    inner: G,
}

/// Shared-read RAII guard of an [`RwLock`].
pub type RwLockReadGuard<'a, T> = RwLockGuard<std::sync::RwLockReadGuard<'a, T>>;

/// Exclusive-write RAII guard of an [`RwLock`].
pub type RwLockWriteGuard<'a, T> = RwLockGuard<std::sync::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for RwLockGuard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for RwLockGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

impl<G> Drop for RwLockGuard<G> {
    fn drop(&mut self) {
        witness::on_release(self.class);
    }
}

/// `parking_lot`-style condition variable: waits take `&mut MutexGuard`
/// instead of consuming and returning the guard.
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    pub fn notify_one(&self) {
        sched::notify(self.addr());
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        sched::notify(self.addr());
        self.0.notify_all();
    }

    /// Atomically releases the guard's lock and blocks until notified; the
    /// lock is reacquired (re-checked by the witness) before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_inner(guard, None);
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        WaitTimeoutResult(self.wait_inner(guard, Some(timeout)))
    }

    /// The wait of [`Condvar::wait`] and [`Condvar::wait_for`]; returns
    /// whether `timeout` elapsed. On a [`sched`] run the run's chooser
    /// decides when the wait ends, and whether by a timeout.
    fn wait_inner<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Option<Duration>) -> bool {
        let inner = guard.inner.take().expect("mutex guard present");
        let mutex = guard.mutex;
        witness::on_release(mutex.class);
        let (inner, timed_out) =
            match sched::wait(self.addr(), mutex.addr(), timeout.is_some(), inner) {
                Ok(timed_out) => (mutex.lock_inner(), timed_out),
                Err(inner) => match timeout {
                    None => (self.0.wait(inner).unwrap_or_else(|e| e.into_inner()), false),
                    Some(timeout) => {
                        let (inner, result) = self
                            .0
                            .wait_timeout(inner, timeout)
                            .unwrap_or_else(|e| e.into_inner());
                        (inner, result.timed_out())
                    }
                },
            };
        witness::on_acquire(mutex.class);
        guard.inner = Some(inner);
        timed_out
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Whether a [`Condvar::wait_for`] returned because its timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(self) -> bool {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::{sched, Condvar, LockClass, Mutex, RwLock};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn classes_are_recorded() {
        let m = Mutex::with_class(LockClass::Journal, 0);
        assert_eq!(m.class(), LockClass::Journal);
        assert_eq!(Mutex::new(0).class(), LockClass::Unclassified);
        let l = RwLock::with_class(LockClass::Shard, 0);
        assert_eq!(l.class(), LockClass::Shard);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison");
        })
        .join();
        // parking_lot semantics: no poisoning, the lock stays usable.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut guard = m.lock();
        let result = cv.wait_for(&mut guard, Duration::from_millis(5));
        assert!(result.timed_out());
        // The guard survives the wait and still protects the value.
        *guard = true;
        drop(guard);
        assert!(*m.lock());
    }

    #[test]
    fn sched_runs_a_wait_for_timeout_as_a_choice() {
        // One managed thread waits an hour on a condvar nobody notifies:
        // the only move left is the timeout, and the run takes it at once.
        let pair = Arc::new((Mutex::with_class(LockClass::TestA, ()), Condvar::new()));
        let timed_out = Arc::new(AtomicBool::new(false));
        let (waiter, flag) = (pair.clone(), timed_out.clone());
        let mut offers = Vec::new();
        let body = move || {
            let (lock, cv) = &*waiter;
            let mut guard = lock.lock();
            let result = cv.wait_for(&mut guard, Duration::from_secs(3600));
            flag.store(result.timed_out(), Ordering::SeqCst);
        };
        let outcome = sched::run(vec![Box::new(body)], &mut |runnable| {
            offers.push(runnable.to_vec());
            runnable[0].thread
        });
        assert_eq!(outcome, Ok(()));
        assert!(timed_out.load(Ordering::SeqCst));
        assert!(offers.iter().any(|runnable| runnable[0].times_out));
    }

    #[test]
    fn sched_reports_a_thread_nobody_can_wake_as_a_deadlock() {
        // The thread stays parked for good; the run reports and returns.
        let pair = Arc::new((Mutex::with_class(LockClass::TestA, ()), Condvar::new()));
        let body = move || {
            let (lock, cv) = &*pair;
            cv.wait(&mut lock.lock());
        };
        let outcome = sched::run(vec![Box::new(body)], &mut |runnable| runnable[0].thread);
        assert_eq!(
            outcome,
            Err("deadlock: thread 0 waits on a condvar".to_string())
        );
    }

    #[test]
    fn condvar_handoff() {
        let shared = Arc::new((Mutex::new(0), Condvar::new()));
        let clone = shared.clone();
        let worker = std::thread::spawn(move || {
            let (lock, cv) = &*clone;
            let mut value = lock.lock();
            *value = 7;
            drop(value);
            cv.notify_all();
        });
        let (lock, cv) = &*shared;
        let mut value = lock.lock();
        while *value == 0 {
            cv.wait(&mut value);
        }
        assert_eq!(*value, 7);
        worker.join().expect("worker");
    }
}
