//! Mini-loom: a deterministic, stateless search over the schedules of real
//! threads running the real group committer (hand-rolled — no crates.io).
//!
//! A [`Program`] is a few thread bodies and two checks. [`explore`] runs it
//! over and over on the `parking_lot` shim's [`sched`] scheduler, which lets
//! one thread run at a time and stops it at every `Mutex` lock, every
//! `Condvar` wait, `wait_for` or notify, and at its start and exit. At each
//! such point the explorer picks the thread that runs next. The choices are enumerated depth-first, every schedule replayed
//! from scratch, with a bound on the **preemptions** per schedule — switches
//! away from a thread that could have gone on (CHESS: Musuvathi & Qadeer,
//! PLDI 2007, cited from memory). A switch away from a thread that blocked,
//! waits on a condvar or exited costs nothing, and a `wait_for` timeout is
//! one more choice: running the waiter before anyone notifies it.
//! [`Program::check`] runs at every point, [`Program::finish`] once every
//! thread has exited; a deadlock or a panicking thread is a violation too.
//!
//! A [`Scenario`] is a program over the engine: a fresh `FsBackend` with
//! `CommitPolicy::Grouped` in a scratch directory emptied for every
//! schedule, a few threads
//! committing through it, and these checks, which read the journal files
//! with `std::fs` and the ticket outcomes from atomics:
//!
//! - **I1 (durability)**, at every point: every commit whose ticket
//!   resolved `Ok` has its record inside its document's durable prefix —
//!   the journal file's length at the last point where
//!   `durability_stats().fsyncs` had advanced (no record is written between
//!   a round and the next point);
//! - **I2 (order)**, at every point: each journal file holds each commit at
//!   most once, and each thread's commits to it in program order;
//! - **at the end**: after `reopen_document`, `read_batches` returns exactly
//!   the `Ok` commits, and an fsync fault that fired resolved some ticket
//!   `Err`.
//!
//! The window's fill deadline is an hour, so the clock never decides
//! anything: a fill ends when the window is full or the explorer times the
//! wait out. A simulated fsync latency makes the device gate, inside every
//! fsync round, a point as well — another thread may run while a round is
//! in flight, as it may on a real device.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::sched::{self, Runnable};
use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_query::Pattern;
use pxml_store::{
    serialize_fuzzy_document, CommitPolicy, CommitTicket, FaultOp, FaultPlan, FsBackend, FsOptions,
    StorageBackend,
};

/// The preemption bound every [`Scenario`] is explored at.
pub const PREEMPTION_BOUND: usize = 2;

/// Exploration outcome and coverage counters for one program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules run.
    pub schedules: usize,
    /// Scheduling points over all schedules.
    pub points: usize,
    /// Longest schedule, in points.
    pub max_depth: usize,
    /// Points that offered a `wait_for` timeout.
    pub timeouts: usize,
    /// Schedules in which the scenario's injected fault fired.
    pub faults: usize,
    /// Violations, each with the schedule that exposed it (the first few:
    /// the exploration stops at the eighth).
    pub violations: Vec<String>,
}

/// Violations after which an exploration stops: a broken program need not
/// be explored to the end.
const MAX_VIOLATIONS: usize = 8;

/// Scheduling points after which a schedule counts as a livelock (the
/// battery's longest schedule has a few dozen).
const MAX_DEPTH: usize = 1_000;

/// One instance of a program: what a single schedule runs and checks.
pub struct Program {
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Runs at every scheduling point, with every other thread parked, on
    /// the thread passing the baton: it must not take a `parking_lot` lock.
    pub check: Box<dyn FnMut() -> Result<(), String> + Send>,
    /// Runs once every thread has exited.
    pub finish: Box<dyn FnOnce() -> Result<(), String>>,
}

/// One scheduling point of the schedule being replayed or extended.
struct Level {
    runnable: Vec<Runnable>,
    /// The thread that ran up to this point, if it can go on: running
    /// another one here is a preemption.
    running: Option<usize>,
    /// Preemptions spent before this point.
    preemptions: usize,
    /// The threads run from here so far; the last is the current choice.
    tried: Vec<usize>,
}

impl Level {
    fn cost(&self, thread: usize) -> usize {
        usize::from(self.running.is_some_and(|running| running != thread))
    }

    fn chosen(&self) -> usize {
        self.tried[self.tried.len() - 1]
    }
}

/// Explores every schedule of `instance`'s program with at most `bound`
/// preemptions, building a fresh instance per schedule. An empty
/// [`ExploreStats::violations`] means every such schedule passed its checks.
pub fn explore(name: &str, bound: usize, mut instance: impl FnMut() -> Program) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut levels: Vec<Level> = Vec::new();
    loop {
        let Program {
            threads,
            mut check,
            finish,
        } = instance();
        let mut schedule: Vec<usize> = Vec::new();
        let mut failure: Option<String> = None;
        let ran = sched::run(threads, &mut |runnable| {
            if failure.is_none() {
                failure = check().err();
            }
            stats.timeouts += usize::from(runnable.iter().any(|r| r.times_out));
            let depth = schedule.len();
            if depth >= MAX_DEPTH {
                // A thread that spins through points without the others
                // making progress: hand the baton round so the run can end.
                failure.get_or_insert_with(|| format!("livelock: no end after {MAX_DEPTH} points"));
                let next = runnable[depth % runnable.len()].thread;
                schedule.push(next);
                return next;
            }
            if depth == levels.len() {
                let previous = levels.last();
                let preemptions =
                    previous.map_or(0, |level| level.preemptions + level.cost(level.chosen()));
                let running = (schedule.last().copied())
                    .filter(|&last| runnable.iter().any(|r| r.thread == last && !r.times_out));
                let first = runnable
                    .iter()
                    .find(|r| !r.times_out)
                    .unwrap_or(&runnable[0]);
                levels.push(Level {
                    runnable: runnable.to_vec(),
                    running,
                    preemptions,
                    tried: vec![running.unwrap_or(first.thread)],
                });
            }
            let level = &levels[depth];
            assert!(
                level.runnable == runnable,
                "[{name}] a replayed schedule diverged"
            );
            schedule.push(level.chosen());
            level.chosen()
        });
        stats.schedules += 1;
        stats.points += schedule.len();
        stats.max_depth = stats.max_depth.max(schedule.len());
        let failure = match (failure, ran) {
            (Some(failure), _) | (None, Err(failure)) => Some(failure),
            (None, Ok(())) => finish().err(),
        };
        if let Some(failure) = failure {
            let schedule: String = schedule
                .iter()
                .take(MAX_DEPTH)
                .map(usize::to_string)
                .collect();
            stats
                .violations
                .push(format!("[{name}] {failure} (schedule: {schedule})"));
            if stats.violations.len() == MAX_VIOLATIONS {
                return stats;
            }
        }
        // Backtrack to the deepest point with an untried thread in budget.
        levels.truncate(schedule.len());
        while let Some(level) = levels.last_mut() {
            let next = level.runnable.iter().map(|r| r.thread).find(|&thread| {
                !level.tried.contains(&thread) && level.preemptions + level.cost(thread) <= bound
            });
            if let Some(thread) = next {
                level.tried.push(thread);
                break;
            }
            levels.pop();
        }
        if levels.is_empty() {
            return stats;
        }
    }
}

/// One bounded scenario of the real group committer.
pub struct Scenario {
    pub name: &'static str,
    /// `threads[t]`: the documents thread `t` commits to, in program order
    /// (at most 10 threads of at most 10 commits, so record markers stay
    /// unique and a schedule prints as one digit per point).
    threads: Vec<Vec<usize>>,
    /// The committer's `window_max_batches`.
    window_max: usize,
    /// Injected fault: the n-th (1-based) fsync round fails.
    pub fsync_fails_at: Option<usize>,
    /// Thread 0 enqueues all its batches without waiting, calls
    /// `group_barrier()`, and asserts every ticket resolved.
    barrier: bool,
}

/// Ticket outcomes (0: pending).
const OK: u8 = 1;
const FAILED: u8 = 2;

/// One commit of a scenario: the `k`-th of its thread, to document `doc`.
#[derive(Clone, Copy)]
struct Commit {
    thread: usize,
    k: usize,
    doc: usize,
}

impl Commit {
    /// The text the commit's record carries: its pattern.
    fn marker(self) -> String {
        format!("c{}x{}", self.thread, self.k)
    }
}

impl Scenario {
    /// Explores the scenario at [`PREEMPTION_BOUND`].
    pub fn explore(&self) -> ExploreStats {
        // One scratch store directory, emptied for every schedule. It lives
        // in `/dev/shm` where the machine has that RAM file system — the
        // committer's fsyncs cost nothing there, and what a schedule checks
        // does not depend on the device — else in the system temp directory.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let base = Some(PathBuf::from("/dev/shm"))
            .filter(|shm| shm.is_dir())
            .unwrap_or_else(std::env::temp_dir);
        let next = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("pxml-explore-{}-{next}", std::process::id()));
        let faults = Rc::new(Cell::new(0));
        let mut stats = explore(self.name, PREEMPTION_BOUND, || self.program(&dir, &faults));
        // Best-effort cleanup of the scratch directory.
        let _ = std::fs::remove_dir_all(&dir);
        stats.faults = faults.get();
        stats
    }

    /// A fresh store and the scenario's threads and checks over it.
    fn program(&self, dir: &Path, faults: &Rc<Cell<usize>>) -> Program {
        let commits: Arc<Vec<Commit>> = Arc::new(
            (self.threads.iter().enumerate())
                .flat_map(|(thread, docs)| {
                    (docs.iter().enumerate()).map(move |(k, &doc)| Commit { thread, k, doc })
                })
                .collect(),
        );
        let outcomes: Arc<Vec<AtomicU8>> =
            Arc::new(commits.iter().map(|_| AtomicU8::default()).collect());
        let docs = commits
            .iter()
            .map(|commit| commit.doc + 1)
            .max()
            .unwrap_or(0);
        // Plain writes: the checkpoints are the schedule's input, and their
        // durability is no part of what it checks.
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scratch directory");
        let checkpoint = serialize_fuzzy_document(&FuzzyTree::new("root"), false);
        for doc in 0..docs {
            std::fs::write(dir.join(format!("d{doc}.pxml")), &checkpoint)
                .expect("scratch checkpoint");
        }
        let plan = Arc::new(match self.fsync_fails_at {
            Some(n) => FaultPlan::new().fail_nth(FaultOp::Fsync, n),
            None => FaultPlan::new(),
        });
        let options = FsOptions {
            commit: CommitPolicy::Grouped {
                window_max_batches: self.window_max,
                window_max_wait: Duration::from_secs(3600),
            },
            simulated_sync_latency: Duration::from_nanos(1),
            fault: Some(Arc::clone(&plan)),
        };
        let backend = FsBackend::with_options(dir, options).expect("scratch store opens");
        let threads = (0..self.threads.len())
            .map(|thread| {
                let (backend, commits, outcomes) =
                    (backend.clone(), commits.clone(), outcomes.clone());
                let mine: Vec<usize> = (0..commits.len())
                    .filter(|&i| commits[i].thread == thread)
                    .collect();
                let barrier = self.barrier && thread == 0;
                Box::new(move || {
                    let enqueue = |&i: &usize| {
                        let pattern = Pattern::parse(&commits[i].marker()).expect("marker parses");
                        let batch = [UpdateTransaction::certain(pattern)];
                        backend.append_batch_enqueue(&format!("d{}", commits[i].doc), &batch)
                    };
                    let settle = |i: usize, ticket: CommitTicket| {
                        let outcome = if ticket.wait().is_ok() { OK } else { FAILED };
                        outcomes[i].store(outcome, Ordering::Release);
                    };
                    if barrier {
                        let tickets: Vec<CommitTicket> = mine.iter().map(enqueue).collect();
                        backend.group_barrier();
                        assert!(
                            tickets.iter().all(CommitTicket::is_durable),
                            "a ticket enqueued before group_barrier() is unresolved after it"
                        );
                        mine.iter()
                            .zip(tickets)
                            .for_each(|(&i, ticket)| settle(i, ticket));
                    } else {
                        mine.iter().for_each(|i| settle(*i, enqueue(i)));
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let (check_backend, check_commits, check_outcomes) =
            (backend.clone(), commits.clone(), outcomes.clone());
        let paths: Vec<PathBuf> = (0..docs)
            .map(|doc| dir.join(format!("d{doc}.journal.0.0.seg")))
            .collect();
        // Each journal's bytes, and where each commit's marker sits in them.
        let mut journals: Vec<Vec<u8>> = vec![Vec::new(); docs];
        let mut found: Vec<Vec<usize>> = vec![Vec::new(); commits.len()];
        let (mut fsyncs_seen, mut durable) = (0, vec![0; docs]);
        let check = move || {
            for (doc, path) in paths.iter().enumerate() {
                let bytes = std::fs::read(path).unwrap_or_default();
                if bytes != journals[doc] {
                    for (i, commit) in check_commits.iter().enumerate() {
                        if commit.doc == doc {
                            found[i] = positions(&bytes, commit.marker().as_bytes());
                        }
                    }
                    journals[doc] = bytes;
                }
            }
            let fsyncs = check_backend.durability_stats().fsyncs;
            if fsyncs != fsyncs_seen {
                fsyncs_seen = fsyncs;
                durable = journals.iter().map(Vec::len).collect();
            }
            for (i, &Commit { thread, k, doc }) in check_commits.iter().enumerate() {
                if found[i].len() > 1 {
                    return Err(format!(
                        "I2: commit {thread}:{k} is in d{doc} more than once"
                    ));
                }
                let misordered = |at| {
                    (0..i).any(|j| {
                        let earlier = check_commits[j];
                        earlier.thread == thread
                            && earlier.doc == doc
                            && found[j].first() > Some(at)
                    })
                };
                if found[i].first().is_some_and(misordered) {
                    return Err(format!(
                        "I2: commit {thread}:{k} precedes an earlier one in d{doc}"
                    ));
                }
                let acked = check_outcomes[i].load(Ordering::Acquire) == OK;
                if acked && found[i].first().is_none_or(|&at| at >= durable[doc]) {
                    return Err(format!(
                        "I1: commit {thread}:{k} is acknowledged but not in d{doc}'s durable \
                         prefix"
                    ));
                }
            }
            Ok(())
        };
        let faults = Rc::clone(faults);
        let finish = move || {
            let resolved = |i: usize| outcomes[i].load(Ordering::Acquire);
            if plan.injected_faults() > 0 {
                faults.set(faults.get() + 1);
                if !(0..commits.len()).any(|i| resolved(i) == FAILED) {
                    return Err("the injected fsync fault resolved no ticket Err".to_string());
                }
            }
            for doc in 0..docs {
                let name = format!("d{doc}");
                backend.reopen_document(&name).map_err(|e| e.to_string())?;
                let batches = backend.read_batches(&name).map_err(|e| e.to_string())?;
                let mut replayed: Vec<String> = batches
                    .iter()
                    .map(|batch| batch[0].pattern().to_string())
                    .collect();
                let mut acked: Vec<String> = (0..commits.len())
                    .filter(|&i| commits[i].doc == doc && resolved(i) == OK)
                    .map(|i| commits[i].marker())
                    .collect();
                replayed.sort();
                acked.sort();
                if replayed != acked {
                    return Err(format!(
                        "after reopen d{doc} replays {replayed:?}, not the Ok commits {acked:?}"
                    ));
                }
            }
            Ok(())
        };
        Program {
            threads,
            check: Box::new(check),
            finish: Box::new(finish),
        }
    }
}

/// Every offset at which `needle` starts in `haystack`.
fn positions(haystack: &[u8], needle: &[u8]) -> Vec<usize> {
    haystack
        .windows(needle.len())
        .enumerate()
        .filter(|(_, window)| *window == needle)
        .map(|(at, _)| at)
        .collect()
}

/// Explores every scenario, side by side on scoped threads; the results
/// come back in `battery` order.
pub fn explore_all(battery: &[Scenario]) -> Vec<(&'static str, ExploreStats)> {
    std::thread::scope(|scope| {
        let runs: Vec<_> = battery
            .iter()
            .map(|scenario| scope.spawn(|| (scenario.name, scenario.explore())))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("an exploration panicked"))
            .collect()
    })
}

/// The scenario battery the explorer suite and the `explore` binary run:
/// two threads on one document (windows of 2 and 1) and on two, three-thread
/// sweeps, two failing fsync rounds, and a barrier racing a committer.
pub fn scenarios() -> Vec<Scenario> {
    let scenario = |name, threads: &[&[usize]], window_max, fsync_fails_at, barrier| Scenario {
        name,
        threads: threads.iter().map(|commits| commits.to_vec()).collect(),
        window_max,
        fsync_fails_at,
        barrier,
    };
    vec![
        scenario("2t-1doc-w2", &[&[0, 0], &[0, 0]], 2, None, false),
        scenario("2t-2docs-w2", &[&[0, 1], &[1, 0]], 2, None, false),
        scenario("2t-1doc-w1", &[&[0, 0], &[0, 0]], 1, None, false),
        scenario("3t-2docs-w3", &[&[0], &[1], &[0]], 3, None, false),
        scenario("3t-1doc-w2", &[&[0, 0], &[0], &[0]], 2, None, false),
        // The first (or a later) shared round fails: no schedule may
        // acknowledge a record outside the fsynced prefix across the
        // rollback, the poisoned drains and the failed enqueues.
        scenario(
            "2t-1doc-fsync-fail-1",
            &[&[0, 0], &[0, 0]],
            2,
            Some(1),
            false,
        ),
        scenario(
            "2t-2docs-fsync-fail-2",
            &[&[0, 1], &[1, 0]],
            2,
            Some(2),
            false,
        ),
        scenario("2t-1doc-barrier", &[&[0, 0], &[0, 0]], 2, None, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_is_deterministic() {
        let scenario = &scenarios()[0];
        assert_eq!(scenario.explore(), scenario.explore());
    }

    #[test]
    fn lone_thread_has_exactly_one_schedule() {
        let scenario = Scenario {
            name: "1t-1doc",
            threads: vec![vec![0]],
            window_max: 2,
            fsync_fails_at: None,
            barrier: false,
        };
        let stats = scenario.explore();
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        // One thread is the only runnable one at every point.
        assert_eq!(stats.schedules, 1);
        assert_eq!(stats.timeouts, 0);
    }
}
