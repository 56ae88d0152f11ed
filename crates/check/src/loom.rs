//! Mini-loom: an exhaustive, deterministic explorer of bounded
//! `GroupCommitter` model interleavings (hand-rolled — no crates.io).
//!
//! The explorer runs a depth-first search over the model's state graph:
//! from each state it tries every enabled `(thread, step)` transition, so
//! within a scenario's bounds (threads, commits per thread) **every**
//! schedule the scheduler could produce is covered. Two prunings keep the
//! search exact but small:
//!
//! - **memoization**: states are compared structurally; a state reached by
//!   two different schedules is explored once (the state graph is a DAG —
//!   every step consumes program progress — so this is a pure cache);
//! - **DPOR-lite persistent sets**: `ObserveAck` only touches its own
//!   thread's program counter and reads a monotone flag, so it commutes
//!   with every other transition and is invisible to the invariants; when
//!   one is enabled the explorer commits to it alone instead of also
//!   branching over the other threads' moves.
//!
//! Invariants ([`State::check`]) are asserted at **every** visited state,
//! which is exactly "at every crash point of every schedule" (see the model
//! docs). `schedules` reports the number of distinct schedules the reduced
//! graph represents, counted exactly by dynamic programming over the DAG.

use std::collections::HashMap;

use crate::model::{Scenario, State, Step};

/// Exploration outcome and coverage counters for one scenario.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Distinct states visited (memoization keys).
    pub states: usize,
    /// Transitions executed (edges of the reduced state graph).
    pub transitions: usize,
    /// Re-encounters of an already-explored state (pruned subtrees).
    pub memo_hits: usize,
    /// States where the persistent-set reduction committed to a single
    /// local transition.
    pub local_fastpaths: usize,
    /// Terminal (all-threads-done) states reached.
    pub terminals: usize,
    /// Distinct complete schedules the explored graph represents.
    pub schedules: u128,
    /// Longest schedule, in steps.
    pub max_depth: usize,
    /// Invariant violations, each with the schedule that exposed it.
    pub violations: Vec<String>,
}

/// How many violations to keep verbatim before only counting.
const MAX_RECORDED_VIOLATIONS: usize = 8;

struct Explorer<'a> {
    scenario: &'a Scenario,
    /// State → number of complete schedules reachable from it.
    memo: HashMap<State, u128>,
    stats: ExploreStats,
    /// The schedule prefix that led to the current state.
    trace: Vec<(usize, Step)>,
}

/// Exhaustively explores `scenario` and returns the coverage counters. An
/// empty [`ExploreStats::violations`] means every schedule within the
/// bounds upholds the durability and ordering invariants.
pub fn explore(scenario: &Scenario) -> ExploreStats {
    let mut explorer = Explorer {
        scenario,
        memo: HashMap::new(),
        stats: ExploreStats::default(),
        trace: Vec::new(),
    };
    let schedules = explorer.dfs(&State::initial(scenario));
    explorer.stats.schedules = schedules;
    explorer.stats.states = explorer.memo.len();
    explorer.stats
}

impl Explorer<'_> {
    fn dfs(&mut self, state: &State) -> u128 {
        if let Some(&schedules) = self.memo.get(state) {
            self.stats.memo_hits += 1;
            return schedules;
        }
        self.stats.max_depth = self.stats.max_depth.max(self.trace.len());
        if let Some(violation) = state.check(self.scenario) {
            self.record_violation(&violation);
        }
        let mut moves = state.enabled(self.scenario);
        if let Some(&local) = moves.iter().find(|(_, step)| *step == Step::ObserveAck) {
            if moves.len() > 1 {
                self.stats.local_fastpaths += 1;
            }
            moves = vec![local];
        }
        let schedules = if moves.is_empty() {
            if !state.is_terminal() {
                self.record_violation("deadlock: no thread can move");
            }
            self.stats.terminals += 1;
            1
        } else {
            let mut total: u128 = 0;
            for (thread, step) in moves {
                self.stats.transitions += 1;
                let next = state.apply(self.scenario, thread, step);
                self.trace.push((thread, step));
                total = total.saturating_add(self.dfs(&next));
                self.trace.pop();
            }
            total
        };
        self.memo.insert(state.clone(), schedules);
        schedules
    }

    fn record_violation(&mut self, violation: &str) {
        if self.stats.violations.len() < MAX_RECORDED_VIOLATIONS {
            let schedule: Vec<String> = self
                .trace
                .iter()
                .map(|(thread, step)| format!("t{thread}:{step:?}"))
                .collect();
            self.stats.violations.push(format!(
                "[{}] {violation} (schedule: {})",
                self.scenario.name,
                schedule.join(" ")
            ));
        }
    }
}

/// The scenario battery the explorer suite and the `explore` binary run:
/// every bounded 2-thread schedule of the committer (same doc, distinct
/// docs, window of 1) plus 3-thread sweeps.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "2t-1doc-w2",
            threads: vec![vec![0, 0], vec![0, 0]],
            docs: 1,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        },
        Scenario {
            name: "2t-2docs-w2",
            threads: vec![vec![0, 1], vec![1, 0]],
            docs: 2,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        },
        Scenario {
            name: "2t-1doc-w1",
            threads: vec![vec![0, 0], vec![0, 0]],
            docs: 1,
            window_max: 1,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        },
        Scenario {
            name: "3t-2docs-w3",
            threads: vec![vec![0], vec![1], vec![0]],
            docs: 2,
            window_max: 3,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        },
        Scenario {
            name: "3t-1doc-w2",
            threads: vec![vec![0, 0], vec![0], vec![0]],
            docs: 1,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        },
        // Failing-fsync scenarios: the first (or a later) shared round
        // fails, and in every schedule the invariants must still hold — in
        // particular I1 proves no reachable state acknowledges a record
        // outside the fsynced prefix, across the rollback, the poisoned
        // drains and the failed enqueues.
        Scenario {
            name: "2t-1doc-fsync-fail-1",
            threads: vec![vec![0, 0], vec![0, 0]],
            docs: 1,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: Some(1),
            bug_ack_after_failed_fsync: false,
        },
        Scenario {
            name: "2t-2docs-fsync-fail-2",
            threads: vec![vec![0, 1], vec![1, 0]],
            docs: 2,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: Some(2),
            bug_ack_after_failed_fsync: false,
        },
    ]
}

/// The deliberately broken scenario the self-tests use to prove the
/// invariant machinery detects a real durability bug.
pub fn seeded_bug_scenario() -> Scenario {
    Scenario {
        name: "seeded-ack-before-fsync",
        threads: vec![vec![0], vec![0]],
        docs: 1,
        window_max: 2,
        bug_ack_before_fsync: true,
        fsync_fails_at: None,
        bug_ack_after_failed_fsync: false,
    }
}

/// The seeded fsyncgate bug: the leader's first fsync round fails but it
/// acknowledges the window anyway (records written, never durable). The
/// explorer's I1 must catch it — the self-tests assert it does.
pub fn seeded_fsyncgate_scenario() -> Scenario {
    Scenario {
        name: "seeded-ack-after-failed-fsync",
        threads: vec![vec![0], vec![0]],
        docs: 1,
        window_max: 2,
        bug_ack_before_fsync: false,
        fsync_fails_at: Some(1),
        bug_ack_after_failed_fsync: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_is_deterministic() {
        let scenario = &scenarios()[0];
        let first = explore(scenario);
        let second = explore(scenario);
        assert_eq!(first.states, second.states);
        assert_eq!(first.transitions, second.transitions);
        assert_eq!(first.schedules, second.schedules);
        assert_eq!(first.violations, second.violations);
    }

    #[test]
    fn lone_thread_has_exactly_one_schedule() {
        let scenario = Scenario {
            name: "1t-1doc",
            threads: vec![vec![0]],
            docs: 1,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        };
        let stats = explore(&scenario);
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
        // Enqueue → Lead(+fast-path drain) → Write → Fsync → Complete →
        // Release → ObserveAck: no choice points anywhere.
        assert_eq!(stats.schedules, 1);
        assert_eq!(stats.terminals, 1);
    }
}
