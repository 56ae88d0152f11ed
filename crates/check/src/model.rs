//! A faithful small-state model of the store's `GroupCommitter` protocol
//! (`crates/store/src/group.rs`) for the mini-loom schedule explorer.
//!
//! Each committing thread is a little program counter over the protocol's
//! observable steps — enqueue, take leadership, fill-wait, drain, write
//! records, fsync, complete slots, release, observe the ack — and the shared
//! state mirrors the real `Window`: the pending queue, the single active
//! leader, the idle-fast-path concurrency hint, plus a per-document journal
//! split into a durable prefix (fsynced) and a volatile tail (written, not
//! yet covered by an fsync round).
//!
//! # Crash semantics
//!
//! Crashes are not explicit transitions: the durability contract — *ack ⇒
//! the member's window was fsynced*, and *crash before the window fsync ⇒
//! all its members are discarded by recovery* — is equivalent to the state
//! invariant "every acknowledged commit lies inside its document's durable
//! journal prefix", checked at **every** reachable state. Recovery keeps
//! exactly the durable prefix (torn volatile tails are truncated away), so a
//! violation at any state is precisely a crash point where a client held an
//! ack for a batch recovery would drop.
//!
//! The `bug_ack_before_fsync` flag models the classic group-commit bug
//! (acknowledging members when their records are written rather than when
//! the window is fsynced); the explorer's self-tests assert the invariant
//! machinery actually catches it.
//!
//! # Fsync failure
//!
//! `fsync_fails_at = Some(n)` makes the n-th shared fsync round fail, and
//! the model then mirrors the real protocol's failure path
//! (`crates/store/src/group.rs`, "Fsync failure poisons the committer"):
//! the window's unsynced records roll back out of the journal, every member
//! slot resolves *failed* (never acknowledged), and the committer is
//! poisoned at the leader's release — subsequent enqueues fail immediately
//! and a waiter finding the poison drains and fails the queue instead of
//! leading. The durability invariant I1 is checked at every reachable state
//! as always, so the explorer proves **no schedule acknowledges a record
//! outside the fsynced prefix** even across the failure. The companion
//! seeded bug `bug_ack_after_failed_fsync` — the fsyncgate pattern of
//! shrugging the error off and acknowledging anyway — must make I1 fire.

/// Index of a modeled document.
pub type DocId = usize;

/// Identity of one commit: `(thread, k-th commit of that thread)`.
pub type CommitId = (usize, usize);

/// One bounded-interleaving scenario for the explorer.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: &'static str,
    /// `threads[t]` = the documents thread `t` commits to, in program order.
    pub threads: Vec<Vec<DocId>>,
    /// Number of distinct documents (`DocId`s in `threads` must be < this).
    pub docs: usize,
    /// The committer's `window_max_batches`.
    pub window_max: usize,
    /// Seeded bug: the leader acknowledges its window without an fsync
    /// round, breaking "ack ⇒ durable". For explorer self-tests only.
    pub bug_ack_before_fsync: bool,
    /// Injected fault: the n-th shared fsync round (1-based) fails. The
    /// failing window rolls back, its members fail, and the committer is
    /// poisoned from the leader's release on (no reopen inside the bounded
    /// scenarios — poison is terminal here).
    pub fsync_fails_at: Option<usize>,
    /// Seeded fsyncgate bug: the leader treats the failed round as success —
    /// records stay written but not durable, members are acknowledged
    /// anyway. For explorer self-tests only.
    pub bug_ack_after_failed_fsync: bool,
}

impl Scenario {
    pub fn total_commits(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }
}

/// One thread's position in the protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Pc {
    /// Between commits; `next` is the next program-order commit to enqueue.
    Idle { next: usize },
    /// Enqueued commit `commit`, waiting for an ack or for leadership.
    Waiting { commit: usize },
    /// Leader holding the window open for more members (the fill-wait).
    Filling { commit: usize },
    /// Leader writing its drained window's records; `write_idx` is the next
    /// member to write.
    Writing { commit: usize, write_idx: usize },
    /// Leader whose window is fully written and (unless the seeded bug is
    /// armed) fsynced; about to complete the member slots.
    Synced { commit: usize },
    /// Leader whose fsync round failed: the window already rolled back and
    /// its slots resolved failed; about to poison the committer and give up
    /// leadership.
    FailedSync { commit: usize },
    /// Leader that completed every slot; about to give up leadership.
    Releasing { commit: usize },
    /// All program-order commits acknowledged.
    Done,
}

/// One protocol step a thread can take (the explorer's transition alphabet).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Push the next commit into the pending queue.
    Enqueue,
    /// Take leadership; with the idle fast-path this may drain immediately.
    Lead,
    /// The fill-wait ends (deadline, full window, or spurious wake): drain.
    FillTimeout,
    /// Write one window member's record (volatile until the fsync round).
    WriteNext,
    /// The shared fsync round: every written record becomes durable.
    FsyncRound,
    /// Acknowledge every member slot of the flushed window.
    CompleteSlots,
    /// Give up leadership and wake the followers.
    Release,
    /// A waiter observes its completed slot and moves on.
    ObserveAck,
}

/// The full model state: thread program counters plus the shared window and
/// per-document journals. `Hash`/`Eq` drive the explorer's memoization.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct State {
    pc: Vec<Pc>,
    /// The open window's enqueued members, in enqueue order.
    pending: Vec<(CommitId, DocId)>,
    /// The drained window the leader is flushing.
    window: Vec<(CommitId, DocId)>,
    leader: Option<usize>,
    /// The committer's concurrency hint gating the idle fast-path.
    hint: bool,
    /// Per-document journal: every written record, in write order
    /// (volatile tail included).
    journal: Vec<Vec<CommitId>>,
    /// Per-document length of the durable (fsynced) journal prefix.
    durable: Vec<usize>,
    /// `acked[t][k]`: thread `t`'s `k`-th commit has been acknowledged.
    acked: Vec<Vec<bool>>,
    /// `failed[t][k]`: thread `t`'s `k`-th commit resolved with an error
    /// (failed fsync round, poisoned enqueue, or poisoned drain). Constant
    /// all-false in fault-free scenarios, so their state space — and the
    /// pinned coverage numbers — are unchanged.
    failed: Vec<Vec<bool>>,
    /// Fsync rounds attempted so far. Only counted when the scenario injects
    /// a fault (`fsync_fails_at`), so fault-free scenarios memoize exactly
    /// as before.
    fsync_rounds: usize,
    /// Mirrors `Window::poisoned`: set at the failed leader's release, after
    /// which nothing flushes.
    poisoned: bool,
    /// Ground truth for the order invariant: per-document enqueue order.
    enqueue_order: Vec<Vec<CommitId>>,
}

impl State {
    pub fn initial(scenario: &Scenario) -> State {
        State {
            pc: scenario
                .threads
                .iter()
                .map(|commits| {
                    if commits.is_empty() {
                        Pc::Done
                    } else {
                        Pc::Idle { next: 0 }
                    }
                })
                .collect(),
            pending: Vec::new(),
            window: Vec::new(),
            leader: None,
            hint: false,
            journal: vec![Vec::new(); scenario.docs],
            durable: vec![0; scenario.docs],
            acked: scenario
                .threads
                .iter()
                .map(|commits| vec![false; commits.len()])
                .collect(),
            failed: scenario
                .threads
                .iter()
                .map(|commits| vec![false; commits.len()])
                .collect(),
            fsync_rounds: 0,
            poisoned: false,
            enqueue_order: vec![Vec::new(); scenario.docs],
        }
    }

    pub fn is_terminal(&self) -> bool {
        self.pc.iter().all(|pc| *pc == Pc::Done)
    }

    /// Every step every thread could take from this state. Thread order is
    /// deterministic, so explorer runs are reproducible.
    pub fn enabled(&self, scenario: &Scenario) -> Vec<(usize, Step)> {
        let mut moves = Vec::new();
        for (t, pc) in self.pc.iter().enumerate() {
            match *pc {
                Pc::Idle { next } => {
                    debug_assert!(next < scenario.threads[t].len());
                    moves.push((t, Step::Enqueue));
                }
                Pc::Waiting { commit } => {
                    if self.acked[t][commit] || self.failed[t][commit] {
                        moves.push((t, Step::ObserveAck));
                    } else if self.leader.is_none() {
                        // A follower with an active leader is blocked: it
                        // sleeps until the leader's release notification.
                        // (On a poisoned committer `Lead` drains and fails
                        // the queue instead of taking leadership.)
                        moves.push((t, Step::Lead));
                    }
                }
                Pc::Filling { .. } => moves.push((t, Step::FillTimeout)),
                Pc::Writing { write_idx, .. } => {
                    if write_idx < self.window.len() {
                        moves.push((t, Step::WriteNext));
                    } else {
                        moves.push((t, Step::FsyncRound));
                    }
                }
                Pc::Synced { .. } => moves.push((t, Step::CompleteSlots)),
                Pc::FailedSync { .. } | Pc::Releasing { .. } => moves.push((t, Step::Release)),
                Pc::Done => {}
            }
        }
        moves
    }

    /// Drains the pending queue into the leader's window, maintaining the
    /// concurrency hint exactly like `GroupCommitter::wait` does.
    fn drain(&mut self, after_fill: bool) {
        if after_fill && self.pending.len() == 1 {
            self.hint = false;
        }
        self.window = std::mem::take(&mut self.pending);
    }

    /// The successor state after thread `t` takes `step`. Steps mirror the
    /// real protocol's critical sections: everything inside one step happens
    /// under the window mutex (or is thread-local), everything across steps
    /// can interleave.
    pub fn apply(&self, scenario: &Scenario, t: usize, step: Step) -> State {
        let mut next = self.clone();
        match (step, self.pc[t].clone()) {
            (Step::Enqueue, Pc::Idle { next: k }) => {
                if next.poisoned {
                    // Poisoned committer: the enqueue returns a pre-failed
                    // slot and nothing enters the pipeline.
                    next.failed[t][k] = true;
                    next.pc[t] = Pc::Waiting { commit: k };
                } else {
                    let doc = scenario.threads[t][k];
                    if next.leader.is_some() || !next.pending.is_empty() {
                        next.hint = true;
                    }
                    next.pending.push(((t, k), doc));
                    next.enqueue_order[doc].push((t, k));
                    next.pc[t] = Pc::Waiting { commit: k };
                }
            }
            (Step::Lead, Pc::Waiting { commit }) => {
                if next.poisoned {
                    // The poisoned branch of `wait`: nothing may flush — the
                    // waiter drains and fails the whole queue (its own slot
                    // included) without taking leadership, then loops to
                    // observe the failure.
                    let drained = std::mem::take(&mut next.pending);
                    for ((thread, k), _) in drained {
                        next.failed[thread][k] = true;
                    }
                    next.pc[t] = Pc::Waiting { commit };
                    return next;
                }
                next.leader = Some(t);
                let fill = next.hint || next.pending.len() > 1;
                if fill {
                    next.pc[t] = Pc::Filling { commit };
                } else {
                    // Idle fast-path: leadership take and drain are one
                    // critical section, like the real committer.
                    next.drain(false);
                    next.pc[t] = Pc::Writing {
                        commit,
                        write_idx: 0,
                    };
                }
            }
            (Step::FillTimeout, Pc::Filling { commit }) => {
                next.drain(true);
                next.pc[t] = Pc::Writing {
                    commit,
                    write_idx: 0,
                };
            }
            (Step::WriteNext, Pc::Writing { commit, write_idx }) => {
                let (id, doc) = self.window[write_idx];
                next.journal[doc].push(id);
                next.pc[t] = Pc::Writing {
                    commit,
                    write_idx: write_idx + 1,
                };
            }
            (Step::FsyncRound, Pc::Writing { commit, .. }) => {
                let failing = scenario
                    .fsync_fails_at
                    .is_some_and(|n| self.fsync_rounds + 1 == n);
                if scenario.fsync_fails_at.is_some() {
                    // Counted only under injection so fault-free scenarios
                    // memoize (and pin their coverage numbers) unchanged.
                    next.fsync_rounds += 1;
                }
                if failing && !scenario.bug_ack_after_failed_fsync {
                    // The real failure path, as one observable step (in the
                    // store it all happens inside `flush_window` while the
                    // followers sleep): the round fails, the unsynced
                    // records — everything past the durable prefix belongs
                    // to this window, windows being serialized — roll back,
                    // and every member slot resolves failed.
                    for &((thread, k), doc) in &self.window {
                        next.journal[doc].truncate(next.durable[doc]);
                        next.failed[thread][k] = true;
                    }
                    next.window.clear();
                    next.pc[t] = Pc::FailedSync { commit };
                } else {
                    if !scenario.bug_ack_before_fsync && !failing {
                        // One shared round covers every file the window
                        // touched.
                        for &(_, doc) in &self.window {
                            next.durable[doc] = next.journal[doc].len();
                        }
                    }
                    // A failing round with `bug_ack_after_failed_fsync`
                    // falls through here *without* advancing the durable
                    // prefix: the fsyncgate bug — proceed to ack anyway.
                    next.pc[t] = Pc::Synced { commit };
                }
            }
            (Step::CompleteSlots, Pc::Synced { commit }) => {
                for &((thread, k), _) in &self.window {
                    next.acked[thread][k] = true;
                }
                next.window.clear();
                next.pc[t] = Pc::Releasing { commit };
            }
            (Step::Release, Pc::Releasing { commit }) => {
                next.leader = None;
                next.pc[t] = Pc::Waiting { commit };
            }
            (Step::Release, Pc::FailedSync { commit }) => {
                // Poison and release are one critical section in the real
                // `wait` (the window mutex is held across both).
                next.poisoned = true;
                next.leader = None;
                next.pc[t] = Pc::Waiting { commit };
            }
            (Step::ObserveAck, Pc::Waiting { commit }) => {
                let following = commit + 1;
                next.pc[t] = if following < scenario.threads[t].len() {
                    Pc::Idle { next: following }
                } else {
                    Pc::Done
                };
            }
            (step, pc) => unreachable!("step {step:?} not enabled at pc {pc:?}"),
        }
        next
    }

    /// Checks the safety invariants; `Some(description)` on the first
    /// violation. Called at every reachable state (see the module docs for
    /// why that subsumes crash-point enumeration).
    pub fn check(&self, scenario: &Scenario) -> Option<String> {
        // I1 — durability: ack ⇒ the commit's record lies in its document's
        // durable (fsynced) journal prefix.
        for (t, acks) in self.acked.iter().enumerate() {
            for (k, &acked) in acks.iter().enumerate() {
                if !acked {
                    continue;
                }
                let doc = scenario.threads[t][k];
                let position = self.journal[doc].iter().position(|&id| id == (t, k));
                match position {
                    Some(index) if index < self.durable[doc] => {}
                    Some(_) => {
                        return Some(format!(
                            "commit {t}:{k} acknowledged but its record in doc {doc} \
                             is not durable (crash here loses an acked commit)"
                        ));
                    }
                    None => {
                        return Some(format!(
                            "commit {t}:{k} acknowledged but never written to doc {doc}"
                        ));
                    }
                }
            }
        }
        // I2 — per-document order: the journal (volatile tail included) is
        // exactly a prefix of the document's enqueue order.
        for doc in 0..scenario.docs {
            let written = &self.journal[doc];
            if written.as_slice() != &self.enqueue_order[doc][..written.len()] {
                return Some(format!(
                    "doc {doc} journal order {written:?} diverges from enqueue order \
                     {:?}",
                    self.enqueue_order[doc]
                ));
            }
            if self.durable[doc] > written.len() {
                return Some(format!(
                    "doc {doc} durable prefix {} exceeds journal length {}",
                    self.durable[doc],
                    written.len()
                ));
            }
        }
        // I3 — leadership: a drained-but-unflushed window implies an active
        // leader, and the leader's pc is a leader phase.
        if !self.window.is_empty() && self.leader.is_none() {
            return Some("drained window with no active leader".to_string());
        }
        if let Some(leader) = self.leader {
            if !matches!(
                self.pc[leader],
                Pc::Filling { .. }
                    | Pc::Writing { .. }
                    | Pc::Synced { .. }
                    | Pc::FailedSync { .. }
                    | Pc::Releasing { .. }
            ) {
                return Some(format!(
                    "leader thread {leader} is not in a leader phase ({:?})",
                    self.pc[leader]
                ));
            }
        }
        // I5 — resolution exclusivity: no commit both acknowledged and
        // failed (an acked-then-errored slot would let a client both trust
        // and distrust the same batch).
        for (t, acks) in self.acked.iter().enumerate() {
            for (k, &acked) in acks.iter().enumerate() {
                if acked && self.failed[t][k] {
                    return Some(format!("commit {t}:{k} both acknowledged and failed"));
                }
            }
        }
        // I4 — terminal completeness: everyone done ⇒ every commit resolved
        // (acked or, under injection, failed); fault-free scenarios must
        // additionally end with complete, fully durable journals.
        if self.is_terminal() {
            for (t, acks) in self.acked.iter().enumerate() {
                for (k, &acked) in acks.iter().enumerate() {
                    if !acked && !self.failed[t][k] {
                        return Some("terminal state with an unacknowledged commit".to_string());
                    }
                }
            }
            if scenario.fsync_fails_at.is_none() {
                for doc in 0..scenario.docs {
                    if self.journal[doc] != self.enqueue_order[doc]
                        || self.durable[doc] != self.journal[doc].len()
                    {
                        return Some(format!(
                            "terminal state but doc {doc} journal is incomplete or not \
                             fully durable"
                        ));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario {
            name: "unit",
            threads: vec![vec![0], vec![0]],
            docs: 1,
            window_max: 2,
            bug_ack_before_fsync: false,
            fsync_fails_at: None,
            bug_ack_after_failed_fsync: false,
        }
    }

    #[test]
    fn lone_commit_fast_paths_to_done() {
        let sc = Scenario {
            threads: vec![vec![0]],
            ..scenario()
        };
        let mut state = State::initial(&sc);
        for step in [
            Step::Enqueue,
            Step::Lead,
            Step::WriteNext,
            Step::FsyncRound,
            Step::CompleteSlots,
            Step::Release,
            Step::ObserveAck,
        ] {
            assert!(state.enabled(&sc).contains(&(0, step)), "expected {step:?}");
            state = state.apply(&sc, 0, step);
            assert_eq!(state.check(&sc), None);
        }
        assert!(state.is_terminal());
    }

    #[test]
    fn second_enqueue_sets_the_concurrency_hint() {
        let sc = scenario();
        let state = State::initial(&sc);
        let state = state.apply(&sc, 0, Step::Enqueue);
        assert!(!state.hint);
        let state = state.apply(&sc, 1, Step::Enqueue);
        assert!(
            state.hint,
            "enqueue into an occupied window must set the hint"
        );
        // With two pending members the leader fill-waits instead of
        // fast-pathing.
        let state = state.apply(&sc, 0, Step::Lead);
        assert!(matches!(state.pc[0], Pc::Filling { .. }));
    }

    #[test]
    fn followers_are_blocked_while_a_leader_is_active() {
        let sc = scenario();
        let state = State::initial(&sc)
            .apply(&sc, 0, Step::Enqueue)
            .apply(&sc, 0, Step::Lead)
            .apply(&sc, 1, Step::Enqueue);
        // Thread 1 enqueued while thread 0 leads: it has no enabled step.
        assert_eq!(
            state.enabled(&sc),
            vec![(0, Step::WriteNext)],
            "only the leader may move"
        );
    }
}
