//! Deterministic fault injection for the storage layer.
//!
//! A [`FaultPlan`] installed through [`FsOptions::fault`](crate::FsOptions)
//! is consulted by [`FsBackend`](crate::FsBackend) at its three durability
//! steps — the journal-append entry point, the fsync funnel every append
//! path ends in, and the checkpoint write every save and fold ends in. That
//! is the only door faults enter by: there is no wrapper backend, so one plan
//! on one backend covers the whole stack above it.
//!
//! Everything is deterministic: "fail the Nth append" faults are exact
//! per-operation counters, and rate-based faults draw from a seeded
//! SplitMix64 stream, so a failing chaos run reproduces from its seed alone.
//!
//! # Fault semantics
//!
//! * [`FaultKind::Error`] fires **before** the operation runs: nothing is
//!   written (an append, a checkpoint — the old checkpoint and the whole
//!   journal stay) or flushed (an fsync round — the backend rolls the
//!   unsynced records back), and the caller gets a typed [`StoreError::Io`]
//!   whose message carries the [`INJECTED_FAULT`] marker.
//! * [`FaultKind::TornWrite`] (appends only; at the other two doors it is
//!   an [`FaultKind::Error`]) lets the record land and then shears trailing
//!   bytes off its segment file — the on-disk shape of a crash mid-record.
//!   The error is reported to the caller and the document
//!   **must be reopened** before further appends: the in-memory meters are
//!   deliberately left stale, exactly like a real torn write, and only a
//!   rescan (`reopen_document`) truncates the torn tail away.
//! * [`FaultKind::Latency`] sleeps, then lets the operation through — the
//!   slow-disk half of the chaos battery, whose random plans schedule a few
//!   such spikes on fsync rounds and checkpoint writes beside their errors.
//!
//! `reopen_document` consults no plan: a quarantined document can always be
//! reopened, even under an aggressive schedule.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::error::StoreError;

/// Marker every injected error message starts with; [`is_injected`] keys on
/// it so tests can tell planned faults from real I/O trouble.
pub const INJECTED_FAULT: &str = "injected fault";

/// `true` when `error` is an I/O error manufactured by a [`FaultPlan`].
pub fn is_injected(error: &StoreError) -> bool {
    matches!(error, StoreError::Io(io) if io.to_string().contains(INJECTED_FAULT))
}

/// The storage operations a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A journal append, consulted once at the backend's append entry point.
    Append,
    /// A device fsync round, consulted by the backend's fsync funnel.
    Fsync,
    /// A checkpoint write, consulted once where every save, fold and
    /// `simplify` stages its new checkpoint.
    Checkpoint,
}

impl FaultOp {
    const ALL: usize = 3;

    fn index(self) -> usize {
        match self {
            FaultOp::Append => 0,
            FaultOp::Fsync => 1,
            FaultOp::Checkpoint => 2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultOp::Append => "append",
            FaultOp::Fsync => "fsync",
            FaultOp::Checkpoint => "checkpoint",
        }
    }
}

/// What an injected fault does to its operation (see the module docs for
/// the exact semantics of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with a typed I/O error before the operation runs.
    Error,
    /// Let an append land, then shear bytes off its segment file — the
    /// on-disk shape of a crash mid-record. Appends only: on an fsync round
    /// or a checkpoint it degrades to [`FaultKind::Error`].
    TornWrite,
    /// Sleep this long, then let the operation through.
    Latency(Duration),
}

/// One scheduled deterministic fault: the `nth` (1-based) operation of `op`
/// observed by the plan.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    op: FaultOp,
    nth: usize,
    kind: FaultKind,
}

/// A seeded, shareable fault schedule (see the module docs).
///
/// Built with the `fail_nth` / `fail_rate` builders *before* wrapping in an
/// `Arc`; afterwards the plan is immutable apart from its lock-free counters
/// and RNG stream, so it can be consulted from any thread without ordering
/// constraints.
pub struct FaultPlan {
    seed: u64,
    scheduled: Vec<Scheduled>,
    /// Probability that each operation of this kind fails ([`FaultKind::Error`]).
    rates: [f64; FaultOp::ALL],
    /// Operations observed, per kind.
    counters: [AtomicUsize; FaultOp::ALL],
    /// Faults actually injected (errors and torn writes; latency excluded).
    injected: AtomicUsize,
    /// SplitMix64 stream for the rate decisions: `fetch_add` of the golden
    /// gamma advances the stream atomically, the mix is pure — no lock.
    rng: AtomicU64,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("scheduled", &self.scheduled.len())
            .field("rates", &self.rates)
            .field("injected", &self.injected_faults())
            .finish_non_exhaustive()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan: every operation passes through untouched.
    pub fn new() -> Self {
        FaultPlan::seeded(0)
    }

    /// An empty plan whose rate decisions draw from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            scheduled: Vec::new(),
            rates: [0.0; FaultOp::ALL],
            counters: Default::default(),
            injected: AtomicUsize::new(0),
            rng: AtomicU64::new(seed),
        }
    }

    /// Schedules the `nth` (1-based) `op` to fail with a typed I/O error.
    pub fn fail_nth(self, op: FaultOp, nth: usize) -> Self {
        self.fail_nth_with(op, nth, FaultKind::Error)
    }

    /// Schedules the `nth` (1-based) `op` to fail with `kind`.
    pub fn fail_nth_with(mut self, op: FaultOp, nth: usize, kind: FaultKind) -> Self {
        assert!(nth >= 1, "fault schedules are 1-based");
        self.scheduled.push(Scheduled { op, nth, kind });
        self
    }

    /// Every `op` fails independently with probability `rate`, decided by
    /// the seeded stream.
    pub fn fail_rate(mut self, op: FaultOp, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.rates[op.index()] = rate;
        self
    }

    /// The seed the rate decisions draw from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many operations of this kind the plan has observed.
    pub fn ops(&self, op: FaultOp) -> usize {
        self.counters[op.index()].load(Ordering::Relaxed)
    }

    /// How many faults (errors and torn writes) the plan has injected.
    pub fn injected_faults(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// One SplitMix64 step: the atomic add is the whole state transition,
    /// so concurrent callers draw distinct values from one stream.
    fn next_f64(&self) -> f64 {
        let state = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// Counts one `op`, sleeps out a scheduled latency spike, and returns
    /// the fault to inject, if any. The crate's injection points call this
    /// exactly once per operation.
    pub(crate) fn decide(&self, op: FaultOp) -> Option<(FaultKind, StoreError)> {
        let count = self.counters[op.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let kind = self
            .scheduled
            .iter()
            .find(|fault| fault.op == op && fault.nth == count)
            .map(|fault| fault.kind)
            .or_else(|| {
                let rate = self.rates[op.index()];
                (rate > 0.0 && self.next_f64() < rate).then_some(FaultKind::Error)
            })?;
        if let FaultKind::Latency(sleep) = kind {
            std::thread::sleep(sleep);
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        let error = StoreError::Io(std::io::Error::other(format!(
            "{INJECTED_FAULT}: {} #{count}",
            op.label()
        )));
        Some((kind, error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_decides_nothing_but_counts() {
        let plan = FaultPlan::new();
        for _ in 0..5 {
            assert!(plan.decide(FaultOp::Append).is_none());
        }
        assert_eq!(plan.ops(FaultOp::Append), 5);
        assert_eq!(plan.ops(FaultOp::Fsync), 0);
        assert_eq!(plan.injected_faults(), 0);
    }

    #[test]
    fn nth_fault_fires_exactly_once() {
        let plan = FaultPlan::new().fail_nth(FaultOp::Fsync, 3);
        assert!(plan.decide(FaultOp::Fsync).is_none());
        assert!(plan.decide(FaultOp::Fsync).is_none());
        let (kind, error) = plan.decide(FaultOp::Fsync).expect("third fsync fails");
        assert_eq!(kind, FaultKind::Error);
        assert!(is_injected(&error));
        assert!(plan.decide(FaultOp::Fsync).is_none());
        assert_eq!(plan.injected_faults(), 1);
    }

    #[test]
    fn rate_faults_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).fail_rate(FaultOp::Append, 0.3);
            (0..64)
                .map(|_| plan.decide(FaultOp::Append).is_some())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let hits = run(7).iter().filter(|hit| **hit).count();
        assert!((5..25).contains(&hits), "rate 0.3 over 64 ops hit {hits}");
    }
}
