//! Mini-loom explorer suite: every scenario of the real group committer
//! must uphold the durability/ordering invariants in every schedule within
//! the preemption bound, and the explorer must catch the concurrency bugs
//! of small test-local programs built on the lock shim — and pass their
//! fixed twins.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, LockClass, Mutex};
use pxml_check::loom::{explore, explore_all, scenarios, ExploreStats, Program, PREEMPTION_BOUND};

/// The battery, explored once for every test of this binary that reads it.
fn battery() -> &'static [(&'static str, ExploreStats)] {
    static BATTERY: OnceLock<Vec<(&'static str, ExploreStats)>> = OnceLock::new();
    BATTERY.get_or_init(|| explore_all(&scenarios()))
}

fn stats(name: &str) -> &'static ExploreStats {
    let (_, stats) = battery()
        .iter()
        .find(|(scenario, _)| *scenario == name)
        .unwrap_or_else(|| panic!("no scenario {name}"));
    stats
}

#[test]
fn every_scenario_upholds_the_invariants_in_every_schedule() {
    const { assert!(PREEMPTION_BOUND >= 2) };
    assert_eq!(battery().len(), 8);
    for (name, stats) in battery() {
        assert!(
            stats.violations.is_empty(),
            "[{name}] {} violation(s), first: {}",
            stats.violations.len(),
            stats.violations[0]
        );
        // Something was explored: two threads interleave in many ways.
        assert!(stats.schedules > 1, "[{name}] a single schedule");
    }
}

#[test]
fn two_thread_same_doc_coverage_is_exhaustive() {
    // 2 threads x 2 commits on one doc: the canonical contention scenario.
    // The numbers are regression-pinned so an explorer or scheduler change
    // that silently shrinks coverage fails loudly.
    let stats = stats("2t-1doc-w2");
    assert_eq!(stats.schedules, 512);
    assert_eq!(stats.points, 16_068);
    assert!(stats.timeouts > 0, "the fill-wait never offered a timeout");
}

#[test]
fn a_window_of_one_never_offers_a_timeout() {
    // A window of one batch is full as soon as its leader holds it: the
    // fill-wait never starts, so no schedule can time one out. A window of
    // two does wait, and timing the wait out is a choice the explorer takes.
    assert_eq!(stats("2t-1doc-w1").timeouts, 0);
    assert!(stats("2t-1doc-w2").timeouts > 0);
}

#[test]
fn failing_fsync_scenarios_are_explored_and_uphold_durability() {
    // The failure scenarios are part of the battery, so the first test has
    // already proven no schedule acks a non-durable record across the
    // failure; here we pin that the fault actually fires — a battery where
    // the injected round is never reached would prove nothing.
    let failing: Vec<_> = scenarios()
        .into_iter()
        .filter(|scenario| scenario.fsync_fails_at.is_some())
        .collect();
    assert!(failing.len() >= 2, "failure scenarios missing from battery");
    for scenario in failing {
        let stats = stats(scenario.name);
        assert!(
            stats.faults >= 1,
            "[{}] the fault never fired",
            scenario.name
        );
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }
}

/// A two-thread program: `waiter` and `notifier` share a mutex, a condvar
/// and a flag, and `finish` checks the end state.
fn program(
    waiter: fn(&Shared),
    notifier: fn(&Shared),
    finish: fn(&Shared) -> Result<(), String>,
) -> Program {
    let shared = Arc::new(Shared {
        flag: AtomicBool::new(false),
        ready: Mutex::with_class(LockClass::TestA, false),
        wakeup: Condvar::new(),
        counter: Mutex::with_class(LockClass::TestB, 0),
    });
    let (first, second, last) = (shared.clone(), shared.clone(), shared);
    Program {
        threads: vec![
            Box::new(move || waiter(&first)),
            Box::new(move || notifier(&second)),
        ],
        check: Box::new(|| Ok(())),
        finish: Box::new(move || finish(&last)),
    }
}

struct Shared {
    flag: AtomicBool,
    ready: Mutex<bool>,
    wakeup: Condvar,
    counter: Mutex<u32>,
}

fn nothing_to_check(_: &Shared) -> Result<(), String> {
    Ok(())
}

/// The lost wakeup: the waiter checks the flag outside the mutex, so the
/// notifier can set it and notify between the check and the wait.
fn racy_waiter(shared: &Shared) {
    if !shared.flag.load(Ordering::Acquire) {
        let mut ready = shared.ready.lock();
        shared.wakeup.wait(&mut ready);
    }
}

fn racy_notifier(shared: &Shared) {
    shared.flag.store(true, Ordering::Release);
    let _ready = shared.ready.lock();
    shared.wakeup.notify_all();
}

/// The fix: the flag lives under the mutex and is re-checked in a loop.
fn fixed_waiter(shared: &Shared) {
    let mut ready = shared.ready.lock();
    while !*ready {
        shared.wakeup.wait(&mut ready);
    }
}

fn fixed_notifier(shared: &Shared) {
    *shared.ready.lock() = true;
    shared.wakeup.notify_all();
}

/// Check-then-act: the read and the write of the increment are two
/// critical sections where one should be.
fn racy_increment(shared: &Shared) {
    let seen = *shared.counter.lock();
    *shared.counter.lock() = seen + 1;
}

fn fixed_increment(shared: &Shared) {
    *shared.counter.lock() += 1;
}

fn both_increments_landed(shared: &Shared) -> Result<(), String> {
    match *shared.counter.lock() {
        2 => Ok(()),
        count => Err(format!("lost update: the counter ends at {count}, not 2")),
    }
}

#[test]
fn lost_wakeup_is_reported_as_a_deadlock_with_its_schedule() {
    let stats = explore("lost-wakeup", 2, || {
        program(racy_waiter, racy_notifier, nothing_to_check)
    });
    assert!(
        !stats.violations.is_empty(),
        "the lost wakeup went unnoticed"
    );
    let violation = &stats.violations[0];
    assert!(
        violation.contains("deadlock: thread 0 waits on a condvar"),
        "{violation}"
    );
    assert!(violation.contains("(schedule: 0"), "{violation}");
}

#[test]
fn check_then_act_trips_its_assertion_in_some_schedule() {
    let stats = explore("check-then-act", 2, || {
        program(racy_increment, racy_increment, both_increments_landed)
    });
    assert!(
        !stats.violations.is_empty(),
        "the lost update went unnoticed"
    );
    assert!(
        stats.violations[0].contains("lost update: the counter ends at 1"),
        "{}",
        stats.violations[0]
    );
    assert!(stats.violations[0].contains("(schedule: 0"));
}

#[test]
fn fixed_wakeup_explores_clean() {
    let stats = explore("fixed-wakeup", 2, || {
        program(fixed_waiter, fixed_notifier, nothing_to_check)
    });
    assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    assert!(stats.schedules > 1);
}

#[test]
fn fixed_increment_explores_clean() {
    let stats = explore("fixed-increment", 2, || {
        program(fixed_increment, fixed_increment, both_increments_landed)
    });
    assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    assert!(stats.schedules > 1);
}

#[test]
fn repo_sources_lint_clean() {
    // The linter gates CI; this test keeps `cargo test` and the lint binary
    // in agreement about the state of the tree.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = pxml_check::lint::lint_root(&root).expect("workspace sources readable");
    assert!(
        findings.is_empty(),
        "repo invariant lint findings:\n{}",
        findings
            .iter()
            .map(|finding| finding.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_catches_a_seeded_violation() {
    // End-to-end: a source tree that silently bypasses the shim must fail.
    let findings = pxml_check::lint::lint_source(
        "crates/seeded/src/lib.rs",
        "use std::sync::Mutex;\nfn f() {\n    let g = m.lock();\n    thing().unwrap();\n}\n",
    );
    let rules: Vec<&str> = findings.iter().map(|finding| finding.rule).collect();
    assert_eq!(rules, vec!["std-sync-lock", "guard-unwrap"]);
}
