//! Lockdep witness self-tests: prove the `shims/parking_lot` lock-order
//! witness actually catches the bug classes it exists for.
//!
//! The witness is feature-gated (`--features lock-witness`), so these tests
//! detect instrumentation at runtime via [`parking_lot::witness::enabled`]:
//! under a plain build they skip-pass (the deliberate inversions below would
//! otherwise be real hangs waiting to happen), and under a witness build —
//! which the workspace-root `lock-witness` feature reaches through feature
//! unification — they demand a panic naming both involved lock classes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use parking_lot::{witness, LockClass, Mutex, RwLock};

/// The panic payload's message, whatever form the panic took.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => String::from("<non-string panic payload>"),
        },
    }
}

/// True (and logs) when the witness is compiled out and the test should
/// skip-pass.
fn uninstrumented(test: &str) -> bool {
    if witness::enabled() {
        return false;
    }
    eprintln!("{test}: skipped (build without --features lock-witness)");
    true
}

#[test]
fn abba_inversion_panics_with_both_class_labels() {
    if uninstrumented("abba_inversion_panics_with_both_class_labels") {
        return;
    }
    let a = Mutex::with_class(LockClass::TestA, 0u32);
    let b = Mutex::with_class(LockClass::TestB, 0u32);
    {
        // Record the test-a -> test-b acquisition order.
        let _held_a = a.lock();
        let _held_b = b.lock();
    }
    // The reverse order must now panic *before blocking* — on a real pair of
    // threads this is the classic ABBA deadlock.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _held_b = b.lock();
        let _held_a = a.lock();
    }));
    let message = panic_message(result.expect_err("ABBA inversion must panic"));
    assert!(
        message.contains("test-a") && message.contains("test-b"),
        "panic must name both lock classes: {message}"
    );
    assert!(
        message.contains("cycle"),
        "panic must explain the cycle: {message}"
    );
}

#[test]
fn declared_order_inversion_panics_with_both_class_labels() {
    if uninstrumented("declared_order_inversion_panics_with_both_class_labels") {
        return;
    }
    // The declared engine order is shard -> doc-entry -> …; acquiring a
    // shard map while holding a document entry inverts it.
    let entry = RwLock::with_class(LockClass::DocEntry, ());
    let shard = RwLock::with_class(LockClass::Shard, ());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _held_entry = entry.write();
        let _held_shard = shard.read();
    }));
    let message = panic_message(result.expect_err("order inversion must panic"));
    assert!(
        message.contains("acquiring `shard` while holding `doc-entry`"),
        "panic must name the inverted pair: {message}"
    );
    assert!(
        message.contains("declared order"),
        "panic must cite the declared order: {message}"
    );
}

#[test]
fn same_class_nesting_panics() {
    if uninstrumented("same_class_nesting_panics") {
        return;
    }
    // Two distinct locks of one unranked class: nesting them admits an ABBA
    // between two threads taking them in opposite orders, so the witness
    // treats it as a self-cycle.
    let first = Mutex::with_class(LockClass::TestC, ());
    let second = Mutex::with_class(LockClass::TestC, ());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _held_first = first.lock();
        let _held_second = second.lock();
    }));
    let message = panic_message(result.expect_err("same-class nesting must panic"));
    assert!(
        message.contains("test-c"),
        "panic must name the class: {message}"
    );
}

#[test]
fn real_grouped_commit_path_is_clean_under_the_witness() {
    // Runs in both modes; under `--features lock-witness` it asserts the
    // real engine's journal/device/committer lock order matches the
    // declaration (any inversion panics and fails the test).
    use pxml_core::{FuzzyTree, UpdateTransaction};
    use pxml_query::Pattern;
    use pxml_store::{CommitPolicy, FsBackend, FsOptions, StorageBackend};
    use pxml_tree::parse_data_tree;

    let dir = std::env::temp_dir().join(format!("pxml-lockdep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = FsBackend::with_options(
        &dir,
        FsOptions {
            commit: CommitPolicy::Grouped {
                window_max_batches: 4,
                window_max_wait: Duration::from_millis(5),
            },
            ..FsOptions::default()
        },
    )
    .expect("open scratch store");

    let mut fuzzy = FuzzyTree::new("directory");
    let person = fuzzy.add_element(fuzzy.root(), "person");
    let name = fuzzy.add_element(person, "name");
    fuzzy.add_text(name, "alice");
    for doc in ["left", "right"] {
        backend.save_document(doc, &fuzzy).expect("seed document");
    }

    std::thread::scope(|scope| {
        for doc in ["left", "right"] {
            scope.spawn(|| {
                for round in 0..4 {
                    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
                    let target = pattern.root();
                    let update = UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
                        target,
                        parse_data_tree(&format!("<email>r{round}@example.org</email>")).unwrap(),
                    );
                    backend.append_batch(doc, &[update]).expect("append");
                }
            });
        }
    });

    for doc in ["left", "right"] {
        backend.load_document(doc).expect("reload");
    }
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
    if witness::enabled() {
        eprintln!("real commit path exercised under the lock-order witness: clean");
    }
}
