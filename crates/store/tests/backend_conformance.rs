//! The backend conformance suite: one set of behavioural checks run against
//! every shipped [`StorageBackend`] implementation through a shared harness
//! function, so `FsBackend` and `MemBackend` cannot drift apart on the
//! semantics the warehouse engine relies on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_query::Pattern;
use pxml_store::{
    is_injected, CommitPolicy, FaultOp, FaultPlan, FsBackend, FsOptions, MemBackend,
    StorageBackend, StoreError,
};
use pxml_tree::parse_data_tree;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-conformance-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

fn sample_fuzzy() -> FuzzyTree {
    use pxml_event::{Condition, Literal};
    let mut fuzzy = FuzzyTree::new("directory");
    let w = fuzzy.add_event("w", 0.6).unwrap();
    let person = fuzzy.add_element(fuzzy.root(), "person");
    let name = fuzzy.add_element(person, "name");
    fuzzy.add_text(name, "alice");
    let phone = fuzzy.add_element(person, "phone");
    fuzzy.add_text(phone, "+33-1");
    fuzzy
        .set_condition(phone, Condition::from_literal(Literal::pos(w)))
        .unwrap();
    fuzzy
}

fn tagged_update(tag: &str) -> UpdateTransaction {
    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
    let target = pattern.root();
    UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
        target,
        parse_data_tree(&format!("<email>{tag}@example.org</email>")).unwrap(),
    )
}

/// The text of each journaled insert, in replay order.
fn journal_tags(backend: &dyn StorageBackend, name: &str) -> Vec<String> {
    backend
        .read_journal(name)
        .unwrap()
        .iter()
        .map(|u| match &u.operations()[0] {
            pxml_core::UpdateOperation::Insert { subtree, .. } => subtree
                .node_value(subtree.root())
                .unwrap_or_default()
                .to_string(),
            _ => unreachable!("conformance updates are inserts"),
        })
        .collect()
}

/// Runs every conformance check against one backend.
fn conformance_suite(backend: &dyn StorageBackend) {
    // --- empty store ------------------------------------------------------
    assert!(backend.list_documents().unwrap().is_empty());
    assert!(!backend.contains("people"));
    assert!(matches!(
        backend.load_document("people"),
        Err(StoreError::MissingDocument(_))
    ));
    assert!(matches!(
        backend.append_batch("people", &[tagged_update("a")]),
        Err(StoreError::MissingDocument(_))
    ));
    assert!(matches!(
        backend.remove_document("people"),
        Err(StoreError::MissingDocument(_))
    ));
    // An unknown document has an empty journal rather than an error: the
    // engine polls the meters without first checking existence.
    assert_eq!(backend.journal_length("people").unwrap(), 0);
    assert_eq!(backend.journal_batches("people").unwrap(), 0);
    assert_eq!(backend.journal_size_bytes("people").unwrap(), 0);
    assert!(backend.read_batches("people").unwrap().is_empty());

    // --- save / load round trip ------------------------------------------
    let fuzzy = sample_fuzzy();
    backend.save_document("people", &fuzzy).unwrap();
    assert!(backend.contains("people"));
    assert_eq!(backend.list_documents().unwrap(), vec!["people"]);
    let loaded = backend.load_document("people").unwrap();
    assert!(fuzzy.semantically_equivalent(&loaded, 1e-12).unwrap());

    // --- journal append / meters / read-back ------------------------------
    backend
        .append_batch("people", &[tagged_update("b1u1"), tagged_update("b1u2")])
        .unwrap();
    backend
        .append_batch("people", &[tagged_update("b2u1")])
        .unwrap();
    assert_eq!(backend.journal_batches("people").unwrap(), 2);
    assert_eq!(backend.journal_length("people").unwrap(), 3);
    assert!(backend.journal_size_bytes("people").unwrap() > 0);
    let batches = backend.read_batches("people").unwrap();
    assert_eq!(batches.len(), 2);
    assert_eq!(batches[0].len(), 2, "batch boundaries preserved");
    assert_eq!(batches[1].len(), 1);
    // Commit order is replay order.
    assert_eq!(
        journal_tags(backend, "people"),
        vec!["b1u1@example.org", "b1u2@example.org", "b2u1@example.org",]
    );

    // --- recovery = checkpoint + in-order replay --------------------------
    let mut replayed = backend.load_document("people").unwrap();
    for update in backend.read_journal("people").unwrap() {
        update.apply_to_fuzzy(&mut replayed).unwrap();
    }
    let recovered = backend.recover_document("people").unwrap();
    assert!(recovered.semantically_equivalent(&replayed, 1e-9).unwrap());
    assert_eq!(recovered.tree().find_elements("email").len(), 3);
    // The checkpoint itself is untouched by appends.
    assert!(backend
        .load_document("people")
        .unwrap()
        .tree()
        .find_elements("email")
        .is_empty());

    // --- overwriting a checkpoint leaves the journal alone ----------------
    backend.save_document("people", &sample_fuzzy()).unwrap();
    assert_eq!(backend.journal_batches("people").unwrap(), 2);

    // --- checkpoint folds the journal atomically --------------------------
    let folded = backend.recover_document("people").unwrap();
    backend.checkpoint("people", &folded).unwrap();
    assert_eq!(backend.journal_length("people").unwrap(), 0);
    assert_eq!(backend.journal_batches("people").unwrap(), 0);
    assert_eq!(backend.journal_size_bytes("people").unwrap(), 0);
    assert!(backend.read_batches("people").unwrap().is_empty());
    assert_eq!(
        backend
            .load_document("people")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        3
    );
    // Appends keep working after a fold and replay on the new base.
    backend
        .append_batch("people", &[tagged_update("post")])
        .unwrap();
    assert_eq!(backend.journal_batches("people").unwrap(), 1);
    assert_eq!(
        backend
            .recover_document("people")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        4
    );

    // --- multiple documents stay independent ------------------------------
    backend
        .save_document("other", &FuzzyTree::new("lib"))
        .unwrap();
    backend
        .append_batch("other", &[tagged_update("o")])
        .unwrap();
    assert_eq!(backend.list_documents().unwrap(), vec!["other", "people"]);
    assert_eq!(backend.journal_batches("people").unwrap(), 1);
    assert_eq!(backend.journal_batches("other").unwrap(), 1);

    // --- removal deletes checkpoint and journal ---------------------------
    backend.remove_document("people").unwrap();
    assert!(!backend.contains("people"));
    assert_eq!(backend.list_documents().unwrap(), vec!["other"]);
    assert_eq!(backend.journal_length("people").unwrap(), 0);
    // A same-named re-created document starts clean.
    backend.save_document("people", &sample_fuzzy()).unwrap();
    assert!(backend.read_batches("people").unwrap().is_empty());
    assert_eq!(
        backend
            .recover_document("people")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        0
    );
}

/// Concurrent same-document appends must serialize (none lost), and
/// distinct-document appends must not interleave — exercised through the
/// `Arc<dyn StorageBackend>` the engine actually uses. Appends go through
/// the ticketed `append_batch_enqueue(..).wait()`, the engine's commit entry
/// point: on ungrouped backends the ticket comes back resolved, on a grouped
/// backend it pushes the same guarantees through shared fsync windows.
fn concurrent_conformance(backend: Arc<dyn StorageBackend>) {
    backend.save_document("shared", &sample_fuzzy()).unwrap();
    let threads = 4;
    let per_thread = 5;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let backend = backend.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                barrier.wait();
                for k in 0..per_thread {
                    backend
                        .append_batch_enqueue("shared", &[tagged_update(&format!("t{t}k{k}"))])
                        .wait()
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(
        backend.journal_batches("shared").unwrap(),
        threads * per_thread
    );
    assert_eq!(
        backend.read_batches("shared").unwrap().len(),
        threads * per_thread
    );
}

#[test]
fn fs_backend_conforms() {
    let dir = scratch("fs");
    conformance_suite(&FsBackend::open(&dir).unwrap());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn mem_backend_conforms() {
    conformance_suite(&MemBackend::new());
}

#[test]
fn fs_backend_conforms_concurrently() {
    let dir = scratch("fs-concurrent");
    concurrent_conformance(Arc::new(FsBackend::open(&dir).unwrap()));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn mem_backend_conforms_concurrently() {
    concurrent_conformance(Arc::new(MemBackend::new()));
}

/// The multi-segment configuration must pass the same suite: rolling the
/// active segment is invisible at the trait level.
#[test]
fn fs_backend_conforms_with_tiny_segments() {
    let dir = scratch("fs-tiny-segments");
    let options = FsOptions {
        segment_roll_bytes: 64,
        ..FsOptions::default()
    };
    conformance_suite(&FsBackend::with_options(&dir, options).unwrap());
    std::fs::remove_dir_all(dir).unwrap();
}

/// A group-commit `FsBackend` with a short fill wait: lone committers lead
/// their own windows, so the whole backend is invisible at the trait level.
fn grouped_backend(dir: &std::path::Path) -> FsBackend {
    FsBackend::with_options(
        dir,
        FsOptions {
            commit: CommitPolicy::Grouped {
                window_max_batches: 4,
                window_max_wait: std::time::Duration::from_millis(5),
            },
            ..FsOptions::default()
        },
    )
    .unwrap()
}

/// The group-commit configuration must pass the same suite — including the
/// checkpoint and removal steps, which barrier any open window before
/// touching the document.
#[test]
fn fs_backend_conforms_grouped() {
    let dir = scratch("fs-grouped");
    conformance_suite(&grouped_backend(&dir));
    std::fs::remove_dir_all(dir).unwrap();
}

/// Concurrent appends through shared fsync windows: same serialization,
/// none lost, batch boundaries intact.
#[test]
fn fs_backend_conforms_concurrently_grouped() {
    let dir = scratch("fs-grouped-concurrent");
    concurrent_conformance(Arc::new(grouped_backend(&dir)));
    std::fs::remove_dir_all(dir).unwrap();
}

/// A blocking append issued while an earlier ticket of the same document is
/// still unresolved must queue up behind it: the journal — and therefore
/// replay — holds the batches in call order. (A blocking append that wrote
/// around the commit window would land first and reorder them.)
#[test]
fn blocking_append_queues_behind_an_unresolved_ticket() {
    let dir = scratch("fs-grouped-enqueue-then-append");
    let backend = grouped_backend(&dir);
    backend.save_document("doc", &sample_fuzzy()).unwrap();
    let ticket = backend.append_batch_enqueue("doc", &[tagged_update("first")]);
    backend
        .append_batch("doc", &[tagged_update("second")])
        .unwrap();
    ticket.wait().unwrap();
    assert_eq!(
        journal_tags(&backend, "doc"),
        vec!["first@example.org", "second@example.org"]
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// A sync-policy `FsBackend` with `plan` installed through
/// [`FsOptions::fault`] — the one door faults enter by.
fn fs_backend_with_plan(dir: &std::path::Path, plan: &Arc<FaultPlan>) -> FsBackend {
    FsBackend::with_options(
        dir,
        FsOptions {
            fault: Some(plan.clone()),
            ..FsOptions::default()
        },
    )
    .unwrap()
}

/// An installed fault plan that schedules nothing must be invisible: the
/// full suite runs unchanged, the plan counts every append and fsync round
/// the backend ran past it, and no fault is ever injected.
#[test]
fn fs_backend_with_empty_fault_plan_conforms() {
    let dir = scratch("fault-plan-empty-fs");
    let plan = Arc::new(FaultPlan::new());
    conformance_suite(&fs_backend_with_plan(&dir, &plan));
    assert_eq!(plan.injected_faults(), 0);
    assert!(plan.ops(FaultOp::Append) > 0, "appends must be counted");
    assert!(plan.ops(FaultOp::Fsync) > 0, "fsync rounds must be counted");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn fs_backend_with_empty_fault_plan_conforms_concurrently() {
    let dir = scratch("fault-plan-empty-fs-concurrent");
    let plan = Arc::new(FaultPlan::new());
    concurrent_conformance(Arc::new(fs_backend_with_plan(&dir, &plan)));
    assert_eq!(plan.injected_faults(), 0);
    assert_eq!(plan.ops(FaultOp::Append), 20, "one consult per append");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A planned fsync failure on `FsBackend` (plan installed through
/// [`FsOptions::fault`], the one fault door): the poisoned append surfaces
/// a typed injected error, the unsynced record is rolled back so the
/// journal holds exactly the acknowledged prefix, and the backend keeps
/// working once the one-shot fault has fired.
#[test]
fn injected_fsync_failure_rolls_back_the_append_over_fs() {
    let dir = scratch("fault-fsync-fs");
    let plan = Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 1));
    let backend = fs_backend_with_plan(&dir, &plan);

    // `save_document` syncs outside the fsync-round path, so the first
    // append is fsync #1 — the planned failure.
    backend.save_document("people", &sample_fuzzy()).unwrap();
    let error = backend
        .append_batch("people", &[tagged_update("lost")])
        .unwrap_err();
    assert!(is_injected(&error), "unexpected error: {error}");
    assert_eq!(plan.injected_faults(), 1);

    // The non-durable record was rolled back: replay sees nothing.
    assert_eq!(backend.journal_batches("people").unwrap(), 0);
    assert!(backend.read_journal("people").unwrap().is_empty());

    // The fault was one-shot; the next append is durable and the journal
    // holds exactly the acknowledged commit.
    backend
        .append_batch("people", &[tagged_update("kept")])
        .unwrap();
    assert_eq!(backend.journal_batches("people").unwrap(), 1);
    assert_eq!(
        backend
            .recover_document("people")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        1
    );
    std::fs::remove_dir_all(dir).unwrap();
}
