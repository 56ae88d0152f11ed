//! The configuration a warehouse is opened under: [`SessionConfig`] and the
//! [`CompactionPolicy`] it carries.
//!
//! Every warehouse simplifies inline at commit, so a published document is
//! always at its simplification fixpoint; what a configuration chooses is
//! when the journal folds into a checkpoint and how commits become durable.
//! The tests below drive the engine under the *default* configuration —
//! compaction every 64 batches, per-commit fsyncs — which is what
//! [`Warehouse::with_config`] callers get when they pass
//! `SessionConfig::default()`; `warehouse.rs`'s own tests switch compaction
//! off to see exactly what they journaled.
//!
//! ```no_run
//! use pxml_warehouse::{CommitPolicy, CompactionPolicy, SessionConfig, Warehouse};
//!
//! // Fold the journal every 16 batches, and share fsyncs between documents.
//! let config = SessionConfig {
//!     compaction: CompactionPolicy::EveryNBatches(16),
//!     commit: CommitPolicy::Grouped {
//!         window_max_batches: 8,
//!         window_max_wait: std::time::Duration::from_millis(5),
//!     },
//! };
//! let warehouse = Warehouse::with_config("/tmp/pxml-wh", config).unwrap();
//! assert!(warehouse.document_names().is_empty());
//! // The backend's fsync and window counters ride along in the stats.
//! assert_eq!(warehouse.stats().durability.grouped_windows, 0);
//! ```
//!
//! [`Warehouse::with_config`]: crate::Warehouse::with_config

use pxml_store::CommitPolicy;

/// When the commit pipeline folds a document's journal into a fresh
/// checkpoint (a **compaction**: the checkpoint write and the journal
/// truncation are one crash-safe step of the storage backend).
///
/// Compaction trades a periodic O(document) checkpoint write for bounded
/// journal replay at recovery; between compactions every commit stays
/// O(batch) in the segment journal. The policy is tested *after* the batch
/// is durable and published, against the batches journaled since the
/// document's last rotation — a count the warehouse keeps under the
/// document's commit mutex, not a store meter. A compaction failure neither
/// loses the commit nor fails it: the journal keeps every batch, the
/// failure is counted in [`WarehouseStats::folds_failed`], the next due
/// point, N batches after the failed fold's rotation, tries the fold again,
/// and [`Warehouse::checkpoint`] reports why it fails. A fold that keeps
/// failing therefore adds one journal epoch per N batches, not one per
/// commit.
///
/// [`WarehouseStats::folds_failed`]: crate::WarehouseStats::folds_failed
/// [`Warehouse::checkpoint`]: crate::Warehouse::checkpoint
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// Never compact; the journal grows until an explicit
    /// [`Warehouse::checkpoint`](crate::Warehouse::checkpoint).
    Never,
    /// Compact once this many batches were journaled since the last
    /// rotation (a cold open counts the batches it replayed).
    EveryNBatches(usize),
}

impl CompactionPolicy {
    /// Whether this many batches journaled since the last rotation are due
    /// for compaction.
    pub fn is_due(&self, batches: usize) -> bool {
        match self {
            CompactionPolicy::Never => false,
            CompactionPolicy::EveryNBatches(n) => *n > 0 && batches >= *n,
        }
    }
}

/// The configuration a [`Warehouse`](crate::Warehouse) is opened under: its
/// maintenance policies and how its commits become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// When the commit pipeline folds the journal into a fresh checkpoint;
    /// defaults to [`CompactionPolicy::EveryNBatches`]`(64)`.
    pub compaction: CompactionPolicy,
    /// How the storage backend turns acknowledged commits into durable
    /// ones: per-commit fsyncs ([`CommitPolicy::Sync`], the default) or
    /// cross-document group commit ([`CommitPolicy::Grouped`]). Honoured by
    /// [`Warehouse::with_config`]'s file-system backend; a warehouse opened
    /// over an explicit backend ([`Warehouse::with_backend`]) keeps that
    /// backend's own configuration.
    ///
    /// [`Warehouse::with_config`]: crate::Warehouse::with_config
    /// [`Warehouse::with_backend`]: crate::Warehouse::with_backend
    pub commit: CommitPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            compaction: CompactionPolicy::EveryNBatches(64),
            commit: CommitPolicy::Sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::{Warehouse, WarehouseError};
    use pxml_core::UpdateTransaction;
    use pxml_query::Pattern;
    use pxml_tree::{parse_data_tree, Tree};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn scratch(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pxml-session-test-{}-{}-{}",
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

    fn add_fact(name: &str, field: &str, value: &str, confidence: f64) -> UpdateTransaction {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
        let person = pattern.root();
        let mut subtree = Tree::new(field);
        subtree.add_text(subtree.root(), value);
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_insert(person, subtree)
    }

    #[test]
    fn session_create_stage_commit_query() {
        let dir = scratch("cycle");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        assert_eq!(warehouse.document_names(), vec!["people"]);

        let receipt = warehouse
            .commit_batch(
                "people",
                &[
                    add_fact("alice", "phone", "+33-1", 0.8),
                    add_fact("bob", "phone", "+33-2", 0.6),
                ],
                None,
            )
            .unwrap();
        assert_eq!(receipt.len(), 2);
        let matches: usize = receipt.updates.iter().map(|u| u.applied_matches).sum();
        assert_eq!(matches, 2);

        let phones = Pattern::parse("person { phone }").unwrap();
        let result = warehouse.query("people", &phones).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(warehouse.stats().updates_applied, 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `Warehouse::snapshot` hands out the published snapshot without copying
    /// it, and the pin stays frozen while later commits publish successors.
    #[test]
    fn pinned_snapshot_survives_later_commits() {
        let dir = scratch("pin");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let pinned = warehouse.snapshot("people").unwrap();

        warehouse
            .commit_batch("people", &[add_fact("alice", "phone", "+33-1", 0.8)], None)
            .unwrap();

        assert!(pinned.fuzzy().tree().find_elements("phone").is_empty());
        let current = warehouse.snapshot("people").unwrap();
        assert!(current.seq() > pinned.seq());
        assert_eq!(current.fuzzy().tree().find_elements("phone").len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn batch_commit_is_one_journal_entry_and_recovers() {
        let dir = scratch("durability");
        {
            let warehouse = Warehouse::with_config(
                &dir,
                SessionConfig {
                    compaction: CompactionPolicy::Never,
                    ..SessionConfig::default()
                },
            )
            .unwrap();
            warehouse.create_document("people", directory()).unwrap();
            warehouse
                .commit_batch(
                    "people",
                    &[
                        add_fact("alice", "phone", "+33-1", 0.8),
                        add_fact("alice", "email", "a@example.org", 0.7),
                    ],
                    None,
                )
                .unwrap();
            // Dropped without a checkpoint: state only lives in the journal.
        }
        let reopened = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        for field in ["phone", "email"] {
            let pattern = Pattern::parse(&format!("person {{ {field} }}")).unwrap();
            assert_eq!(reopened.query("people", &pattern).unwrap().len(), 1);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn journal_failure_rolls_back_the_in_memory_document() {
        let dir = scratch("journal-failure");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let before = warehouse.document("people").unwrap();
        // Sabotage durability: remove the storage directory so the journal
        // append cannot happen.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = warehouse
            .commit_batch("people", &[add_fact("alice", "phone", "+33-1", 0.8)], None)
            .unwrap_err();
        assert!(matches!(err, WarehouseError::Store(_)));
        // The in-memory document was rolled back.
        let after = warehouse.document("people").unwrap();
        assert!(after.semantically_equivalent(&before, 1e-9).unwrap());
        assert_eq!(warehouse.stats().updates_applied, 0);
    }

    #[test]
    fn empty_txn_commits_nothing() {
        let dir = scratch("empty");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        let receipt = warehouse.commit_batch("people", &[], None).unwrap();
        assert!(receipt.is_empty());
        assert_eq!(warehouse.stats().updates_applied, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn inline_policy_simplifies_deletion_output_at_commit() {
        let dir = scratch("inline-simplify");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        warehouse
            .commit_batch("people", &[add_fact("alice", "phone", "+33-1", 0.8)], None)
            .unwrap();
        // Retract the phone: deletion duplicates, the inline policy cleans.
        let pattern = Pattern::parse("person { name[=\"alice\"], phone }").unwrap();
        let phone = pattern.node_ids().nth(2).unwrap();
        let retract = UpdateTransaction::new(pattern, 0.5)
            .unwrap()
            .with_delete(phone);
        let receipt = warehouse.commit_batch("people", &[retract], None).unwrap();
        assert!(receipt.updates[0].simplify.is_some());
        assert!(warehouse
            .snapshot("people")
            .unwrap()
            .fuzzy()
            .validate()
            .is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A document's name is its only handle: scoped threads borrow the one
    /// `&Warehouse` and commit and query through it at once.
    #[test]
    fn document_handles_are_shareable_across_threads() {
        let dir = scratch("threads");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let warehouse = &warehouse;
                    scope.spawn(move || {
                        let who = if i % 2 == 0 { "alice" } else { "bob" };
                        warehouse
                            .commit_batch("people", &[add_fact(who, "phone", "+33-9", 0.7)], None)
                            .unwrap();
                        let phones = Pattern::parse("person { phone }").unwrap();
                        warehouse.query("people", &phones).unwrap().len()
                    })
                })
                .collect();
            for handle in handles {
                assert!(handle.join().unwrap() >= 1);
            }
        });
        assert_eq!(warehouse.stats().updates_applied, 4);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A warehouse over the in-memory backend runs the full pipeline —
    /// create, batch commit, query, the journal — and a second warehouse
    /// over the *same* backend recovers the documents from checkpoint +
    /// journal replay, exactly like a file-system reopen.
    #[test]
    fn mem_backend_session_round_trips_and_recovers() {
        let backend: Arc<dyn pxml_store::StorageBackend> = Arc::new(pxml_store::MemBackend::new());
        let config = SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        };
        let warehouse = Warehouse::with_backend(backend.clone(), config).unwrap();
        warehouse.create_document("people", directory()).unwrap();
        warehouse
            .commit_batch("people", &[add_fact("alice", "phone", "+33-1", 0.8)], None)
            .unwrap();
        assert_eq!(backend.read_batches("people").unwrap().len(), 1);

        let recovered = Warehouse::with_backend(backend, config).unwrap();
        let phones = Pattern::parse("person { phone }").unwrap();
        assert_eq!(recovered.query("people", &phones).unwrap().len(), 1);
    }

    /// Every per-document entry point refuses a name that was never
    /// created — including an empty batch, which would otherwise commit
    /// nothing and succeed — and leaves the known document untouched.
    #[test]
    fn unknown_documents_are_rejected() {
        let dir = scratch("unknown");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        assert!(matches!(
            warehouse.snapshot("ghost"),
            Err(WarehouseError::UnknownDocument(_))
        ));
        warehouse.create_document("people", directory()).unwrap();
        let pinned = warehouse.snapshot("people").unwrap();
        assert!(!warehouse.contains("ghost"));
        assert!(matches!(
            warehouse.commit_batch("ghost", &[], None),
            Err(WarehouseError::UnknownDocument(_))
        ));
        assert!(matches!(
            warehouse.commit_batch_async(
                "ghost",
                &[add_fact("alice", "phone", "+33-1", 0.8)],
                None
            ),
            Err(WarehouseError::UnknownDocument(_))
        ));
        assert!(matches!(
            warehouse.journal_size_bytes("ghost"),
            Err(WarehouseError::UnknownDocument(_))
        ));
        assert!(matches!(
            warehouse.checkpoint("ghost"),
            Err(WarehouseError::UnknownDocument(_))
        ));
        assert_eq!(warehouse.document_names(), vec!["people"]);
        assert_eq!(warehouse.stats().updates_applied, 0);
        let persons = Pattern::parse("person").unwrap();
        assert_eq!(warehouse.query("people", &persons).unwrap().len(), 2);
        assert_eq!(pinned.fuzzy().tree().find_elements("person").len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
