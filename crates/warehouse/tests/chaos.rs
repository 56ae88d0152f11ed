//! The chaos battery: random fault plans (scheduled and rate-based fsync
//! failures, append failures, torn writes, checkpoint failures, and a few
//! slow fsync rounds and checkpoint writes) against a
//! live warehouse under a mixed query/commit load that folds its journal
//! every third batch, with a writer that heals quarantine through
//! `reopen_document` and retries. The property is the repo's durability
//! contract (README "Failure model & recovery"): a cold, fault-free restart
//! replays **exactly** the acknowledged commits — every acked commit
//! survives, no failed commit leaks — and the store stays writable; and one
//! history denotes one tree: a warehouse opened over what the chaos left
//! serialises to the bytes of the acked batches applied in order, whatever
//! folds, reopens and rollbacks happened on the way.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use pxml_core::{apply_batch, FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_query::Pattern;
use pxml_store::{
    serialize_fuzzy_document, FaultKind, FaultOp, FaultPlan, FsBackend, FsOptions, StorageBackend,
};
use pxml_tree::parse_data_tree;
use pxml_warehouse::{CompactionPolicy, SessionConfig, Warehouse};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-warehouse-chaos-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Alice holds the ledger — the tagged e-mails, never a phone, so no
/// retraction reaches them. Bob is what the cleaning loop works on.
const DIRECTORY_XML: &str = "<directory>\
    <person><name>alice</name></person>\
    <person><name>bob</name></person>\
  </directory>";

/// One batch of a history: one tagged insertion — the tag round-trips
/// through the journal so replay can be compared element-by-element against
/// the acked list — beside one step of the extract-then-clean loop on bob:
/// alternately an uncertain phone and "`person { phone, email }`, delete the
/// e-mail", with a fresh uncertain e-mail every fourth commit (commits carry
/// every third tag). Each retraction splits every copy of bob's e-mails the
/// earlier ones left once per phone, so the raw replay grows with every
/// round and the simplifier has something to win back.
fn tagged_batch(tag: u64) -> Vec<UpdateTransaction> {
    let insert = |name: &str, xml: &str, confidence: f64| {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"] }}")).unwrap();
        let person = pattern.root();
        UpdateTransaction::new(pattern, confidence)
            .unwrap()
            .with_insert(person, parse_data_tree(xml).unwrap())
    };
    let cleaning = if (tag / 3).is_multiple_of(2) {
        insert("bob", &format!("<phone>+33-{tag}</phone>"), 0.6)
    } else {
        let pattern = Pattern::parse("person { phone, email }").unwrap();
        let email = pattern.node_ids().nth(2).unwrap();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_delete(email)
    };
    let mut batch = vec![
        insert("alice", &format!("<email>c{tag}@chaos</email>"), 0.8),
        cleaning,
    ];
    if (tag / 3).is_multiple_of(4) {
        batch.push(insert("bob", "<email>bob@chaos</email>", 0.7));
    }
    batch
}

/// The tags a cold, fault-free reopen of the store recovers — folded into
/// the checkpoint or replayed from the journal — in commit order. Read off
/// the raw replay, "what the journal holds"; bob's untagged e-mails and
/// their copies are not part of the ledger.
fn recovered_tags(backend: &dyn StorageBackend, doc: &str) -> Vec<u64> {
    let recovered = backend.recover_document(doc).unwrap();
    let tree = recovered.tree();
    tree.find_elements("email")
        .into_iter()
        .map(|email| tree.node_value(email).unwrap_or_default())
        .filter(|&value| value != "bob@chaos")
        .map(|value| {
            value
                .strip_prefix('c')
                .and_then(|rest| rest.split('@').next())
                .and_then(|tag| tag.parse().ok())
                .expect("chaos commits insert c<tag>@chaos emails")
        })
        .collect()
}

/// The ack at which the published tree is compared, world by world, with
/// the raw replay of the files: nine events by then and 2^events worlds a
/// side — a full history's 25 are out of reach.
const ORACLE_COMMITS: usize = 4;

/// Blueprint of a random fault plan: a seeded rate for fsync, append and
/// checkpoint failures plus up to four scheduled faults (fsync error,
/// append error, torn write or checkpoint error) at small 1-based indices,
/// so most runs hit at least one, and up to three 1–3 ms latency spikes on
/// an fsync round or a checkpoint write (where a spike and an error share an
/// index, the one scheduled first wins).
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u32..25,
        0u32..15,
        0u32..40,
        proptest::collection::vec((0u8..4, 1usize..12), 0..4),
        proptest::collection::vec((any::<bool>(), 1usize..12, 1u64..=3), 0..4),
    )
        .prop_map(
            |(seed, fsync_pct, append_pct, checkpoint_pct, scheduled, slow)| {
                let mut plan = FaultPlan::seeded(seed)
                    .fail_rate(FaultOp::Fsync, fsync_pct as f64 / 100.0)
                    .fail_rate(FaultOp::Append, append_pct as f64 / 100.0)
                    .fail_rate(FaultOp::Checkpoint, checkpoint_pct as f64 / 100.0);
                for (kind, nth) in scheduled {
                    plan = match kind {
                        0 => plan.fail_nth(FaultOp::Fsync, nth),
                        1 => plan.fail_nth(FaultOp::Append, nth),
                        2 => plan.fail_nth_with(FaultOp::Append, nth, FaultKind::TornWrite),
                        _ => plan.fail_nth(FaultOp::Checkpoint, nth),
                    };
                }
                for (on_fsync, nth, millis) in slow {
                    let op = if on_fsync {
                        FaultOp::Fsync
                    } else {
                        FaultOp::Checkpoint
                    };
                    let spike = FaultKind::Latency(Duration::from_millis(millis));
                    plan = plan.fail_nth_with(op, nth, spike);
                }
                plan
            },
        )
}

proptest! {
    // The stress job's release run draws four times the debug run's cases.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 24 } else { 96 }
    ))]

    /// Whatever the fault plan does — rolled-back sync appends, torn tails,
    /// folds that fail after their commit was acked, commits that exhaust
    /// their retries and stay unacked — the cold restart recovers exactly
    /// the acked sequence, each commit once, and one more commit on the
    /// healed store lands cleanly after it.
    #[test]
    fn cold_restart_replays_exactly_the_acked_commits(plan in plan_strategy()) {
        let dir = scratch();
        let store = Arc::new(
            FsBackend::with_options(
                &dir,
                FsOptions {
                    fault: Some(Arc::new(plan)),
                    ..FsOptions::default()
                },
            )
            .unwrap(),
        );
        let warehouse = Warehouse::with_backend(
            store.clone(),
            SessionConfig {
                compaction: CompactionPolicy::EveryNBatches(3),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        // The initial save is a checkpoint write and passes the same door;
        // a failed creation registers nothing, so it is simply retried.
        let created = (0..64).any(|_| {
            warehouse
                .create_document("doc", parse_data_tree(DIRECTORY_XML).unwrap())
                .is_ok()
        });
        prop_assert!(created, "64 consecutive checkpoint faults at a rate below 40%");

        let pattern = Pattern::parse("person { email }").unwrap();
        let mut acked: Vec<u64> = Vec::new();
        for op in 0..30u64 {
            if op % 3 == 2 {
                let batch = tagged_batch(op);
                // Bounded heal-and-retry: a commit that keeps failing is
                // simply never acked — the property does not require
                // progress, only that the ledger matches the acks.
                for _ in 0..6 {
                    match warehouse.commit_batch("doc", &batch, None) {
                        Ok(_) => {
                            acked.push(op);
                            // The raw replay is the other definition of what
                            // the files denote: where its worlds can still be
                            // enumerated, it is the same distribution. It
                            // pairs the checkpoint with the journal, so it
                            // waits out a fold the commit began (the storage
                            // contract: no replay beside a fold in flight).
                            if acked.len() == ORACLE_COMMITS {
                                warehouse.group_barrier();
                                let raw = store.recover_document("doc").unwrap();
                                let live = warehouse.snapshot("doc").unwrap();
                                let live = live.fuzzy();
                                prop_assert!(live.semantically_equivalent(&raw, 1e-9).unwrap());
                            }
                            break;
                        }
                        Err(_) => {
                            if warehouse.is_quarantined("doc") {
                                let _ = warehouse.reopen_document("doc");
                            }
                        }
                    }
                }
            } else {
                // Reads serve the last published snapshot unconditionally,
                // quarantined or not.
                prop_assert!(warehouse.query("doc", &pattern).is_ok());
            }
        }
        drop(warehouse);
        drop(store);

        // Cold restart, no faults: the scan truncates any torn tail, and
        // checkpoint plus replay hold exactly the acked prefix.
        let reopened = FsBackend::open(&dir).unwrap();
        prop_assert_eq!(recovered_tags(&reopened, "doc"), acked.clone());

        // The store the chaos left behind is still a working store.
        reopened.append_batch("doc", &tagged_batch(1_000)).unwrap();
        acked.push(1_000);
        prop_assert_eq!(recovered_tags(&reopened, "doc"), acked.clone());

        // One history, one tree: a warehouse over these files publishes the
        // acked batches applied in order to the created document, to the
        // byte — through every fold, reopen and rollback above.
        let mut shadow = FuzzyTree::from_tree(parse_data_tree(DIRECTORY_XML).unwrap());
        for &tag in &acked {
            shadow = apply_batch(&shadow, &tagged_batch(tag), SimplifyPolicy::Inline).unwrap().0;
        }
        let cold = Warehouse::with_backend(Arc::new(reopened), SessionConfig::default()).unwrap();
        let cold = cold.snapshot("doc").unwrap();
        prop_assert_eq!(
            serialize_fuzzy_document(cold.fuzzy(), false),
            serialize_fuzzy_document(&shadow, false)
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
