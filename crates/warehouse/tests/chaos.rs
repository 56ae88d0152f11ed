//! The chaos battery: random fault plans (scheduled and rate-based fsync
//! failures, append failures, torn writes, checkpoint failures, and a few
//! slow fsync rounds and checkpoint writes) against a
//! live warehouse under a mixed query/commit load that folds its journal
//! every third batch, with a writer that heals quarantine through
//! `reopen_document` and retries. The property is the repo's durability
//! contract (README "Failure model & recovery"): a cold, fault-free restart
//! replays **exactly** the acknowledged commits — every acked commit
//! survives, no failed commit leaks — and the store stays writable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use pxml_core::UpdateTransaction;
use pxml_query::Pattern;
use pxml_store::{FaultKind, FaultOp, FaultPlan, FsBackend, FsOptions, StorageBackend};
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

const DIRECTORY_XML: &str = "<directory><person><name>alice</name></person></directory>";

/// One tagged insertion; the tag round-trips through the journal so replay
/// can be compared element-by-element against the acked list.
fn tagged_batch(tag: u64) -> Vec<UpdateTransaction> {
    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
    let root = pattern.root();
    vec![UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
        root,
        parse_data_tree(&format!("<email>c{tag}@chaos</email>")).unwrap(),
    )]
}

/// The tags a cold, fault-free reopen of the store recovers — folded into
/// the checkpoint or replayed from the journal — in commit order.
fn recovered_tags(backend: &dyn StorageBackend, doc: &str) -> Vec<u64> {
    let recovered = backend.recover_document(doc).unwrap();
    let tree = recovered.tree();
    tree.find_elements("email")
        .into_iter()
        .map(|email| {
            tree.node_value(email)
                .unwrap_or_default()
                .strip_prefix('c')
                .and_then(|rest| rest.split('@').next())
                .and_then(|tag| tag.parse().ok())
                .expect("chaos commits insert c<tag>@chaos emails")
        })
        .collect()
}

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the fault plan does — rolled-back sync appends, torn tails,
    /// folds that fail after their commit was acked, commits that exhaust
    /// their retries and stay unacked — the cold restart recovers exactly
    /// the acked sequence, each commit once, and one more commit on the
    /// healed store lands cleanly after it.
    #[test]
    fn cold_restart_replays_exactly_the_acked_commits(plan in plan_strategy()) {
        let dir = scratch();
        let store = FsBackend::with_options(
            &dir,
            FsOptions {
                fault: Some(Arc::new(plan)),
                ..FsOptions::default()
            },
        )
        .unwrap();
        let warehouse = Warehouse::with_backend(
            Arc::new(store),
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

        // Cold restart, no faults: the scan truncates any torn tail, and
        // checkpoint plus replay hold exactly the acked prefix.
        let reopened = FsBackend::open(&dir).unwrap();
        prop_assert_eq!(recovered_tags(&reopened, "doc"), acked.clone());

        // The store the chaos left behind is still a working store.
        reopened.append_batch("doc", &tagged_batch(1_000)).unwrap();
        acked.push(1_000);
        prop_assert_eq!(recovered_tags(&reopened, "doc"), acked);

        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
