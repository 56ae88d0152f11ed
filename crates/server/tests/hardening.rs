//! End-to-end failure-hardening battery: an injected fsync failure under a
//! live server must quarantine exactly one document, keep readers and every
//! other tenant serving, surface typed retryable errors on the wire, and
//! heal through the backoff-gated auto-reopen — all observable through
//! `stats` and recoverable with one `RetryPolicy`-wrapped call.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pxml_core::UpdateTransaction;
use pxml_query::Pattern;
use pxml_server::{Client, ClientError, RetryPolicy, Server, ServerConfig, MAX_PENDING_ASYNC};
use pxml_store::{CommitPolicy, FaultOp, FaultPlan};
use pxml_tree::parse_data_tree;
use pxml_warehouse::CompactionPolicy;

mod common;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-server-hardening-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

const PEOPLE_XML: &str =
    "<directory><person><name>alice</name></person><person><name>bob</name></person></directory>";

fn phone_batch(confidence: f64) -> Vec<UpdateTransaction> {
    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
    let person = pattern.root();
    vec![UpdateTransaction::new(pattern, confidence)
        .unwrap()
        .with_insert(person, parse_data_tree("<phone>+33-1</phone>").unwrap())]
}

/// The whole taxonomy in one scenario, after a cleaning history (so that a
/// replay has something to simplify) and one acked commit. Under the default
/// sync commit policy `create_document` does not enter the fsync-round
/// path, so every commit is one fsync; the fault plan fails the two that
/// follow the acked one.
#[test]
fn injected_fsync_failure_quarantines_heals_and_retries_over_the_wire() {
    let dir = scratch("quarantine");
    let cleaning = common::extract_then_clean(6);
    let acked = cleaning.len() + 1;
    let mut config = ServerConfig::new(&dir);
    config.fs.fault = Some(Arc::new(
        FaultPlan::new()
            .fail_nth(FaultOp::Fsync, acked + 1)
            .fail_nth(FaultOp::Fsync, acked + 2),
    ));
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();

    client.open("doc", Some(PEOPLE_XML)).unwrap();
    for batch in &cleaning {
        client.commit("doc", batch).unwrap();
    }
    client.commit("doc", &phone_batch(0.8)).unwrap();

    // The first failure is healed by a read: the `SNAPSHOT` request runs
    // the auto-reopen and is served the replayed document — to the byte the
    // one the live tenant served before the fault.
    let before = common::snapshot_payload(server.local_addr(), "acme", "doc");
    client.commit("doc", &phone_batch(0.5)).unwrap_err();
    assert_eq!(client.stats().unwrap().quarantined_docs, 1);
    let after = common::snapshot_payload(server.local_addr(), "acme", "doc");
    assert_eq!(after, before);
    assert_eq!(client.stats().unwrap().quarantined_docs, 0);

    // The next commit hits the second injected fsync failure: a typed,
    // retryable storage error — and the document is quarantined again.
    let error = client.commit("doc", &phone_batch(0.7)).unwrap_err();
    match &error {
        ClientError::Server {
            code, retryable, ..
        } => {
            assert_eq!(code, "engine", "unexpected error: {error}");
            assert!(retryable, "storage failures must be marked retryable");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert!(error.is_transient());

    // `stats` reports the quarantined document by name. (Checked first:
    // stats bypasses dispatch, while any gated request would already
    // trigger the auto-reopen probed below.)
    let stats = client.stats().unwrap();
    assert_eq!(stats.quarantined_docs, 1);
    assert_eq!(stats.quarantined, vec!["doc".to_string()]);

    // One retry-wrapped call heals everything: the attempt hits the
    // backoff-gated auto-reopen (which replays the journal and lifts the
    // quarantine) and the commit then lands. The faults were one-shot, so
    // storage is healthy again.
    let policy = RetryPolicy {
        max_retries: 5,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(100),
        seed: 42,
    };
    let receipt = policy
        .run(|| client.commit("doc", &phone_batch(0.6)))
        .unwrap();
    assert!(receipt.contains("applied=1"), "got: {receipt}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.quarantined_docs, 0);
    assert!(stats.quarantined.is_empty());

    // The rolled-back commits must not have left a phantom. The two
    // surviving inserts (0.8 and 0.6) merge into one phone node with
    // probability 1-(1-0.8)(1-0.6) = 0.92; had the failed 0.7 commit
    // leaked, the probability would be 0.976.
    let answers = client.query("doc", "person { phone }").unwrap();
    assert!(
        (answers.selection - 0.92).abs() < 1e-9,
        "answers: {answers:?}"
    );

    server.shutdown();

    // Cold restart of the tenant: exactly the acked commits replay.
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    client.open("doc", None).unwrap();
    let answers = client.query("doc", "person { phone }").unwrap();
    assert!(
        (answers.selection - 0.92).abs() < 1e-9,
        "restart lost or invented a commit: {answers:?}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit whose post-commit fold fails is still a commit. The staging path
/// of the tenant's checkpoint is made un-creatable, so the compaction due
/// after the second commit cannot be written — but that batch is journaled
/// and published by then, and answering it with a retryable error makes
/// `RetryPolicy::run` send it again: the insert would be applied twice.
#[test]
fn a_failed_post_commit_fold_is_not_a_failed_commit_over_the_wire() {
    let dir = scratch("fold-fails");
    let mut config = ServerConfig::new(&dir);
    config.session.compaction = CompactionPolicy::EveryNBatches(2);
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    client.open("doc", Some(PEOPLE_XML)).unwrap();
    // Only once the tenant is open: the open-time sweep removes `.tmp` files
    // and would refuse a directory.
    std::fs::create_dir(dir.join("acme").join(".doc.pxml.tmp")).unwrap();
    client.commit("doc", &phone_batch(0.8)).unwrap();

    let policy = RetryPolicy {
        max_retries: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 42,
    };
    let mut attempts = 0;
    let receipt = policy
        .run(|| {
            attempts += 1;
            client.commit("doc", &phone_batch(0.7))
        })
        .expect("a durable, published commit must be acknowledged");
    assert!(receipt.contains("applied=1"), "got: {receipt}");
    assert_eq!(attempts, 1, "an acknowledged commit is never re-sent");

    // The snapshot holds each insert once: 1-(1-0.8)(1-0.7) = 0.94 (with the
    // 0.7 batch applied twice it would be 0.982).
    let (_, fuzzy) = client.snapshot("doc").unwrap();
    assert_eq!(fuzzy.tree().find_elements("phone").len(), 2);
    let answers = client.query("doc", "person { phone }").unwrap();
    assert!(
        (answers.selection - 0.94).abs() < 1e-9,
        "answers: {answers:?}"
    );
    assert_eq!(client.stats().unwrap().quarantined_docs, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantined tenant must not leak into its neighbours: tenant `beta`
/// keeps committing while `alpha` is quarantined.
#[test]
fn quarantine_is_per_document_not_per_server() {
    let dir = scratch("isolation");
    let mut config = ServerConfig::new(&dir);
    // The plan's counters are shared by every tenant backend holding the
    // `Arc`, so the global second fsync fails: that is alpha's second
    // commit (alpha commits twice before beta commits at all below).
    config.fs.fault = Some(Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 2)));
    let server = Server::start(config).unwrap();

    let mut alpha = Client::connect(server.local_addr(), "alpha").unwrap();
    let mut beta = Client::connect(server.local_addr(), "beta").unwrap();
    alpha.open("doc", Some(PEOPLE_XML)).unwrap();
    beta.open("doc", Some(PEOPLE_XML)).unwrap();

    alpha.commit("doc", &phone_batch(0.8)).unwrap();
    assert!(alpha.commit("doc", &phone_batch(0.7)).is_err());

    // Beta's first commit is the plan's third fsync: healthy.
    beta.commit("doc", &phone_batch(0.9)).unwrap();
    let stats = beta.stats().unwrap();
    assert_eq!(stats.quarantined_docs, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lost-commit accounting across the async backlog bound: one connection
/// pipelines `MAX_PENDING_ASYNC + 1` async commits under the grouped policy
/// while the first window fsync is scheduled to fail. Nothing flushes until
/// the backlog bound makes the server wait out the oldest commit — that
/// wait leads the one window holding every accepted commit into the failed
/// fsync. The `close` summary must count **every** accepted commit as
/// failed, the early-settled oldest one included: it is the figure a client
/// reconciles its un-acked async commits against.
#[test]
fn close_counts_async_commits_lost_while_settling_the_backlog() {
    let dir = scratch("backlog-failed");
    let mut config = ServerConfig::new(&dir);
    config.session.commit = CommitPolicy::grouped();
    config.fs.fault = Some(Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 1)));
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    client.open("doc", Some(PEOPLE_XML)).unwrap();

    let accepted = (0..=MAX_PENDING_ASYNC)
        .filter(|_| client.commit_async("doc", &phone_batch(0.5)).is_ok())
        .count();
    // The last request settled the oldest commit first, which quarantined
    // the document, so it was itself refused.
    assert_eq!(accepted, MAX_PENDING_ASYNC);

    let goodbye = client.close().unwrap();
    assert_eq!(
        goodbye,
        format!("closed pending={} failed={accepted}", accepted - 1)
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
