//! Client smoke suite: the full verb set end-to-end over real sockets,
//! tenant isolation, persistence across a server restart, async-commit
//! draining, LRU eviction, and admission-control shedding.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pxml_core::UpdateTransaction;
use pxml_query::Pattern;
use pxml_server::{Client, ClientError, Server, ServerConfig};
use pxml_store::CommitPolicy;
use pxml_tree::parse_data_tree;

mod common;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-server-smoke-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

const PEOPLE_XML: &str =
    "<directory><person><name>alice</name></person><person><name>bob</name></person></directory>";

/// One transaction inserting `<phone>` under alice's `<person>` with the
/// given confidence.
fn phone_batch(confidence: f64) -> Vec<UpdateTransaction> {
    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
    let person = pattern.root();
    vec![UpdateTransaction::new(pattern, confidence)
        .unwrap()
        .with_insert(person, parse_data_tree("<phone>+33-1</phone>").unwrap())]
}

#[test]
fn full_verb_set_end_to_end() {
    let dir = scratch("verbs");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();

    let opened = client.open("people", Some(PEOPLE_XML)).unwrap();
    assert!(opened.contains("created people"), "got: {opened}");
    // Idempotent: a second open of an existing document succeeds.
    let reopened = client.open("people", None).unwrap();
    assert!(reopened.contains("opened people"), "got: {reopened}");

    let receipt = client.commit("people", &phone_batch(0.8)).unwrap();
    assert!(receipt.contains("applied=1"), "got: {receipt}");

    let answers = client.query("people", "person { phone }").unwrap();
    assert_eq!(answers.answers.len(), 1);
    assert!((answers.answers[0].probability - 0.8).abs() < 1e-9);
    assert!((answers.selection - 0.8).abs() < 1e-9);
    // Answers are the minimal subtree of the mapped pattern nodes.
    assert!(
        answers.answers[0].xml.contains("phone"),
        "got: {}",
        answers.answers[0].xml
    );
    assert!(answers.seq >= 1);

    let (seq, fuzzy) = client.snapshot("people").unwrap();
    assert!(seq >= 1);
    assert!(fuzzy.tree().node_count() > 3);

    let simplified = client.simplify("people").unwrap();
    assert!(simplified.contains("passes="), "got: {simplified}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.updates_applied, 1);
    assert!(stats.queries_evaluated >= 1);
    // Fresh sync-policy tenant: no grouped windows, and the occupancy is an
    // exact 0.0 — never NaN (the zero-windows guard, satellite-tested at
    // the stats source too).
    assert_eq!(stats.grouped_windows, 0);
    assert!(stats.mean_window_occupancy.is_finite());
    assert_eq!(stats.mean_window_occupancy, 0.0);

    let goodbye = client.close().unwrap();
    assert!(goodbye.contains("closed pending=0"), "got: {goodbye}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_document_and_bad_pattern_are_typed_errors() {
    let dir = scratch("typed-errors");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();

    match client.query("nope", "person") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown-doc"),
        other => panic!("expected unknown-doc, got {other:?}"),
    }
    client.open("people", Some(PEOPLE_XML)).unwrap();
    match client.query("people", "person {{{") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "bad-pattern"),
        other => panic!("expected bad-pattern, got {other:?}"),
    }
    // The connection survives typed errors.
    assert!(client.query("people", "person { name }").is_ok());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_are_isolated() {
    let dir = scratch("tenants");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut alpha = Client::connect(server.local_addr(), "alpha").unwrap();
    let mut beta = Client::connect(server.local_addr(), "beta").unwrap();
    alpha
        .open(
            "doc",
            Some("<directory><person><name>alice</name></person></directory>"),
        )
        .unwrap();
    beta.open(
        "doc",
        Some(
            "<directory><person><name>zoe</name></person>\
             <person><name>yuri</name></person></directory>",
        ),
    )
    .unwrap();

    // Same document name, same pattern, different tenants: each sees only
    // its own content (only alpha holds an `alice`; answers are merged
    // minimal subtrees, so the value-tested counts are the isolation
    // proof).
    assert_eq!(
        alpha.query("doc", "person { name }").unwrap().answers.len(),
        1
    );
    assert_eq!(
        beta.query("doc", "person { name }").unwrap().answers.len(),
        1
    );
    assert_eq!(
        alpha
            .query("doc", "person { name[=\"alice\"] }")
            .unwrap()
            .answers
            .len(),
        1
    );
    assert_eq!(
        beta.query("doc", "person { name[=\"alice\"] }")
            .unwrap()
            .answers
            .len(),
        0
    );
    assert_eq!(
        server.resident_tenants(),
        vec!["alpha".to_string(), "beta".to_string()]
    );
    // Tenant-level stats are per-warehouse, not global: alpha ran two
    // queries above, and beta's two don't show up in its count.
    assert_eq!(alpha.stats().unwrap().queries_evaluated, 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn documents_persist_across_server_restart() {
    let dir = scratch("restart");
    {
        let server = Server::start(ServerConfig::new(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr(), "acme").unwrap();
        client.open("people", Some(PEOPLE_XML)).unwrap();
        client.commit("people", &phone_batch(0.7)).unwrap();
        client.close().unwrap();
        server.shutdown();
    }
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    // No content: open must find the recovered document.
    client.open("people", None).unwrap();
    let answers = client.query("people", "person { phone }").unwrap();
    assert_eq!(answers.answers.len(), 1);
    assert!((answers.answers[0].probability - 0.7).abs() < 1e-9);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn async_commits_drain_at_close_and_survive_restart() {
    let dir = scratch("async");
    let grouped = {
        let mut config = ServerConfig::new(&dir);
        config.session.commit = CommitPolicy::Grouped {
            window_max_batches: 4,
            window_max_wait: Duration::from_millis(5),
        };
        config
    };
    {
        let server = Server::start(grouped.clone()).unwrap();
        let mut client = Client::connect(server.local_addr(), "acme").unwrap();
        client.open("people", Some(PEOPLE_XML)).unwrap();
        let accepted = client.commit_async("people", &phone_batch(0.9)).unwrap();
        assert!(accepted.contains("applied=1"), "got: {accepted}");
        // The logical commit is immediately visible to reads.
        assert_eq!(
            client
                .query("people", "person { phone }")
                .unwrap()
                .answers
                .len(),
            1
        );
        let goodbye = client.close().unwrap();
        assert!(goodbye.contains("pending=1 failed=0"), "got: {goodbye}");
        server.shutdown();
    }
    // Durability: the drained commit is still there after a cold start.
    let server = Server::start(grouped).unwrap();
    let mut client = Client::connect(server.local_addr(), "acme").unwrap();
    let answers = client.query("people", "person { phone }").unwrap();
    assert_eq!(answers.answers.len(), 1);
    assert!((answers.answers[0].probability - 0.9).abs() < 1e-9);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_evicts_idle_tenants_and_reopens_them() {
    let dir = scratch("lru");
    let mut config = ServerConfig::new(&dir);
    config.max_tenants = 2;
    let server = Server::start(config).unwrap();

    let mut t1 = Client::connect(server.local_addr(), "t1").unwrap();
    t1.open("doc", Some(PEOPLE_XML)).unwrap();
    for batch in common::extract_then_clean(6) {
        t1.commit("doc", &batch).unwrap();
    }
    t1.commit("doc", &phone_batch(0.5)).unwrap();
    let before = common::snapshot_payload(server.local_addr(), "t1", "doc");
    let mut t2 = Client::connect(server.local_addr(), "t2").unwrap();
    t2.open("doc", Some(PEOPLE_XML)).unwrap();
    let mut t3 = Client::connect(server.local_addr(), "t3").unwrap();
    t3.open("doc", Some(PEOPLE_XML)).unwrap();

    // t1 was least recently used and idle: evicted.
    let resident = server.resident_tenants();
    assert_eq!(resident.len(), 2, "resident: {resident:?}");
    assert!(
        !resident.contains(&"t1".to_string()),
        "resident: {resident:?}"
    );

    // Touching t1 again lazily re-opens it from storage, data intact.
    let answers = t1.query("doc", "person { phone }").unwrap();
    assert_eq!(answers.answers.len(), 1);
    assert!((answers.answers[0].probability - 0.5).abs() < 1e-9);
    // Not merely equivalent: the re-opened tenant serves the document it
    // served before the eviction, byte for byte.
    let after = common::snapshot_payload(server.local_addr(), "t1", "doc");
    assert_eq!(after, before);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant with a request in flight is never an eviction victim, even
/// when it is the LRU-oldest: busyness is judged by `Arc` holders of the
/// tenant entry (which a request takes before it even enters the tenant's
/// admission gate), so the LRU skips it and evicts an unheld tenant
/// instead — and the held tenant's commit lands intact.
#[test]
fn eviction_skips_tenants_held_by_in_flight_requests() {
    let dir = scratch("evict-held");
    let mut config = ServerConfig::new(&dir);
    config.max_tenants = 2;
    // Slow flushes keep the held tenant's commit in flight while other
    // tenants churn the LRU (opening a fresh tenant does not flush, so
    // the churn itself stays fast).
    config.fs.simulated_sync_latency = Duration::from_millis(600);
    let server = Server::start(config).unwrap();
    let addr = server.local_addr();

    let mut held = Client::connect(addr, "held").unwrap();
    held.open("doc", Some(PEOPLE_XML)).unwrap();

    let writer = std::thread::spawn(move || {
        let mut writer = Client::connect(addr, "held").unwrap();
        writer.commit("doc", &phone_batch(0.6)).unwrap();
    });
    // Let the writer get into its 600 ms flush; from here `held` is the
    // LRU-oldest resident tenant but has a request holding it.
    std::thread::sleep(Duration::from_millis(150));

    // Two cheap touches: `idle` becomes resident, then `trigger` pushes
    // the registry over max_tenants. The victim must be `idle` — more
    // recently used than `held`, but unheld.
    let mut idle = Client::connect(addr, "idle").unwrap();
    let _ = idle.open("doc", None);
    let mut trigger = Client::connect(addr, "trigger").unwrap();
    let _ = trigger.open("doc", None);

    let resident = server.resident_tenants();
    assert!(
        resident.contains(&"held".to_string()),
        "held tenant was evicted mid-request; resident: {resident:?}"
    );
    assert!(
        !resident.contains(&"idle".to_string()),
        "expected the unheld tenant to be the victim; resident: {resident:?}"
    );

    writer.join().unwrap();
    let answers = held.query("doc", "person { phone }").unwrap();
    assert_eq!(answers.answers.len(), 1);
    assert!((answers.answers[0].probability - 0.6).abs() < 1e-9);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stats` is admission-free, so it must be harmless: a probe for a
/// never-seen tenant is refused with a typed error instead of lazily
/// opening a warehouse — no storage directory, no resident entry, no LRU
/// churn.
#[test]
fn stats_never_lazily_opens_a_tenant() {
    let dir = scratch("stats-resident");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    let mut ghost = Client::connect(server.local_addr(), "ghost").unwrap();
    match ghost.stats() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "not-resident"),
        other => panic!("expected not-resident, got {other:?}"),
    }
    assert!(server.resident_tenants().is_empty());
    assert!(!dir.join("ghost").exists());

    // A gated request makes the tenant resident; stats answers from then
    // on.
    ghost.open("doc", Some(PEOPLE_XML)).unwrap();
    assert_eq!(ghost.stats().unwrap().updates_applied, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_budget_requests_get_busy_within_the_admission_timeout() {
    let dir = scratch("busy");
    let mut config = ServerConfig::new(&dir);
    config.tenant_inflight = 1;
    config.admission_timeout = Duration::from_millis(40);
    // Make every sync commit slow enough to hold the tenant budget while
    // the probe runs.
    config.fs.simulated_sync_latency = Duration::from_millis(400);
    let server = Server::start(config).unwrap();

    let mut setup = Client::connect(server.local_addr(), "acme").unwrap();
    setup.open("people", Some(PEOPLE_XML)).unwrap();

    let addr = server.local_addr();
    let writer = std::thread::spawn(move || {
        let mut writer = Client::connect(addr, "acme").unwrap();
        writer.commit("people", &phone_batch(0.8)).unwrap();
    });
    // Give the writer a head start into its 400 ms flush.
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let result = setup.query("people", "person { name }");
    let elapsed = started.elapsed();
    match result {
        Err(err) if err.is_busy() => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    // Shed within the admission timeout (plus loopback slack), not after
    // queuing behind the 400 ms flush.
    assert!(
        elapsed < Duration::from_millis(300),
        "busy took {elapsed:?}, admission timeout is 40ms"
    );

    writer.join().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
