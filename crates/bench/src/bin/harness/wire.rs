//! Wire and chaos gates: E17 (the served warehouse under a request-rate
//! sweep, admission shedding) and E18 (injected storage faults under mixed
//! load: exact acked-prefix replay, bounded retries).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pxml_bench::{header, micros, ms, percentile, warehouse_over, Scratch, BENCH_SEED};
use pxml_core::{UpdateOperation, UpdateTransaction};
use pxml_query::Pattern;
use pxml_server::{Client, Server, ServerConfig};
use pxml_store::{CommitPolicy, FaultOp, FaultPlan, FsBackend, FsOptions, StorageBackend};
use pxml_tree::parse_data_tree;

// ---------------------------------------------------------------------------
// E17 — pxml-server request-rate sweep: wire throughput and tail latency.
// ---------------------------------------------------------------------------

/// Simulated device-flush latency for E17 — deliberately heavier than
/// E15's 5 ms so the sweep stays flush-bound even on a small
/// box: every durable commit pays this inside the device gate, pinning
/// single-client throughput to it, and the scaling headroom comes from the
/// cross-document group-commit pipeline sharing windows between clients.
/// It also keeps the read-tail gate honest — wire queries pay scheduler
/// noise under 16-way contention, which must stay clearly below a flush.
const E17_FSYNC_LATENCY: Duration = Duration::from_millis(15);

/// Builds the initial directory document the E17 clients hammer.
fn e17_document(people: usize) -> String {
    let mut xml = String::from("<directory>");
    for index in 0..people {
        xml.push_str(&format!("<person><name>person-{index}</name></person>"));
    }
    xml.push_str("</directory>");
    xml
}

/// One confidence-weighted phone insertion for the E17 commit mix.
fn e17_batch(person: usize, op: usize) -> Vec<UpdateTransaction> {
    let pattern = Pattern::parse(&format!("person {{ name[=\"person-{person}\"] }}")).unwrap();
    let root = pattern.root();
    let tree = parse_data_tree(&format!("<phone>+33-{op}</phone>")).unwrap();
    vec![UpdateTransaction::new(pattern, 0.9)
        .unwrap()
        .with_insert(root, tree)]
}

/// The served warehouse under load: a request-rate sweep from 1 to 16
/// concurrent wire clients issuing a mixed query/commit stream (4:1) over
/// 8 documents across 2 tenants. Prints throughput and query/commit
/// p50/p99 per level, then probes admission control: with a tenant budget
/// of one and a slow flush in progress, an over-budget request must shed
/// with `Busy` within the admission timeout instead of queueing behind the
/// flush. Gates, the first two judged on the median of three 16-client
/// sweeps: throughput at least 4x the single-client rate (group-commit
/// windows shared across connections), query p99 below the flush latency at
/// full contention (snapshot reads never block on writers), and the `Busy`
/// probe returning inside its bound.
pub fn e17_request_rate(quick: bool) {
    header(
        "E17",
        "pxml-server request-rate sweep: throughput and tail latency over the wire",
    );
    let levels: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let ops_per_client = if quick { 30 } else { 60 };
    let tenants = ["tenant-a", "tenant-b"];
    // One document per client at the top level: commits to one document
    // serialize on its commit mutex, so cross-document window sharing —
    // not intra-document queueing — is what the sweep measures.
    let docs_per_tenant = 8usize;
    println!(
        "mixed 4:1 query/commit over {} docs x {} tenants, grouped commits, \
         simulated {} ms device flush",
        docs_per_tenant,
        tenants.len(),
        E17_FSYNC_LATENCY.as_millis()
    );
    println!(
        "\n{:>8} {:>7} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "clients", "ops", "wall_ms", "ops/s", "q_p50_us", "q_p99_us", "c_p50_us", "c_p99_us"
    );

    // The top level runs three times and both gates judge the median sweep:
    // one sweep's query p99 is its 4th-worst of 384 samples in quick mode, so
    // a single scheduler hiccup on a small box pushes it past the flush
    // latency without any reader having waited for a writer.
    let top = *levels.last().unwrap();
    let mut single_client_rate = 0.0f64;
    let mut top_rates = Vec::new();
    let mut top_query_p99s = Vec::new();
    for &clients in levels.iter().chain(&[top, top]) {
        let scratch = Scratch::new(&format!("e17-{clients}"));
        let mut config = ServerConfig::new(scratch.path());
        config.session.commit = CommitPolicy::Grouped {
            window_max_batches: 8,
            // Long enough for concurrent clients to actually fill windows
            // (a 2 ms wait closes them half-empty under a 15 ms flush).
            window_max_wait: Duration::from_millis(5),
        };
        config.fs.simulated_sync_latency = E17_FSYNC_LATENCY;
        let server = Server::start(config).unwrap();
        let addr = server.local_addr();
        for tenant in tenants {
            let mut setup = Client::connect(addr, tenant).unwrap();
            for doc in 0..docs_per_tenant {
                setup
                    .open(&format!("doc-{doc}"), Some(&e17_document(12)))
                    .unwrap();
            }
            setup.close().unwrap();
        }

        let barrier = Barrier::new(clients);
        let started = Instant::now();
        let per_client: Vec<(Vec<Duration>, Vec<Duration>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let tenant = tenants[client % tenants.len()];
                        let doc = format!("doc-{}", (client / tenants.len()) % docs_per_tenant);
                        let mut wire = Client::connect(addr, tenant).unwrap();
                        barrier.wait();
                        let mut queries = Vec::new();
                        let mut commits = Vec::new();
                        for op in 0..ops_per_client {
                            let start = Instant::now();
                            if op % 5 == 4 {
                                let batch = e17_batch(op % 12, client * 1000 + op);
                                wire.commit(&doc, &batch).unwrap();
                                commits.push(start.elapsed());
                            } else {
                                let _ = wire.query(&doc, "person { phone }").unwrap();
                                queries.push(start.elapsed());
                            }
                        }
                        let _ = wire.close();
                        (queries, commits)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        });
        let wall = started.elapsed();
        server.shutdown();

        let mut queries: Vec<Duration> = Vec::new();
        let mut commits: Vec<Duration> = Vec::new();
        for (q, c) in per_client {
            queries.extend(q);
            commits.extend(c);
        }
        queries.sort_unstable();
        commits.sort_unstable();
        let ops = queries.len() + commits.len();
        let rate = ops as f64 / wall.as_secs_f64();
        if clients == 1 {
            single_client_rate = rate;
        }
        if clients == top {
            top_rates.push(rate);
            top_query_p99s.push(percentile(&queries, 0.99));
        }
        println!(
            "{clients:>8} {ops:>7} {:>9.1} {:>9.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            ms(wall),
            rate,
            micros(percentile(&queries, 0.50)),
            micros(percentile(&queries, 0.99)),
            micros(percentile(&commits, 0.50)),
            micros(percentile(&commits, 0.99)),
        );
    }
    top_rates.sort_by(f64::total_cmp);
    top_query_p99s.sort_unstable();
    let (top_rate, top_query_p99) = (top_rates[1], top_query_p99s[1]);
    let speedup = top_rate / single_client_rate;
    println!(
        "\nscaling: {:.0} -> {:.0} ops/s ({speedup:.1}x), query p99 at full \
         contention {:.1} us (medians of the three {top}-client sweeps)",
        single_client_rate,
        top_rate,
        micros(top_query_p99)
    );
    // Gate 1: the shared group-commit windows must buy real concurrency —
    // 16 flush-bound clients cannot be serialized one window each.
    assert!(
        speedup >= 4.0,
        "16-client throughput is only {speedup:.2}x the single-client rate"
    );
    // Gate 2: the E15 claim holds over the wire — snapshot reads never
    // inherit a writer's flush stall, even at full contention.
    assert!(
        top_query_p99 < E17_FSYNC_LATENCY,
        "query p99 {:.1} us reached the flush latency under contention",
        micros(top_query_p99)
    );

    // Admission probe: budget of one, one slow flush in the gate — the
    // over-budget request must shed, not queue.
    let scratch = Scratch::new("e17-busy");
    let mut config = ServerConfig::new(scratch.path());
    config.tenant_inflight = 1;
    config.admission_timeout = Duration::from_millis(40);
    config.fs.simulated_sync_latency = Duration::from_millis(400);
    let server = Server::start(config).unwrap();
    let addr = server.local_addr();
    let mut setup = Client::connect(addr, "tenant-a").unwrap();
    setup.open("doc-0", Some(&e17_document(12))).unwrap();
    let writer = std::thread::spawn(move || {
        let mut writer = Client::connect(addr, "tenant-a").unwrap();
        writer.commit("doc-0", &e17_batch(0, 0)).unwrap();
    });
    std::thread::sleep(Duration::from_millis(100));
    let probe_started = Instant::now();
    let shed = setup.query("doc-0", "person { name }");
    let probe_elapsed = probe_started.elapsed();
    let got_busy = matches!(&shed, Err(err) if err.is_busy());
    println!(
        "busy probe: over-budget query shed in {:.1} ms (busy = {got_busy})",
        ms(probe_elapsed)
    );
    assert!(got_busy, "expected Busy, got {shed:?}");
    assert!(
        probe_elapsed < Duration::from_millis(300),
        "busy shed took {probe_elapsed:?}, admission timeout is 40 ms"
    );
    writer.join().unwrap();
    server.shutdown();
    println!();
}

// ---------------------------------------------------------------------------
// E18 — chaos sweep: injected storage faults under mixed load
// ---------------------------------------------------------------------------

/// Simulated device-flush latency for E18: enough to make the durability
/// path the resource faults degrade, small enough that the sweep stays
/// cheap — its gates are counts, the goodput column is for the log.
const E18_FSYNC_LATENCY: Duration = Duration::from_millis(2);

fn e18_doc(index: usize) -> String {
    format!("chaos-{index}")
}

/// One tagged confidence-weighted insertion: the tag round-trips through
/// the journal, so replay can be compared against the acked-commit list
/// element by element.
fn e18_batch(tag: u64) -> Vec<UpdateTransaction> {
    let pattern = Pattern::parse("person { name[=\"person-0\"] }").unwrap();
    let root = pattern.root();
    let tree = parse_data_tree(&format!("<email>c{tag}@chaos</email>")).unwrap();
    vec![UpdateTransaction::new(pattern, 0.9)
        .unwrap()
        .with_insert(root, tree)]
}

/// The tags of every update a cold, fault-free reopen of the store would
/// replay for `doc`, in replay order.
fn e18_journal_tags(backend: &dyn StorageBackend, doc: &str) -> Vec<u64> {
    backend
        .read_journal(doc)
        .unwrap()
        .iter()
        .map(|update| match &update.operations()[0] {
            UpdateOperation::Insert { subtree, .. } => subtree
                .node_value(subtree.root())
                .unwrap_or_default()
                .strip_prefix('c')
                .and_then(|rest| rest.split('@').next())
                .and_then(|tag| tag.parse().ok())
                .expect("E18 journal records carry c<tag>@chaos emails"),
            _ => unreachable!("E18 updates are inserts"),
        })
        .collect()
}

/// The robustness claim behind the fault-injection layer, measured: under a
/// mixed 4:1 query/commit load, injected fsync failures must never corrupt
/// the acked-commit prefix — a failed commit quarantines the document,
/// readers keep serving the last durable snapshot, `reopen_document` heals
/// it, and a cold restart replays exactly the acknowledged commits. Part 1
/// pins that with one scheduled fault; part 2 sweeps seeded fault rates
/// (fault-free, 0.5%, 1%, 2%) through the grouped commit pipeline with
/// retrying writers and gates, at every rate, exactness and bounded recovery
/// work: every attempted commit is eventually acked, within a number of
/// retries per injected fault that the window protocol fixes.
pub fn e18_chaos_sweep(quick: bool) {
    header(
        "E18",
        "chaos sweep: fsync faults under mixed load, exact acked-prefix recovery",
    );

    // --- part 1: one scheduled fault, deterministic accounting ------------
    // Under the per-batch sync policy every commit is exactly one fsync
    // round (document creation syncs outside the round path), so failing
    // fsync #4 fails the 4th commit and nothing else.
    let scratch = Scratch::new("e18-single");
    let plan = Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 4));
    let options = FsOptions {
        fault: Some(plan.clone()),
        ..FsOptions::default()
    };
    let warehouse = warehouse_over(scratch.path(), options);
    warehouse
        .create_document("doc", parse_data_tree(&e17_document(4)).unwrap())
        .unwrap();
    let pattern = Pattern::parse("person { email }").unwrap();
    let mut acked: Vec<u64> = Vec::new();
    let mut failed_tag = None;
    let mut served_during_quarantine = false;
    for op in 0..50u64 {
        if op % 5 == 4 {
            match warehouse.commit_batch("doc", &e18_batch(op), None) {
                Ok(_) => acked.push(op),
                Err(error) => {
                    assert!(
                        warehouse.is_quarantined("doc"),
                        "commit failed without quarantining: {error}"
                    );
                    // Mid-quarantine reads serve the last durable snapshot.
                    served_during_quarantine = warehouse.query("doc", &pattern).is_ok();
                    failed_tag = Some(op);
                    warehouse.reopen_document("doc").unwrap();
                }
            }
        } else {
            let _ = warehouse.query("doc", &pattern).unwrap();
        }
    }
    assert_eq!(
        plan.injected_faults(),
        1,
        "the scheduled fault must fire once"
    );
    let failed_tag = failed_tag.expect("the scheduled fault never surfaced on a commit");
    assert!(served_during_quarantine, "quarantine blocked a reader");
    drop(warehouse);
    // Cold restart: a fresh fault-free backend replays the journal.
    let replayed = e18_journal_tags(&FsBackend::open(scratch.path()).unwrap(), "doc");
    let exact = replayed == acked;
    println!(
        "single fault: {} commits acked, commit {failed_tag} rolled back, \
         replay holds {} (exact = {exact})",
        acked.len(),
        replayed.len()
    );
    assert!(
        exact,
        "replay diverged from the acked prefix: {replayed:?} vs {acked:?}"
    );

    // --- part 2: seeded fault-rate sweep through the grouped pipeline -----
    let rates: &[f64] = if quick {
        &[0.0, 0.01, 0.02]
    } else {
        &[0.0, 0.005, 0.01, 0.02]
    };
    let threads = 4usize;
    let ops_per_thread = if quick { 100 } else { 200 };
    println!(
        "\nmixed 4:1 query/commit, {threads} writers x {ops_per_thread} ops, grouped \
         commits, simulated {} ms flush, retrying writers reopen on quarantine",
        E18_FSYNC_LATENCY.as_millis()
    );
    println!(
        "\n{:>8} {:>7} {:>7} {:>9} {:>8} {:>9} {:>10} {:>6}",
        "fault_%", "ops", "acked_c", "injected", "retries", "wall_ms", "goodput/s", "exact"
    );
    for &rate in rates {
        let scratch = Scratch::new(&format!("e18-sweep-{}", (rate * 10_000.0) as u64));
        // Nonzero-rate plans also schedule two deterministic faults: at
        // these op counts the expected number of random hits is below one,
        // and the exactness gate must never run fault-free by luck.
        let mut chaos = FaultPlan::seeded(BENCH_SEED ^ (rate * 10_000.0) as u64)
            .fail_rate(FaultOp::Fsync, rate);
        if rate > 0.0 {
            chaos = chaos
                .fail_nth(FaultOp::Fsync, 5)
                .fail_nth(FaultOp::Fsync, 17);
        }
        let plan = Arc::new(chaos);
        let window_max_batches = threads;
        let options = FsOptions {
            commit: CommitPolicy::Grouped {
                window_max_batches,
                window_max_wait: Duration::from_millis(2),
            },
            simulated_sync_latency: E18_FSYNC_LATENCY,
            fault: Some(plan.clone()),
        };
        let warehouse = warehouse_over(scratch.path(), options);
        for t in 0..threads {
            warehouse
                .create_document(&e18_doc(t), parse_data_tree(&e17_document(4)).unwrap())
                .unwrap();
        }

        let barrier = Barrier::new(threads);
        let started = Instant::now();
        // One writer per document: within a document, acked order is commit
        // order is replay order. A failed commit was rolled back (grouped
        // windows truncate before any ticket resolves), so retrying the
        // same tag cannot double-apply it.
        let per_thread: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let warehouse = &warehouse;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let doc = e18_doc(t);
                        let pattern = Pattern::parse("person { email }").unwrap();
                        let mut acked: Vec<u64> = Vec::new();
                        let mut queries_ok = 0usize;
                        let mut retries = 0usize;
                        barrier.wait();
                        for op in 0..ops_per_thread {
                            let tag = t as u64 * 1_000_000 + op as u64;
                            if op % 5 == 4 {
                                let batch = e18_batch(tag);
                                let mut attempt = 0;
                                loop {
                                    match warehouse.commit_batch(&doc, &batch, None) {
                                        Ok(_) => {
                                            acked.push(tag);
                                            break;
                                        }
                                        Err(error) => {
                                            attempt += 1;
                                            assert!(
                                                attempt < 8,
                                                "commit {tag} still failing after \
                                                 {attempt} attempts: {error}"
                                            );
                                            retries += 1;
                                            // Heal our own document; a reopen
                                            // also clears committer poison left
                                            // by a neighbour's failed window.
                                            if warehouse.is_quarantined(&doc) {
                                                let _ = warehouse.reopen_document(&doc);
                                            }
                                        }
                                    }
                                }
                            } else {
                                warehouse.query(&doc, &pattern).unwrap();
                                queries_ok += 1;
                            }
                        }
                        (acked, queries_ok, retries)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        });
        let wall = started.elapsed();
        drop(warehouse);

        // Cold restart over a fault-free backend: per document, the replay
        // must be exactly that writer's acked sequence.
        let fresh = FsBackend::open(scratch.path()).unwrap();
        let mut exact = true;
        let mut acked_commits = 0usize;
        let mut acked_ops = 0usize;
        let mut total_retries = 0usize;
        for (t, (acked, queries_ok, retries)) in per_thread.iter().enumerate() {
            let replayed = e18_journal_tags(&fresh, &e18_doc(t));
            exact &= &replayed == acked;
            acked_commits += acked.len();
            acked_ops += acked.len() + queries_ok;
            total_retries += retries;
        }
        let goodput = acked_ops as f64 / wall.as_secs_f64();
        let injected = plan.injected_faults();
        println!(
            "{:>8.1} {:>7} {acked_commits:>7} {injected:>9} {total_retries:>8} {:>9.1} {goodput:>10.0} {exact:>6}",
            rate * 100.0,
            threads * ops_per_thread,
            ms(wall),
        );
        assert!(
            exact,
            "rate {rate}: cold-restart replay diverged from the acked prefix"
        );
        // The commit volume guarantees at least 17 fsync rounds (windows
        // hold at most `threads` batches), so both scheduled faults fired.
        if rate > 0.0 {
            assert!(
                injected >= 2,
                "rate {rate}: the scheduled faults never fired — the sweep ran fault-free"
            );
        }
        // The gate: recovery (rollback + quarantine + reopen replay) costs
        // bounded work, it does not collapse the service. Every attempted
        // commit was acked (the `attempt < 8` loop above), and one injected
        // fsync fault costs at most `window_max_batches + threads` retries:
        // it fails one window, which holds at most `window_max_batches`
        // members, and poisons the committer once; the poison refuses a
        // writer at most once, because a refused commit quarantines that
        // writer's document and its reopen lifts the poison before it
        // enqueues again. Fault-free, that is zero retries.
        let retry_bound = injected * (window_max_batches + threads);
        assert!(
            total_retries <= retry_bound,
            "rate {rate}: {total_retries} retries for {injected} injected faults \
             (the protocol bounds them by {retry_bound})"
        );
    }
    println!();
}
