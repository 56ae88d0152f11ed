//! Engine gates: E13 (disjunction probability by independence structure),
//! E14 (group commit), E15 (snapshot reads) and E22 (commit work against
//! document size). Each ends in an `assert!` on something pxbench's
//! wire-level numbers cannot show.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pxml_bench::{
    email_retraction, header, merged_answer_document, micros, ms, percentile, stats_delta, time_it,
    warehouse_over, Scratch, BENCH_SEED,
};
use pxml_core::{FuzzyQueryResult, FuzzyTree, Simplifier, SimplifyPolicy, UpdateTransaction};
use pxml_event::{Condition, EventId, Formula};
use pxml_gen::scenarios::{
    extraction_update, people_directory, uncertain_directory, PeopleScenarioConfig,
};
use pxml_gen::storage::journal_batches;
use pxml_query::Pattern;
use pxml_store::{CommitPolicy, FsOptions, MemBackend};
use pxml_tree::parse_data_tree;
use pxml_warehouse::{CompactionPolicy, SessionConfig, Warehouse};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// E13 — disjunction probability against independence structure. Gated: the
// factored selection equals the per-person Shannon oracle.
// ---------------------------------------------------------------------------

/// What decides the cost of a query's disjunction is not its width but how
/// it falls apart: `person { phone }` on directories past pxbench's "cliff"
/// is hundreds of conditions in small event-independent components and costs
/// microseconds, because `disjunction_probability` never builds the diagram
/// of the whole list; one directory-wide retraction puts one shared event
/// into every condition and the same query is a single component again — the
/// case factoring cannot split (ROADMAP item 8's yardstick), printed with
/// the 24-event ring so nobody reads the table as "solved". The gate: on the
/// 200 x 400 directory the factored selection must equal the per-person
/// Shannon oracle.
pub fn e13_disjunction_structure(_quick: bool) {
    header("E13", "disjunction probability vs independence structure");
    println!(
        "`person {{ phone }}` on people x updates directories; ring: `r {{ a }}`\n\
         {:>24} {:>9} {:>12} {:>9} {:>16} {:>8}",
        "document", "matches", "components", "largest", "selection (ms)", "agree"
    );
    let phones = Pattern::parse("person { phone }").unwrap();
    // (label, document, query, compare with the per-person oracle)
    let mut rows: Vec<(String, FuzzyTree, &Pattern, bool)> =
        [(200, 300), (200, 400), (200, 800), (100, 800)]
            .into_iter()
            .map(|(people, updates)| {
                let name = format!("{people} x {updates}");
                let fuzzy = e13_directory(people, updates);
                (name, fuzzy, &phones, (people, updates) == (200, 400))
            })
            .collect();
    // One confidence event shared by every phone: a single component.
    let mut retracted = e13_directory(100, 200);
    let phone = phones.node_ids().nth(1).expect("phone is the second node");
    UpdateTransaction::new(phones.clone(), 0.7)
        .unwrap()
        .with_delete(phone)
        .apply_to_fuzzy_with(&mut retracted, SimplifyPolicy::Inline)
        .unwrap();
    rows.push(("100 x 200 + retract all".into(), retracted, &phones, false));
    let ring_query = Pattern::parse("r { a }").unwrap();
    let ring = merged_answer_document(24, 24, 3, BENCH_SEED + 24);
    rows.push(("ring, 24 events".into(), ring, &ring_query, false));
    for (name, fuzzy, query, has_oracle) in &rows {
        let result = fuzzy.query(query);
        let mut selection = 0.0;
        let selection_time = time_it(5, || {
            selection = result.selection_probability(fuzzy.events());
        });
        let (components, largest) = e13_components(&result);
        // The oracle is per person (each a small disjunction of its own):
        // Shannon over the whole list would pay 2^events.
        let agree = has_oracle.then(|| {
            let reference = e13_per_person_reference(&result, query, fuzzy);
            (selection - reference).abs() < 1e-9
        });
        assert_ne!(
            agree,
            Some(false),
            "factored selection vs per-person oracle"
        );
        println!(
            "{name:>24} {:>9} {components:>12} {largest:>9} {:>16.4} {:>8}",
            result.len(),
            ms(selection_time),
            agree.map_or("-".into(), |a| a.to_string()),
        );
    }
    println!();
}

/// A people directory after `updates` extraction updates, simplified inline
/// as the warehouse's default commit path does.
fn e13_directory(people: usize, updates: usize) -> FuzzyTree {
    let scenario = PeopleScenarioConfig {
        people,
        ..PeopleScenarioConfig::default()
    };
    let mut fuzzy = FuzzyTree::from_tree(people_directory(&scenario));
    let mut rng = StdRng::seed_from_u64(BENCH_SEED + (1000 * people + updates) as u64);
    for _ in 0..updates {
        let (update, _) = extraction_update(&mut rng, &scenario);
        update
            .apply_to_fuzzy_with(&mut fuzzy, SimplifyPolicy::Inline)
            .unwrap();
    }
    fuzzy
}

/// The connected components of "two match conditions mention a common
/// event": how many, and the largest in conditions.
fn e13_components(result: &FuzzyQueryResult) -> (usize, usize) {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..result.len()).collect();
    let mut first_user: HashMap<EventId, usize> = HashMap::new();
    for (i, m) in result.matches.iter().enumerate() {
        for literal in m.condition.literals() {
            let j = *first_user.entry(literal.event).or_insert(i);
            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
            parent[a] = b;
        }
    }
    let mut sizes: HashMap<usize, usize> = HashMap::new();
    for i in 0..result.len() {
        *sizes.entry(find(&mut parent, i)).or_default() += 1;
    }
    (sizes.len(), sizes.values().copied().max().unwrap_or(0))
}

/// `1 − Π_person (1 − P_person)`, each `P_person` by Shannon expansion over
/// that one person's match conditions — sound because extraction updates
/// target one person each, so no event is shared between persons.
fn e13_per_person_reference(result: &FuzzyQueryResult, query: &Pattern, fuzzy: &FuzzyTree) -> f64 {
    let mut by_person: BTreeMap<_, Vec<Condition>> = BTreeMap::new();
    for m in &result.matches {
        by_person
            .entry(m.matching.image(query.root()))
            .or_default()
            .push(m.condition.clone());
    }
    let nobody: f64 = by_person
        .values()
        .map(|own| 1.0 - Formula::any_of(own).probability_shannon(fuzzy.events()))
        .product();
    1.0 - nobody
}

// ---------------------------------------------------------------------------
// E14 — group commit: cross-document fsync coalescing.
// ---------------------------------------------------------------------------

/// Simulated device-flush latency for E14. A real fsync on the CI
/// container's storage costs anywhere from microseconds (page-cache
/// absorbed) to milliseconds, and is far too noisy to sweep; the backend's
/// `simulated_sync_latency` sleeps this long *inside the device gate* per
/// fsync round — flush rounds serialize, exactly like a single drive —
/// making the round *count* the dominant cost, which is the term group
/// commit exists to shrink.
const E14_FSYNC_LATENCY: Duration = Duration::from_millis(5);

fn e14_doc(index: usize) -> String {
    format!("doc-{index}")
}

/// Opens a warehouse over an `FsBackend` with the given commit policy and
/// the simulated flush latency, and creates `docs` documents.
fn e14_open(
    dir: &Path,
    commit: CommitPolicy,
    docs: usize,
    scenario: &PeopleScenarioConfig,
) -> Warehouse {
    let options = FsOptions {
        commit,
        simulated_sync_latency: E14_FSYNC_LATENCY,
        ..FsOptions::default()
    };
    let warehouse = warehouse_over(dir, options);
    for doc in 0..docs {
        warehouse
            .create_document(&e14_doc(doc), people_directory(scenario))
            .unwrap();
    }
    warehouse
}

/// Barrier-starts one writer thread per document; each commits its
/// pre-generated batches in order through the engine. Returns the wall time
/// of the commit phase.
fn e14_run(warehouse: &Warehouse, batches: &[Vec<Vec<UpdateTransaction>>]) -> Duration {
    let barrier = Barrier::new(batches.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (doc, own) in batches.iter().enumerate() {
            let barrier = &barrier;
            let name = e14_doc(doc);
            scope.spawn(move || {
                barrier.wait();
                for batch in own {
                    warehouse.commit_batch(&name, batch, None).unwrap();
                }
            });
        }
    });
    start.elapsed()
}

/// The claim behind the group-commit layer: when N sessions commit to N
/// documents concurrently, the durability fsyncs — the serialized,
/// latency-bound resource — can be shared across documents, so commit
/// throughput scales with writers instead of being flattened by one flush
/// per commit. Sweeps writers × {per-batch sync, grouped} on a backend with
/// a simulated 5 ms flush; then window size at 8 writers; then the async
/// pipeline depth a single writer gets from `commit_async`.
pub fn e14_group_commit(quick: bool) {
    header(
        "E14",
        "group commit: cross-document fsync coalescing (grouped vs per-batch sync)",
    );
    let scenario = PeopleScenarioConfig {
        people: 8,
        ..PeopleScenarioConfig::default()
    };
    let commits_per_writer = if quick { 12 } else { 30 };
    let window_wait = Duration::from_millis(4);
    println!(
        "N writers -> N documents, fs backend, simulated {} ms device flush, \
         {commits_per_writer} x 2-update commits per writer",
        E14_FSYNC_LATENCY.as_millis()
    );
    println!(
        "\n{:>8} {:>9} {:>11} {:>11} {:>9} {:>8} {:>9} {:>11} {:>10}",
        "writers",
        "commit",
        "wall (ms)",
        "commits/s",
        "speedup",
        "fsyncs",
        "windows",
        "occupancy",
        "journal B"
    );
    for &writers in &[1usize, 2, 4, 8] {
        let batches: Vec<Vec<Vec<UpdateTransaction>>> = (0..writers)
            .map(|doc| journal_batches(BENCH_SEED + doc as u64, commits_per_writer, 2, &scenario))
            .collect();
        let commits = writers * commits_per_writer;
        let mut sync_secs = None;
        for (mode, policy) in [
            ("sync", CommitPolicy::Sync),
            (
                "grouped",
                CommitPolicy::Grouped {
                    window_max_batches: writers,
                    window_max_wait: window_wait,
                },
            ),
        ] {
            let scratch = Scratch::new(&format!("e14-{mode}-{writers}"));
            let warehouse = e14_open(scratch.path(), policy, writers, &scenario);
            let before = warehouse.stats();
            let wall = e14_run(&warehouse, &batches);
            let moved = stats_delta(&before, &warehouse.stats());
            let (fsyncs, grouped_commits) = (moved.fsyncs, moved.grouped_commits);
            let journal_bytes: u64 = (0..writers)
                .map(|doc| warehouse.journal_size_bytes(&e14_doc(doc)).unwrap())
                .sum();
            let secs = wall.as_secs_f64();
            let speedup = match mode {
                "sync" => {
                    sync_secs = Some(secs);
                    1.0
                }
                _ => sync_secs.unwrap() / secs,
            };
            if mode == "grouped" {
                assert_eq!(
                    grouped_commits, commits,
                    "every commit must go through the grouped pipeline"
                );
                if writers >= 2 {
                    // The gate: grouped mode must coalesce — strictly fewer
                    // flush rounds than commits.
                    assert!(
                        fsyncs < commits,
                        "grouped mode issued {fsyncs} fsync rounds for {commits} commits"
                    );
                }
            }
            println!(
                "{writers:>8} {mode:>9} {:>11.1} {:>11.1} {speedup:>8.2}x {fsyncs:>8} {:>9} {:>11.2} {journal_bytes:>10}",
                ms(wall),
                commits as f64 / secs,
                moved.grouped_windows,
                moved.mean_window_occupancy()
            );
        }
    }

    // Window-size sweep at full writer count: how much coalescing a cap of
    // `window` batches per flush round buys.
    let writers = 8usize;
    let batches: Vec<Vec<Vec<UpdateTransaction>>> = (0..writers)
        .map(|doc| journal_batches(BENCH_SEED + doc as u64, commits_per_writer, 2, &scenario))
        .collect();
    let commits = writers * commits_per_writer;
    println!(
        "\nwindow-size sweep ({writers} writers, grouped):\n\
         {:>8} {:>11} {:>11} {:>8} {:>9} {:>11}",
        "window", "wall (ms)", "commits/s", "fsyncs", "windows", "occupancy"
    );
    for &window in &[2usize, 4, 8] {
        let scratch = Scratch::new(&format!("e14-w{window}"));
        let warehouse = e14_open(
            scratch.path(),
            CommitPolicy::Grouped {
                window_max_batches: window,
                window_max_wait: window_wait,
            },
            writers,
            &scenario,
        );
        let before = warehouse.stats();
        let wall = e14_run(&warehouse, &batches);
        let moved = stats_delta(&before, &warehouse.stats());
        println!(
            "{window:>8} {:>11.1} {:>11.1} {:>8} {:>9} {:>11.2}",
            ms(wall),
            commits as f64 / wall.as_secs_f64(),
            moved.fsyncs,
            moved.grouped_windows,
            moved.mean_window_occupancy()
        );
    }

    // Async pipeline: a single writer keeps `depth` commits in flight with
    // `commit_batch_async` and waits for them in batches. Depth 1 is the
    // synchronous ack-per-commit behavior; deeper pipelines let one
    // session's own commits share flush rounds with each other.
    let async_commits = commits_per_writer * 2;
    let batches = journal_batches(BENCH_SEED, async_commits, 2, &scenario);
    println!(
        "\nasync pipeline (1 writer, 1 document, grouped window 8, {async_commits} commits):\n\
         {:>8} {:>11} {:>11} {:>9} {:>8}",
        "depth", "wall (ms)", "commits/s", "speedup", "fsyncs"
    );
    let mut depth1_secs = None;
    for &depth in &[1usize, 2, 4, 8] {
        let scratch = Scratch::new(&format!("e14-async{depth}"));
        let warehouse = e14_open(
            scratch.path(),
            CommitPolicy::Grouped {
                window_max_batches: 8,
                window_max_wait: window_wait,
            },
            1,
            &scenario,
        );
        let before = warehouse.stats();
        let start = Instant::now();
        let mut in_flight = Vec::with_capacity(depth);
        for batch in &batches {
            in_flight.push(
                warehouse
                    .commit_batch_async(&e14_doc(0), batch, None)
                    .unwrap(),
            );
            if in_flight.len() == depth {
                for handle in in_flight.drain(..) {
                    handle.wait().unwrap();
                }
            }
        }
        for handle in in_flight.drain(..) {
            handle.wait().unwrap();
        }
        let wall = start.elapsed();
        let fsyncs = stats_delta(&before, &warehouse.stats()).fsyncs;
        let secs = wall.as_secs_f64();
        let speedup = *depth1_secs.get_or_insert(secs) / secs;
        println!(
            "{depth:>8} {:>11.1} {:>11.1} {speedup:>8.2}x {fsyncs:>8}",
            ms(wall),
            async_commits as f64 / secs
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E15 — MVCC snapshot reads: reader latency under a streaming writer.
// ---------------------------------------------------------------------------

/// Simulated device-flush latency for E15 — same rationale as
/// [`E14_FSYNC_LATENCY`]. Every commit pays this inside the device gate, so
/// a reader that had to wait for a writer mid-commit (the pre-MVCC engine's
/// writer-priority lock) would see its tail latency jump to this scale.
const E15_FSYNC_LATENCY: Duration = Duration::from_millis(5);

/// The claim behind the copy-on-write snapshot engine: readers pin the
/// published snapshot in O(1) and run lock-free, so their latency
/// distribution is flat whether or not a writer is streaming commits —
/// commits whose durability fsync costs 5 ms each and would stall every
/// query behind the old writer-priority document lock. Measures reader
/// p50/p99 on an idle document, then with one writer streaming, and records
/// the chunk-copy rate of the stream (commits path-copy only the chunks
/// their batch touches).
pub fn e15_snapshot_reads(quick: bool) {
    header(
        "E15",
        "snapshot reads: reader p50/p99 while a writer streams commits",
    );
    let scenario = PeopleScenarioConfig {
        people: 32,
        ..PeopleScenarioConfig::default()
    };
    let readers = if quick { 2 } else { 4 };
    let idle_queries = if quick { 300 } else { 2000 };
    let commits = if quick { 24 } else { 80 };
    let scratch = Scratch::new("e15");
    let options = FsOptions {
        commit: CommitPolicy::Sync,
        simulated_sync_latency: E15_FSYNC_LATENCY,
        ..FsOptions::default()
    };
    let warehouse = warehouse_over(scratch.path(), options);
    warehouse
        .create_document("doc", people_directory(&scenario))
        .unwrap();
    let phones = Pattern::parse("person { phone }").unwrap();
    println!(
        "{readers} readers vs 1 writer on one document, fs backend, simulated {} ms \
         device flush per commit",
        E15_FSYNC_LATENCY.as_millis()
    );

    // With no writer: every reader runs `idle_queries` queries; the sorted
    // latencies of all of them.
    let idle_phase = || -> Vec<Duration> {
        let mut samples: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut samples = Vec::with_capacity(idle_queries);
                        for _ in 0..idle_queries {
                            let start = Instant::now();
                            let _ = warehouse.query("doc", &phones).unwrap();
                            samples.push(start.elapsed());
                        }
                        samples
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().unwrap())
                .collect()
        });
        samples.sort_unstable();
        samples
    };

    // Idle baseline: readers query an untouched document.
    let idle = idle_phase();

    // Contended phase: the same readers spin while one writer streams
    // `commits` two-update batches, each paying the 5 ms flush.
    let batches = journal_batches(BENCH_SEED, commits, 2, &scenario);
    let copies_before = warehouse
        .snapshot("doc")
        .unwrap()
        .fuzzy()
        .tree()
        .chunk_copies();
    let stop = AtomicBool::new(false);
    let (mut contended, writer_wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let start = Instant::now();
                        let _ = warehouse.query("doc", &phones).unwrap();
                        samples.push(start.elapsed());
                    }
                    samples
                })
            })
            .collect();
        let writer = scope.spawn(|| {
            let start = Instant::now();
            for batch in &batches {
                warehouse.commit_batch("doc", batch, None).unwrap();
            }
            let wall = start.elapsed();
            stop.store(true, Ordering::Release);
            wall
        });
        let wall = writer.join().unwrap();
        let samples = handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap())
            .collect::<Vec<Duration>>();
        (samples, wall)
    });
    contended.sort_unstable();
    let copied = warehouse
        .snapshot("doc")
        .unwrap()
        .fuzzy()
        .tree()
        .chunk_copies()
        - copies_before;

    // Post-stream baseline on the grown document: the fair reference for
    // "contended p99 is flat" — the stream made the document bigger, so
    // queries are intrinsically slower than against the initial state.
    let idle_after = idle_phase();

    println!(
        "\n{:>11} {:>9} {:>10} {:>10} {:>10}",
        "phase", "samples", "p50 (us)", "p99 (us)", "max (us)"
    );
    for (phase, samples) in [
        ("idle", &idle),
        ("contended", &contended),
        ("idle-after", &idle_after),
    ] {
        println!(
            "{phase:>11} {:>9} {:>10.1} {:>10.1} {:>10.1}",
            samples.len(),
            micros(percentile(samples, 0.50)),
            micros(percentile(samples, 0.99)),
            micros(*samples.last().unwrap()),
        );
    }
    let writer_secs = writer_wall.as_secs_f64();
    println!(
        "\nwriter: {commits} commits in {:.1} ms ({:.1} commits/s), \
         {:.1} chunk copies per commit",
        ms(writer_wall),
        commits as f64 / writer_secs,
        copied as f64 / commits as f64
    );

    // The acceptance gate: reader tail latency must not inherit the
    // writer's 5 ms flush stalls. (Queries themselves run tens of
    // microseconds, so this bound has orders-of-magnitude headroom while
    // still catching any reader-blocks-on-writer regression.)
    let contended_p99 = percentile(&contended, 0.99);
    assert!(
        contended_p99 < E15_FSYNC_LATENCY,
        "reader p99 {:.1} us reached the writer's flush latency — readers are \
         blocking on commits",
        micros(contended_p99)
    );
    println!();
}

// ---------------------------------------------------------------------------
// E22 — commit latency against document size. Gated: a commit's
// simplification work does not grow with the document.
// ---------------------------------------------------------------------------

/// ROADMAP item 5's yardstick: the same stream of single-update commits —
/// a phone extracted, then the person's email retracted, round-robin over
/// the first 20 persons — against directories of 200 to 6 400 elements
/// (five per person: the person, a name, two uncertain phones, an uncertain
/// email), on `MemBackend` and on a synced `FsBackend`. Beside the median
/// commits it prints the whole-document simplification each commit paid
/// before the inline pass was scoped to the update's footprint, and its
/// counts. The commit still grows with the document through the matcher's
/// element scan (ROADMAP item 4), so the gate is not a timing: the nodes the
/// stream's simplifications walked and keyed must be the same at every size
/// and on both backends.
pub fn e22_commit_vs_size(quick: bool) {
    header(
        "E22",
        "commit latency vs document size: single-update batches, scoped simplification",
    );
    let commits = if quick { 40 } else { 200 };
    println!(
        "{commits} commits per size (phone, then email retraction, over 20 persons)\n\
         {:>9} {:>14} {:>14} {:>13} {:>12} {:>14} {:>14}",
        "elements",
        "walked/commit",
        "keyed/commit",
        "mem p50 (us)",
        "fs p50 (us)",
        "whole walked",
        "whole run (us)"
    );
    let mut scoped_work = Vec::new();
    for people in [40, 160, 640, 1280] {
        let mut directory = uncertain_directory(people, 2);
        let whole = Simplifier::new().run(&mut directory).unwrap();
        let whole_run = time_it(3, || {
            Simplifier::new().run(&mut directory.clone()).unwrap();
        });
        let scratch = Scratch::new(&format!("e22-{people}"));
        let memory = Warehouse::with_backend(
            Arc::new(MemBackend::new()),
            SessionConfig {
                compaction: CompactionPolicy::Never,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let file = warehouse_over(scratch.path(), FsOptions::default());
        let mut p50 = Vec::new();
        for warehouse in [&memory, &file] {
            warehouse
                .create_fuzzy_document("people", directory.clone())
                .unwrap();
            let mut latencies = Vec::with_capacity(commits);
            let mut work = (0, 0);
            for i in 0..commits {
                let update = e22_update(i);
                let start = Instant::now();
                let stats = warehouse.commit_batch("people", &[update], None).unwrap();
                latencies.push(start.elapsed());
                let report = stats.updates[0].simplify.as_ref().expect("inline policy");
                work.0 += report.nodes_walked;
                work.1 += report.nodes_keyed;
            }
            latencies.sort_unstable();
            p50.push(percentile(&latencies, 0.50));
            scoped_work.push(work);
        }
        let (walked, keyed) = scoped_work[scoped_work.len() - 1];
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>13.1} {:>12.1} {:>14} {:>14.1}",
            5 * people,
            walked as f64 / commits as f64,
            keyed as f64 / commits as f64,
            micros(p50[0]),
            micros(p50[1]),
            whole.nodes_walked,
            micros(whole_run)
        );
    }
    // The gate: one count for every size and both backends.
    assert!(
        scoped_work.windows(2).all(|pair| pair[0] == pair[1]),
        "E22: the stream's simplification work grew with the document: {scoped_work:?}"
    );
    println!();
}

/// The `i`-th commit of E22's stream: even commits extract a phone for
/// person `i / 2 % 20`, odd ones retract that person's email.
fn e22_update(i: usize) -> UpdateTransaction {
    let person = i / 2 % 20;
    if i % 2 == 1 {
        return email_retraction(Some(person));
    }
    let pattern = Pattern::parse(&format!("person {{ name[=\"person-{person}\"] }}")).unwrap();
    let target = pattern.root();
    let phone = parse_data_tree(&format!("<phone>+33-{person}-x{i}</phone>")).unwrap();
    UpdateTransaction::new(pattern, 0.8)
        .unwrap()
        .with_insert(target, phone)
}
