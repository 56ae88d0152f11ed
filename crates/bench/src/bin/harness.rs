//! The experiment harness: prints the paper-style result tables E1–E10 (the
//! possible-worlds and fuzzy-tree experiments of Abiteboul & Senellart) and
//! runs the engine experiments E11–E15, E17 and E18. E8 and four of the
//! engine experiments (E14, E15, E17, E18) end in the asserted gates CI
//! runs. Each experiment is described at its section below.
//!
//! The text tables on stdout are the harness's only output, and nothing
//! diffs them: machine-readable numbers, the per-layer trace and the
//! parent-vs-change comparison are `benchmarks/pxbench`'s job.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pxml-bench --bin harness               # all experiments
//! cargo run --release -p pxml-bench --bin harness e3 e5         # a selection
//! cargo run --release -p pxml-bench --bin harness -- --quick    # smaller sweeps
//! cargo run --release -p pxml-bench --bin harness -- --quick e3 # both
//! ```
//!
//! An argument that is neither `--quick` nor an experiment name prints the
//! valid ones and exits 2.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use pxml_bench::{
    cleaning_history, deletion_growth_document, deletion_growth_step, document, fuzzy_document,
    insert_update_for, merged_answer_document, query_for, slide12, update_for, BENCH_SEED,
};
use pxml_core::{
    encode_possible_worlds, FuzzyQueryResult, FuzzyTree, Simplifier, SimplifyPolicy, Update,
    UpdateTransaction,
};
use pxml_event::{Condition, EventId, Formula};
use pxml_gen::concurrent::{
    concurrent_workload, initial_document, ConcurrentWorkloadConfig, DocumentWorkload, WorkloadOp,
};
use pxml_gen::scenarios::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml_gen::storage::journal_batches;
use pxml_query::Pattern;
use pxml_server::{Client, Server, ServerConfig};
use pxml_store::{
    serialize_fuzzy_document, CommitPolicy, FaultOp, FaultPlan, FsBackend, FsOptions, MemBackend,
    StorageBackend,
};
use pxml_tree::parse_data_tree;
use pxml_warehouse::{CompactionPolicy, Session, SessionConfig, Warehouse};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Experiment = fn(bool);

const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("e1", e1_possible_worlds_example),
    ("e2", e2_expressiveness),
    ("e3", e3_query_models),
    ("e4", e4_updates),
    ("e5", e5_deletion_growth),
    ("e6", e6_conditional_replacement),
    ("e7", e7_warehouse),
    ("e8", e8_simplification),
    ("e9", e9_query_scaling),
    ("e10", e10_complexity_summary),
    ("e11", e11_concurrent_engine),
    ("e12", e12_commit_latency_vs_journal),
    ("e13", e13_bdd_vs_shannon),
    ("e14", e14_group_commit),
    ("e15", e15_snapshot_reads),
    ("e17", e17_request_rate),
    ("e18", e18_chaos_sweep),
];

/// Parses the command line into `(quick, experiments to run)`. Naming no
/// experiment selects all of them, and the selection comes back in table
/// order whatever order it was typed in. Anything that is neither `--quick`
/// nor an experiment name is an error: a mistyped CI selector must fail the
/// step, not run nothing and exit green.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(bool, Vec<&'static str>), String> {
    let names = || EXPERIMENTS.iter().map(|(name, _)| *name);
    let mut quick = false;
    let mut named = Vec::new();
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if names().any(|name| name == arg) {
            named.push(arg);
        } else {
            let valid: Vec<&str> = names().collect();
            return Err(format!(
                "unknown argument `{arg}`; valid arguments: --quick {}",
                valid.join(" ")
            ));
        }
    }
    let selected = names()
        .filter(|name| named.is_empty() || named.iter().any(|n| n == name))
        .collect();
    Ok((quick, selected))
}

fn main() {
    let (quick, selected) = parse_args(std::env::args().skip(1)).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });
    println!("pxml experiment harness (quick = {quick})");
    println!("=========================================\n");
    for (name, body) in EXPERIMENTS {
        if selected.contains(&name) {
            body(quick);
        }
    }
}

/// Runs `body` a few times and reports the median wall-clock time.
fn time_it(repetitions: usize, mut body: impl FnMut()) -> Duration {
    let mut samples = Vec::with_capacity(repetitions);
    for _ in 0..repetitions {
        let start = Instant::now();
        body();
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn header(id: &str, title: &str) {
    println!("----------------------------------------------------------------");
    println!("{id}: {title}");
    println!("----------------------------------------------------------------");
}

// ---------------------------------------------------------------------------
// E1 — slide 9.
// ---------------------------------------------------------------------------

fn e1_possible_worlds_example(_quick: bool) {
    header("E1", "possible-worlds example (slide 9)");
    let worlds = pxml_core::PossibleWorlds::from_worlds(vec![
        (parse_data_tree("<A><C/></A>").unwrap(), 0.06),
        (parse_data_tree("<A><C/><D/></A>").unwrap(), 0.14),
        (parse_data_tree("<A><B/><C/></A>").unwrap(), 0.24),
        (parse_data_tree("<A><B/><C/><D/></A>").unwrap(), 0.56),
    ])
    .unwrap();
    println!("{:<28} {:>12} {:>12}", "world", "paper P", "measured P");
    for (xml, expected) in [
        ("<A><C/></A>", 0.06),
        ("<A><C/><D/></A>", 0.14),
        ("<A><B/><C/></A>", 0.24),
        ("<A><B/><C/><D/></A>", 0.56),
    ] {
        let tree = parse_data_tree(xml).unwrap();
        let measured = worlds.probability_of_tree(&tree);
        println!("{xml:<28} {expected:>12.2} {measured:>12.2}");
    }
    println!("total probability: {:.6}\n", worlds.total_probability());
}

// ---------------------------------------------------------------------------
// E2 — slide 12 + expressiveness.
// ---------------------------------------------------------------------------

fn e2_expressiveness(quick: bool) {
    header("E2", "fuzzy-tree semantics and expressiveness (slide 12)");
    let fuzzy = slide12();
    let worlds = fuzzy.to_possible_worlds().unwrap();
    println!("{:<22} {:>12} {:>12}", "world", "paper P", "measured P");
    for (xml, expected) in [
        ("<A><C/></A>", 0.06),
        ("<A><C/><D/></A>", 0.70),
        ("<A><B/><C/></A>", 0.24),
    ] {
        let tree = parse_data_tree(xml).unwrap();
        let measured = worlds.probability_of_tree(&tree);
        println!("{xml:<22} {expected:>12.2} {measured:>12.2}");
    }
    let encoded = encode_possible_worlds(&worlds).unwrap();
    let round_trip = encoded
        .to_possible_worlds()
        .unwrap()
        .equivalent(&worlds, 1e-9);
    println!("round trip PW -> fuzzy -> PW equivalent: {round_trip}");

    // Expansion cost vs number of events (the exponential the fuzzy-tree
    // representation avoids paying until asked).
    let max_events = if quick { 10 } else { 14 };
    println!("\n{:>8} {:>10} {:>14}", "events", "worlds", "expand (ms)");
    for events in (2..=max_events).step_by(2) {
        let fuzzy = fuzzy_document(40, events, BENCH_SEED + events as u64);
        let mut world_count = 0;
        let elapsed = time_it(3, || {
            world_count = fuzzy.to_possible_worlds().unwrap().len();
        });
        println!("{events:>8} {world_count:>10} {:>14.3}", ms(elapsed));
    }
    println!();
}

// ---------------------------------------------------------------------------
// E3 — query on fuzzy trees vs on possible worlds.
// ---------------------------------------------------------------------------

fn e3_query_models(quick: bool) {
    header(
        "E3",
        "query commutation and fuzzy-vs-possible-worlds query cost (slide 13)",
    );
    let max_events = if quick { 10 } else { 14 };
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>10}",
        "events", "worlds", "fuzzy qry (ms)", "worlds qry (ms)", "agree"
    );
    for events in (2..=max_events).step_by(2) {
        let fuzzy = fuzzy_document(60, events, BENCH_SEED + 100 + events as u64);
        let query = query_for(fuzzy.tree(), 3, BENCH_SEED + events as u64);
        let mut fuzzy_answers = 0;
        let fuzzy_time = time_it(3, || {
            fuzzy_answers = fuzzy.query(&query).len();
        });
        let mut world_count = 0;
        let worlds_time = time_it(3, || {
            let worlds = fuzzy.to_possible_worlds().unwrap();
            world_count = worlds.len();
            let _ = worlds.query(&query);
        });
        let agree = {
            let via_fuzzy = fuzzy.query(&query).as_possible_worlds(fuzzy.events());
            let via_worlds = fuzzy.to_possible_worlds().unwrap().query(&query);
            via_fuzzy.equivalent(&via_worlds, 1e-9)
        };
        println!(
            "{events:>8} {world_count:>10} {:>16.3} {:>16.3} {agree:>10}",
            ms(fuzzy_time),
            ms(worlds_time)
        );
        let _ = fuzzy_answers;
    }

    println!("\nfuzzy query cost vs document size (events fixed at 8):");
    println!("{:>10} {:>16}", "elements", "fuzzy qry (ms)");
    let sizes: &[usize] = if quick {
        &[100, 400, 1600]
    } else {
        &[100, 400, 1600, 6400]
    };
    for &size in sizes {
        let fuzzy = fuzzy_document(size, 8, BENCH_SEED + size as u64);
        let query = query_for(fuzzy.tree(), 3, BENCH_SEED + 7);
        let elapsed = time_it(3, || {
            let _ = fuzzy.query(&query);
        });
        println!("{size:>10} {:>16.3}", ms(elapsed));
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — probabilistic updates.
// ---------------------------------------------------------------------------

fn e4_updates(quick: bool) {
    header(
        "E4",
        "probabilistic updates: insertion cost and commutation (slide 14)",
    );
    let sizes: &[usize] = if quick {
        &[100, 400, 1600]
    } else {
        &[100, 400, 1600, 6400]
    };
    println!(
        "{:>10} {:>18} {:>18}",
        "elements", "insert tx (ms)", "mixed tx (ms)"
    );
    for &size in sizes {
        let tree = document(size, BENCH_SEED + size as u64);
        let insert = insert_update_for(&tree, BENCH_SEED + 1);
        let mixed = update_for(&tree, BENCH_SEED + 2);
        let insert_time = time_it(3, || {
            let mut fuzzy = FuzzyTree::from_tree(tree.clone());
            insert.apply_to_fuzzy(&mut fuzzy).unwrap();
        });
        let mixed_time = time_it(3, || {
            let mut fuzzy = FuzzyTree::from_tree(tree.clone());
            mixed.apply_to_fuzzy(&mut fuzzy).unwrap();
        });
        println!(
            "{size:>10} {:>18.3} {:>18.3}",
            ms(insert_time),
            ms(mixed_time)
        );
    }

    // Commutation spot check on small instances.
    let mut agreements = 0;
    let total = 10;
    for seed in 0..total {
        let fuzzy = fuzzy_document(15, 4, BENCH_SEED + 300 + seed);
        let update = update_for(fuzzy.tree(), BENCH_SEED + 400 + seed);
        let via_worlds = fuzzy.to_possible_worlds().unwrap().update(&update);
        let mut updated = fuzzy.clone();
        update.apply_to_fuzzy(&mut updated).unwrap();
        if via_worlds.equivalent(&updated.to_possible_worlds().unwrap(), 1e-9) {
            agreements += 1;
        }
    }
    println!("\nupdate commutation diagram holds on {agreements}/{total} random instances\n");
}

// ---------------------------------------------------------------------------
// E5 — deletion-induced growth.
// ---------------------------------------------------------------------------

fn e5_deletion_growth(quick: bool) {
    header(
        "E5",
        "exponential growth under conditional deletions (slide 14)",
    );
    let rounds = if quick { 8 } else { 10 };
    println!(
        "{:>8} {:>14} {:>14} {:>20} {:>20}",
        "round", "copies of C", "nodes", "nodes (simplified)", "literals (simpl.)"
    );
    let mut raw = deletion_growth_document(rounds);
    let mut simplified = deletion_growth_document(rounds);
    for k in 1..=rounds {
        deletion_growth_step(k).apply_to_fuzzy(&mut raw).unwrap();
        deletion_growth_step(k)
            .apply_to_fuzzy(&mut simplified)
            .unwrap();
        Simplifier::new().run(&mut simplified).unwrap();
        println!(
            "{k:>8} {:>14} {:>14} {:>20} {:>20}",
            raw.tree().find_elements("C").len(),
            raw.node_count(),
            simplified.node_count(),
            simplified.condition_literal_count()
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E6 — conditional replacement (slide 15).
// ---------------------------------------------------------------------------

fn e6_conditional_replacement(_quick: bool) {
    header("E6", "conditional replacement example (slide 15)");
    let mut fuzzy = FuzzyTree::new("A");
    let w1 = fuzzy.add_event("w1", 0.8).unwrap();
    let w2 = fuzzy.add_event("w2", 0.7).unwrap();
    let root = fuzzy.root();
    let b = fuzzy.add_element(root, "B");
    fuzzy
        .set_condition(
            b,
            pxml_event::Condition::from_literal(pxml_event::Literal::pos(w1)),
        )
        .unwrap();
    let c = fuzzy.add_element(root, "C");
    fuzzy
        .set_condition(
            c,
            pxml_event::Condition::from_literal(pxml_event::Literal::pos(w2)),
        )
        .unwrap();
    let pattern = Pattern::parse("/A { B, C }").unwrap();
    let ids: Vec<_> = pattern.node_ids().collect();
    let tx = UpdateTransaction::new(pattern, 0.9)
        .unwrap()
        .with_insert(ids[0], parse_data_tree("<D/>").unwrap())
        .with_delete(ids[2]);
    tx.apply_to_fuzzy(&mut fuzzy).unwrap();

    println!(
        "{:<10} {:<30}",
        "node", "condition (paper: B[w1], C[!w1 w2], C[w1 w2 !w3], D[w1 w2 w3])"
    );
    for node in fuzzy.tree().nodes() {
        if node == fuzzy.root() {
            continue;
        }
        let label = fuzzy.tree().label(node).as_str().to_string();
        let condition = fuzzy.condition(node).display(fuzzy.events());
        println!("{label:<10} {condition:<30}");
    }
    println!("{}", fuzzy.events());
}

// ---------------------------------------------------------------------------
// E7 — warehouse end-to-end throughput.
// ---------------------------------------------------------------------------

fn e7_warehouse(quick: bool) {
    header(
        "E7",
        "warehouse architecture: update/query throughput and recovery (slides 3, 16)",
    );
    let sizes: &[usize] = if quick { &[50, 200] } else { &[50, 200, 1000] };
    let updates = if quick { 100 } else { 200 };
    let queries = 50;
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>14}",
        "people", "updates", "updates/s", "queries/s", "recover (ms)"
    );
    for &people in sizes {
        let dir =
            std::env::temp_dir().join(format!("pxml-harness-e7-{}-{}", std::process::id(), people));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::open(
            &dir,
            SessionConfig {
                simplify: SimplifyPolicy::Threshold(4096),
                compaction: CompactionPolicy::EveryNBatches(64),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let scenario = PeopleScenarioConfig {
            people,
            ..PeopleScenarioConfig::default()
        };
        let doc = session
            .create("people", people_directory(&scenario))
            .unwrap();

        let mut rng = StdRng::seed_from_u64(BENCH_SEED + people as u64);
        let start = Instant::now();
        for _ in 0..updates {
            let (update, _) = extraction_update(&mut rng, &scenario);
            doc.begin().stage(update).commit().unwrap();
        }
        let update_rate = updates as f64 / start.elapsed().as_secs_f64();

        let patterns = [
            Pattern::parse("person { phone }").unwrap(),
            Pattern::parse("person { email }").unwrap(),
            Pattern::parse("person { name, city }").unwrap(),
        ];
        let start = Instant::now();
        for i in 0..queries {
            let _ = doc.query(&patterns[i % patterns.len()]).unwrap();
        }
        let query_rate = queries as f64 / start.elapsed().as_secs_f64();

        drop(doc);
        drop(session);
        let start = Instant::now();
        let reopened = Session::open(&dir, SessionConfig::default()).unwrap();
        let recovery = start.elapsed();
        let _ = reopened.document("people").unwrap();

        println!(
            "{people:>10} {updates:>12} {update_rate:>14.1} {query_rate:>14.1} {:>14.2}",
            ms(recovery)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
}

// ---------------------------------------------------------------------------
// E8 — simplification effectiveness. Gated: no row grows, the cleaning
// history reaches its optimum, and update + simplify are deterministic.
// ---------------------------------------------------------------------------

fn e8_simplification(quick: bool) {
    header("E8", "fuzzy-data simplification (slide 19 perspective)");
    let histories = if quick { 40 } else { 120 };
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "updates", "nodes", "nodes'", "literals", "literals'", "simplify (ms)"
    );
    for &updates in &[histories / 2, histories] {
        let mut fuzzy = FuzzyTree::from_tree(people_directory(&PeopleScenarioConfig {
            people: 20,
            ..PeopleScenarioConfig::default()
        }));
        let scenario = PeopleScenarioConfig {
            people: 20,
            ..PeopleScenarioConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(BENCH_SEED + updates as u64);
        for _ in 0..updates {
            let (update, _) = extraction_update(&mut rng, &scenario);
            update.apply_to_fuzzy(&mut fuzzy).unwrap();
        }
        let nodes_before = fuzzy.node_count();
        let literals_before = fuzzy.condition_literal_count();
        let mut simplified = fuzzy.clone();
        let elapsed = time_it(3, || {
            simplified = fuzzy.clone();
            Simplifier::new().run(&mut simplified).unwrap();
        });
        println!(
            "{updates:>10} {nodes_before:>12} {:>12} {literals_before:>12} {:>12} {:>14.3}",
            simplified.node_count(),
            simplified.condition_literal_count(),
            ms(elapsed)
        );
        e8_gate_no_growth(&format!("{updates} updates"), &fuzzy, &simplified);
    }

    // Growth history (the E5 document): independent chained deletions are
    // provably irreducible in the per-node conjunctive formalism, so the
    // simplifier's job here is only to not make things worse.
    let rounds = if quick { 8 } else { 10 };
    let mut grown = deletion_growth_document(rounds);
    for k in 1..=rounds {
        deletion_growth_step(k).apply_to_fuzzy(&mut grown).unwrap();
    }
    let before = (grown.node_count(), grown.condition_literal_count());
    let mut simplified = grown.clone();
    let simplify_report = Simplifier::new().run(&mut simplified).unwrap();
    println!(
        "\nafter {rounds} chained deletions: {} nodes / {} literals  →  {} nodes / {} literals ({} passes)",
        before.0,
        before.1,
        simplified.node_count(),
        simplified.condition_literal_count(),
        simplify_report.passes
    );
    e8_gate_no_growth("chained deletions", &grown, &simplified);

    // Data-cleaning history: multi-match retractions fragment the survivor
    // conditions into pieces only the group re-cover can collapse. Built
    // twice: recovery replays update application and the simplifier, so
    // both must give the same bytes for the same history every time.
    let (people, phones, cleaning_rounds) = if quick { (10, 3, 2) } else { (20, 3, 3) };
    let build = || {
        let history = cleaning_history(people, phones, cleaning_rounds);
        let mut cleaned = history.clone();
        let report = Simplifier::new().run(&mut cleaned).unwrap();
        (history, cleaned, report)
    };
    let (history, cleaned, simplify_report) = build();
    let (history_again, cleaned_again, _) = build();
    let bytes = |fuzzy: &FuzzyTree| serialize_fuzzy_document(fuzzy, false);
    let deterministic =
        bytes(&history) == bytes(&history_again) && bytes(&cleaned) == bytes(&cleaned_again);
    println!(
        "cleaning history ({people} people × {phones} phones, {cleaning_rounds} retraction rounds): \
         {} nodes / {} literals  →  {} nodes / {} literals ({} merged) deterministic: {deterministic}\n",
        history.node_count(),
        history.condition_literal_count(),
        cleaned.node_count(),
        cleaned.condition_literal_count(),
        simplify_report.merged_nodes
    );
    e8_gate_no_growth("cleaning history", &history, &cleaned);
    // The gate: the re-cover's optimum on this history, two pieces an email.
    let optimum = if quick { (151, 170) } else { (341, 500) };
    assert!(
        cleaned.node_count() <= optimum.0 && cleaned.condition_literal_count() <= optimum.1,
        "E8: the cleaning history must simplify to at most {} nodes / {} literals",
        optimum.0,
        optimum.1
    );
    assert!(
        deterministic,
        "E8: the same cleaning history must serialise identically, before and after simplification"
    );
}

/// E8's gate on every row: simplification never grows a document.
fn e8_gate_no_growth(row: &str, before: &FuzzyTree, after: &FuzzyTree) {
    assert!(
        after.node_count() <= before.node_count()
            && after.condition_literal_count() <= before.condition_literal_count(),
        "E8 ({row}): simplification grew the document"
    );
}

// ---------------------------------------------------------------------------
// E9 — query evaluation scaling: the one matcher, by document and pattern
// size.
// ---------------------------------------------------------------------------

fn e9_query_scaling(quick: bool) {
    header("E9", "TPWJ evaluation scaling (slide 19 perspective)");
    let sizes: &[usize] = if quick {
        &[100, 1000, 5000]
    } else {
        &[100, 1000, 10_000]
    };
    println!(
        "{:>10} {:>14} {:>16}",
        "elements", "pattern size", "match (ms)"
    );
    for &size in sizes {
        let tree = document(size, BENCH_SEED + size as u64);
        for &pattern_nodes in &[2usize, 4, 6] {
            // Average over several derived queries to damp the variance of a
            // single random pattern.
            let queries: Vec<_> = (0..3)
                .map(|i| query_for(&tree, pattern_nodes, BENCH_SEED + pattern_nodes as u64 + i))
                .collect();
            let matching = time_it(3, || {
                for query in &queries {
                    let _ = query.find_matches(&tree);
                }
            });
            println!(
                "{size:>10} {pattern_nodes:>14} {:>16.3}",
                ms(matching) / queries.len() as f64
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// E10 — empirical complexity summary.
// ---------------------------------------------------------------------------

fn e10_complexity_summary(quick: bool) {
    header(
        "E10",
        "empirical complexity of query / update / simplification",
    );
    // Full mode used to be capped at 3200 elements: the bare deletion chain
    // turned a random mixed update at 6400 into a minutes-long blow-up. The
    // context-pruned apply pipeline removed the cap; the extra column shows
    // the same updates committed with `SimplifyPolicy::Inline`.
    let sizes: &[usize] = if quick {
        &[200, 800]
    } else {
        &[200, 800, 3200, 6400]
    };
    println!(
        "{:>10} {:>14} {:>14} {:>18} {:>16}",
        "elements", "query (ms)", "update (ms)", "update+inl (ms)", "simplify (ms)"
    );
    type Row = (usize, f64, f64, f64, f64);
    let mut rows: Vec<Row> = Vec::new();
    for &size in sizes {
        let fuzzy = fuzzy_document(size, 8, BENCH_SEED + size as u64);
        // Average over several derived queries/updates to damp the variance
        // of a single random pattern.
        let queries: Vec<_> = (0..3)
            .map(|i| query_for(fuzzy.tree(), 3, BENCH_SEED + i))
            .collect();
        let updates: Vec<_> = (0..3)
            .map(|i| update_for(fuzzy.tree(), BENCH_SEED + i))
            .collect();
        let query_time = time_it(3, || {
            for query in &queries {
                let _ = fuzzy.query(query);
            }
        })
        .div_f64(queries.len() as f64);
        let update_time = time_it(3, || {
            for update in &updates {
                let mut copy = fuzzy.clone();
                update.apply_to_fuzzy(&mut copy).unwrap();
            }
        })
        .div_f64(updates.len() as f64);
        let inline_time = time_it(3, || {
            for update in &updates {
                let mut copy = fuzzy.clone();
                update
                    .apply_to_fuzzy_with(&mut copy, SimplifyPolicy::Inline)
                    .unwrap();
            }
        })
        .div_f64(updates.len() as f64);
        let simplify_time = time_it(3, || {
            let mut copy = fuzzy.clone();
            Simplifier::new().run(&mut copy).unwrap();
        });
        println!(
            "{size:>10} {:>14.3} {:>14.3} {:>18.3} {:>16.3}",
            ms(query_time),
            ms(update_time),
            ms(inline_time),
            ms(simplify_time)
        );
        rows.push((
            size,
            ms(query_time),
            ms(update_time),
            ms(inline_time),
            ms(simplify_time),
        ));
    }
    if rows.len() >= 2 {
        let slope = |get: &dyn Fn(&Row) -> f64| {
            let first = &rows[0];
            let last = &rows[rows.len() - 1];
            let dx = (last.0 as f64 / first.0 as f64).ln();
            let dy = (get(last).max(1e-6) / get(first).max(1e-6)).ln();
            dy / dx
        };
        println!(
            "\napparent growth exponents (1.0 = linear): query {:.2}, update {:.2}, update+inline {:.2}, simplify {:.2}\n",
            slope(&|r| r.1),
            slope(&|r| r.2),
            slope(&|r| r.3),
            slope(&|r| r.4)
        );
    }
}

// ---------------------------------------------------------------------------
// E11 — concurrent engine throughput scaling.
// ---------------------------------------------------------------------------

/// Replays one document's op stream against its warehouse handle, sleeping
/// `think` before each operation: the think time stands in for the work a
/// real imprecise module does per fact (extraction, NLP, entity resolution —
/// the pipelines of slide 2), which dwarfs the engine call itself. Worker
/// threads therefore overlap their module latency, and the measured scaling
/// shows whether the *engine* lets them: with one lock over the whole
/// document map, commits to independent documents would serialize and the
/// curve flattens; with per-document locks it keeps climbing.
fn e11_drive(
    document: &pxml_warehouse::Document,
    workload: &DocumentWorkload,
    think: Duration,
) -> usize {
    let mut ops = 0usize;
    for op in &workload.ops {
        std::thread::sleep(think);
        match op {
            WorkloadOp::Query(pattern) => {
                document.query(pattern).unwrap();
            }
            WorkloadOp::Commit(batch) => {
                let mut txn = document.begin();
                for update in batch {
                    txn = txn.stage(update.clone());
                }
                txn.commit().unwrap();
            }
        }
        ops += 1;
    }
    ops
}

fn e11_concurrent_engine(quick: bool) {
    header(
        "E11",
        "concurrent engine: mixed-workload throughput scaling over independent documents",
    );
    let config = ConcurrentWorkloadConfig {
        documents: 8,
        people_per_document: 16,
        ops_per_document: if quick { 24 } else { 60 },
        query_fraction: 0.5,
        updates_per_commit: 2,
    };
    let think = Duration::from_micros(2_000);
    let total_ops = config.documents * config.ops_per_document;
    println!(
        "{} documents x {} ops (50% queries, 50% 2-update commits), {} µs simulated module \
         latency per op",
        config.documents,
        config.ops_per_document,
        think.as_micros()
    );
    println!(
        "\n{:>10} {:>12} {:>12} {:>10}",
        "threads", "wall (ms)", "ops/s", "speedup"
    );
    let mut baseline_ms = None;
    for &threads in &[1usize, 2, 4, 8] {
        let dir =
            std::env::temp_dir().join(format!("pxml-harness-e11-{}-{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::open(
            &dir,
            SessionConfig {
                simplify: SimplifyPolicy::Threshold(4096),
                compaction: CompactionPolicy::EveryNBatches(16),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let workloads = concurrent_workload(BENCH_SEED, &config);
        let documents: Vec<_> = workloads
            .iter()
            .map(|w| {
                session
                    .create(&w.document, initial_document(&config))
                    .unwrap()
            })
            .collect();

        // Documents are dealt round-robin to threads. The same streams run
        // at every thread count; wall time includes thread spawning — part
        // of the price of using more threads.
        let barrier = std::sync::Barrier::new(threads);
        let start = Instant::now();
        let executed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let own: Vec<_> = workloads
                        .iter()
                        .zip(&documents)
                        .skip(t)
                        .step_by(threads)
                        .collect();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        own.iter()
                            .map(|(workload, document)| e11_drive(document, workload, think))
                            .sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let wall = start.elapsed();
        assert_eq!(executed, total_ops);

        let wall_ms = ms(wall);
        let baseline = *baseline_ms.get_or_insert(wall_ms);
        println!(
            "{threads:>10} {wall_ms:>12.1} {:>12.1} {:>9.2}x",
            total_ops as f64 / wall.as_secs_f64(),
            baseline / wall_ms
        );
        drop(documents);
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Group-commit variant: the same mixed workload at full thread count,
    // with the session's fs backend in `Grouped` mode. The think time
    // between ops means windows are often shallow here (this is a *mixed*
    // workload, not a commit storm — E14 is the targeted sweep); the point
    // is that grouped mode is a drop-in for the engine path and the fsync
    // counter visibly drops below the commit count.
    let threads = config.documents;
    println!(
        "\ngroup-commit variant ({threads} threads, same workload):\n\
         {:>10} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "commit", "wall (ms)", "ops/s", "fsyncs", "commits", "occupancy"
    );
    for (mode, commit) in [
        ("sync", CommitPolicy::Sync),
        (
            "grouped",
            CommitPolicy::Grouped {
                window_max_batches: 8,
                window_max_wait: Duration::from_millis(3),
            },
        ),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "pxml-harness-e11-grp-{}-{mode}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::open(
            &dir,
            SessionConfig {
                simplify: SimplifyPolicy::Threshold(4096),
                compaction: CompactionPolicy::EveryNBatches(16),
                commit,
            },
        )
        .unwrap();
        let workloads = concurrent_workload(BENCH_SEED, &config);
        let documents: Vec<_> = workloads
            .iter()
            .map(|w| {
                session
                    .create(&w.document, initial_document(&config))
                    .unwrap()
            })
            .collect();
        let before = session.stats();
        let barrier = std::sync::Barrier::new(threads);
        let start = Instant::now();
        let executed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = workloads
                .iter()
                .zip(&documents)
                .map(|(workload, document)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        e11_drive(document, workload, think)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let wall = start.elapsed();
        assert_eq!(executed, total_ops);
        let stats = session.stats();
        let fsyncs = stats.fsyncs - before.fsyncs;
        let grouped_commits = stats.grouped_commits - before.grouped_commits;
        let windows = stats.grouped_windows - before.grouped_windows;
        let occupancy = if windows == 0 {
            0.0
        } else {
            grouped_commits as f64 / windows as f64
        };
        println!(
            "{mode:>10} {:>12.1} {:>12.1} {fsyncs:>10} {grouped_commits:>10} {occupancy:>12.2}",
            ms(wall),
            total_ops as f64 / wall.as_secs_f64()
        );
        drop(documents);
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
}

// ---------------------------------------------------------------------------
// E12 — commit latency vs accumulated journal length.
// ---------------------------------------------------------------------------

/// Seeds a store with `seeded` committed batches and measures the latency of
/// appending one more: the median over `probes` appends (each a real durable
/// commit — on `FsBackend` that includes the fsync). Probes go through the
/// ticketed `append_batch_enqueue(..).wait()`, the engine's commit entry
/// point: the `fs-grp` backend exercises its group-commit pipeline, and on
/// ungrouped backends the ticket comes back already resolved.
fn e12_probe(
    store: &dyn StorageBackend,
    seeded: usize,
    probes: usize,
    scenario: &PeopleScenarioConfig,
) -> Duration {
    store
        .save_document("people", &FuzzyTree::from_tree(people_directory(scenario)))
        .unwrap();
    for batch in journal_batches(BENCH_SEED, seeded, 2, scenario) {
        store.append_batch("people", &batch).unwrap();
    }
    let probe_batches = journal_batches(BENCH_SEED + 1, probes, 2, scenario);
    let mut samples: Vec<Duration> = probe_batches
        .iter()
        .map(|batch| {
            let start = Instant::now();
            store.append_batch_enqueue("people", batch).wait().unwrap();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// The claim behind the append-only segment journal: committing one batch
/// costs O(batch), independent of how many batches the journal already
/// holds. The old monolithic journal rewrote the whole file per commit —
/// O(journal) — so its "vs empty" column grew linearly with the seed count.
fn e12_commit_latency_vs_journal(quick: bool) {
    header(
        "E12",
        "commit latency vs accumulated journal length (O(batch) claim, both backends)",
    );
    let seeds: &[usize] = &[0, 100, 1000, 5000];
    let probes = if quick { 15 } else { 41 };
    let scenario = PeopleScenarioConfig {
        people: 16,
        ..PeopleScenarioConfig::default()
    };
    println!(
        "{:>10} {:>14} {:>16} {:>10} {:>18}",
        "backend", "seeded", "append (µs)", "vs empty", "journal_len (µs)"
    );
    // `fs-grp` is the fs backend with group commit enabled and a zero
    // window wait: a lone committer drains its window immediately, so the
    // row isolates the pipeline's bookkeeping overhead over plain `fs` —
    // and shows the O(batch) property survives the grouped path.
    for backend in ["fs", "fs-grp", "mem"] {
        let mut empty_us = None;
        for &seeded in seeds {
            let dir = std::env::temp_dir().join(format!(
                "pxml-harness-e12-{}-{backend}-{seeded}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store: Box<dyn StorageBackend> = match backend {
                "fs" => Box::new(FsBackend::open(&dir).unwrap()),
                "fs-grp" => Box::new(
                    FsBackend::with_options(
                        &dir,
                        FsOptions {
                            commit: CommitPolicy::Grouped {
                                window_max_batches: 8,
                                window_max_wait: Duration::ZERO,
                            },
                            ..FsOptions::default()
                        },
                    )
                    .unwrap(),
                ),
                _ => Box::new(MemBackend::new()),
            };
            let append = e12_probe(store.as_ref(), seeded, probes, &scenario);
            // The O(1) journal meter: time a batch of length queries.
            let meter_reads = 1000;
            let meter_start = Instant::now();
            for _ in 0..meter_reads {
                let _ = store.journal_length("people").unwrap();
            }
            let meter_us = meter_start.elapsed().as_secs_f64() * 1e6 / meter_reads as f64;
            let append_us = append.as_secs_f64() * 1e6;
            let baseline = *empty_us.get_or_insert(append_us);
            println!(
                "{backend:>10} {seeded:>14} {append_us:>16.1} {:>9.2}x {meter_us:>18.3}",
                append_us / baseline
            );
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// E13 — exact disjunction probability and group re-cover: BDD vs Shannon.
// ---------------------------------------------------------------------------

/// The claim behind the ROBDD engine (PR 5): the probability of a
/// disjunction of match conditions — the computation behind
/// `merged_answers` / `selection_probability` and the commutation theorem —
/// is one model-counting walk linear in diagram size, where Shannon
/// expansion pays `2^events`. The first table sweeps the number of distinct
/// events a single merged answer group spans and times the full
/// `merged_answers` path (grouping + BDD) against the Shannon oracle on the
/// same disjunction; Shannon is skipped beyond a cap where it becomes
/// intractable. The second table sweeps the width of deletion-fragmented
/// sibling groups through the simplifier's re-cover, which the BDD lifted
/// from 8 to `GROUP_RECOVER_MAX_EVENTS` (24) events: widths above 8 were
/// previously not re-covered at all. The third table shows what decides the
/// cost of a query's disjunction — not its width but how it falls apart:
/// `person { phone }` on directories past pxbench's "cliff" is hundreds of
/// conditions in small event-independent components and costs microseconds,
/// because `disjunction_probability` never builds the diagram of the whole
/// list; one directory-wide retraction puts one shared event into every
/// condition and the same query is a single component again — the case
/// factoring cannot split, printed so nobody reads the table as "solved".
fn e13_bdd_vs_shannon(quick: bool) {
    header(
        "E13",
        "exact disjunction probability and re-cover: BDD vs Shannon expansion",
    );
    let event_counts: &[usize] = if quick {
        &[4, 8, 12, 16, 18, 20, 24]
    } else {
        &[4, 8, 12, 16, 18, 20, 24, 28, 32]
    };
    let shannon_cap = if quick { 18 } else { 20 };
    println!(
        "merged-answer probability, one group of `events` matches × 3 literals:\n\
         {:>8} {:>9} {:>14} {:>16} {:>10} {:>8}",
        "events", "matches", "bdd (ms)", "shannon (ms)", "ratio", "agree"
    );
    for &events in event_counts {
        let fuzzy = merged_answer_document(events, events, 3, BENCH_SEED + events as u64);
        let query = Pattern::parse("r { a }").unwrap();
        let result = fuzzy.query(&query);
        let mut merged = Vec::new();
        let bdd_time = time_it(5, || {
            merged = result.merged_answers(fuzzy.events());
        });
        assert_eq!(merged.len(), 1, "same-body matches must form one group");
        let conditions: Vec<_> = result.matches.iter().map(|m| m.condition.clone()).collect();
        let disjunction = Formula::any_of_conditions(&conditions);
        let (shannon_ms, ratio, agree) = if events <= shannon_cap {
            let mut by_shannon = 0.0;
            let shannon_time = time_it(3, || {
                by_shannon = disjunction.probability_shannon(fuzzy.events());
            });
            let agree = (by_shannon - merged[0].1).abs() < 1e-9;
            (
                Some(ms(shannon_time)),
                Some(ms(shannon_time) / ms(bdd_time).max(1e-6)),
                Some(agree),
            )
        } else {
            // 2^events Shannon recursions: intractable, oracle skipped — so
            // no agreement check ran either ('-', not a pass).
            (None, None, None)
        };
        println!(
            "{events:>8} {:>9} {:>14.3} {:>16} {:>10} {:>8}",
            result.len(),
            ms(bdd_time),
            shannon_ms.map_or("-".into(), |t| format!("{t:.3}")),
            ratio.map_or("-".into(), |r| format!("{r:.0}x")),
            agree.map_or("-".into(), |a: bool| a.to_string()),
        );
    }

    // Group re-cover vs width: one retraction round over `phones` uncertain
    // phones fragments each person's email into `phones + 1` disjoint
    // pieces spanning `phones + 2` events (the phones, the email's own
    // event, the shared confidence). The BDD path cover collapses every
    // ladder to its 2-piece optimum at any width ≤ GROUP_RECOVER_MAX_EVENTS;
    // before PR 5 widths above 8 were left fully fragmented.
    let phone_counts: &[usize] = if quick {
        &[6, 10, 14, 22]
    } else {
        &[6, 10, 14, 18, 22]
    };
    let people = 3;
    println!(
        "\ngroup re-cover on deletion ladders ({people} people, 1 retraction round):\n\
         {:>8} {:>11} {:>16} {:>15} {:>15} {:>14}",
        "width", "fragments", "fragments after", "nodes before", "nodes after", "simplify (ms)"
    );
    for &phones in phone_counts {
        let width = phones + 2;
        let mut fuzzy = cleaning_history(people, phones, 1);
        let fragments = fuzzy.tree().find_elements("email").len();
        let nodes_before = fuzzy.node_count();
        let simplify_time = {
            let start = Instant::now();
            Simplifier::new().run(&mut fuzzy).unwrap();
            start.elapsed()
        };
        let fragments_after = fuzzy.tree().find_elements("email").len();
        println!(
            "{width:>8} {fragments:>11} {fragments_after:>16} {nodes_before:>15} {:>15} {:>14.3}",
            fuzzy.node_count(),
            ms(simplify_time)
        );
    }

    println!(
        "\ndisjunction probability vs independence structure \
         (`person {{ phone }}` on people x updates directories; ring: `r {{ a }}`):\n\
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
    Update::matching(phones.clone())
        .delete_at(phone)
        .with_confidence(0.7)
        .build()
        .unwrap()
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
        .map(|own| 1.0 - Formula::any_of_conditions(own).probability_shannon(fuzzy.events()))
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

/// Opens a warehouse over an explicit `FsBackend` with the given commit
/// policy and the simulated flush latency, and creates `docs` documents.
fn e14_open(
    dir: &std::path::Path,
    commit: CommitPolicy,
    docs: usize,
    scenario: &PeopleScenarioConfig,
) -> Warehouse {
    let _ = std::fs::remove_dir_all(dir);
    let backend = FsBackend::with_options(
        dir,
        FsOptions {
            commit,
            simulated_sync_latency: E14_FSYNC_LATENCY,
            ..FsOptions::default()
        },
    )
    .unwrap();
    let warehouse = Warehouse::with_backend(
        std::sync::Arc::new(backend),
        SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        },
    )
    .unwrap();
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
    let barrier = std::sync::Barrier::new(batches.len());
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
/// a simulated 2 ms flush; then window size at 8 writers; then the async
/// pipeline depth a single writer gets from `commit_async`.
fn e14_group_commit(quick: bool) {
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
            let dir = std::env::temp_dir().join(format!(
                "pxml-harness-e14-{}-{mode}-{writers}",
                std::process::id()
            ));
            let warehouse = e14_open(&dir, policy, writers, &scenario);
            let before = warehouse.stats();
            let wall = e14_run(&warehouse, &batches);
            let stats = warehouse.stats();
            let fsyncs = stats.fsyncs - before.fsyncs;
            let grouped_commits = stats.grouped_commits - before.grouped_commits;
            let windows = stats.grouped_windows - before.grouped_windows;
            let occupancy = if windows == 0 {
                0.0
            } else {
                grouped_commits as f64 / windows as f64
            };
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
                    // The satellite assertion: grouped mode must coalesce —
                    // strictly fewer flush rounds than commits.
                    assert!(
                        fsyncs < commits,
                        "grouped mode issued {fsyncs} fsync rounds for {commits} commits"
                    );
                }
            }
            println!(
                "{writers:>8} {mode:>9} {:>11.1} {:>11.1} {speedup:>8.2}x {fsyncs:>8} {windows:>9} {occupancy:>11.2} {journal_bytes:>10}",
                ms(wall),
                commits as f64 / secs
            );
            drop(warehouse);
            let _ = std::fs::remove_dir_all(&dir);
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
        let dir =
            std::env::temp_dir().join(format!("pxml-harness-e14-w{window}-{}", std::process::id()));
        let warehouse = e14_open(
            &dir,
            CommitPolicy::Grouped {
                window_max_batches: window,
                window_max_wait: window_wait,
            },
            writers,
            &scenario,
        );
        let before = warehouse.stats();
        let wall = e14_run(&warehouse, &batches);
        let stats = warehouse.stats();
        let fsyncs = stats.fsyncs - before.fsyncs;
        let windows = stats.grouped_windows - before.grouped_windows;
        let occupancy = if windows == 0 {
            0.0
        } else {
            (stats.grouped_commits - before.grouped_commits) as f64 / windows as f64
        };
        println!(
            "{window:>8} {:>11.1} {:>11.1} {fsyncs:>8} {windows:>9} {occupancy:>11.2}",
            ms(wall),
            commits as f64 / wall.as_secs_f64()
        );
        drop(warehouse);
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!(
            "pxml-harness-e14-async{depth}-{}",
            std::process::id()
        ));
        let warehouse = e14_open(
            &dir,
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
        let fsyncs = warehouse.stats().fsyncs - before.fsyncs;
        let secs = wall.as_secs_f64();
        let speedup = *depth1_secs.get_or_insert(secs) / secs;
        println!(
            "{depth:>8} {:>11.1} {:>11.1} {speedup:>8.2}x {fsyncs:>8}",
            ms(wall),
            async_commits as f64 / secs
        );
        drop(warehouse);
        let _ = std::fs::remove_dir_all(&dir);
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

/// Nearest-rank percentile over an already-sorted latency sample.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// The claim behind the copy-on-write snapshot engine: readers pin the
/// published snapshot in O(1) and run lock-free, so their latency
/// distribution is flat whether or not a writer is streaming commits —
/// commits whose durability fsync costs 5 ms each and would stall every
/// query behind the old writer-priority document lock. Measures reader
/// p50/p99 on an idle document, then with one writer streaming, and records
/// the chunk-copy rate of the stream (commits path-copy only the chunks
/// their batch touches).
fn e15_snapshot_reads(quick: bool) {
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
    let dir = std::env::temp_dir().join(format!("pxml-harness-e15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = FsBackend::with_options(
        &dir,
        FsOptions {
            commit: CommitPolicy::Sync,
            simulated_sync_latency: E15_FSYNC_LATENCY,
            ..FsOptions::default()
        },
    )
    .unwrap();
    let warehouse = Warehouse::with_backend(
        std::sync::Arc::new(backend),
        SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    warehouse
        .create_document("doc", people_directory(&scenario))
        .unwrap();
    let phones = Pattern::parse("person { phone }").unwrap();
    println!(
        "{readers} readers vs 1 writer on one document, fs backend, simulated {} ms \
         device flush per commit",
        E15_FSYNC_LATENCY.as_millis()
    );

    // Idle baseline: readers query an untouched document.
    let mut idle: Vec<Duration> = std::thread::scope(|scope| {
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
    idle.sort_unstable();

    // Contended phase: the same readers spin while one writer streams
    // `commits` two-update batches, each paying the 5 ms flush.
    let batches = journal_batches(BENCH_SEED, commits, 2, &scenario);
    let copies_before = warehouse
        .snapshot("doc")
        .unwrap()
        .fuzzy()
        .tree()
        .chunk_copies();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (mut contended, writer_wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
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
            stop.store(true, std::sync::atomic::Ordering::Release);
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
    let mut idle_after: Vec<Duration> = std::thread::scope(|scope| {
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
    idle_after.sort_unstable();

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
    drop(warehouse);
    let _ = std::fs::remove_dir_all(&dir);
    println!();
}

// ---------------------------------------------------------------------------
// E17 — pxml-server request-rate sweep: wire throughput and tail latency.
// ---------------------------------------------------------------------------

/// Simulated device-flush latency for E17 — deliberately heavier than
/// [`E15_FSYNC_LATENCY`] so the sweep stays flush-bound even on a small
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
fn e17_request_rate(quick: bool) {
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
        let dir =
            std::env::temp_dir().join(format!("pxml-harness-e17-{}-{clients}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServerConfig::new(&dir);
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

        let barrier = std::sync::Barrier::new(clients);
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
        let _ = std::fs::remove_dir_all(&dir);

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
    let dir = std::env::temp_dir().join(format!("pxml-harness-e17-busy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(&dir);
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
    let _ = std::fs::remove_dir_all(&dir);
    println!();
}

// ---------------------------------------------------------------------------
// E18 — chaos sweep: injected storage faults under mixed load
// ---------------------------------------------------------------------------

/// Simulated device-flush latency for E18: enough to make the durability
/// path the resource faults degrade, small enough that the sweep stays
/// cheap — the goodput gate compares ratios, not absolute rates.
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
            pxml_core::UpdateOperation::Insert { subtree, .. } => subtree
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
/// retrying writers and gates both exactness at every rate and bounded
/// goodput degradation: at a 1% fsync fault rate, goodput must stay at or
/// above 70% of the fault-free baseline.
fn e18_chaos_sweep(quick: bool) {
    header(
        "E18",
        "chaos sweep: fsync faults under mixed load, exact acked-prefix recovery",
    );

    // --- part 1: one scheduled fault, deterministic accounting ------------
    // Under the per-batch sync policy every commit is exactly one fsync
    // round (document creation syncs outside the round path), so failing
    // fsync #4 fails the 4th commit and nothing else.
    let dir = std::env::temp_dir().join(format!("pxml-harness-e18-single-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = std::sync::Arc::new(FaultPlan::new().fail_nth(FaultOp::Fsync, 4));
    let backend = FsBackend::with_options(
        &dir,
        FsOptions {
            fault: Some(plan.clone()),
            ..FsOptions::default()
        },
    )
    .unwrap();
    let warehouse = Warehouse::with_backend(
        std::sync::Arc::new(backend),
        SessionConfig {
            compaction: CompactionPolicy::Never,
            ..SessionConfig::default()
        },
    )
    .unwrap();
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
    let replayed = e18_journal_tags(&FsBackend::open(&dir).unwrap(), "doc");
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
    let _ = std::fs::remove_dir_all(&dir);

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
    let mut baseline_goodput = 0.0f64;
    let mut goodput_at_1pct = 0.0f64;
    for &rate in rates {
        let dir = std::env::temp_dir().join(format!(
            "pxml-harness-e18-sweep-{}-{}",
            std::process::id(),
            (rate * 10_000.0) as u64
        ));
        let _ = std::fs::remove_dir_all(&dir);
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
        let plan = std::sync::Arc::new(chaos);
        let backend = FsBackend::with_options(
            &dir,
            FsOptions {
                commit: CommitPolicy::Grouped {
                    window_max_batches: threads,
                    window_max_wait: Duration::from_millis(2),
                },
                simulated_sync_latency: E18_FSYNC_LATENCY,
                fault: Some(plan.clone()),
                ..FsOptions::default()
            },
        )
        .unwrap();
        let warehouse = Warehouse::with_backend(
            std::sync::Arc::new(backend),
            SessionConfig {
                compaction: CompactionPolicy::Never,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        for t in 0..threads {
            warehouse
                .create_document(&e18_doc(t), parse_data_tree(&e17_document(4)).unwrap())
                .unwrap();
        }

        let barrier = std::sync::Barrier::new(threads);
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
        let fresh = FsBackend::open(&dir).unwrap();
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
        if rate == 0.0 {
            baseline_goodput = goodput;
        }
        if (rate - 0.01).abs() < 1e-12 {
            goodput_at_1pct = goodput;
        }
        println!(
            "{:>8.1} {:>7} {acked_commits:>7} {:>9} {total_retries:>8} {:>9.1} {goodput:>10.0} {exact:>6}",
            rate * 100.0,
            threads * ops_per_thread,
            plan.injected_faults(),
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
                plan.injected_faults() >= 2,
                "rate {rate}: the scheduled faults never fired — the sweep ran fault-free"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let degradation = goodput_at_1pct / baseline_goodput;
    println!(
        "\ndegradation: {baseline_goodput:.0} -> {goodput_at_1pct:.0} acked ops/s at 1% \
         faults ({:.0}% of baseline)",
        degradation * 100.0
    );
    // The gate: recovery (rollback + quarantine + reopen replay) must cost
    // bounded goodput, not collapse the service.
    assert!(
        degradation >= 0.70,
        "goodput at 1% faults fell to {:.0}% of the fault-free baseline",
        degradation * 100.0
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::{parse_args, EXPERIMENTS};

    fn parse(args: &[&str]) -> Result<(bool, Vec<&'static str>), String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn known_selectors_run_in_table_order() {
        assert_eq!(parse(&["e17", "e3"]), Ok((false, vec!["e3", "e17"])));
        assert_eq!(parse(&["--quick", "e1"]), Ok((true, vec!["e1"])));
    }

    #[test]
    fn unknown_selector_is_an_error_naming_the_valid_ones() {
        for typo in ["e16", "e99", "quick"] {
            let error = parse(&["e1", typo]).unwrap_err();
            assert!(error.contains(&format!("`{typo}`")), "{error}");
            assert!(error.contains("--quick e1 e2 "), "{error}");
            assert!(error.ends_with(" e17 e18"), "{error}");
        }
    }

    #[test]
    fn unknown_flag_is_an_error() {
        for typo in ["--qiuck", "--bogus"] {
            let error = parse(&["--quick", typo]).unwrap_err();
            assert!(error.contains(&format!("`{typo}`")), "{error}");
        }
    }

    #[test]
    fn quick_alone_selects_every_experiment() {
        let (quick, selected) = parse(&["--quick"]).unwrap();
        assert!(quick);
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(selected, all);
        assert_eq!(parse(&[]), Ok((false, all)));
    }
}
