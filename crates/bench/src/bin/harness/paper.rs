//! The paper's tables: E1–E8 and E10. Each prints what a slide of Abiteboul
//! & Senellart claims beside what this implementation measures. E8 is also
//! a gate (see its section).

use std::time::Instant;

use pxml_bench::{
    cleaning_history, deletion_growth_document, deletion_growth_step, document, fuzzy_document,
    header, insert_update_for, ms, query_for, time_it, update_for, Scratch, BENCH_SEED,
};
use pxml_core::fuzzy::slide12_example;
use pxml_core::{
    encode_possible_worlds, FuzzyTree, PossibleWorlds, Simplifier, SimplifyPolicy,
    UpdateTransaction,
};
use pxml_event::{Condition, Literal};
use pxml_gen::scenarios::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml_query::Pattern;
use pxml_store::serialize_fuzzy_document;
use pxml_tree::parse_data_tree;
use pxml_warehouse::{CompactionPolicy, SessionConfig, Warehouse};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// E1 — slide 9.
// ---------------------------------------------------------------------------

pub fn e1_possible_worlds_example(_quick: bool) {
    header("E1", "possible-worlds example (slide 9)");
    let worlds = PossibleWorlds::from_worlds(vec![
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

pub fn e2_expressiveness(quick: bool) {
    header("E2", "fuzzy-tree semantics and expressiveness (slide 12)");
    let fuzzy = slide12_example();
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

pub fn e3_query_models(quick: bool) {
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

pub fn e4_updates(quick: bool) {
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

pub fn e5_deletion_growth(quick: bool) {
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

pub fn e6_conditional_replacement(_quick: bool) {
    header("E6", "conditional replacement example (slide 15)");
    let mut fuzzy = FuzzyTree::new("A");
    let w1 = fuzzy.add_event("w1", 0.8).unwrap();
    let w2 = fuzzy.add_event("w2", 0.7).unwrap();
    let root = fuzzy.root();
    let b = fuzzy.add_element(root, "B");
    fuzzy
        .set_condition(b, Condition::from_literal(Literal::pos(w1)))
        .unwrap();
    let c = fuzzy.add_element(root, "C");
    fuzzy
        .set_condition(c, Condition::from_literal(Literal::pos(w2)))
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

pub fn e7_warehouse(quick: bool) {
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
        let scratch = Scratch::new(&format!("e7-{people}"));
        let warehouse = Warehouse::with_config(
            scratch.path(),
            SessionConfig {
                compaction: CompactionPolicy::EveryNBatches(64),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let scenario = PeopleScenarioConfig {
            people,
            ..PeopleScenarioConfig::default()
        };
        warehouse
            .create_document("people", people_directory(&scenario))
            .unwrap();

        let mut rng = StdRng::seed_from_u64(BENCH_SEED + people as u64);
        let start = Instant::now();
        for _ in 0..updates {
            let (update, _) = extraction_update(&mut rng, &scenario);
            warehouse.commit_batch("people", &[update], None).unwrap();
        }
        let update_rate = updates as f64 / start.elapsed().as_secs_f64();

        let patterns = [
            Pattern::parse("person { phone }").unwrap(),
            Pattern::parse("person { email }").unwrap(),
            Pattern::parse("person { name, city }").unwrap(),
        ];
        let start = Instant::now();
        for i in 0..queries {
            let _ = warehouse
                .query("people", &patterns[i % patterns.len()])
                .unwrap();
        }
        let query_rate = queries as f64 / start.elapsed().as_secs_f64();

        drop(warehouse);
        let start = Instant::now();
        let reopened = Warehouse::with_config(scratch.path(), SessionConfig::default()).unwrap();
        let recovery = start.elapsed();
        assert!(reopened.contains("people"));

        println!(
            "{people:>10} {updates:>12} {update_rate:>14.1} {query_rate:>14.1} {:>14.2}",
            ms(recovery)
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E8 — simplification effectiveness. Gated: no row grows, the cleaning
// history reaches its optimum, and update + simplify are deterministic.
// ---------------------------------------------------------------------------

pub fn e8_simplification(quick: bool) {
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
// E10 — empirical complexity summary.
// ---------------------------------------------------------------------------

pub fn e10_complexity_summary(quick: bool) {
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
