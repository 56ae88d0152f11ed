//! Regression test for the broad-query cliff (pxbench README, "The cliff").
//!
//! `person { phone }` on a 200-person directory after 400 extraction updates
//! has about a hundred match conditions that fall into one small
//! event-independent component per person. Evaluated as **one** BDD in
//! event-id order — different persons' events interleave — that disjunction
//! takes minutes and gigabytes (pxbench's sizing runs saw a 30 s client
//! timeout overrun and the server out of memory); factored into its
//! components ([`pxml::event::disjunction_probability`]) it costs
//! microseconds. The test pins that `Warehouse::query_merged` returns at
//! this size and that what it returns is the exact probability.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pxml::core::SimplifyPolicy;
use pxml::event::{EventId, Formula};
use pxml::gen::scenarios::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml::query::Pattern;
use pxml::store::MemBackend;
use pxml::warehouse::{SessionConfig, Warehouse};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PEOPLE: usize = 200;
const UPDATES: usize = 400;
/// Where the single diagram blows up depends violently on which update hit
/// which person in which order: of seeds 1–40 most took about a second
/// (release build), 9 took one minute and 30 more than two.
const SEED: u64 = 30;

#[test]
fn broad_queries_past_the_cliff_return_the_exact_probability() {
    let scenario = PeopleScenarioConfig {
        people: PEOPLE,
        ..PeopleScenarioConfig::default()
    };
    let warehouse =
        Warehouse::with_backend(Arc::new(MemBackend::new()), SessionConfig::default()).unwrap();
    warehouse
        .create_document("people", people_directory(&scenario))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..UPDATES {
        let (update, _) = extraction_update(&mut rng, &scenario);
        warehouse
            .commit_batch("people", &[update], Some(SimplifyPolicy::Inline))
            .unwrap();
    }

    for text in ["person { phone }", "person { name, email }"] {
        let pattern = Pattern::parse(text).unwrap();
        let merged = warehouse.query_merged("people", &pattern).unwrap();
        assert_eq!(merged.answers.len(), 1, "{text}: one merged answer");
        assert_eq!(merged.selection, merged.answers[0].1, "{text}");

        // The reference: each person's matches mention only that person's
        // update events (checked), so persons are independent, and one
        // person's disjunction is small enough for the Shannon oracle.
        let snapshot = warehouse.snapshot("people").unwrap();
        assert_eq!(snapshot.seq(), merged.seq);
        let fuzzy = snapshot.fuzzy();
        let result = fuzzy.query(&pattern);
        let mut by_person = BTreeMap::new();
        for m in &result.matches {
            by_person
                .entry(m.matching.image(pattern.root()))
                .or_insert_with(Vec::new)
                .push(m.condition.clone());
        }
        let mut seen: BTreeSet<EventId> = BTreeSet::new();
        let mut nobody = 1.0;
        for conditions in by_person.values() {
            let events: BTreeSet<EventId> = conditions.iter().flat_map(|c| c.events()).collect();
            assert!(seen.is_disjoint(&events), "{text}: persons share an event");
            seen.extend(events);
            let formula = Formula::any_of(conditions);
            nobody *= 1.0 - formula.probability_shannon(fuzzy.events());
        }
        assert!(by_person.len() > 40, "{text}: a broad result");
        let reference = 1.0 - nobody;
        assert!(
            (merged.selection - reference).abs() < 1e-9,
            "{text}: selection {} vs per-person reference {reference}",
            merged.selection
        );
        assert!((0.0..=1.0).contains(&merged.selection));
    }
}
