//! Allocation budgets: what cloning a document and applying one update cost
//! in heap allocations, counted exactly by a `#[global_allocator]` that only
//! this test binary installs. A count cannot wobble the way a timing does,
//! so a change that makes a clone or a commit allocate more fails here
//! before any benchmark run.
//!
//! The counter is per thread (a `const`-initialised thread-local), so the
//! tests of this binary may run in parallel. Apart from one warehouse
//! commit, only `pxml-core` calls are measured: they take no lock, so the
//! counts are the same with the `lock-witness` feature on, and in debug and
//! release builds. Debug and release agree only while no measured call
//! makes an allocation that lives inside it alone, which an optimised
//! build may elide: so `Condition::from_literals` sorts and dedups in place.
//!
//! The pins: a clone + drop of a fuzzy tree is [`CLONE`] allocations —
//! the tree's chunk table, the conditions' chunk table, and the event
//! table's entries and name map — whatever the number of events and
//! whether their names are generated `w{n}`, given by the document, or
//! read back from a checkpoint. One update through `apply_batch` costs the
//! same number of allocations on a 40-person and on a 1 320-person
//! directory (the two sizes leave the arena's last chunk equally full, so
//! both path copies copy the same slots), and so does one retraction
//! ([`RETRACTION`]).
//!
//! Queries are pinned on the indexed 200-person directory, in pxbench's
//! three shapes: a point query ([`POINT_QUERY`]), a scan ([`SCAN_QUERY`])
//! and a broad query ([`BROAD_QUERY`]). A point query allocates for its
//! matches and answers only, so it costs the same on a 1 320-person
//! directory. None of the query counts grows with the candidates the
//! matcher tests (it allocates nothing per candidate, and at most one list
//! of a rarest child's parents per query); the matcher's own unit tests
//! count those. All four query shapes are child-only, so a match's answer
//! is keyed over the data tree only when its partition of the pattern's
//! nodes by image is new, and only a group's first match builds a tree: a
//! query whose every answer spans the root costs the same per match
//! ([`JOIN_PER_MATCH`]) on a 200- and a 1 320-person directory.
//!
//! One commit through a `MemBackend` warehouse — match, apply, journal
//! append, the label index patched from what the commit touched, publish —
//! costs the same count at 40 and 1 320 persons ([`COMMIT`] without the
//! lock-order witness, which allocates per nested lock), and the first
//! point query on the published snapshot costs exactly [`POINT_QUERY`]: the
//! snapshot's index is current, so the query path does no index work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pxml::gen::scenarios::{extraction_update, people_directory, PeopleScenarioConfig};
use pxml::gen::uncertain_directory;
use pxml::prelude::*;
use pxml::store::{parse_fuzzy_document, serialize_fuzzy_document};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `std::alloc::System`, counting every allocation (a `realloc` is one) on
/// the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation; a thread whose counter is gone (it is exiting)
/// is not counted.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `operation` returned, and the allocations it made on this thread.
fn allocations<T>(operation: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = operation();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations of a clone of `fuzzy` and its drop.
fn clone_and_drop(fuzzy: &FuzzyTree) -> u64 {
    allocations(|| drop(fuzzy.clone())).1
}

/// A clone + drop of any fuzzy tree with events.
const CLONE: u64 = 4;
/// One confident phone insert, simplified inline.
const INSERT: u64 = 245;
/// One phone insert of confidence 0, whose minted event the inline
/// simplification collects again.
const COLLECTED_INSERT: u64 = 244;
/// One retraction of `person-17`'s phones, at confidence 0.9.
const RETRACTION: u64 = 344;

/// The 200-person `people_directory` after `updates` extraction commits,
/// each through `apply_batch` with inline simplification: every event name
/// is a generated `w{n}`.
fn history(updates: usize) -> FuzzyTree {
    let config = PeopleScenarioConfig {
        people: 200,
        ..PeopleScenarioConfig::default()
    };
    let mut fuzzy = FuzzyTree::from_tree(people_directory(&config));
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..updates {
        let (update, _) = extraction_update(&mut rng, &config);
        fuzzy = apply_batch(&fuzzy, &[update], SimplifyPolicy::Inline)
            .unwrap()
            .0;
    }
    fuzzy
}

/// A simplified directory of `people` persons with two uncertain phones and
/// an uncertain email each, under given names `w{p}_{i}` and `v{p}`.
fn directory(people: usize) -> FuzzyTree {
    let mut fuzzy = uncertain_directory(people, 2);
    Simplifier::new().run(&mut fuzzy).unwrap();
    fuzzy
}

/// A new phone for `person-17`.
fn phone(confidence: f64) -> UpdateTransaction {
    phone_for(17, confidence)
}

/// A new phone for `person-<person>`.
fn phone_for(person: usize, confidence: f64) -> UpdateTransaction {
    let pattern = Pattern::parse(&format!("person {{ name[=\"person-{person}\"] }}")).unwrap();
    let target = pattern.root();
    UpdateTransaction::new(pattern, confidence)
        .unwrap()
        .with_insert(
            target,
            parse_data_tree(&format!("<phone>+33-{person}-new</phone>")).unwrap(),
        )
}

#[test]
fn a_clone_of_a_long_update_history_costs_a_constant() {
    let (short, long) = (history(100), history(800));
    assert!(
        long.event_count() > 2 * short.event_count(),
        "{} events after 100 commits, {} after 800",
        short.event_count(),
        long.event_count()
    );
    assert_eq!(
        [clone_and_drop(&short), clone_and_drop(&long)],
        [CLONE; 2],
        "clone + drop at {} and {} events",
        short.event_count(),
        long.event_count()
    );
}

#[test]
fn a_clone_of_given_names_costs_the_same_constant() {
    let (small, large) = (uncertain_directory(40, 2), uncertain_directory(1280, 2));
    assert_eq!((small.event_count(), large.event_count()), (120, 3840));
    assert_eq!([clone_and_drop(&small), clone_and_drop(&large)], [CLONE; 2]);
}

#[test]
fn a_loaded_checkpoint_clones_at_the_same_constant() {
    for fuzzy in [history(800), uncertain_directory(1280, 2)] {
        let bytes = serialize_fuzzy_document(&fuzzy, false);
        let loaded = parse_fuzzy_document(&bytes).unwrap();
        assert_eq!(serialize_fuzzy_document(&loaded, false), bytes);
        assert_eq!(clone_and_drop(&loaded), CLONE);
    }
}

/// A retraction of `person-17`'s phones.
fn retraction(confidence: f64) -> UpdateTransaction {
    let pattern = Pattern::parse("person { name[=\"person-17\"], phone }").unwrap();
    let phone = pattern.node_ids().nth(2).unwrap();
    UpdateTransaction::new(pattern, confidence)
        .unwrap()
        .with_delete(phone)
}

#[test]
fn one_update_costs_the_same_at_both_table_sizes() {
    let mut costs = Vec::new();
    for people in [40, 1320] {
        let base = directory(people);
        let (confident, impossible) = ([phone(0.8)], [phone(0.0)]);
        let ((_, stats), insert) =
            allocations(|| apply_batch(&base, &confident, SimplifyPolicy::Inline).unwrap());
        assert_eq!(stats.updates[0].inserted_nodes, 2);
        let ((_, stats), collected) =
            allocations(|| apply_batch(&base, &impossible, SimplifyPolicy::Inline).unwrap());
        let report = stats.updates[0].simplify.as_ref().unwrap();
        assert_eq!(report.removed_events, 1, "{report:?}");
        costs.push((base.event_count(), insert, collected));
    }
    assert_eq!(
        costs,
        [
            (120, INSERT, COLLECTED_INSERT),
            (3960, INSERT, COLLECTED_INSERT)
        ]
    );
}

#[test]
fn one_retraction_costs_the_same_at_both_table_sizes() {
    let costs = [40, 1320].map(|people| {
        let (base, update) = (directory(people), [retraction(0.9)]);
        let ((_, stats), retract) =
            allocations(|| apply_batch(&base, &update, SimplifyPolicy::Inline).unwrap());
        assert_eq!(stats.updates[0].removed_nodes, 4, "{:?}", stats.updates[0]);
        retract
    });
    assert_eq!(costs, [RETRACTION; 2]);
}

/// Allocations of one query as the server's `QUERY` evaluates it: the
/// matches with their conditions and probabilities, then the answers merged
/// into distinct trees with their probabilities.
fn query(fuzzy: &FuzzyTree, pattern: &str) -> u64 {
    let pattern = Pattern::parse(pattern).unwrap();
    allocations(|| fuzzy.query(&pattern).merged_answers(fuzzy.events())).1
}

/// pxbench's point query shape: one person by name, with its phones.
const POINT: &str = "person { name[=\"person-17\"], phone }";
/// pxbench's scan shape: every person's name and email.
const SCAN: &str = "person { name, email }";
/// pxbench's broad shape: every person with each of its phones.
const BROAD: &str = "person { phone }";

/// A point query: two matches (one per phone of `person-17`).
const POINT_QUERY: u64 = 34;
/// A scan: 200 matches.
const SCAN_QUERY: u64 = 646;
/// A broad query: 400 matches.
const BROAD_QUERY: u64 = 1_246;

/// [`directory`] with its label index built, as a snapshot's is after its
/// first query.
fn indexed_directory(people: usize) -> FuzzyTree {
    let fuzzy = directory(people);
    fuzzy.tree().label_index();
    fuzzy
}

#[test]
fn queries_on_an_indexed_directory_cost_pinned_counts() {
    let base = indexed_directory(200);
    assert_eq!(
        [query(&base, POINT), query(&base, SCAN), query(&base, BROAD)],
        [POINT_QUERY, SCAN_QUERY, BROAD_QUERY]
    );
}

#[test]
fn a_point_query_costs_the_same_at_both_directory_sizes() {
    let costs = [200, 1320].map(|people| query(&indexed_directory(people), POINT));
    assert_eq!(costs, [POINT_QUERY; 2]);
}

/// A query every answer of which spans the root: `person-17`'s name beside
/// each phone of the directory (two answer groups: the two persons apart,
/// and `person-17` with its own phone).
const JOIN: &str = "directory { person { name[=\"person-17\"] }, person { phone } }";

/// Allocations per match of [`JOIN`], rounded down (the result vectors'
/// growth adds a logarithmic few).
const JOIN_PER_MATCH: u64 = 3;

#[test]
fn a_root_spanning_query_costs_the_same_per_match_at_both_directory_sizes() {
    let pattern = Pattern::parse(JOIN).unwrap();
    let costs = [200, 1320].map(|people| {
        let fuzzy = indexed_directory(people);
        let ((matches, groups), allocated) = allocations(|| {
            let result = fuzzy.query(&pattern);
            (result.len(), result.merged_answers(fuzzy.events()).len())
        });
        assert_eq!((matches, groups), (2 * people, 2));
        allocated / matches as u64
    });
    assert_eq!(costs, [JOIN_PER_MATCH; 2]);
}

/// One commit of [`phone_for`] through a `MemBackend` warehouse: the match
/// from the document's postings, the apply with inline simplification, the
/// journal append, the label index patched from what the commit touched,
/// and the publish. Pinned where the lock-order witness is off (it
/// allocates per nested lock).
const COMMIT: u64 = 317;

/// A warehouse over `MemBackend` holding [`directory`] as `doc`, after one
/// commit (so a measured commit finds the document's journal started).
fn warehouse(people: usize) -> Warehouse {
    let warehouse =
        Warehouse::with_backend(Arc::new(MemBackend::new()), SessionConfig::default()).unwrap();
    warehouse
        .create_fuzzy_document("doc", directory(people))
        .unwrap();
    warehouse
        .commit_batch("doc", &[phone_for(3, 0.8)], None)
        .unwrap();
    warehouse
}

/// Every published snapshot carries a current label index: a commit costs
/// the same count at 40 and 1 320 persons (a full build's walk grows its
/// lists by the document's size), the first point query after it costs
/// exactly [`POINT_QUERY`], so the query path does no index work, and the
/// snapshot's clone + drop stays [`CLONE`].
#[test]
fn a_warehouse_commit_patches_the_index_the_next_query_reads() {
    let costs = [40, 1320].map(|people| {
        let warehouse = warehouse(people);
        let (stats, commit) = allocations(|| {
            warehouse
                .commit_batch("doc", &[phone_for(5, 0.8)], None)
                .unwrap()
        });
        assert_eq!(stats.updates[0].inserted_nodes, 2);
        let snapshot = warehouse.snapshot("doc").unwrap();
        assert!(snapshot.fuzzy().tree().built_label_index().is_some());
        let point = query(snapshot.fuzzy(), POINT);
        assert_eq!(clone_and_drop(snapshot.fuzzy()), CLONE);
        (commit, point)
    });
    assert_eq!(costs[0], costs[1], "at 40 and 1 320 persons");
    assert_eq!(costs[0].1, POINT_QUERY);
    if !cfg!(feature = "lock-witness") {
        assert_eq!(costs[0].0, COMMIT);
    }
}
