//! Property-based validation of the disjunction-probability kernel against
//! two independent oracles: for any random DNF — a disjunction of
//! conjunctive conditions, the one shape the engine asks the probability of
//! — over at most 12 events,
//!
//! * [`disjunction_probability`] (the factored kernel queries run),
//! * [`Bdd::any_of`] + [`Bdd::probability`] (one diagram over the whole list),
//! * `Formula::probability_shannon` (the original Shannon expansion), and
//! * brute-force valuation enumeration (sum the probabilities of the
//!   satisfying valuations)
//!
//! must agree to within 1e-9, and the disjoint cover the simplifier reads off
//! a diagram built under any variable order ([`Bdd::with_order`]) must be
//! pairwise disjoint and partition exactly the valuations the DNF accepts.
//! The kernel is held to the same oracles, within 1e-12, on disjunctions
//! constructed to split into event-independent blocks.

use proptest::prelude::*;
use pxml_event::{
    disjunction_probability, enumerate_valuations, Bdd, Condition, EventId, EventTable, Formula,
    Literal, Valuation,
};

const EVENTS: usize = 12;

/// A table of 12 events with fixed, varied, non-deterministic probabilities
/// (the agreement property holds for any probabilities; randomizing them
/// would only blur failure reports).
fn table() -> (EventTable, Vec<EventId>) {
    let mut table = EventTable::new();
    let events = (0..EVENTS)
        .map(|i| {
            let p = (i * 7 % 11 + 1) as f64 / 12.0;
            table.add_event(format!("w{i}"), p).unwrap()
        })
        .collect();
    (table, events)
}

/// Blueprint of a random DNF, independent of any event table: up to eight
/// conditions of one to four `(event index, sign)` literals. Literals may
/// repeat an event with both signs, so inconsistent members occur too.
fn dnf_strategy() -> impl Strategy<Value = Vec<Vec<(u8, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..EVENTS as u8, any::<bool>()), 1..5),
        0..9,
    )
}

fn to_conditions(dnf: &[Vec<(u8, bool)>], events: &[EventId]) -> Vec<Condition> {
    dnf.iter()
        .map(|literals| {
            Condition::from_literals(literals.iter().map(|&(index, sign)| {
                let event = events[index as usize];
                if sign {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                }
            }))
        })
        .collect()
}

fn holds(conditions: &[Condition], valuation: &Valuation) -> bool {
    conditions.iter().any(|c| c.satisfied_by(valuation))
}

fn by_enumeration(conditions: &[Condition], table: &EventTable) -> f64 {
    enumerate_valuations(table)
        .unwrap()
        .into_iter()
        .filter(|v| holds(conditions, v))
        .map(|v| v.probability(table))
        .sum()
}

proptest! {
    // The stress job's release run draws four times the debug run's cases.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 96 } else { 384 }
    ))]

    #[test]
    fn bdd_shannon_and_enumeration_agree(dnf in dnf_strategy()) {
        let (table, events) = table();
        let conditions = to_conditions(&dnf, &events);
        let factored = disjunction_probability(&conditions, &table);
        let mut bdd = Bdd::new();
        let whole = bdd.any_of(&conditions);
        let by_bdd = bdd.probability(whole, &table);
        let by_shannon = Formula::any_of(&conditions).probability_shannon(&table);
        let by_valuations = by_enumeration(&conditions, &table);
        for (name, value) in [
            ("factored", factored),
            ("BDD", by_bdd),
            ("Shannon", by_shannon),
        ] {
            prop_assert!(
                (value - by_valuations).abs() < 1e-9,
                "{name} {value} vs enumeration {by_valuations} on {conditions:?}"
            );
        }
    }

    /// Under a random variable order (listed events first, in listing order;
    /// a repeated event keeps its first level), the path cover is consistent,
    /// pairwise disjoint, carries the disjunction's exact mass, and every
    /// valuation satisfies exactly one term if the DNF holds and none if not.
    #[test]
    fn disjoint_cover_carries_the_exact_mass(
        dnf in dnf_strategy(),
        order in proptest::collection::vec(0u8..EVENTS as u8, 0..EVENTS + 1),
    ) {
        let (table, events) = table();
        let conditions = to_conditions(&dnf, &events);
        let mut bdd = Bdd::with_order(order.iter().map(|&index| events[index as usize]));
        let node = bdd.any_of(&conditions);
        // Generous cap: 2^12 terms always suffice for 12 events.
        let Some(cover) = bdd.disjoint_cover(node, 1 << EVENTS) else {
            return Ok(());
        };
        let mass: f64 = cover.iter().map(|term| term.probability(&table)).sum();
        let expected = disjunction_probability(&conditions, &table);
        prop_assert!(
            (mass - expected).abs() < 1e-9,
            "cover mass {mass} vs probability {expected} on {conditions:?} under {order:?}"
        );
        for (i, a) in cover.iter().enumerate() {
            prop_assert!(a.is_consistent());
            for b in cover.iter().skip(i + 1) {
                prop_assert!(
                    a.literals().iter().any(|lit| b.contains(lit.negated())),
                    "terms {a} and {b} are not disjoint"
                );
            }
        }
        for valuation in enumerate_valuations(&table).unwrap() {
            let terms = cover.iter().filter(|term| term.satisfied_by(&valuation)).count();
            prop_assert_eq!(terms, usize::from(holds(&conditions, &valuation)));
        }
    }

    /// DNFs built to split: block `b` of `n` owns the events `≡ b (mod n)`,
    /// so the blocks share no event while their events interleave in id
    /// order — the order the whole-list diagram is built in — and the sort
    /// keys shuffle the blocks' conditions into one another.
    #[test]
    fn factored_disjunction_agrees_with_every_oracle(
        blocks in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..EVENTS as u8, any::<bool>()), 1..5),
                    any::<u16>(),
                ),
                1..6,
            ),
            1..7,
        )
    ) {
        let (table, events) = table();
        let mut keyed: Vec<(u16, Condition)> = Vec::new();
        for (block, conditions) in blocks.iter().enumerate() {
            let owned: Vec<EventId> = events
                .iter()
                .copied()
                .skip(block)
                .step_by(blocks.len())
                .collect();
            for (literals, key) in conditions {
                let condition = Condition::from_literals(literals.iter().map(|&(index, sign)| {
                    let event = owned[index as usize % owned.len()];
                    if sign { Literal::pos(event) } else { Literal::neg(event) }
                }));
                keyed.push((*key, condition));
            }
        }
        keyed.sort_by_key(|(key, _)| *key);
        let conditions: Vec<Condition> = keyed.into_iter().map(|(_, c)| c).collect();

        let factored = disjunction_probability(&conditions, &table);
        let mut bdd = Bdd::new();
        let whole = bdd.any_of(&conditions);
        let by_bdd = bdd.probability(whole, &table);
        let by_shannon = Formula::any_of(&conditions).probability_shannon(&table);
        let by_valuations = by_enumeration(&conditions, &table);
        prop_assert!((0.0..=1.0).contains(&factored));
        for (name, reference) in [
            ("BDD", by_bdd),
            ("Shannon", by_shannon),
            ("enumeration", by_valuations),
        ] {
            prop_assert!(
                (factored - reference).abs() < 1e-12,
                "factored {factored} vs {name} {reference} on {conditions:?}"
            );
        }
    }
}

/// Deterministic cross-check on conjunctive-condition disjunctions (the
/// exact shape the query path builds): one [`Bdd::any_of`] diagram equals the
/// factored kernel, the Shannon oracle and enumeration.
#[test]
fn any_of_conditions_matches_both_probability_paths() {
    let (table, events) = table();
    let conditions: Vec<Condition> = (0..8)
        .map(|i| {
            Condition::from_literals((0..3).map(|j| {
                let event = events[(i * 3 + j * 5) % events.len()];
                if (i + j) % 3 == 0 {
                    Literal::neg(event)
                } else {
                    Literal::pos(event)
                }
            }))
        })
        .collect();
    let mut bdd = Bdd::new();
    let union = bdd.any_of(conditions.iter());
    let by_bdd = bdd.probability(union, &table);
    assert!((by_bdd - disjunction_probability(&conditions, &table)).abs() < 1e-12);
    assert!((by_bdd - Formula::any_of(&conditions).probability_shannon(&table)).abs() < 1e-12);
    assert!((by_bdd - by_enumeration(&conditions, &table)).abs() < 1e-12);
}

/// The kernel's edge cases, beside the split property above.
#[test]
fn disjunction_probability_fixed_cases() {
    let (table, events) = table();
    let pos = |i: usize| Literal::pos(events[i]);
    let neg = |i: usize| Literal::neg(events[i]);
    let none: [Condition; 0] = [];
    assert_eq!(disjunction_probability(&none, &table), 0.0);

    let base = vec![
        Condition::from_literals([pos(0), neg(5)]),
        Condition::from_literals([pos(3)]),
        Condition::from_literals([neg(0), pos(7), pos(9)]),
    ];
    let expected = disjunction_probability(&base, &table);
    let oracle = Formula::any_of(&base).probability_shannon(&table);
    assert!((expected - oracle).abs() < 1e-12);

    // An always-true member decides the disjunction.
    let mut with_always = base.clone();
    with_always.insert(1, Condition::always());
    assert_eq!(disjunction_probability(&with_always, &table), 1.0);

    // An inconsistent member, and a duplicated one, change nothing — the
    // inconsistent one must not even glue the components it mentions.
    let mut with_inconsistent = base.clone();
    with_inconsistent.push(Condition::from_literals([pos(3), neg(3), pos(5)]));
    assert_eq!(
        disjunction_probability(&with_inconsistent, &table),
        expected
    );
    let mut with_duplicate = base.clone();
    with_duplicate.push(base[1].clone());
    assert!((disjunction_probability(&with_duplicate, &table) - expected).abs() < 1e-15);
}

/// E13's ring (match `m` uses events `m … m+2 mod n`) is one component: the
/// kernel cannot split it and must return what the plain BDD path returns.
#[test]
fn single_component_ring_is_the_bdd_path() {
    let (table, events) = table();
    let ring: Vec<Condition> = (0..EVENTS)
        .map(|m| Condition::from_literals((0..3).map(|k| Literal::pos(events[(m + k) % EVENTS]))))
        .collect();
    let mut bdd = Bdd::new();
    let whole = bdd.any_of(&ring);
    assert_eq!(
        disjunction_probability(&ring, &table),
        bdd.probability(whole, &table)
    );
}
