//! Property-based validation of the BDD probability engine against two
//! independent oracles: for any random formula over at most 12 events,
//!
//! * `Formula::probability` (BDD model counting),
//! * `Formula::probability_shannon` (the original Shannon expansion), and
//! * brute-force valuation enumeration (sum the probabilities of the
//!   satisfying valuations)
//!
//! must agree to within 1e-9; tautology/contradiction decisions must agree
//! with enumeration as well, and the BDD's disjoint covers must carry
//! exactly the function's probability mass. The factoring kernel
//! [`disjunction_probability`] is held to the same oracles, within 1e-12, on
//! disjunctions constructed to split into event-independent blocks.

use proptest::prelude::*;
use pxml_event::{
    disjunction_probability, enumerate_valuations, Bdd, Condition, EventId, EventTable, Formula,
    Literal,
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

/// Blueprint of a random formula, independent of any event table: leaves
/// name events by index, inner nodes are NOT (first child) / AND / OR.
#[derive(Clone, Debug)]
enum Shape {
    Lit(u8, bool),
    Not(Box<Shape>),
    And(Vec<Shape>),
    Or(Vec<Shape>),
}

impl Shape {
    fn to_formula(&self, events: &[EventId]) -> Formula {
        match self {
            Shape::Lit(index, positive) => {
                let event = events[*index as usize % events.len()];
                Formula::Lit(if *positive {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                })
            }
            Shape::Not(inner) => Formula::negate(inner.to_formula(events)),
            Shape::And(parts) => Formula::and(parts.iter().map(|p| p.to_formula(events)).collect()),
            Shape::Or(parts) => Formula::or(parts.iter().map(|p| p.to_formula(events)).collect()),
        }
    }
}

fn shape_strategy() -> BoxedStrategy<Shape> {
    let leaf = (0u8..EVENTS as u8, any::<bool>()).prop_map(|(event, sign)| Shape::Lit(event, sign));
    leaf.boxed().prop_recursive(4, 48, 4, |inner| {
        (0u8..3, proptest::collection::vec(inner, 1..5)).prop_map(|(op, mut children)| match op {
            0 => Shape::Not(Box::new(children.pop().expect("at least one child"))),
            1 => Shape::And(children),
            _ => Shape::Or(children),
        })
    })
}

fn by_enumeration(formula: &Formula, table: &EventTable) -> f64 {
    enumerate_valuations(table)
        .unwrap()
        .into_iter()
        .filter(|v| formula.eval(v))
        .map(|v| v.probability(table))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bdd_shannon_and_enumeration_agree(shape in shape_strategy()) {
        let (table, events) = table();
        let formula = shape.to_formula(&events);
        let by_bdd = formula.probability(&table);
        let by_shannon = formula.probability_shannon(&table);
        let by_valuations = by_enumeration(&formula, &table);
        prop_assert!(
            (by_bdd - by_valuations).abs() < 1e-9,
            "BDD {by_bdd} vs enumeration {by_valuations} on {formula:?}"
        );
        prop_assert!(
            (by_shannon - by_valuations).abs() < 1e-9,
            "Shannon {by_shannon} vs enumeration {by_valuations} on {formula:?}"
        );
    }

    #[test]
    fn tautology_and_contradiction_agree_with_enumeration(shape in shape_strategy()) {
        let (table, events) = table();
        let formula = shape.to_formula(&events);
        let satisfying = enumerate_valuations(&table)
            .unwrap()
            .iter()
            .filter(|v| formula.eval(v))
            .count();
        let total = 1usize << EVENTS;
        prop_assert_eq!(formula.is_tautology(), satisfying == total);
        prop_assert_eq!(formula.is_contradiction(), satisfying == 0);
        // A formula is always equivalent to itself and to its double
        // negation, and canonical equality survives a round trip.
        let doubled = Formula::negate(Formula::negate(formula.clone()));
        prop_assert!(formula.equivalent(&doubled));
    }

    #[test]
    fn disjoint_cover_carries_the_exact_mass(shape in shape_strategy()) {
        let (table, events) = table();
        let formula = shape.to_formula(&events);
        let mut bdd = Bdd::new();
        let node = bdd.formula(&formula);
        // Generous cap: 2^12 terms always suffice for 12 events.
        let Some(cover) = bdd.disjoint_cover(node, 1 << EVENTS) else {
            return Ok(());
        };
        let mass: f64 = cover.iter().map(|term| term.probability(&table)).sum();
        prop_assert!(
            (mass - formula.probability(&table)).abs() < 1e-9,
            "cover mass {mass} vs probability on {formula:?}"
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
        let formula = Formula::any_of_conditions(&conditions);
        let by_shannon = formula.probability_shannon(&table);
        let by_valuations = by_enumeration(&formula, &table);
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
/// exact shape the query path builds): incremental [`Bdd::any_of`] equals
/// the formula route and the Shannon oracle.
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
    let formula = Formula::any_of_conditions(&conditions);
    assert!((by_bdd - formula.probability(&table)).abs() < 1e-12);
    assert!((by_bdd - formula.probability_shannon(&table)).abs() < 1e-12);
    assert!((by_bdd - by_enumeration(&formula, &table)).abs() < 1e-12);
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
    let oracle = Formula::any_of_conditions(&base).probability_shannon(&table);
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
