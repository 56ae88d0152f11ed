//! Boolean formulas over probabilistic events and the Shannon-expansion
//! oracle.
//!
//! The engine asks one probability question — `P(c₁ ∨ … ∨ cₙ)` over
//! conjunctive conditions — and answers it with
//! [`disjunction_probability`](crate::disjunction_probability) over a
//! [`Bdd`](crate::Bdd). [`Formula`] is the independent check on that
//! answer: and/or/not over event literals, expanded on one event at a time
//! ([`Formula::probability_shannon`], exponential in the number of distinct
//! events). The property tests (`tests/bdd_props.rs`), experiment E13 and the
//! broad-query regression test hold the kernel to it.

use std::collections::BTreeSet;

use crate::condition::{Condition, Literal};
use crate::table::{EventId, EventTable};
use crate::valuation::Valuation;

/// A boolean formula over probabilistic events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A single literal.
    Lit(Literal),
    /// Conjunction of subformulas (empty = true).
    And(Vec<Formula>),
    /// Disjunction of subformulas (empty = false).
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// The formula of a conjunctive condition.
    fn from_condition(condition: &Condition) -> Formula {
        if condition.is_empty() {
            return Formula::True;
        }
        if !condition.is_consistent() {
            return Formula::False;
        }
        Formula::And(
            condition
                .literals()
                .iter()
                .copied()
                .map(Formula::Lit)
                .collect(),
        )
    }

    /// The disjunction of a set of conjunctive conditions (a DNF), e.g. the
    /// existence condition of "at least one of these matches".
    pub fn any_of<'a>(conditions: impl IntoIterator<Item = &'a Condition>) -> Formula {
        Formula::or(
            conditions
                .into_iter()
                .map(Formula::from_condition)
                .collect(),
        )
    }

    /// Smart conjunction constructor with constant folding.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for part in parts {
            match part {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("length checked"),
            _ => Formula::And(flat),
        }
    }

    /// Smart disjunction constructor with constant folding.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for part in parts {
            match part {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("length checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Smart negation constructor.
    fn negate(part: Formula) -> Formula {
        match part {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            Formula::Lit(lit) => Formula::Lit(lit.negated()),
            other => Formula::Not(Box::new(other)),
        }
    }

    /// The set of events mentioned by the formula.
    pub fn events(&self) -> BTreeSet<EventId> {
        let mut out = BTreeSet::new();
        self.collect_events(&mut out);
        out
    }

    fn collect_events(&self, out: &mut BTreeSet<EventId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Lit(lit) => {
                out.insert(lit.event);
            }
            Formula::And(parts) | Formula::Or(parts) => {
                for part in parts {
                    part.collect_events(out);
                }
            }
            Formula::Not(inner) => inner.collect_events(out),
        }
    }

    /// Evaluates the formula under a complete valuation.
    fn eval(&self, valuation: &Valuation) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Lit(lit) => lit.satisfied_by(valuation),
            Formula::And(parts) => parts.iter().all(|part| part.eval(valuation)),
            Formula::Or(parts) => parts.iter().any(|part| part.eval(valuation)),
            Formula::Not(inner) => !inner.eval(valuation),
        }
    }

    /// Substitutes a truth value for an event and simplifies.
    fn restrict(&self, event: EventId, value: bool) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Lit(lit) => {
                if lit.event == event {
                    if lit.positive == value {
                        Formula::True
                    } else {
                        Formula::False
                    }
                } else {
                    Formula::Lit(*lit)
                }
            }
            Formula::And(parts) => Formula::and(
                parts
                    .iter()
                    .map(|part| part.restrict(event, value))
                    .collect(),
            ),
            Formula::Or(parts) => Formula::or(
                parts
                    .iter()
                    .map(|part| part.restrict(event, value))
                    .collect(),
            ),
            Formula::Not(inner) => Formula::negate(inner.restrict(event, value)),
        }
    }

    /// Exact probability of the formula being true (events are mutually
    /// independent) by Shannon expansion — exponential in the number of
    /// distinct events the formula mentions. It is the test oracle for the
    /// BDD kernel; production callers use
    /// [`disjunction_probability`](crate::disjunction_probability).
    pub fn probability_shannon(&self, table: &EventTable) -> f64 {
        match self {
            Formula::True => return 1.0,
            Formula::False => return 0.0,
            Formula::Lit(lit) => return lit.probability(table),
            _ => {}
        }
        let events = self.events();
        let Some(&event) = events.iter().next() else {
            // No events left but not a constant: cannot happen after the
            // smart constructors, treat conservatively by evaluation.
            return if self.eval(&Valuation::all_false(table)) {
                1.0
            } else {
                0.0
            };
        };
        let p = table.probability(event);
        let if_true = self.restrict(event, true).probability_shannon(table);
        let if_false = self.restrict(event, false).probability_shannon(table);
        p * if_true + (1.0 - p) * if_false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (EventTable, EventId, EventId, EventId) {
        let mut t = EventTable::new();
        let w1 = t.add_event("w1", 0.8).unwrap();
        let w2 = t.add_event("w2", 0.7).unwrap();
        let w3 = t.add_event("w3", 0.9).unwrap();
        (t, w1, w2, w3)
    }

    #[test]
    fn constants_and_literals() {
        let (t, w1, _, _) = table();
        assert_eq!(Formula::True.probability_shannon(&t), 1.0);
        assert_eq!(Formula::False.probability_shannon(&t), 0.0);
        let pos = Formula::Lit(Literal::pos(w1));
        let neg = Formula::Lit(Literal::neg(w1));
        assert!((pos.probability_shannon(&t) - 0.8).abs() < 1e-12);
        assert!((neg.probability_shannon(&t) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn smart_constructors_fold_constants() {
        let (_, w1, _, _) = table();
        let lit = Formula::Lit(Literal::pos(w1));
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![Formula::True, lit.clone()]), lit);
        assert_eq!(
            Formula::and(vec![Formula::False, lit.clone()]),
            Formula::False
        );
        assert_eq!(Formula::or(vec![Formula::True, lit.clone()]), Formula::True);
        assert_eq!(Formula::or(vec![Formula::False, lit.clone()]), lit);
        assert_eq!(Formula::negate(Formula::True), Formula::False);
        assert_eq!(Formula::negate(Formula::negate(lit.clone())), lit);
        assert_eq!(
            Formula::negate(Formula::Lit(Literal::pos(w1))),
            Formula::Lit(Literal::neg(w1))
        );
    }

    #[test]
    fn from_condition() {
        let (t, w1, w2, _) = table();
        let cond = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        let formula = Formula::from_condition(&cond);
        assert!((formula.probability_shannon(&t) - 0.24).abs() < 1e-12);
        assert_eq!(Formula::from_condition(&Condition::always()), Formula::True);
        let inconsistent = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w1)]);
        assert_eq!(Formula::from_condition(&inconsistent), Formula::False);
    }

    #[test]
    fn probability_of_conjunction_and_disjunction() {
        let (t, w1, w2, _) = table();
        let a = Formula::Lit(Literal::pos(w1));
        let b = Formula::Lit(Literal::pos(w2));
        let both = Formula::and(vec![a.clone(), b.clone()]);
        let either = Formula::or(vec![a, b]);
        assert!((both.probability_shannon(&t) - 0.56).abs() < 1e-12);
        // P(w1 ∨ w2) = 0.8 + 0.7 − 0.56
        assert!((either.probability_shannon(&t) - 0.94).abs() < 1e-12);
    }

    #[test]
    fn probability_handles_shared_events_correctly() {
        let (t, w1, w2, _) = table();
        // (w1 ∧ w2) ∨ (w1 ∧ ¬w2) ≡ w1 : naive inclusion-free summing would
        // give 0.8 but so does the exact computation — the point is that the
        // shared event w1 must not be double counted as 0.56 + 0.24 ≠ P,
        // which happens to equal 0.8 here, so also test an overlapping pair.
        let c1 = Condition::from_literals(vec![Literal::pos(w1), Literal::pos(w2)]);
        let c2 = Condition::from_literals(vec![Literal::pos(w1)]);
        let f = Formula::any_of(&[c1, c2]);
        // (w1∧w2) ∨ w1 ≡ w1.
        assert!((f.probability_shannon(&t) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn eval_and_restrict() {
        let (t, w1, w2, _) = table();
        let f = Formula::or(vec![
            Formula::Lit(Literal::pos(w1)),
            Formula::Lit(Literal::pos(w2)),
        ]);
        let mut v = Valuation::all_false(&t);
        assert!(!f.eval(&v));
        v.set(w2, true);
        assert!(f.eval(&v));
        assert_eq!(f.restrict(w1, true), Formula::True);
        assert_eq!(f.restrict(w1, false), Formula::Lit(Literal::pos(w2)));
    }

    #[test]
    fn probability_matches_enumeration() {
        let (t, w1, w2, w3) = table();
        let conditions = [
            Condition::from_literals([Literal::pos(w1), Literal::neg(w2)]),
            Condition::from_literals([Literal::pos(w2), Literal::pos(w3)]),
        ];
        let f = Formula::any_of(&conditions);
        let by_bdd = crate::disjunction_probability(&conditions, &t);
        let by_shannon = f.probability_shannon(&t);
        let by_enumeration: f64 = crate::valuation::enumerate_valuations(&t)
            .unwrap()
            .into_iter()
            .filter(|v| f.eval(v))
            .map(|v| v.probability(&t))
            .sum();
        assert!((by_bdd - by_enumeration).abs() < 1e-12);
        assert!((by_shannon - by_enumeration).abs() < 1e-12);
    }

    #[test]
    fn events_are_collected() {
        let (_, w1, w2, w3) = table();
        let f = Formula::and(vec![
            Formula::Lit(Literal::pos(w1)),
            Formula::negate(Formula::or(vec![
                Formula::Lit(Literal::neg(w2)),
                Formula::Lit(Literal::pos(w3)),
            ])),
        ]);
        let events = f.events();
        assert_eq!(events.len(), 3);
        assert!(events.contains(&w1) && events.contains(&w2) && events.contains(&w3));
        assert!(Formula::True.events().is_empty());
    }
}
