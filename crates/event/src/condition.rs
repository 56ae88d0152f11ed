//! Event conditions: conjunctions of event literals.
//!
//! In the fuzzy-tree model every node carries a condition that is a
//! *conjunction of probabilistic events or negations of probabilistic events*
//! (slide 12). The empty conjunction is `⊤` (always true) and annotates
//! ordinary, certain nodes.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::EventError;
use crate::table::{EventId, EventTable};
use crate::valuation::Valuation;

/// A single event literal: an event or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The underlying event.
    pub event: EventId,
    /// `true` for `w`, `false` for `¬w`.
    pub positive: bool,
}

impl Literal {
    /// The positive literal `w`.
    pub fn pos(event: EventId) -> Self {
        Literal {
            event,
            positive: true,
        }
    }

    /// The negative literal `¬w`.
    pub fn neg(event: EventId) -> Self {
        Literal {
            event,
            positive: false,
        }
    }

    /// The literal with the same event and opposite sign.
    pub fn negated(self) -> Self {
        Literal {
            event: self.event,
            positive: !self.positive,
        }
    }

    /// The probability of this literal being true.
    pub fn probability(self, table: &EventTable) -> f64 {
        let p = table.probability(self.event);
        if self.positive {
            p
        } else {
            1.0 - p
        }
    }

    /// Whether the literal holds under a valuation.
    pub fn satisfied_by(self, valuation: &Valuation) -> bool {
        valuation.get(self.event) == self.positive
    }

    /// Renders the literal using the table's event names (`w` / `!w`).
    pub fn display(self, table: &EventTable) -> String {
        if self.positive {
            table.name(self.event).to_string()
        } else {
            format!("!{}", table.name(self.event))
        }
    }
}

/// A conjunction of event literals, kept sorted and deduplicated.
///
/// The empty condition is the tautology `⊤`. A condition containing both `w`
/// and `¬w` is *inconsistent* (its probability is 0 and any node carrying it
/// can be pruned by the simplifier).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Condition {
    literals: Vec<Literal>,
}

impl Condition {
    /// The empty (always true) condition.
    pub fn always() -> Self {
        Condition::default()
    }

    /// Builds a condition from literals (duplicates removed, order irrelevant).
    pub fn from_literals(literals: impl IntoIterator<Item = Literal>) -> Self {
        let set: BTreeSet<Literal> = literals.into_iter().collect();
        Condition {
            literals: set.into_iter().collect(),
        }
    }

    /// A condition with a single literal.
    pub fn from_literal(literal: Literal) -> Self {
        Condition {
            literals: vec![literal],
        }
    }

    /// The literals, sorted by event id (and sign).
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// The number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// `true` if the condition is the tautology `⊤`.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// `true` when no event appears both positively and negatively.
    pub fn is_consistent(&self) -> bool {
        self.literals
            .windows(2)
            .all(|pair| pair[0].event != pair[1].event)
    }

    /// `true` if the condition contains this exact literal.
    pub fn contains(&self, literal: Literal) -> bool {
        self.literals.binary_search(&literal).is_ok()
    }

    /// `true` if the condition mentions this event (positively or negatively).
    pub fn mentions(&self, event: EventId) -> bool {
        self.literals.iter().any(|lit| lit.event == event)
    }

    /// The set of events mentioned by the condition.
    pub fn events(&self) -> BTreeSet<EventId> {
        self.literals.iter().map(|lit| lit.event).collect()
    }

    /// Conjunction of two conditions.
    pub fn and(&self, other: &Condition) -> Condition {
        Condition::from_literals(self.literals.iter().chain(other.literals.iter()).copied())
    }

    /// Conjunction with a single literal.
    pub fn and_literal(&self, literal: Literal) -> Condition {
        Condition::from_literals(
            self.literals
                .iter()
                .copied()
                .chain(std::iter::once(literal)),
        )
    }

    /// Syntactic implication between conjunctions: `self ⇒ other` holds when
    /// every literal of `other` appears in `self` (or `self` is inconsistent).
    pub fn implies(&self, other: &Condition) -> bool {
        if !self.is_consistent() {
            return true;
        }
        other.literals.iter().all(|lit| self.contains(*lit))
    }

    /// Removes the literals already guaranteed by `context` (used to strip
    /// conditions implied by ancestors). Returns the reduced condition.
    pub fn without_implied_by(&self, context: &Condition) -> Condition {
        Condition {
            literals: self
                .literals
                .iter()
                .copied()
                .filter(|lit| !context.contains(*lit))
                .collect(),
        }
    }

    /// Whether the condition holds under a complete valuation of the events.
    pub fn satisfied_by(&self, valuation: &Valuation) -> bool {
        self.literals.iter().all(|lit| lit.satisfied_by(valuation))
    }

    /// The exact probability of the condition: events are independent, so a
    /// consistent conjunction has probability equal to the product of its
    /// literals' probabilities; an inconsistent one has probability 0.
    pub fn probability(&self, table: &EventTable) -> f64 {
        if !self.is_consistent() {
            return 0.0;
        }
        self.literals
            .iter()
            .map(|lit| lit.probability(table))
            .product()
    }

    /// Renders the condition using event names: literals separated by single
    /// spaces, negation written `!w`; the empty condition renders as `""`.
    pub fn display(&self, table: &EventTable) -> String {
        self.literals
            .iter()
            .map(|lit| lit.display(table))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses a condition in the [`Condition::display`] syntax (also accepts
    /// `¬w`, `not w` and comma separators). Unknown event names are errors.
    pub fn parse(input: &str, table: &EventTable) -> Result<Condition, EventError> {
        let mut literals = Vec::new();
        let normalized = input.replace(',', " ");
        let mut tokens = normalized.split_whitespace().peekable();
        while let Some(token) = tokens.next() {
            let (positive, name) = if let Some(rest) = token.strip_prefix('!') {
                (false, rest)
            } else if let Some(rest) = token.strip_prefix('¬') {
                (false, rest)
            } else if token == "not" {
                let name = tokens.next().ok_or_else(|| {
                    EventError::ParseError("`not` must be followed by an event name".into())
                })?;
                (false, name)
            } else {
                (true, token)
            };
            if name.is_empty() {
                return Err(EventError::ParseError(format!(
                    "empty event name in token `{token}`"
                )));
            }
            let event = table.require(name)?;
            literals.push(Literal { event, positive });
        }
        Ok(Condition::from_literals(literals))
    }
}

impl fmt::Display for Condition {
    /// Table-free rendering using raw event ids (`e0 !e1`); use
    /// [`Condition::display`] for named output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "⊤");
        }
        for (i, lit) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if !lit.positive {
                write!(f, "!")?;
            }
            write!(f, "{}", lit.event)?;
        }
        Ok(())
    }
}

impl FromIterator<Literal> for Condition {
    fn from_iter<T: IntoIterator<Item = Literal>>(iter: T) -> Self {
        Condition::from_literals(iter)
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
    fn literal_basics() {
        let (t, w1, _, _) = table();
        let p = Literal::pos(w1);
        let n = Literal::neg(w1);
        assert_eq!(p.negated(), n);
        assert_eq!(n.negated(), p);
        assert!((p.probability(&t) - 0.8).abs() < 1e-12);
        assert!((n.probability(&t) - 0.2).abs() < 1e-12);
        assert_eq!(p.display(&t), "w1");
        assert_eq!(n.display(&t), "!w1");
    }

    #[test]
    fn construction_dedupes_and_sorts() {
        let (_, w1, w2, _) = table();
        let c =
            Condition::from_literals(vec![Literal::neg(w2), Literal::pos(w1), Literal::pos(w1)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.literals()[0], Literal::pos(w1));
        assert_eq!(c.literals()[1], Literal::neg(w2));
        let collected: Condition = vec![Literal::pos(w1)].into_iter().collect();
        assert_eq!(collected, Condition::from_literal(Literal::pos(w1)));
    }

    #[test]
    fn always_true_condition() {
        let (t, _, _, _) = table();
        let c = Condition::always();
        assert!(c.is_empty());
        assert!(c.is_consistent());
        assert_eq!(c.probability(&t), 1.0);
        assert_eq!(c.display(&t), "");
        assert_eq!(c.to_string(), "⊤");
    }

    #[test]
    fn consistency_detection() {
        let (_, w1, w2, _) = table();
        let ok = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        let bad = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w1)]);
        assert!(ok.is_consistent());
        assert!(!bad.is_consistent());
    }

    #[test]
    fn probability_of_conjunction() {
        let (t, w1, w2, _) = table();
        // P(w1 ∧ ¬w2) = 0.8 × 0.3 — the B-node of slide 12.
        let c = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        assert!((c.probability(&t) - 0.24).abs() < 1e-12);
        // Inconsistent conditions have probability 0.
        let bad = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w1)]);
        assert_eq!(bad.probability(&t), 0.0);
    }

    #[test]
    fn and_combines_and_dedupes() {
        let (t, w1, w2, w3) = table();
        let a = Condition::from_literals(vec![Literal::pos(w1), Literal::pos(w2)]);
        let b = Condition::from_literals(vec![Literal::pos(w2), Literal::pos(w3)]);
        let both = a.and(&b);
        assert_eq!(both.len(), 3);
        assert!((both.probability(&t) - 0.8 * 0.7 * 0.9).abs() < 1e-12);
        let extended = a.and_literal(Literal::neg(w3));
        assert_eq!(extended.len(), 3);
        assert!(extended.contains(Literal::neg(w3)));
    }

    #[test]
    fn implication_and_context_reduction() {
        let (_, w1, w2, w3) = table();
        let strong =
            Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2), Literal::pos(w3)]);
        let weak = Condition::from_literals(vec![Literal::pos(w1), Literal::pos(w3)]);
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
        assert!(strong.implies(&Condition::always()));
        // Inconsistent conditions imply everything.
        let bad = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w1)]);
        assert!(bad.implies(&strong));

        let reduced = strong.without_implied_by(&weak);
        assert_eq!(reduced, Condition::from_literal(Literal::neg(w2)));
    }

    #[test]
    fn mentions_and_events() {
        let (_, w1, w2, w3) = table();
        let c = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        assert!(c.mentions(w1));
        assert!(c.mentions(w2));
        assert!(!c.mentions(w3));
        assert_eq!(c.events().len(), 2);
    }

    #[test]
    fn satisfaction_under_valuation() {
        let (t, w1, w2, _) = table();
        let c = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        let mut v = Valuation::all_false(&t);
        assert!(!c.satisfied_by(&v));
        v.set(w1, true);
        assert!(c.satisfied_by(&v));
        v.set(w2, true);
        assert!(!c.satisfied_by(&v));
    }

    #[test]
    fn parse_round_trip() {
        let (t, w1, w2, w3) = table();
        let c =
            Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2), Literal::pos(w3)]);
        let text = c.display(&t);
        assert_eq!(text, "w1 !w2 w3");
        let reparsed = Condition::parse(&text, &t).unwrap();
        assert_eq!(reparsed, c);
    }

    #[test]
    fn parse_accepts_alternate_syntax() {
        let (t, w1, w2, _) = table();
        let expected = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        assert_eq!(Condition::parse("w1, ¬w2", &t).unwrap(), expected);
        assert_eq!(Condition::parse("w1 not w2", &t).unwrap(), expected);
        assert_eq!(Condition::parse("", &t).unwrap(), Condition::always());
    }

    #[test]
    fn parse_errors() {
        let (t, _, _, _) = table();
        assert!(matches!(
            Condition::parse("unknown", &t),
            Err(EventError::UnknownEvent(_))
        ));
        assert!(matches!(
            Condition::parse("w1 not", &t),
            Err(EventError::ParseError(_))
        ));
        assert!(matches!(
            Condition::parse("!", &t),
            Err(EventError::ParseError(_))
        ));
    }

    #[test]
    fn display_with_ids() {
        let (_, w1, w2, _) = table();
        let c = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
        assert_eq!(c.to_string(), "e0 !e1");
    }
}
