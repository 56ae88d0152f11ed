//! The table of probabilistic events.

use std::collections::HashMap;
use std::fmt;

use crate::error::EventError;

/// A handle to a probabilistic event in an [`EventTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u32);

impl EventId {
    /// The raw index of the event in its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The set of probabilistic events of a fuzzy tree, each with an independent
/// probability of being true (the table on the right of slide 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventTable {
    names: Vec<String>,
    probabilities: Vec<f64>,
    by_name: HashMap<String, EventId>,
}

impl EventTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of events.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if the table has no events.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Adds a named event with the given probability.
    ///
    /// A name must survive [`Condition::display`](crate::Condition::display)
    /// → [`Condition::parse`](crate::Condition::parse), the `pxml:cond`
    /// round trip every checkpoint takes: the empty name, a name containing
    /// whitespace or `,` (the separators), one starting with `!` or `¬` (the
    /// negation prefixes) and the word `not` are refused with
    /// [`EventError::InvalidEventName`].
    pub fn add_event(
        &mut self,
        name: impl Into<String>,
        probability: f64,
    ) -> Result<EventId, EventError> {
        let name = name.into();
        if name.is_empty()
            || name == "not"
            || name.starts_with(['!', '¬'])
            || name.contains(|ch: char| ch.is_whitespace() || ch == ',')
        {
            return Err(EventError::InvalidEventName(name));
        }
        if !(0.0..=1.0).contains(&probability) || probability.is_nan() {
            return Err(EventError::InvalidProbability(probability));
        }
        if self.by_name.contains_key(&name) {
            return Err(EventError::DuplicateEventName(name));
        }
        let id = EventId(self.names.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.probabilities.push(probability);
        Ok(id)
    }

    /// Adds a fresh event with an automatically generated name (`w0`, `w1`, …
    /// skipping names already in use). Used by probabilistic updates, which
    /// introduce one new event per transaction (its confidence).
    pub fn fresh_event(&mut self, probability: f64) -> Result<EventId, EventError> {
        let mut counter = self.names.len();
        loop {
            let candidate = format!("w{counter}");
            if !self.by_name.contains_key(&candidate) {
                return self.add_event(candidate, probability);
            }
            counter += 1;
        }
    }

    /// Returns `true` if `id` belongs to this table.
    pub fn contains(&self, id: EventId) -> bool {
        id.index() < self.names.len()
    }

    /// The probability of an event.
    ///
    /// # Panics
    /// Panics if the id does not belong to this table.
    pub fn probability(&self, id: EventId) -> f64 {
        self.probabilities[id.index()]
    }

    /// Changes the probability of an existing event.
    pub fn set_probability(&mut self, id: EventId, probability: f64) -> Result<(), EventError> {
        if !(0.0..=1.0).contains(&probability) || probability.is_nan() {
            return Err(EventError::InvalidProbability(probability));
        }
        if !self.contains(id) {
            return Err(EventError::UnknownEventId(id.0));
        }
        self.probabilities[id.index()] = probability;
        Ok(())
    }

    /// The name of an event.
    pub fn name(&self, id: EventId) -> &str {
        &self.names[id.index()]
    }

    /// Looks an event up by name.
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.by_name.get(name).copied()
    }

    /// Looks an event up by name, reporting an error when missing.
    pub fn require(&self, name: &str) -> Result<EventId, EventError> {
        self.lookup(name)
            .ok_or_else(|| EventError::UnknownEvent(name.to_string()))
    }

    /// Iterates over all event ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.names.len() as u32).map(EventId)
    }

    /// Iterates over `(id, name, probability)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &str, f64)> + '_ {
        self.ids()
            .map(move |id| (id, self.name(id), self.probability(id)))
    }
}

impl fmt::Display for EventTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Event   Proba.")?;
        for (_, name, p) in self.iter() {
            writeln!(f, "{name:<7} {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_events() {
        let mut table = EventTable::new();
        assert!(table.is_empty());
        let w1 = table.add_event("w1", 0.8).unwrap();
        let w2 = table.add_event("w2", 0.7).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.probability(w1), 0.8);
        assert_eq!(table.probability(w2), 0.7);
        assert_eq!(table.name(w1), "w1");
        assert_eq!(table.lookup("w2"), Some(w2));
        assert_eq!(table.lookup("nope"), None);
        assert!(table.contains(w1));
        assert!(!table.contains(EventId(99)));
    }

    #[test]
    fn rejects_bad_probabilities() {
        let mut table = EventTable::new();
        assert!(matches!(
            table.add_event("w", -0.1),
            Err(EventError::InvalidProbability(_))
        ));
        assert!(matches!(
            table.add_event("w", 1.1),
            Err(EventError::InvalidProbability(_))
        ));
        assert!(matches!(
            table.add_event("w", f64::NAN),
            Err(EventError::InvalidProbability(_))
        ));
        let w = table.add_event("w", 0.5).unwrap();
        assert!(table.set_probability(w, 2.0).is_err());
        assert!(table.set_probability(w, 0.25).is_ok());
        assert_eq!(table.probability(w), 0.25);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut table = EventTable::new();
        table.add_event("w", 0.5).unwrap();
        assert_eq!(
            table.add_event("w", 0.6),
            Err(EventError::DuplicateEventName("w".into()))
        );
    }

    #[test]
    fn rejects_names_that_cannot_round_trip_a_condition() {
        let mut table = EventTable::new();
        for name in [
            "", "not", "a b", "a\tb", " a", "a\u{a0}b", "a,b", "!a", "¬a",
        ] {
            assert_eq!(
                table.add_event(name, 0.5),
                Err(EventError::InvalidEventName(name.into())),
                "{name:?}"
            );
        }
        assert!(table.is_empty());
        // Near misses are ordinary names.
        for name in ["nota", "Not", "a!", "a¬b", "no-t", "w0"] {
            table.add_event(name, 0.5).unwrap();
        }
    }

    #[test]
    fn fresh_events_avoid_collisions() {
        let mut table = EventTable::new();
        table.add_event("w0", 0.5).unwrap();
        table.add_event("w1", 0.5).unwrap();
        let fresh = table.fresh_event(0.9).unwrap();
        assert_eq!(table.name(fresh), "w2");
        let fresh2 = table.fresh_event(0.9).unwrap();
        assert_eq!(table.name(fresh2), "w3");
    }

    #[test]
    fn require_and_try_probability_report_errors() {
        let mut table = EventTable::new();
        assert!(matches!(
            table.require("x"),
            Err(EventError::UnknownEvent(_))
        ));
        assert!(matches!(
            table.set_probability(EventId(0), 0.5),
            Err(EventError::UnknownEventId(0))
        ));
    }

    #[test]
    fn iteration_and_display() {
        let mut table = EventTable::new();
        table.add_event("w1", 0.8).unwrap();
        table.add_event("w2", 0.7).unwrap();
        let collected: Vec<_> = table.iter().map(|(_, n, p)| (n.to_string(), p)).collect();
        assert_eq!(collected, vec![("w1".into(), 0.8), ("w2".into(), 0.7)]);
        let display = table.to_string();
        assert!(display.contains("w1"));
        assert!(display.contains("0.7"));
        assert_eq!(table.ids().count(), 2);
    }
}
