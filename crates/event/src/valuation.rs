//! Valuations of probabilistic events and their exhaustive enumeration.
//!
//! A valuation assigns a truth value to every event of an [`EventTable`].
//! Expanding a fuzzy tree into its possible worlds enumerates all `2^n`
//! valuations of its `n` events; the enumeration is capped (see
//! [`MAX_ENUMERATED_EVENTS`]) because the whole point of the fuzzy-tree model
//! is to avoid materialising that exponential set unless explicitly asked to.

use crate::error::EventError;
use crate::table::{EventId, EventTable};

/// Hard cap on exhaustive valuation enumeration (2^24 ≈ 16.7M worlds).
pub const MAX_ENUMERATED_EVENTS: usize = 24;

/// A complete assignment of truth values to the events of a table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Valuation {
    values: Vec<bool>,
}

impl Valuation {
    /// The valuation assigning `false` to every event of `table`.
    pub fn all_false(table: &EventTable) -> Self {
        Valuation {
            values: vec![false; table.len()],
        }
    }

    /// Builds a valuation from the bits of `mask` over the listed events,
    /// starting from all-false: bit `i` of `mask` gives the value of
    /// `events[i]`.
    pub(crate) fn from_mask(table: &EventTable, events: &[EventId], mask: u64) -> Self {
        let mut v = Valuation::all_false(table);
        for (i, &event) in events.iter().enumerate() {
            v.set(event, mask & (1 << i) != 0);
        }
        v
    }

    /// The truth value of an event (events outside the original table default
    /// to `false`).
    pub fn get(&self, event: EventId) -> bool {
        self.values.get(event.index()).copied().unwrap_or(false)
    }

    /// Sets the truth value of an event, growing the assignment if needed.
    pub fn set(&mut self, event: EventId, value: bool) {
        if event.index() >= self.values.len() {
            self.values.resize(event.index() + 1, false);
        }
        self.values[event.index()] = value;
    }

    /// The number of events with an explicit value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the valuation covers no event.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The probability of this exact valuation: events are independent, so it
    /// is the product over all events of `P(e)` or `1 − P(e)`.
    pub fn probability(&self, table: &EventTable) -> f64 {
        table
            .ids()
            .map(|event| {
                let p = table.probability(event);
                if self.get(event) {
                    p
                } else {
                    1.0 - p
                }
            })
            .product()
    }
}

/// Enumerates all `2^n` valuations of the events of `table`.
///
/// Fails with [`EventError::TooManyEvents`] beyond [`MAX_ENUMERATED_EVENTS`]
/// events.
pub fn enumerate_valuations(table: &EventTable) -> Result<Vec<Valuation>, EventError> {
    let events: Vec<EventId> = table.ids().collect();
    enumerate_valuations_over(table, &events)
}

/// Enumerates all valuations that differ only on the listed `events`; every
/// other event of the table is fixed to `false`.
///
/// Used when only the events mentioned by some conditions matter: the caller
/// combines the result with per-event probabilities restricted to `events`.
pub fn enumerate_valuations_over(
    table: &EventTable,
    events: &[EventId],
) -> Result<Vec<Valuation>, EventError> {
    if events.len() > MAX_ENUMERATED_EVENTS {
        return Err(EventError::TooManyEvents {
            requested: events.len(),
            limit: MAX_ENUMERATED_EVENTS,
        });
    }
    let count: u64 = 1 << events.len();
    let mut out = Vec::with_capacity(count as usize);
    for mask in 0..count {
        out.push(Valuation::from_mask(table, events, mask));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (EventTable, EventId, EventId) {
        let mut t = EventTable::new();
        let w1 = t.add_event("w1", 0.8).unwrap();
        let w2 = t.add_event("w2", 0.7).unwrap();
        (t, w1, w2)
    }

    #[test]
    fn all_false_and_all_true() {
        let (t, w1, w2) = table();
        let f = Valuation::all_false(&t);
        let tr = Valuation::from_mask(&t, &[w1, w2], 0b11);
        assert!(!f.get(w1) && !f.get(w2));
        assert!(tr.get(w1) && tr.get(w2));
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert!(Valuation::all_false(&EventTable::new()).is_empty());
    }

    #[test]
    fn set_and_get() {
        let (t, w1, w2) = table();
        let mut v = Valuation::all_false(&t);
        v.set(w1, true);
        assert!(v.get(w1));
        assert!(!v.get(w2));
        // Getting an out-of-range event defaults to false; setting grows.
        let far = EventId(10);
        assert!(!v.get(far));
        v.set(far, true);
        assert!(v.get(far));
    }

    #[test]
    fn valuation_probability() {
        let (t, w1, w2) = table();
        let mut v = Valuation::all_false(&t);
        // P(¬w1 ∧ ¬w2) = 0.2 × 0.3
        assert!((v.probability(&t) - 0.06).abs() < 1e-12);
        v.set(w1, true);
        // P(w1 ∧ ¬w2) = 0.8 × 0.3
        assert!((v.probability(&t) - 0.24).abs() < 1e-12);
        v.set(w2, true);
        assert!((v.probability(&t) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn enumeration_covers_all_valuations_and_sums_to_one() {
        let (t, _, _) = table();
        let all = enumerate_valuations(&t).unwrap();
        assert_eq!(all.len(), 4);
        let total: f64 = all.iter().map(|v| v.probability(&t)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // All valuations are distinct.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn enumeration_over_subset() {
        let (t, w1, _) = table();
        let partial = enumerate_valuations_over(&t, &[w1]).unwrap();
        assert_eq!(partial.len(), 2);
        assert!(partial.iter().all(|v| !v.get(EventId(1))));
    }

    #[test]
    fn from_mask_sets_bits_in_order() {
        let (t, w1, w2) = table();
        let v = Valuation::from_mask(&t, &[w1, w2], 0b10);
        assert!(!v.get(w1));
        assert!(v.get(w2));
    }

    #[test]
    fn enumeration_is_capped() {
        let mut t = EventTable::new();
        for i in 0..(MAX_ENUMERATED_EVENTS + 1) {
            t.add_event(format!("e{i}"), 0.5).unwrap();
        }
        assert!(matches!(
            enumerate_valuations(&t),
            Err(EventError::TooManyEvents { .. })
        ));
    }

    #[test]
    fn empty_table_has_single_valuation() {
        let t = EventTable::new();
        let all = enumerate_valuations(&t).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].probability(&t), 1.0);
    }
}
