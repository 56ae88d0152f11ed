//! # pxml-event
//!
//! Probabilistic events and event conditions — the probabilistic substrate of
//! the fuzzy-tree model of *Querying and Updating Probabilistic Information
//! in XML* (Abiteboul & Senellart, EDBT 2006).
//!
//! A fuzzy tree annotates every node with an **event condition**: a
//! conjunction of *probabilistic events* or negations of probabilistic
//! events (slide 12). Events are pairwise independent and each carries a
//! probability, recorded in an [`EventTable`].
//!
//! This crate provides:
//!
//! * [`EventTable`], [`EventId`] — the set of events and their probabilities;
//! * [`Literal`], [`Condition`] — conjunctions of (possibly negated) events,
//!   with consistency checking, implication, simplification and exact
//!   probability under independence;
//! * [`Valuation`] and exhaustive valuation enumeration — used to expand a
//!   fuzzy tree into its possible worlds;
//! * [`disjunction_probability`] — the exact probability that at least one
//!   of a set of conditions holds, `P(c₁ ∨ … ∨ cₙ)`: the one probability
//!   question the engine asks (query selection, merged answers). It factors
//!   the disjunction into its event-independent components before any
//!   diagram is built;
//! * [`Bdd`], [`BddRef`] — the reduced ordered binary decision diagram
//!   kernel behind it: a DNF built condition by condition
//!   ([`Bdd::any_of`]), probability by one weighted model-counting walk
//!   (linear in BDD size instead of exponential in event count), and
//!   disjoint conjunctive covers read off the path structure (the
//!   simplifier's group re-cover);
//! * [`Formula`] — and/or/not over events with Shannon-expansion
//!   probability, the independent oracle the kernel is tested against.
//!
//! ```
//! use pxml_event::{Condition, EventTable, Literal};
//!
//! let mut events = EventTable::new();
//! let w1 = events.add_event("w1", 0.8).unwrap();
//! let w2 = events.add_event("w2", 0.7).unwrap();
//!
//! // The condition of node B on slide 12:  w1 ∧ ¬w2.
//! let cond = Condition::from_literals(vec![Literal::pos(w1), Literal::neg(w2)]);
//! assert!((cond.probability(&events) - 0.8 * 0.3).abs() < 1e-12);
//! ```

pub mod bdd;
pub mod condition;
pub mod error;
pub mod formula;
pub mod table;
pub mod valuation;

pub use bdd::{disjunction_probability, Bdd, BddRef};
pub use condition::{Condition, Literal};
pub use error::EventError;
pub use formula::Formula;
pub use table::{EventId, EventTable};
pub use valuation::{enumerate_valuations, enumerate_valuations_over, Valuation};
