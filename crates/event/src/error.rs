//! Error type for the event substrate.

use std::fmt;

/// Errors raised when manipulating events, conditions and valuations.
#[derive(Debug, Clone, PartialEq)]
pub enum EventError {
    /// A probability outside `[0, 1]` (or NaN) was supplied.
    InvalidProbability(f64),
    /// An event with the same name already exists in the table.
    DuplicateEventName(String),
    /// The name cannot be written into a condition string and read back as
    /// the same event (see [`EventTable::add_event`](crate::EventTable::add_event)).
    InvalidEventName(String),
    /// The named event does not exist in the table.
    UnknownEvent(String),
    /// The event id does not belong to the table.
    UnknownEventId(u32),
    /// A condition string could not be parsed.
    ParseError(String),
    /// Exhaustive valuation enumeration was requested over too many events.
    TooManyEvents { requested: usize, limit: usize },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::InvalidProbability(p) => {
                write!(f, "invalid probability {p}: must lie in [0, 1]")
            }
            EventError::DuplicateEventName(name) => {
                write!(f, "an event named `{name}` already exists")
            }
            EventError::InvalidEventName(name) => write!(
                f,
                "invalid event name `{name}`: must be non-empty, free of whitespace and `,`, \
                 not start with `!` or `¬`, and not be the word `not`"
            ),
            EventError::UnknownEvent(name) => write!(f, "unknown event `{name}`"),
            EventError::UnknownEventId(id) => write!(f, "unknown event id {id}"),
            EventError::ParseError(msg) => write!(f, "condition parse error: {msg}"),
            EventError::TooManyEvents { requested, limit } => write!(
                f,
                "refusing to enumerate 2^{requested} valuations (limit is 2^{limit})"
            ),
        }
    }
}

impl std::error::Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EventError::InvalidProbability(1.5)
            .to_string()
            .contains("1.5"));
        assert!(EventError::DuplicateEventName("w".into())
            .to_string()
            .contains("`w`"));
        assert!(EventError::InvalidEventName("a b".into())
            .to_string()
            .contains("`a b`"));
        assert!(EventError::UnknownEvent("x".into())
            .to_string()
            .contains("`x`"));
        assert!(EventError::UnknownEventId(7).to_string().contains('7'));
        assert!(EventError::ParseError("bad".into())
            .to_string()
            .contains("bad"));
        let e = EventError::TooManyEvents {
            requested: 40,
            limit: 24,
        };
        assert!(e.to_string().contains("2^40"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&EventError::InvalidProbability(2.0));
    }
}
