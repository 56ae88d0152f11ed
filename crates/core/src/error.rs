//! Errors of the probabilistic XML core.

use std::fmt;

use pxml_event::EventError;
use pxml_tree::TreeError;

/// Errors raised by the possible-worlds and fuzzy-tree models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Propagated event/condition error (probability bounds, unknown events,
    /// exhaustive enumeration caps, parsing).
    Event(EventError),
    /// Propagated tree manipulation error.
    Tree(TreeError),
    /// The root of a fuzzy tree must be certain (empty condition).
    RootConditionNotAllowed,
    /// The given node does not belong to the fuzzy tree.
    InvalidNode(u32),
    /// A confidence value outside `[0, 1]` was supplied for an update.
    InvalidConfidence(f64),
    /// An update transaction attempted to delete the document root.
    CannotDeleteRoot,
    /// An insertion would put a node at this depth, below
    /// [`pxml_tree::MAX_TREE_DEPTH`].
    InsertionTooDeep(usize),
    /// Possible-worlds sets can only be encoded into a fuzzy tree when all
    /// worlds share the same root label.
    HeterogeneousRoots,
    /// An empty possible-worlds set cannot be encoded or normalised.
    EmptyWorldSet,
    /// World probabilities must be positive.
    InvalidWorldProbability(f64),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Event(err) => write!(f, "{err}"),
            CoreError::Tree(err) => write!(f, "{err}"),
            CoreError::RootConditionNotAllowed => {
                write!(
                    f,
                    "the root of a fuzzy tree must carry the empty (certain) condition"
                )
            }
            CoreError::InvalidNode(id) => write!(f, "node id {id} is not part of the fuzzy tree"),
            CoreError::InvalidConfidence(c) => {
                write!(f, "invalid update confidence {c}: must lie in [0, 1]")
            }
            CoreError::CannotDeleteRoot => {
                write!(f, "an update transaction cannot delete the document root")
            }
            CoreError::InsertionTooDeep(depth) => write!(
                f,
                "insertion would put a node at depth {depth}, the deepest allowed is {}",
                pxml_tree::MAX_TREE_DEPTH
            ),
            CoreError::HeterogeneousRoots => write!(
                f,
                "cannot encode a possible-worlds set whose worlds have different root labels"
            ),
            CoreError::EmptyWorldSet => write!(f, "the possible-worlds set is empty"),
            CoreError::InvalidWorldProbability(p) => {
                write!(
                    f,
                    "invalid world probability {p}: must be positive and finite"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Event(err) => Some(err),
            CoreError::Tree(err) => Some(err),
            _ => None,
        }
    }
}

impl From<EventError> for CoreError {
    fn from(err: EventError) -> Self {
        CoreError::Event(err)
    }
}

impl From<TreeError> for CoreError {
    fn from(err: TreeError) -> Self {
        CoreError::Tree(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let event: CoreError = EventError::InvalidProbability(3.0).into();
        assert!(event.to_string().contains("3"));
        let tree: CoreError = TreeError::CannotRemoveRoot.into();
        assert!(tree.to_string().contains("root"));
        assert!(CoreError::RootConditionNotAllowed
            .to_string()
            .contains("fuzzy"));
        assert!(CoreError::InvalidConfidence(-1.0)
            .to_string()
            .contains("-1"));
        assert!(CoreError::CannotDeleteRoot.to_string().contains("delete"));
        assert!(CoreError::HeterogeneousRoots
            .to_string()
            .contains("root labels"));
        assert!(CoreError::EmptyWorldSet.to_string().contains("empty"));
        assert!(CoreError::InvalidNode(9).to_string().contains('9'));
        assert!(CoreError::InvalidWorldProbability(0.0)
            .to_string()
            .contains('0'));
    }

    #[test]
    fn error_sources() {
        use std::error::Error;
        let err: CoreError = EventError::UnknownEvent("w".into()).into();
        assert!(err.source().is_some());
        assert!(CoreError::CannotDeleteRoot.source().is_none());
    }
}
