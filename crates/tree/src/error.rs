//! Error types for tree manipulation and XML parsing.

use std::fmt;

/// Errors produced by [`crate::Tree`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The node id does not refer to a live node of this tree.
    InvalidNode(u32),
    /// The requested operation would detach or delete the root.
    CannotRemoveRoot,
    /// Attempted to give children to a text node.
    TextNodeHasNoChildren(u32),
    /// The arena's structure is inconsistent (see [`crate::Tree::validate`]).
    DataModelViolation(String),
    /// The tree holds a shape the PrXML codec cannot carry back unchanged
    /// (see [`crate::Tree::check_storable`]); the reason names it.
    Unstorable(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::InvalidNode(id) => write!(f, "invalid or deleted node id {id}"),
            TreeError::CannotRemoveRoot => write!(f, "the root of a data tree cannot be removed"),
            TreeError::TextNodeHasNoChildren(id) => {
                write!(f, "text node {id} cannot have children")
            }
            TreeError::DataModelViolation(msg) => write!(f, "data model violation: {msg}"),
            TreeError::Unstorable(reason) => write!(f, "the tree cannot be stored: {reason}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Errors produced by the XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line of the error location.
    pub line: usize,
    /// 1-based column of the error location.
    pub column: usize,
}

impl XmlError {
    /// Creates a new error at the given location.
    pub fn new(message: impl Into<String>, line: usize, column: usize) -> Self {
        XmlError {
            message: message.into(),
            line,
            column,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_error_display() {
        assert_eq!(
            TreeError::InvalidNode(3).to_string(),
            "invalid or deleted node id 3"
        );
        assert_eq!(
            TreeError::CannotRemoveRoot.to_string(),
            "the root of a data tree cannot be removed"
        );
        assert!(TreeError::DataModelViolation("x".into())
            .to_string()
            .contains("x"));
        assert!(TreeError::Unstorable("y".into()).to_string().contains('y'));
        assert!(TreeError::TextNodeHasNoChildren(7)
            .to_string()
            .contains('7'));
    }

    #[test]
    fn xml_error_display() {
        let e = XmlError::new("unexpected end of input", 2, 14);
        assert_eq!(e.to_string(), "XML error at 2:14: unexpected end of input");
        assert_eq!(e.line, 2);
        assert_eq!(e.column, 14);
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&TreeError::CannotRemoveRoot);
        assert_err(&XmlError::new("x", 1, 1));
    }
}
