//! # pxml-query
//!
//! Tree-Pattern-With-Join (TPWJ) queries — the query language of *Querying
//! and Updating Probabilistic Information in XML* (Abiteboul & Senellart,
//! EDBT 2006), described on slide 6 as "a standard subset of XQuery".
//!
//! A query is a tree pattern whose nodes carry a label test (or wildcard),
//! optionally a value test, and optionally a *join variable*; edges are
//! either child (`/`) or descendant (`//`) edges. A **match** is a
//! homomorphism from pattern nodes to data-tree nodes respecting labels,
//! edges, value tests and value joins. The **answer** associated with a match
//! is the *minimal subtree* of the data tree containing all mapped nodes.
//!
//! ```
//! use pxml_query::Pattern;
//! use pxml_tree::parse_data_tree;
//!
//! let tree = parse_data_tree(
//!     "<library><book><author>Knuth</author><title>TAOCP</title></book>\
//!      <book><author>Turing</author></book></library>").unwrap();
//!
//! // All books that have both an author and a title.
//! let query = Pattern::parse("book { author, title }").unwrap();
//! let matches = query.find_matches(&tree);
//! assert_eq!(matches.len(), 1);
//!
//! // Each match names the group of its answer; each group has one tree.
//! let answers = query.evaluate(&tree);
//! let answer = &answers.answers[answers.matches[0].group];
//! assert_eq!(answer.find_elements("author").len(), 1);
//! ```
//!
//! The module split mirrors the processing pipeline:
//! [`pattern`] (the query data structure and builder), [`parser`] (the text
//! syntax), [`matcher`] (evaluation: every pattern node's candidates come
//! from its parent's image), and [`answer`] (matches grouped by
//! minimal-subtree answer, one answer tree per group).

pub mod answer;
pub mod error;
pub mod matcher;
pub mod parser;
pub mod pattern;

pub use answer::{AnswerGroups, MatchAnswer, QueryAnswers};
pub use error::QueryError;
pub use matcher::Matching;
pub use pattern::{Axis, JoinId, PNodeId, Pattern, PatternNode};
