//! # pxml-tree
//!
//! Unordered, labelled data trees — the data model of *Querying and Updating
//! Probabilistic Information in XML* (Abiteboul & Senellart, EDBT 2006) — plus
//! a small, self-contained XML parser/serializer and the conversion between
//! XML documents and data trees.
//!
//! The paper's data model is deliberately simple:
//!
//! * trees are **finite and unordered**;
//! * there is **no distinction between attribute and element nodes** (when an
//!   XML document is imported, attributes become child nodes);
//! * there is **no mixed content** (a node's children are either all elements
//!   or a single text value).
//!
//! The central type is [`Tree`], an arena-allocated tree of [`Label`]led
//! nodes addressed by [`NodeId`]. Because trees are unordered, equality is
//! *unordered isomorphism*, implemented in [`iso`] via canonical forms.
//!
//! ## Quick example
//!
//! ```
//! use pxml_tree::Tree;
//!
//! // Build  <a><b>foo</b><c/></a>  programmatically…
//! let mut t = Tree::new("a");
//! let b = t.add_element(t.root(), "b");
//! t.add_text(b, "foo");
//! t.add_element(t.root(), "c");
//!
//! // …or parse it from XML.
//! let t2 = pxml_tree::parse_data_tree("<a><c/><b>foo</b></a>").unwrap();
//!
//! // Data trees are unordered: the two trees are isomorphic.
//! assert!(t.isomorphic(&t2));
//! assert_eq!(t.node_count(), 4);
//! ```

pub mod chunk;
pub mod convert;
pub mod error;
pub mod iso;
pub mod label;
pub mod path;
pub mod tree;
pub mod xml;

pub use chunk::ChunkedVec;
pub use convert::{
    data_tree_to_xml, parse_data_tree, write_data_tree, xml_to_data_tree, RESERVED_ELEMENT,
};
pub use error::{TreeError, XmlError};
pub use iso::{
    canonical_string, isomorphism_classes, steiner_canonical_string, subtree_canonical_string,
    CanonicalForm,
};
pub use label::Label;
pub use tree::{LabelIndex, NodeId, Tree, MAX_NESTING_DEPTH, MAX_TREE_DEPTH};
pub use xml::{XmlDocument, XmlElement, XmlNode};
