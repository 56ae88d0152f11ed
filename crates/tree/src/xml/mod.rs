//! A small, self-contained XML document object model.
//!
//! The paper stores probabilistic documents as plain XML files on the file
//! system; this module provides the XML substrate: a simple DOM
//! ([`XmlDocument`], [`XmlElement`], [`XmlNode`]), a hand-written parser
//! ([`parse`]) and a serializer ([`XmlDocument::to_xml_string`] /
//! [`XmlElement::write_xml`]).
//!
//! Supported syntax: prolog (`<?xml …?>`), elements with attributes,
//! self-closing tags, text content, comments, CDATA sections and the five
//! predefined entities plus numeric character references. DTDs and processing
//! instructions other than the prolog are not supported — they are not needed
//! for the PrXML storage format.

mod parser;
mod writer;

pub(crate) use parser::is_name;
pub use parser::parse;
pub use writer::{escape_attribute, escape_text};

use std::fmt;

/// A parsed XML document: the prolog is discarded, only the root element is
/// kept (plus nothing else, as trailing comments are ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlDocument {
    /// The document (root) element.
    pub root: XmlElement,
}

impl XmlDocument {
    /// Wraps a root element into a document.
    pub fn new(root: XmlElement) -> Self {
        XmlDocument { root }
    }

    /// Parses a document from its textual form.
    pub fn parse(input: &str) -> Result<Self, crate::error::XmlError> {
        parse(input)
    }

    /// Serializes the document, with an XML prolog, using two-space
    /// indentation when `pretty` is true.
    pub fn to_xml_string(&self, pretty: bool) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.root.write_xml(&mut out, pretty, 0);
        if pretty && !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for XmlDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml_string(true))
    }
}

/// An XML element: a name, attributes (in document order) and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Tag name (possibly with a namespace prefix, kept verbatim).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// Creates an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn with_child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Adds a text child (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(attr, _)| attr == name)
            .map(|(_, value)| value.as_str())
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attribute(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(attr, _)| *attr == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Iterates over child elements (skipping text and comments).
    pub fn child_elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|child| match child {
            XmlNode::Element(el) => Some(el),
            _ => None,
        })
    }

    /// The first child element with the given name.
    pub fn child_element(&self, name: &str) -> Option<&XmlElement> {
        self.child_elements().find(|el| el.name == name)
    }

    /// The concatenation of direct text children (whitespace preserved).
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|child| match child {
                XmlNode::Text(text) => Some(text.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Serializes this element into `out`.
    pub fn write_xml(&self, out: &mut String, pretty: bool, indent: usize) {
        writer::write_element(self, out, pretty, indent);
    }
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A nested element.
    Element(XmlElement),
    /// Character data (entities already decoded).
    Text(String),
    /// A comment (kept so that round-tripping preserves it).
    Comment(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_api() {
        let el = XmlElement::new("person")
            .with_attribute("id", "42")
            .with_child(XmlElement::new("name").with_text("Alan"))
            .with_text("  ");
        assert_eq!(el.attribute("id"), Some("42"));
        assert_eq!(el.attribute("missing"), None);
        assert_eq!(el.child_elements().count(), 1);
        assert_eq!(el.child_element("name").unwrap().text(), "Alan");
        assert!(el.child_element("age").is_none());
    }

    #[test]
    fn set_attribute_replaces_existing() {
        let mut el = XmlElement::new("a").with_attribute("k", "1");
        el.set_attribute("k", "2");
        el.set_attribute("other", "3");
        assert_eq!(el.attribute("k"), Some("2"));
        assert_eq!(el.attributes.len(), 2);
    }

    #[test]
    fn document_round_trip() {
        let doc = XmlDocument::new(
            XmlElement::new("library")
                .with_child(XmlElement::new("book").with_attribute("year", "1936")),
        );
        let xml = doc.to_xml_string(true);
        let reparsed = XmlDocument::parse(&xml).unwrap();
        assert_eq!(doc, reparsed);
        assert!(xml.starts_with("<?xml"));
        assert_eq!(doc.to_string(), xml);
    }
}
