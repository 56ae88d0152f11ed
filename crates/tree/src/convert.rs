//! Conversion between XML documents and the paper's data trees.
//!
//! The paper's model makes **no distinction between attribute and element
//! nodes**: when importing an XML document, every attribute `name="value"` of
//! an element becomes a child element `<name>` with a single text child
//! `value`. Text content becomes text nodes (whitespace-trimmed), comments
//! are dropped. Exporting a data tree to XML is the inverse, except that
//! former attributes stay elements (the distinction is deliberately lost).

use crate::error::XmlError;
use crate::label::Label;
use crate::tree::{NodeId, Tree, MAX_TREE_DEPTH};
use crate::xml::{parse, XmlDocument, XmlElement, XmlNode};

/// Converts a parsed XML document into a data tree.
pub fn xml_to_data_tree(doc: &XmlDocument) -> Tree {
    let mut tree = Tree::new(Label::Element(doc.root.name.clone()));
    let root = tree.root();
    convert_children(&doc.root, &mut tree, root);
    tree
}

fn convert_children(element: &XmlElement, tree: &mut Tree, node: NodeId) {
    for (name, value) in &element.attributes {
        let attr_node = tree.add_element(node, name.clone());
        tree.add_text(attr_node, value.clone());
    }
    for child in &element.children {
        match child {
            XmlNode::Element(el) => {
                let child_node = tree.add_element(node, el.name.clone());
                convert_children(el, tree, child_node);
            }
            XmlNode::Text(text) => {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    tree.add_text(node, trimmed.to_string());
                }
            }
            XmlNode::Comment(_) => {}
        }
    }
}

/// Converts a data tree into an XML document (all nodes become elements or
/// text; no attributes are produced).
pub fn data_tree_to_xml(tree: &Tree) -> XmlDocument {
    let root = build_element(tree, tree.root());
    XmlDocument::new(root)
}

fn build_element(tree: &Tree, node: NodeId) -> XmlElement {
    let name = tree
        .label(node)
        .element_name()
        .unwrap_or("text")
        .to_string();
    let mut element = XmlElement::new(name);
    for &child in tree.children(node) {
        match tree.label(child) {
            Label::Element(_) => element
                .children
                .push(XmlNode::Element(build_element(tree, child))),
            Label::Text(value) => element.children.push(XmlNode::Text(value.clone())),
        }
    }
    element
}

/// Parses an XML string directly into a data tree, refusing one with a node
/// below [`MAX_TREE_DEPTH`] (it could be stored but never read back).
pub fn parse_data_tree(input: &str) -> Result<Tree, XmlError> {
    let tree = xml_to_data_tree(&parse(input)?);
    let height = tree.height();
    if height > MAX_TREE_DEPTH {
        return Err(XmlError::new(
            format!(
                "document has a node at depth {height}, the deepest allowed is {MAX_TREE_DEPTH}"
            ),
            1,
            1,
        ));
    }
    Ok(tree)
}

/// Serializes a data tree to XML text (pretty-printed when `pretty` is true).
pub fn write_data_tree(tree: &Tree, pretty: bool) -> String {
    data_tree_to_xml(tree).to_xml_string(pretty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_text_convert() {
        let tree = parse_data_tree("<a><b>foo</b><c/></a>").unwrap();
        assert_eq!(tree.node_count(), 4);
        let b = tree.find_elements("b")[0];
        assert_eq!(tree.node_value(b), Some("foo"));
        assert!(tree.check_data_model().is_ok());
    }

    #[test]
    fn attributes_become_child_nodes() {
        let tree = parse_data_tree(r#"<person name="Alan" born="1912"/>"#).unwrap();
        // person + 2 attribute elements + 2 text nodes
        assert_eq!(tree.node_count(), 5);
        let name = tree.find_elements("name")[0];
        assert_eq!(tree.node_value(name), Some("Alan"));
        let born = tree.find_elements("born")[0];
        assert_eq!(tree.node_value(born), Some("1912"));
    }

    #[test]
    fn attribute_and_element_with_same_name_are_indistinguishable() {
        let from_attr = parse_data_tree(r#"<a x="1"/>"#).unwrap();
        let from_elem = parse_data_tree("<a><x>1</x></a>").unwrap();
        assert!(from_attr.isomorphic(&from_elem));
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let tree = parse_data_tree("<a>\n  <b>  padded  </b>\n</a>").unwrap();
        let b = tree.find_elements("b")[0];
        assert_eq!(tree.node_value(b), Some("padded"));
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn comments_are_dropped() {
        let tree = parse_data_tree("<a><!-- note --><b/></a>").unwrap();
        assert_eq!(tree.node_count(), 2);
    }

    #[test]
    fn round_trip_through_xml_preserves_isomorphism() {
        let original = parse_data_tree(
            r#"<library>
                 <book year="1936"><title>On Computable Numbers</title></book>
                 <book year="1948"><title>Cybernetics</title></book>
               </library>"#,
        )
        .unwrap();
        let xml = write_data_tree(&original, true);
        let reparsed = parse_data_tree(&xml).unwrap();
        assert!(original.isomorphic(&reparsed));
    }

    #[test]
    fn export_produces_expected_shape() {
        let mut tree = Tree::new("a");
        let b = tree.add_element(tree.root(), "b");
        tree.add_text(b, "foo");
        tree.add_element(tree.root(), "c");
        let xml = write_data_tree(&tree, false);
        assert!(xml.contains("<a>"));
        assert!(xml.contains("<b>foo</b>"));
        assert!(xml.contains("<c/>"));
    }

    #[test]
    fn special_characters_survive_round_trip() {
        let mut tree = Tree::new("a");
        let b = tree.add_element(tree.root(), "b");
        tree.add_text(b, "1 < 2 & \"three\"");
        let xml = write_data_tree(&tree, true);
        let reparsed = parse_data_tree(&xml).unwrap();
        assert!(tree.isomorphic(&reparsed));
    }
}
