//! Textual form of probabilistic update transactions and the update journal.
//!
//! The paper expresses updates in XUpdate and compiles them against the
//! stored documents; here transactions are serialized to a small XML dialect
//! of the same flavour:
//!
//! ```xml
//! <pxml:update confidence="0.9" query="/A { B, C }">
//!   <pxml:insert target="0"><D/></pxml:insert>
//!   <pxml:delete target="2"/>
//! </pxml:update>
//! ```
//!
//! `target` is the index of the pattern node (in `Pattern::node_ids` order)
//! at whose image the operation is applied.
//!
//! The journal itself has exactly one layout: a sequence of segment records
//! (see [`crate::fs`]), each carrying one standalone `<pxml:batch>` document
//! — the updates of one committed transaction, in application order.

use pxml_core::{UpdateOperation, UpdateTransaction};
use pxml_query::{PNodeId, Pattern};
use pxml_tree::{data_tree_to_xml, xml_to_data_tree, XmlDocument, XmlElement, XmlNode};

use crate::error::StoreError;

/// Serializes an update transaction to its XML element.
pub fn update_to_element(update: &UpdateTransaction) -> XmlElement {
    let mut element = XmlElement::new("pxml:update")
        .with_attribute("confidence", format!("{}", update.confidence()))
        .with_attribute("query", update.pattern().to_string());
    for operation in update.operations() {
        match operation {
            UpdateOperation::Insert { target, subtree } => {
                let mut insert = XmlElement::new("pxml:insert")
                    .with_attribute("target", target.index().to_string());
                insert
                    .children
                    .push(XmlNode::Element(data_tree_to_xml(subtree).root));
                element.children.push(XmlNode::Element(insert));
            }
            UpdateOperation::Delete { target } => {
                element.children.push(XmlNode::Element(
                    XmlElement::new("pxml:delete")
                        .with_attribute("target", target.index().to_string()),
                ));
            }
        }
    }
    element
}

/// Serializes an update transaction to XML text.
pub fn serialize_update(update: &UpdateTransaction, pretty: bool) -> String {
    XmlDocument::new(update_to_element(update)).to_xml_string(pretty)
}

/// Parses an update transaction from its XML element.
pub fn update_from_element(element: &XmlElement) -> Result<UpdateTransaction, StoreError> {
    if element.name != "pxml:update" {
        return Err(StoreError::Format(format!(
            "expected <pxml:update>, found <{}>",
            element.name
        )));
    }
    let confidence: f64 = element
        .attribute("confidence")
        .ok_or_else(|| StoreError::Format("<pxml:update> without confidence".into()))?
        .parse()
        .map_err(|_| StoreError::Format("malformed confidence".into()))?;
    let query_text = element
        .attribute("query")
        .ok_or_else(|| StoreError::Format("<pxml:update> without query".into()))?;
    let pattern = Pattern::parse(query_text)?;
    let pattern_nodes: Vec<PNodeId> = pattern.node_ids().collect();
    let mut update = UpdateTransaction::new(pattern, confidence)?;

    for child in element.child_elements() {
        let target_index: usize = child
            .attribute("target")
            .ok_or_else(|| StoreError::Format(format!("<{}> without target", child.name)))?
            .parse()
            .map_err(|_| StoreError::Format("malformed target index".into()))?;
        let target = *pattern_nodes.get(target_index).ok_or_else(|| {
            StoreError::Format(format!(
                "target index {target_index} is outside the query's {} pattern nodes",
                pattern_nodes.len()
            ))
        })?;
        match child.name.as_str() {
            "pxml:insert" => {
                let subtree_element = child
                    .child_elements()
                    .next()
                    .ok_or_else(|| StoreError::Format("<pxml:insert> without a subtree".into()))?;
                let subtree = xml_to_data_tree(&XmlDocument::new(subtree_element.clone()));
                update.push_operation(UpdateOperation::Insert { target, subtree });
            }
            "pxml:delete" => {
                update.push_operation(UpdateOperation::Delete { target });
            }
            other => {
                return Err(StoreError::Format(format!(
                    "unexpected <{other}> inside <pxml:update>"
                )))
            }
        }
    }
    Ok(update)
}

/// Parses an update transaction from XML text.
pub fn parse_update(input: &str) -> Result<UpdateTransaction, StoreError> {
    let document = XmlDocument::parse(input)?;
    update_from_element(&document.root)
}

/// Serializes one committed batch as a standalone `<pxml:batch>` document —
/// the payload of a single segment-journal record (see [`crate::fs`]).
pub fn serialize_batch(batch: &[UpdateTransaction]) -> String {
    let mut element = XmlElement::new("pxml:batch");
    for update in batch {
        element
            .children
            .push(XmlNode::Element(update_to_element(update)));
    }
    XmlDocument::new(element).to_xml_string(false)
}

/// Parses one standalone `<pxml:batch>` document (a segment-record payload).
pub fn parse_batch(input: &str) -> Result<Vec<UpdateTransaction>, StoreError> {
    let document = XmlDocument::parse(input)?;
    if document.root.name != "pxml:batch" {
        return Err(StoreError::Format(format!(
            "expected <pxml:batch>, found <{}>",
            document.root.name
        )));
    }
    document
        .root
        .child_elements()
        .map(update_from_element)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::parse_data_tree;

    fn sample_update() -> UpdateTransaction {
        let pattern = Pattern::parse("/A { B, C }").unwrap();
        let ids: Vec<PNodeId> = pattern.node_ids().collect();
        UpdateTransaction::new(pattern, 0.9)
            .unwrap()
            .with_insert(ids[0], parse_data_tree("<D><x>1</x></D>").unwrap())
            .with_delete(ids[2])
    }

    #[test]
    fn update_round_trips_through_text() {
        let update = sample_update();
        let text = serialize_update(&update, true);
        assert!(text.contains("confidence=\"0.9\""));
        assert!(text.contains("pxml:insert"));
        assert!(text.contains("pxml:delete"));
        let reparsed = parse_update(&text).unwrap();
        assert_eq!(reparsed.pattern().to_string(), update.pattern().to_string());
        assert!((reparsed.confidence() - 0.9).abs() < 1e-12);
        assert_eq!(reparsed.operations().len(), 2);
        match (&reparsed.operations()[0], &update.operations()[0]) {
            (
                UpdateOperation::Insert {
                    target: t1,
                    subtree: s1,
                },
                UpdateOperation::Insert {
                    target: t2,
                    subtree: s2,
                },
            ) => {
                assert_eq!(t1, t2);
                assert!(s1.isomorphic(s2));
            }
            _ => panic!("first operation must be an insert"),
        }
    }

    #[test]
    fn reparsed_updates_have_the_same_effect() {
        let update = sample_update();
        let reparsed = parse_update(&serialize_update(&update, false)).unwrap();
        let document = parse_data_tree("<A><B/><C><junk/></C></A>").unwrap();
        assert!(update
            .apply_to_tree(&document)
            .isomorphic(&reparsed.apply_to_tree(&document)));
    }

    #[test]
    fn batch_round_trips() {
        let batch = vec![sample_update(), {
            let pattern = Pattern::parse("person { name }").unwrap();
            let name = pattern.node_ids().nth(1).unwrap();
            UpdateTransaction::new(pattern, 0.5)
                .unwrap()
                .with_delete(name)
        }];
        let text = serialize_batch(&batch);
        assert!(text.contains("pxml:batch"));
        let reparsed = parse_batch(&text).unwrap();
        // Application order is preserved.
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed[0].pattern().to_string(), "/A { B, C }");
        assert_eq!(reparsed[1].pattern().to_string(), "person { name }");
        assert!(parse_batch(&serialize_batch(&[])).unwrap().is_empty());
    }

    #[test]
    fn deepest_allowed_insertion_round_trips() {
        // Inserted under a root match, this subtree reaches `MAX_TREE_DEPTH`.
        let mut subtree = pxml_tree::Tree::new("n");
        let mut node = subtree.root();
        for _ in 0..pxml_tree::MAX_TREE_DEPTH - 1 {
            node = subtree.add_element(node, "n");
        }
        let pattern = Pattern::parse("/A").unwrap();
        let root = pattern.root();
        let update = UpdateTransaction::new(pattern, 0.5)
            .unwrap()
            .with_insert(root, subtree);
        let reparsed = parse_batch(&serialize_batch(&[update])).unwrap();
        assert_eq!(reparsed.len(), 1);
    }

    #[test]
    fn malformed_updates_are_rejected() {
        assert!(matches!(
            parse_update("<pxml:update query=\"A\"/>"),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update("<pxml:update confidence=\"0.5\"/>"),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update("<pxml:update confidence=\"0.5\" query=\"A {\"/>"),
            Err(StoreError::Query(_))
        ));
        assert!(matches!(
            parse_update(
                "<pxml:update confidence=\"0.5\" query=\"A\"><pxml:delete target=\"7\"/></pxml:update>"
            ),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update(
                "<pxml:update confidence=\"0.5\" query=\"A\"><pxml:frob target=\"0\"/></pxml:update>"
            ),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_update("<pxml:update confidence=\"2.0\" query=\"A\"/>"),
            Err(StoreError::Core(_))
        ));
        assert!(matches!(
            parse_batch("<pxml:journal/>"),
            Err(StoreError::Format(_))
        ));
    }
}
