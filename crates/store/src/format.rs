//! The PrXML on-disk format for fuzzy trees.
//!
//! A fuzzy tree is stored as an ordinary XML document:
//!
//! ```xml
//! <pxml:document xmlns:pxml="urn:pxml">
//!   <pxml:events>
//!     <pxml:event name="w1" probability="0.8"/>
//!     <pxml:event name="w2" probability="0.7"/>
//!   </pxml:events>
//!   <pxml:content>
//!     <A>
//!       <B pxml:cond="w1 !w2"/>
//!       <C/>
//!       <D pxml:cond="w2"/>
//!     </A>
//!   </pxml:content>
//! </pxml:document>
//! ```
//!
//! Element nodes carry their condition in a `pxml:cond` attribute; text nodes
//! with a condition are wrapped in a `pxml:text` element (attributes cannot
//! be attached to character data). Certain nodes are written without any
//! PrXML markup, so a certain document round-trips as plain XML plus a small
//! header.
//!
//! Checkpoints written by the segment-journal store additionally carry a
//! `pxml:epoch` attribute on the root: the first journal epoch this
//! checkpoint does *not* hold — the one its fold rotated appends to. It
//! rides the checkpoint file itself so the checkpoint rename stays the
//! *single* atomic commit point of a fold — recovery replays the segments of
//! the checkpoint's own epoch and of every newer one, in epoch order, and
//! ignores older ones, which makes a crash between the rename and the
//! deletion of the folded segments harmless (see [`crate::fs`]). Documents
//! without the attribute are epoch 0.

use std::path::Path;

use pxml_core::FuzzyTree;
use pxml_event::Condition;
use pxml_tree::{Label, NodeId, XmlDocument, XmlElement, XmlNode};

use crate::error::StoreError;

/// Attribute carrying a node condition.
pub const CONDITION_ATTRIBUTE: &str = "pxml:cond";
/// Wrapper element for conditional text nodes: the name
/// `Tree::check_storable` refuses, so no data element is read back as one.
pub const TEXT_ELEMENT: &str = pxml_tree::RESERVED_ELEMENT;
/// Attribute on `<pxml:document>` carrying the oldest journal epoch the
/// checkpoint does not hold (absent = epoch 0).
pub const EPOCH_ATTRIBUTE: &str = "pxml:epoch";

/// Serializes a fuzzy tree to the PrXML textual format (epoch 0).
pub fn serialize_fuzzy_document(fuzzy: &FuzzyTree, pretty: bool) -> String {
    serialize_fuzzy_document_with_epoch(fuzzy, pretty, 0)
}

/// Serializes a fuzzy tree to the PrXML textual format, stamping the given
/// journal epoch on the `<pxml:document>` root (0 is omitted, keeping plain
/// documents free of storage metadata).
pub fn serialize_fuzzy_document_with_epoch(fuzzy: &FuzzyTree, pretty: bool, epoch: u64) -> String {
    let mut events = XmlElement::new("pxml:events");
    for (_, name, probability) in fuzzy.events().iter() {
        events.children.push(XmlNode::Element(
            XmlElement::new("pxml:event")
                .with_attribute("name", name.to_string())
                .with_attribute("probability", format_probability(probability)),
        ));
    }
    let mut content = XmlElement::new("pxml:content");
    content
        .children
        .push(XmlNode::Element(element_for(fuzzy, fuzzy.root())));
    let mut root = XmlElement::new("pxml:document").with_attribute("xmlns:pxml", "urn:pxml");
    if epoch != 0 {
        root.set_attribute(EPOCH_ATTRIBUTE, epoch.to_string());
    }
    let document = XmlDocument::new(root.with_child(events).with_child(content));
    document.to_xml_string(pretty)
}

/// Extracts the journal epoch from serialized PrXML text without parsing the
/// whole document: the attribute lives in the opening `<pxml:document>` tag,
/// so only the text up to the first `>` is scanned. An absent attribute is
/// epoch 0 (plain or pre-segment documents); a present one that is not a
/// `u64` is a [`StoreError::Format`] naming `file`, where the text was read
/// from — taken as 0, it would make the live journal look stale.
pub fn extract_epoch(input: &str, file: &Path) -> Result<u64, StoreError> {
    let Some(open) = input.find("<pxml:document") else {
        return Ok(0);
    };
    let rest = &input[open..];
    let Some(tag_end) = rest.find('>') else {
        return Ok(0);
    };
    let tag = &rest[..tag_end];
    let Some(at) = tag.find(EPOCH_ATTRIBUTE) else {
        return Ok(0);
    };
    tag[at + EPOCH_ATTRIBUTE.len()..]
        .trim_start()
        .strip_prefix('=')
        .map(|rest| rest.trim_start())
        .and_then(|rest| rest.strip_prefix('"'))
        .and_then(|rest| rest.split('"').next())
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| {
            StoreError::Format(format!(
                "{}: its {EPOCH_ATTRIBUTE} attribute is not a journal epoch",
                file.display()
            ))
        })
}

fn format_probability(probability: f64) -> String {
    // Full round-trip precision without trailing noise for common values.
    let mut text = format!("{probability}");
    if !text.contains('.') && !text.contains('e') {
        text.push_str(".0");
    }
    text
}

fn element_for(fuzzy: &FuzzyTree, node: NodeId) -> XmlElement {
    let tree = fuzzy.tree();
    let name = tree
        .label(node)
        .element_name()
        .unwrap_or(TEXT_ELEMENT)
        .to_string();
    let mut element = XmlElement::new(name);
    let condition = fuzzy.condition(node);
    if !condition.is_empty() {
        element.set_attribute(CONDITION_ATTRIBUTE, condition.display(fuzzy.events()));
    }
    for &child in tree.children(node) {
        match tree.label(child) {
            Label::Element(_) => element
                .children
                .push(XmlNode::Element(element_for(fuzzy, child))),
            Label::Text(value) => {
                let child_condition = fuzzy.condition(child);
                if child_condition.is_empty() {
                    element.children.push(XmlNode::Text(value.clone()));
                } else {
                    element.children.push(XmlNode::Element(
                        XmlElement::new(TEXT_ELEMENT)
                            .with_attribute(
                                CONDITION_ATTRIBUTE,
                                child_condition.display(fuzzy.events()),
                            )
                            .with_text(value.clone()),
                    ));
                }
            }
        }
    }
    element
}

/// Parses a PrXML document back into a fuzzy tree.
pub fn parse_fuzzy_document(input: &str) -> Result<FuzzyTree, StoreError> {
    let document = XmlDocument::parse(input)?;
    let root = &document.root;
    if root.name != "pxml:document" {
        return Err(StoreError::Format(format!(
            "expected a <pxml:document> root, found <{}>",
            root.name
        )));
    }
    let events_element = root
        .child_element("pxml:events")
        .ok_or_else(|| StoreError::Format("missing <pxml:events> header".into()))?;
    let content = root
        .child_element("pxml:content")
        .ok_or_else(|| StoreError::Format("missing <pxml:content> section".into()))?;
    let data_root = content
        .child_elements()
        .next()
        .ok_or_else(|| StoreError::Format("<pxml:content> has no root element".into()))?;

    let mut fuzzy = FuzzyTree::new(data_root.name.clone());
    for event in events_element.child_elements() {
        if event.name != "pxml:event" {
            return Err(StoreError::Format(format!(
                "unexpected <{}> inside <pxml:events>",
                event.name
            )));
        }
        let name = event
            .attribute("name")
            .ok_or_else(|| StoreError::Format("<pxml:event> without a name".into()))?;
        let probability: f64 = event
            .attribute("probability")
            .ok_or_else(|| StoreError::Format(format!("event `{name}` has no probability")))?
            .parse()
            .map_err(|_| {
                StoreError::Format(format!("event `{name}` has a malformed probability"))
            })?;
        fuzzy.add_event(name, probability)?;
    }

    // The root's own condition must be empty; reject it explicitly for a
    // clearer error than the model-level one.
    if data_root
        .attribute(CONDITION_ATTRIBUTE)
        .is_some_and(|c| !c.trim().is_empty())
    {
        return Err(StoreError::Core(
            pxml_core::CoreError::RootConditionNotAllowed,
        ));
    }
    let root_node = fuzzy.root();
    populate(&mut fuzzy, root_node, data_root)?;
    fuzzy.validate()?;
    Ok(fuzzy)
}

fn populate(fuzzy: &mut FuzzyTree, node: NodeId, element: &XmlElement) -> Result<(), StoreError> {
    for child in &element.children {
        match child {
            XmlNode::Comment(_) => {}
            XmlNode::Text(text) => {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    fuzzy.add_text(node, trimmed.to_string());
                }
            }
            XmlNode::Element(child_element) => {
                let condition = match child_element.attribute(CONDITION_ATTRIBUTE) {
                    Some(text) => Condition::parse(text, fuzzy.events())?,
                    None => Condition::always(),
                };
                if child_element.name == TEXT_ELEMENT {
                    let value = child_element.text();
                    let text_node = fuzzy.add_text(node, value.trim().to_string());
                    fuzzy.set_condition(text_node, condition)?;
                } else {
                    let child_node = fuzzy.add_element(node, child_element.name.clone());
                    fuzzy.set_condition(child_node, condition)?;
                    populate(fuzzy, child_node, child_element)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::fuzzy::slide12_example;
    use pxml_event::Literal;

    #[test]
    fn serialization_contains_expected_markup() {
        let text = serialize_fuzzy_document(&slide12_example(), true);
        assert!(text.contains("<pxml:document"));
        assert!(text.contains("<pxml:event name=\"w1\" probability=\"0.8\"/>"));
        assert!(text.contains("pxml:cond=\"w1 !w2\""));
        assert!(text.contains("<C/>"));
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let original = slide12_example();
        let text = serialize_fuzzy_document(&original, true);
        let reparsed = parse_fuzzy_document(&text).unwrap();
        assert_eq!(reparsed.event_count(), 2);
        assert!(original.semantically_equivalent(&reparsed, 1e-12).unwrap());
        // Compact form round-trips too.
        let compact = serialize_fuzzy_document(&original, false);
        let reparsed2 = parse_fuzzy_document(&compact).unwrap();
        assert!(original.semantically_equivalent(&reparsed2, 1e-12).unwrap());
    }

    #[test]
    fn text_values_and_conditional_text_round_trip() {
        let mut fuzzy = FuzzyTree::new("person");
        let w = fuzzy.add_event("w", 0.4).unwrap();
        let name = fuzzy.add_element(fuzzy.root(), "name");
        fuzzy.add_text(name, "Alan Turing");
        let phone = fuzzy.add_element(fuzzy.root(), "phone");
        let digits = fuzzy.add_text(phone, "+44 1234");
        fuzzy
            .set_condition(digits, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let text = serialize_fuzzy_document(&fuzzy, true);
        assert!(text.contains("<pxml:text"));
        let reparsed = parse_fuzzy_document(&text).unwrap();
        assert!(fuzzy.semantically_equivalent(&reparsed, 1e-12).unwrap());
        let reparsed_name = reparsed.tree().find_elements("name")[0];
        assert_eq!(
            reparsed.tree().node_value(reparsed_name),
            Some("Alan Turing")
        );
    }

    #[test]
    fn mixed_names_round_trip_to_the_same_bytes_after_a_collection() {
        let mut fuzzy = FuzzyTree::new("r");
        let alpha = fuzzy.add_event("alpha", 0.4).unwrap();
        fuzzy.fresh_event(0.5).unwrap(); // `w1`, mentioned by nothing
        let fresh = fuzzy.fresh_event(0.6).unwrap();
        let given_w = fuzzy.add_event("w7", 0.7).unwrap();
        let beta = fuzzy.add_event("beta", 0.8).unwrap();
        for event in [alpha, fresh, given_w, beta] {
            let node = fuzzy.add_element(fuzzy.root(), format!("n{}", event.index()));
            fuzzy
                .set_condition(node, Condition::from_literal(Literal::pos(event)))
                .unwrap();
        }
        let report = pxml_core::Simplifier::new().run(&mut fuzzy).unwrap();
        assert_eq!(report.removed_events, 1);
        let names: Vec<String> = fuzzy
            .events()
            .iter()
            .map(|(_, name, _)| name.to_string())
            .collect();
        assert_eq!(names, ["alpha", "w2", "w7", "beta"]);
        let bytes = serialize_fuzzy_document(&fuzzy, false);
        let reparsed = parse_fuzzy_document(&bytes).unwrap();
        assert_eq!(serialize_fuzzy_document(&reparsed, false), bytes);
    }

    #[test]
    fn deepest_allowed_document_round_trips() {
        // The worst case `MAX_TREE_DEPTH` reserves for: a conditional text
        // node at the bound, wrapped in `pxml:text` under the envelope.
        let mut fuzzy = FuzzyTree::new("root");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let mut node = fuzzy.root();
        for _ in 0..pxml_tree::MAX_TREE_DEPTH - 1 {
            node = fuzzy.add_element(node, "n");
        }
        let leaf = fuzzy.add_text(node, "v");
        fuzzy
            .set_condition(leaf, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        assert_eq!(fuzzy.tree().depth(leaf), pxml_tree::MAX_TREE_DEPTH);
        let reparsed = parse_fuzzy_document(&serialize_fuzzy_document(&fuzzy, false)).unwrap();
        assert_eq!(reparsed.tree().height(), pxml_tree::MAX_TREE_DEPTH);
    }

    #[test]
    fn certain_documents_round_trip_with_empty_event_table() {
        let fuzzy = FuzzyTree::from_tree(
            pxml_tree::parse_data_tree("<lib><book><title>TAOCP</title></book></lib>").unwrap(),
        );
        let text = serialize_fuzzy_document(&fuzzy, true);
        let reparsed = parse_fuzzy_document(&text).unwrap();
        assert_eq!(reparsed.event_count(), 0);
        assert!(reparsed.tree().isomorphic(fuzzy.tree()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(matches!(
            parse_fuzzy_document("<not-pxml/>"),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_fuzzy_document(
                "<pxml:document><pxml:content><a/></pxml:content></pxml:document>"
            ),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_fuzzy_document("<pxml:document><pxml:events/></pxml:document>"),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            parse_fuzzy_document("<pxml:document><pxml:events/><pxml:content/></pxml:document>"),
            Err(StoreError::Format(_))
        ));
        assert!(parse_fuzzy_document("not xml at all").is_err());
    }

    #[test]
    fn parse_rejects_unknown_events_and_bad_probabilities() {
        let unknown_event = r#"<pxml:document>
            <pxml:events/>
            <pxml:content><a><b pxml:cond="ghost"/></a></pxml:content>
        </pxml:document>"#;
        assert!(matches!(
            parse_fuzzy_document(unknown_event),
            Err(StoreError::Event(_))
        ));
        let bad_probability = r#"<pxml:document>
            <pxml:events><pxml:event name="w" probability="huge"/></pxml:events>
            <pxml:content><a/></pxml:content>
        </pxml:document>"#;
        assert!(matches!(
            parse_fuzzy_document(bad_probability),
            Err(StoreError::Format(_))
        ));
        let out_of_range = r#"<pxml:document>
            <pxml:events><pxml:event name="w" probability="1.5"/></pxml:events>
            <pxml:content><a/></pxml:content>
        </pxml:document>"#;
        assert!(matches!(
            parse_fuzzy_document(out_of_range),
            Err(StoreError::Event(_))
        ));
    }

    /// An event name that cannot be written into `pxml:cond` and read back
    /// as the same event is refused where it enters — `add_event` for a
    /// document built in process, this parser for one read from disk or the
    /// wire — so no accepted document serialises to a checkpoint that loads
    /// as a different distribution (`not x` read as `¬x`) or not at all
    /// (`a b` read as two unknown events).
    #[test]
    fn parse_rejects_event_names_that_cannot_round_trip() {
        use pxml_event::EventError;
        for name in ["", "not", "a b", "a,b", "!a", "¬a"] {
            let text = format!(
                r#"<pxml:document>
                    <pxml:events><pxml:event name="{name}" probability="0.5"/></pxml:events>
                    <pxml:content><a/></pxml:content>
                </pxml:document>"#
            );
            assert!(
                matches!(
                    parse_fuzzy_document(&text),
                    Err(StoreError::Event(EventError::InvalidEventName(refused))) if refused == name
                ),
                "{name:?}"
            );
            assert!(matches!(
                FuzzyTree::new("a").add_event(name, 0.5),
                Err(EventError::InvalidEventName(_))
            ));
        }
    }

    #[test]
    fn parse_rejects_condition_on_root() {
        let text = r#"<pxml:document>
            <pxml:events><pxml:event name="w" probability="0.5"/></pxml:events>
            <pxml:content><a pxml:cond="w"><b/></a></pxml:content>
        </pxml:document>"#;
        assert!(matches!(
            parse_fuzzy_document(text),
            Err(StoreError::Core(
                pxml_core::CoreError::RootConditionNotAllowed
            ))
        ));
    }

    #[test]
    fn probability_formatting_round_trips() {
        assert_eq!(format_probability(0.8), "0.8");
        assert_eq!(format_probability(1.0), "1.0");
        assert_eq!(format_probability(0.0), "0.0");
        let tricky = 0.1 + 0.2; // 0.30000000000000004
        let text = format_probability(tricky);
        let back: f64 = text.parse().unwrap();
        assert_eq!(back, tricky);
    }
}
