//! A hand-written, dependency-free XML parser.
//!
//! The parser covers the subset of XML needed by the PrXML storage format and
//! the examples shipped with this repository: prolog, nested elements with
//! attributes, self-closing tags, text, comments, CDATA sections, the five
//! predefined entities and numeric character references. It reports errors
//! with 1-based line/column positions.

use crate::error::XmlError;
use crate::tree::MAX_NESTING_DEPTH;

use super::{XmlDocument, XmlElement, XmlNode};

/// Parses an XML document from text.
pub fn parse(input: &str) -> Result<XmlDocument, XmlError> {
    let mut parser = Parser::new(input);
    parser.skip_misc()?;
    let root = parser.parse_element(1)?;
    parser.skip_misc()?;
    if !parser.at_end() {
        return Err(parser.error("unexpected content after the root element"));
    }
    Ok(XmlDocument { root })
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> XmlError {
        XmlError::new(message, self.line, self.column)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.pos += 1;
        if byte == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(byte)
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.input[self.pos..].starts_with(prefix.as_bytes())
    }

    fn expect_str(&mut self, expected: &str) -> Result<(), XmlError> {
        if self.starts_with(expected) {
            for _ in 0..expected.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.error(format!("expected `{expected}`")))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skips whitespace, the prolog, comments and (ignored) processing
    /// instructions outside the root element.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip a simple (bracket-free) DOCTYPE declaration.
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, terminator: &str) -> Result<(), XmlError> {
        while !self.at_end() {
            if self.starts_with(terminator) {
                for _ in 0..terminator.len() {
                    self.bump();
                }
                return Ok(());
            }
            self.bump();
        }
        Err(self.error(format!("unterminated construct, expected `{terminator}`")))
    }

    fn is_name_start(byte: u8) -> bool {
        byte.is_ascii_alphabetic() || byte == b'_' || byte == b':' || byte >= 0x80
    }

    fn is_name_char(byte: u8) -> bool {
        Self::is_name_start(byte) || byte.is_ascii_digit() || byte == b'-' || byte == b'.'
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(byte) if Self::is_name_start(byte) => {
                self.bump();
            }
            _ => return Err(self.error("expected a name")),
        }
        while matches!(self.peek(), Some(byte) if Self::is_name_char(byte)) {
            self.bump();
        }
        let raw = &self.input[start..self.pos];
        String::from_utf8(raw.to_vec()).map_err(|_| self.error("name is not valid UTF-8"))
    }

    /// Parses one element; `depth` is its nesting level (the root is at 1).
    fn parse_element(&mut self, depth: usize) -> Result<XmlElement, XmlError> {
        if depth > MAX_NESTING_DEPTH {
            return Err(self.error(format!(
                "elements nest deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.expect_str("<")?;
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    self.expect_str(">")?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(byte) if Self::is_name_start(byte) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect_str("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attribute_value()?;
                    element.attributes.push((attr_name, value));
                }
                _ => return Err(self.error("expected an attribute, `>` or `/>`")),
            }
        }

        // Content.
        loop {
            if self.at_end() {
                return Err(self.error(format!("unclosed element <{}>", element.name)));
            }
            if self.starts_with("</") {
                self.expect_str("</")?;
                let closing = self.parse_name()?;
                if closing != element.name {
                    return Err(self.error(format!(
                        "mismatched closing tag: expected </{}>, found </{closing}>",
                        element.name
                    )));
                }
                self.skip_whitespace();
                self.expect_str(">")?;
                return Ok(element);
            } else if self.starts_with("<!--") {
                let comment = self.parse_comment()?;
                element.children.push(XmlNode::Comment(comment));
            } else if self.starts_with("<![CDATA[") {
                let text = self.parse_cdata()?;
                if !text.is_empty() {
                    element.children.push(XmlNode::Text(text));
                }
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(depth + 1)?;
                element.children.push(XmlNode::Element(child));
            } else {
                let text = self.parse_text()?;
                // Whitespace-only runs between elements are formatting noise.
                if !text.trim().is_empty() {
                    element.children.push(XmlNode::Text(text));
                }
            }
        }
    }

    fn parse_attribute_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            _ => return Err(self.error("expected a quoted attribute value")),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated attribute value")),
                Some(byte) if byte == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some(b'&') => value.push_str(&self.parse_entity()?),
                Some(b'<') => return Err(self.error("`<` is not allowed in attribute values")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(byte) = self.peek() {
                        if byte == quote || byte == b'&' || byte == b'<' {
                            break;
                        }
                        self.bump();
                    }
                    value.push_str(
                        std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.error("attribute value is not valid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<String, XmlError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => return Ok(text),
                Some(b'&') => text.push_str(&self.parse_entity()?),
                Some(_) => {
                    let start = self.pos;
                    while let Some(byte) = self.peek() {
                        if byte == b'<' || byte == b'&' {
                            break;
                        }
                        self.bump();
                    }
                    text.push_str(
                        std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.error("text is not valid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_comment(&mut self) -> Result<String, XmlError> {
        self.expect_str("<!--")?;
        let start = self.pos;
        while !self.at_end() && !self.starts_with("-->") {
            self.bump();
        }
        if self.at_end() {
            return Err(self.error("unterminated comment"));
        }
        let comment = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("comment is not valid UTF-8"))?
            .to_string();
        self.expect_str("-->")?;
        Ok(comment)
    }

    fn parse_cdata(&mut self) -> Result<String, XmlError> {
        self.expect_str("<![CDATA[")?;
        let start = self.pos;
        while !self.at_end() && !self.starts_with("]]>") {
            self.bump();
        }
        if self.at_end() {
            return Err(self.error("unterminated CDATA section"));
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("CDATA is not valid UTF-8"))?
            .to_string();
        self.expect_str("]]>")?;
        Ok(text)
    }

    fn parse_entity(&mut self) -> Result<String, XmlError> {
        self.expect_str("&")?;
        let start = self.pos;
        while matches!(self.peek(), Some(byte) if byte != b';') {
            self.bump();
            if self.pos - start > 12 {
                return Err(self.error("entity reference too long"));
            }
        }
        if self.peek() != Some(b';') {
            return Err(self.error("unterminated entity reference"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("entity is not valid UTF-8"))?
            .to_string();
        self.bump(); // consume ';'
        let decoded = match name.as_str() {
            "lt" => "<".to_string(),
            "gt" => ">".to_string(),
            "amp" => "&".to_string(),
            "apos" => "'".to_string(),
            "quot" => "\"".to_string(),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| self.error(format!("invalid character reference &{name};")))?;
                char::from_u32(code)
                    .ok_or_else(|| self.error(format!("invalid code point in &{name};")))?
                    .to_string()
            }
            _ if name.starts_with('#') => {
                let code = name[1..]
                    .parse::<u32>()
                    .map_err(|_| self.error(format!("invalid character reference &{name};")))?;
                char::from_u32(code)
                    .ok_or_else(|| self.error(format!("invalid code point in &{name};")))?
                    .to_string()
            }
            _ => return Err(self.error(format!("unknown entity &{name};"))),
        };
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse("<a><b>foo</b><c/></a>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.children.len(), 2);
        assert_eq!(doc.root.child_element("b").unwrap().text(), "foo");
        assert!(doc.root.child_element("c").unwrap().children.is_empty());
    }

    #[test]
    fn parses_prolog_and_doctype() {
        let doc = parse("<?xml version=\"1.0\"?>\n<!DOCTYPE a>\n<!-- hi -->\n<a/>").unwrap();
        assert_eq!(doc.root.name, "a");
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let doc = parse(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        assert_eq!(doc.root.attribute("x"), Some("1"));
        assert_eq!(doc.root.attribute("y"), Some("two & three"));
    }

    #[test]
    fn parses_entities_and_char_refs() {
        let doc = parse("<a>&lt;b&gt; &amp; &quot;q&quot; &apos;s&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(doc.root.text(), "<b> & \"q\" 's' AB");
    }

    #[test]
    fn parses_cdata() {
        let doc = parse("<a><![CDATA[<not-a-tag> & stuff]]></a>").unwrap();
        assert_eq!(doc.root.text(), "<not-a-tag> & stuff");
    }

    #[test]
    fn parses_comments_inside_elements() {
        let doc = parse("<a><!-- note --><b/></a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
        assert!(matches!(doc.root.children[0], XmlNode::Comment(ref c) if c.trim() == "note"));
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let doc = parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
    }

    #[test]
    fn nested_elements() {
        let doc = parse("<a><b><c><d>deep</d></c></b></a>").unwrap();
        let d = doc
            .root
            .child_element("b")
            .and_then(|b| b.child_element("c"))
            .and_then(|c| c.child_element("d"))
            .unwrap();
        assert_eq!(d.text(), "deep");
    }

    #[test]
    fn namespaced_names_are_kept_verbatim() {
        let doc = parse(r#"<p:a xmlns:p="urn:x" p:attr="v"><p:b/></p:a>"#).unwrap();
        assert_eq!(doc.root.name, "p:a");
        assert_eq!(doc.root.attribute("p:attr"), Some("v"));
        assert_eq!(doc.root.child_elements().next().unwrap().name, "p:b");
    }

    #[test]
    fn error_on_mismatched_closing_tag() {
        let err = parse("<a><b></c></a>").unwrap_err();
        assert!(err.message.contains("mismatched closing tag"), "{err}");
    }

    #[test]
    fn error_on_unclosed_element() {
        let err = parse("<a><b>").unwrap_err();
        assert!(err.message.contains("unclosed"), "{err}");
    }

    #[test]
    fn error_on_trailing_garbage() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(err.message.contains("after the root element"), "{err}");
    }

    #[test]
    fn error_on_unknown_entity() {
        let err = parse("<a>&bogus;</a>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse("<a>\n  <b x=></b>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn error_on_bad_attribute_value() {
        assert!(parse("<a x=1/>").is_err());
        assert!(parse("<a x=\"1/>").is_err());
        assert!(parse(r#"<a x="<"/>"#).is_err());
    }

    #[test]
    fn error_on_empty_input() {
        assert!(parse("").is_err());
        assert!(parse("   \n ").is_err());
    }

    #[test]
    fn unicode_content_is_preserved() {
        let doc = parse("<a>héllo wörld — ✓</a>").unwrap();
        assert_eq!(doc.root.text(), "héllo wörld — ✓");
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting_depth() {
        let nested = |levels: usize| "<a>".repeat(levels) + &"</a>".repeat(levels);
        assert!(parse(&nested(MAX_NESTING_DEPTH)).is_ok());
        let err = parse(&nested(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("deeper than 256"), "{err}");
        // Far past the bound is the same typed error, not a stack overflow.
        assert!(parse(&nested(100_000)).is_err());
    }
}
