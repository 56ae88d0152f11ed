//! Textual syntax for TPWJ queries.
//!
//! The grammar (whitespace-insensitive):
//!
//! ```text
//! query    := '/'? node                 -- leading '/' anchors the pattern
//!                                       -- root to the document root
//! node     := label pred* body?
//! label    := NAME | '*'
//! pred     := '[' '=' STRING ']'        -- value test
//!           | '[' '$' NAME ']'          -- join variable
//! body     := '{' child (',' child)* '}'
//! child    := ('//' | '/')? node        -- '//' = descendant edge,
//!                                       -- '/' or nothing = child edge
//! STRING   := '"' (escaped chars) '"'
//! ```
//!
//! Examples:
//!
//! * `book { author, title }` — a `book` with an `author` child and a `title`
//!   child, anywhere in the document;
//! * `/A { B, C[$x], //D[$x] }` — the slide-6 query: anchored at the root
//!   `A`, a `B` child, a `C` child and a `D` descendant joined by value.

use pxml_tree::MAX_NESTING_DEPTH;

use crate::error::QueryError;
use crate::pattern::{Axis, JoinId, PNodeId, Pattern};

/// Parses a textual TPWJ query.
pub fn parse(input: &str) -> Result<Pattern, QueryError> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 1,
        joins: Vec::new(),
    };
    parser.skip_ws();
    let anchored = parser.eat(b'/') && !parser.eat_str("/");
    // ("//" at the very start is treated like an unanchored pattern.)
    parser.skip_ws();
    let mut pattern = parser.parse_root()?;
    pattern.set_anchored(anchored);
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(QueryError::parse(
            "unexpected trailing characters",
            parser.pos,
        ));
    }
    pattern.validate()?;
    Ok(pattern)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Nesting level of the node being parsed (the root is at 1).
    depth: usize,
    /// Join variables seen so far: `(name, id)`.
    joins: Vec<(String, JoinId)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_root(&mut self) -> Result<Pattern, QueryError> {
        let label = self.parse_label()?;
        let mut pattern = Pattern::new(label.as_deref());
        let root = pattern.root();
        self.parse_predicates(&mut pattern, root)?;
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.parse_body(&mut pattern, root)?;
        }
        Ok(pattern)
    }

    fn parse_node(
        &mut self,
        pattern: &mut Pattern,
        parent: PNodeId,
        axis: Axis,
    ) -> Result<(), QueryError> {
        let label = self.parse_label()?;
        let node = pattern.add_child(parent, axis, label.as_deref());
        self.parse_predicates(pattern, node)?;
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.parse_body(pattern, node)?;
        }
        Ok(())
    }

    fn parse_body(&mut self, pattern: &mut Pattern, parent: PNodeId) -> Result<(), QueryError> {
        self.expect(b'{')?;
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(QueryError::parse(
                format!("pattern nests deeper than {MAX_NESTING_DEPTH} levels"),
                self.pos,
            ));
        }
        loop {
            self.skip_ws();
            let axis = if self.eat_str("//") {
                Axis::Descendant
            } else {
                // An optional single '/' also denotes a child edge.
                self.eat(b'/');
                Axis::Child
            };
            self.skip_ws();
            self.parse_node(pattern, parent, axis)?;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            self.depth -= 1;
            return Ok(());
        }
    }

    fn parse_label(&mut self) -> Result<Option<String>, QueryError> {
        self.skip_ws();
        if self.eat(b'*') {
            return Ok(None);
        }
        let name = self.parse_name()?;
        Ok(Some(name))
    }

    fn parse_name(&mut self) -> Result<String, QueryError> {
        let start = self.pos;
        while let Some(byte) = self.peek() {
            let ok = byte.is_ascii_alphanumeric()
                || byte == b'_'
                || byte == b'-'
                || byte == b'.'
                || byte == b':'
                || byte >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(QueryError::parse("expected a name", self.pos));
        }
        String::from_utf8(self.input[start..self.pos].to_vec())
            .map_err(|_| QueryError::parse("name is not valid UTF-8", start))
    }

    fn parse_predicates(&mut self, pattern: &mut Pattern, node: PNodeId) -> Result<(), QueryError> {
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                return Ok(());
            }
            self.skip_ws();
            match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    self.skip_ws();
                    let value = self.parse_string()?;
                    pattern.set_value(node, value);
                }
                Some(b'$') => {
                    self.pos += 1;
                    let name = self.parse_name()?;
                    let join = self.join_for(pattern, &name);
                    pattern.join(node, join);
                }
                _ => {
                    return Err(QueryError::parse(
                        "expected `=` (value test) or `$` (join variable) inside `[...]`",
                        self.pos,
                    ))
                }
            }
            self.skip_ws();
            self.expect(b']')?;
        }
    }

    fn join_for(&mut self, pattern: &mut Pattern, name: &str) -> JoinId {
        if let Some((_, id)) = self.joins.iter().find(|(existing, _)| existing == name) {
            return *id;
        }
        let id = pattern.new_join(name);
        self.joins.push((name.to_string(), id));
        id
    }

    fn parse_string(&mut self) -> Result<String, QueryError> {
        if !self.eat(b'"') {
            return Err(QueryError::parse(
                "expected a double-quoted string",
                self.pos,
            ));
        }
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(QueryError::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| QueryError::parse("string is not valid UTF-8", self.pos));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(escaped @ (b'"' | b'\\')) => {
                            out.push(escaped);
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push(b'\n');
                            self.pos += 1;
                        }
                        _ => {
                            return Err(QueryError::parse("invalid escape sequence", self.pos));
                        }
                    }
                }
                Some(byte) => {
                    out.push(byte);
                    self.pos += 1;
                }
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), QueryError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(QueryError::parse(
                format!("expected `{}`", byte as char),
                self.pos,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::parse_data_tree;

    #[test]
    fn single_label() {
        let p = parse("book").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.node(p.root()).label.as_deref(), Some("book"));
        assert!(!p.is_anchored());
    }

    #[test]
    fn wildcard_and_anchor() {
        let p = parse("/*").unwrap();
        assert!(p.is_anchored());
        assert_eq!(p.node(p.root()).label, None);
    }

    #[test]
    fn children_and_descendants() {
        let p = parse("A { B, //C, /D }").unwrap();
        assert_eq!(p.len(), 4);
        let root = p.root();
        let children = &p.node(root).children;
        assert_eq!(children.len(), 3);
        assert_eq!(p.node(children[0]).parent.unwrap().1, Axis::Child);
        assert_eq!(p.node(children[1]).parent.unwrap().1, Axis::Descendant);
        assert_eq!(p.node(children[2]).parent.unwrap().1, Axis::Child);
    }

    #[test]
    fn nested_bodies() {
        let p = parse("a { b { c { d } }, e }").unwrap();
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn value_predicate() {
        let p = parse(r#"person { name[="Alan \"T\"..."] }"#).unwrap();
        let name = p.node(p.root()).children[0];
        assert_eq!(p.node(name).value.as_deref(), Some("Alan \"T\"..."));
    }

    #[test]
    fn join_predicate_shares_variables() {
        let p = parse("A { B[$x], C { D[$x] }, E[$y], F[$y] }").unwrap();
        assert_eq!(p.join_count(), 2);
        let groups = p.join_groups();
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 2);
    }

    #[test]
    fn slide6_query_parses_and_matches() {
        let p = parse("/A { B, C[$x], //D[$x] }").unwrap();
        assert!(p.is_anchored());
        assert_eq!(p.len(), 4);
        let tree = parse_data_tree("<A><B>b</B><C>v</C><E><D>v</D></E></A>").unwrap();
        assert_eq!(p.find_matches(&tree).len(), 1);
    }

    #[test]
    fn round_trip_display_parse() {
        for text in [
            "book { author, title }",
            "/A { B, C[$x], //D[$x] }",
            "* { //leaf[=\"v\"] }",
        ] {
            let p = parse(text).unwrap();
            let reparsed = parse(&p.to_string()).unwrap();
            assert_eq!(p.to_string(), reparsed.to_string());
        }
    }

    #[test]
    fn error_on_dangling_join() {
        let err = parse("A { B[$x] }").unwrap_err();
        assert!(matches!(err, QueryError::DanglingJoinVariable(_)));
    }

    #[test]
    fn error_on_trailing_garbage() {
        let err = parse("A } extra").unwrap_err();
        assert!(matches!(err, QueryError::ParseError { .. }));
    }

    #[test]
    fn error_on_missing_name() {
        assert!(parse("").is_err());
        assert!(parse("{ B }").is_err());
        assert!(parse("A { }").is_err());
    }

    #[test]
    fn error_on_bad_predicate() {
        assert!(parse("A[>3]").is_err());
        assert!(parse("A[=unquoted]").is_err());
        assert!(parse("A[=\"open").is_err());
        assert!(parse("A[=\"bad\\escape\"]").is_err());
    }

    #[test]
    fn error_on_unclosed_body() {
        assert!(parse("A { B").is_err());
        assert!(parse("A { B,, C }").is_err());
    }

    #[test]
    fn whitespace_is_flexible() {
        let p = parse("  A{B ,//C[ $x ] ,D[ =\"1\" ]{E[$x]}}  ").unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.join_count(), 1);
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting_depth() {
        let nested = |levels: usize| "a{".repeat(levels - 1) + "a" + &"}".repeat(levels - 1);
        assert_eq!(parse(&nested(MAX_NESTING_DEPTH)).unwrap().len(), 256);
        let err = parse(&nested(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("deeper than 256"), "{err}");
        // Far past the bound is the same typed error, not a stack overflow.
        assert!(parse(&"a{".repeat(100_000)).is_err());
    }
}
