//! The TPWJ pattern data structure.

use std::collections::HashMap;
use std::fmt;

use pxml_tree::Tree;

use crate::answer::QueryAnswers;
use crate::error::QueryError;
use crate::matcher::Matching;

/// A handle to a node of a [`Pattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PNodeId(pub(crate) u32);

impl PNodeId {
    /// The raw index of this pattern node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A join-variable identifier; pattern nodes sharing a join id must map to
/// data nodes with equal values ("join by value", slide 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinId(pub(crate) u32);

/// The axis of the edge connecting a pattern node to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Parent/child edge (`/`).
    Child,
    /// Ancestor/descendant edge (`//`), any positive number of steps.
    Descendant,
}

/// A single node of a tree pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// Required element name; `None` is the wildcard `*`.
    pub label: Option<String>,
    /// Required node value (compared against [`pxml_tree::Tree::node_value`]).
    pub value: Option<String>,
    /// The join variable this node participates in, if any.
    pub join: Option<JoinId>,
    /// Edge to the parent pattern node (`None` for the pattern root).
    pub parent: Option<(PNodeId, Axis)>,
    /// Children of this pattern node.
    pub children: Vec<PNodeId>,
}

impl PatternNode {
    /// Whether the node's label test accepts the element name `name`.
    pub fn matches_label(&self, name: &str) -> bool {
        match &self.label {
            None => true,
            Some(required) => required == name,
        }
    }
}

/// A Tree-Pattern-With-Join query.
///
/// Built either programmatically (see [`Pattern::new`], [`Pattern::add_child`],
/// [`Pattern::set_value`], [`Pattern::join`]) or from text via
/// [`Pattern::parse`] — see the crate documentation for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    nodes: Vec<PatternNode>,
    root: PNodeId,
    joins: u32,
    anchored: bool,
    join_names: HashMap<u32, String>,
}

impl Pattern {
    /// Creates a pattern with a single root node testing for `label`
    /// (`None` = wildcard). By default the pattern root may map to *any*
    /// node of the data tree; see [`Pattern::set_anchored`].
    pub fn new(label: Option<&str>) -> Self {
        Pattern {
            nodes: vec![PatternNode {
                label: label.map(|s| s.to_string()),
                value: None,
                join: None,
                parent: None,
                children: Vec::new(),
            }],
            root: PNodeId(0),
            joins: 0,
            anchored: false,
            join_names: HashMap::new(),
        }
    }

    /// Convenience constructor for a single-label pattern.
    pub fn element(label: &str) -> Self {
        Pattern::new(Some(label))
    }

    /// Parses the textual query syntax (see [`crate::parser`]).
    pub fn parse(input: &str) -> Result<Self, QueryError> {
        crate::parser::parse(input)
    }

    /// The pattern root.
    pub fn root(&self) -> PNodeId {
        self.root
    }

    /// The number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the pattern consists of the root only.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Whether the pattern root must map to the data-tree root.
    pub fn is_anchored(&self) -> bool {
        self.anchored
    }

    /// Requires (or releases) the pattern root to map to the data-tree root.
    pub fn set_anchored(&mut self, anchored: bool) {
        self.anchored = anchored;
    }

    /// Access to a pattern node.
    ///
    /// # Panics
    /// Panics if the id does not belong to this pattern.
    pub fn node(&self, id: PNodeId) -> &PatternNode {
        &self.nodes[id.index()]
    }

    /// All pattern node ids, root first, in creation order (parents always
    /// precede their children).
    pub fn node_ids(&self) -> impl Iterator<Item = PNodeId> {
        (0..self.nodes.len() as u32).map(PNodeId)
    }

    /// Adds a child pattern node below `parent` along `axis`.
    pub fn add_child(&mut self, parent: PNodeId, axis: Axis, label: Option<&str>) -> PNodeId {
        assert!(
            parent.index() < self.nodes.len(),
            "invalid parent pattern node {parent}"
        );
        let id = PNodeId(self.nodes.len() as u32);
        self.nodes.push(PatternNode {
            label: label.map(|s| s.to_string()),
            value: None,
            join: None,
            parent: Some((parent, axis)),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Requires the node mapped by `id` to have the given value.
    pub fn set_value(&mut self, id: PNodeId, value: impl Into<String>) {
        self.nodes[id.index()].value = Some(value.into());
    }

    /// Creates a fresh join variable.
    pub fn new_join(&mut self, name: impl Into<String>) -> JoinId {
        let id = JoinId(self.joins);
        self.join_names.insert(self.joins, name.into());
        self.joins += 1;
        id
    }

    /// Adds a pattern node to a join group.
    pub fn join(&mut self, id: PNodeId, join: JoinId) {
        self.nodes[id.index()].join = Some(join);
    }

    /// The display name of a join variable.
    pub fn join_name(&self, join: JoinId) -> &str {
        self.join_names
            .get(&join.0)
            .map(|s| s.as_str())
            .unwrap_or("j")
    }

    /// The number of join variables.
    pub fn join_count(&self) -> usize {
        self.joins as usize
    }

    /// The members of each join group, indexed by join id.
    pub fn join_groups(&self) -> Vec<Vec<PNodeId>> {
        let mut groups = vec![Vec::new(); self.joins as usize];
        for id in self.node_ids() {
            if let Some(join) = self.node(id).join {
                groups[join.0 as usize].push(id);
            }
        }
        groups
    }

    /// Checks structural sanity: every join variable constrains at least two
    /// nodes, and parent/child links are consistent.
    pub fn validate(&self) -> Result<(), QueryError> {
        for (index, node) in self.nodes.iter().enumerate() {
            let id = PNodeId(index as u32);
            if let Some((parent, _)) = node.parent {
                if parent.index() >= self.nodes.len() {
                    return Err(QueryError::InvalidPatternNode(parent.0));
                }
                if !self.nodes[parent.index()].children.contains(&id) {
                    return Err(QueryError::InvalidPatternNode(id.0));
                }
            }
            for &child in &node.children {
                if child.index() >= self.nodes.len() {
                    return Err(QueryError::InvalidPatternNode(child.0));
                }
            }
        }
        for (join_index, group) in self.join_groups().iter().enumerate() {
            if group.len() == 1 {
                let name = self
                    .join_names
                    .get(&(join_index as u32))
                    .cloned()
                    .unwrap_or_else(|| join_index.to_string());
                return Err(QueryError::DanglingJoinVariable(name));
            }
        }
        Ok(())
    }

    /// Finds every match of this pattern in `tree`, in document order.
    pub fn find_matches(&self, tree: &Tree) -> Vec<Matching> {
        crate::matcher::find_matches(self, tree)
    }

    /// Evaluates the query: every match together with its minimal-subtree
    /// answer.
    pub fn evaluate(&self, tree: &Tree) -> QueryAnswers {
        crate::answer::evaluate(self, tree)
    }

    /// Renders the pattern in the textual syntax accepted by
    /// [`Pattern::parse`].
    fn render(&self, id: PNodeId, out: &mut String) {
        let node = self.node(id);
        match &node.label {
            Some(label) => out.push_str(label),
            None => out.push('*'),
        }
        if let Some(value) = &node.value {
            out.push_str("[=\"");
            out.push_str(&value.replace('\\', "\\\\").replace('"', "\\\""));
            out.push_str("\"]");
        }
        if let Some(join) = node.join {
            out.push_str("[$");
            out.push_str(self.join_name(join));
            out.push(']');
        }
        if !node.children.is_empty() {
            out.push_str(" { ");
            for (i, &child) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                if let Some((_, Axis::Descendant)) = self.node(child).parent {
                    out.push_str("//");
                }
                self.render(child, out);
            }
            out.push_str(" }");
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        if self.anchored {
            out.push('/');
        }
        self.render(self.root, &mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::parse_data_tree;

    /// The slide-6 query: A with children B and C, C joined by value with a
    /// descendant D.
    fn slide6_pattern() -> Pattern {
        let mut p = Pattern::element("A");
        let root = p.root();
        let _b = p.add_child(root, Axis::Child, Some("B"));
        let c = p.add_child(root, Axis::Child, Some("C"));
        let d = p.add_child(root, Axis::Descendant, Some("D"));
        let j = p.new_join("x");
        p.join(c, j);
        p.join(d, j);
        p
    }

    #[test]
    fn builder_constructs_expected_shape() {
        let p = slide6_pattern();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.node(p.root()).children.len(), 3);
        assert_eq!(p.join_count(), 1);
        assert_eq!(p.join_groups()[0].len(), 2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn wildcard_and_label_tests() {
        let node = PatternNode {
            label: None,
            value: None,
            join: None,
            parent: None,
            children: vec![],
        };
        assert!(node.matches_label("anything"));
        let named = PatternNode {
            label: Some("B".into()),
            ..node
        };
        assert!(named.matches_label("B"));
        assert!(!named.matches_label("C"));
    }

    #[test]
    fn dangling_join_is_invalid() {
        let mut p = Pattern::element("A");
        let b = p.add_child(p.root(), Axis::Child, Some("B"));
        let j = p.new_join("x");
        p.join(b, j);
        assert_eq!(
            p.validate().unwrap_err(),
            QueryError::DanglingJoinVariable("x".into())
        );
    }

    #[test]
    fn display_round_trips_through_parser() {
        let p = slide6_pattern();
        let text = p.to_string();
        let reparsed = Pattern::parse(&text).unwrap();
        assert_eq!(reparsed.len(), p.len());
        assert_eq!(reparsed.join_count(), p.join_count());
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn anchoring_flag() {
        let mut p = Pattern::element("A");
        assert!(!p.is_anchored());
        p.set_anchored(true);
        assert!(p.is_anchored());
        assert!(p.to_string().starts_with('/'));
    }

    #[test]
    fn evaluate_convenience_matches_matcher() {
        let tree = parse_data_tree("<A><B>k</B><C>v</C><E><D>v</D></E></A>").unwrap();
        let p = slide6_pattern();
        let matches = p.find_matches(&tree);
        assert_eq!(matches.len(), 1);
        let answers = p.evaluate(&tree);
        assert_eq!(answers.matches.len(), 1);
    }

    #[test]
    fn value_constraint_is_stored() {
        let mut p = Pattern::element("A");
        let b = p.add_child(p.root(), Axis::Child, Some("B"));
        p.set_value(b, "42");
        assert_eq!(p.node(b).value.as_deref(), Some("42"));
        assert!(p.to_string().contains("[=\"42\"]"));
    }

    #[test]
    #[should_panic(expected = "invalid parent")]
    fn adding_child_to_bogus_parent_panics() {
        let mut p = Pattern::element("A");
        p.add_child(PNodeId(42), Axis::Child, Some("B"));
    }
}
