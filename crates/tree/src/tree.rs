//! Arena-allocated, unordered data trees.
//!
//! A [`Tree`] owns all its nodes in a single arena; nodes are addressed by
//! [`NodeId`] handles. Children are stored in insertion order for
//! deterministic traversal, but the *semantics* of the data model is
//! unordered: equality between trees and subtrees is unordered isomorphism
//! (see [`crate::iso`]).

use std::collections::HashMap;
use std::fmt;

use crate::chunk::ChunkedVec;
use crate::error::TreeError;
use crate::label::Label;

/// The deepest nesting the recursive parsers accept — XML elements in
/// [`crate::xml::parse`], pattern nodes in the query parser — so that a
/// hostile frame is a typed error, not a stack overflow on a connection
/// thread.
pub const MAX_NESTING_DEPTH: usize = 256;

/// The deepest node (the root is at depth 0) a data tree may gain from
/// outside: an `OPEN` content or an insertion. Derived, not a second bound:
/// a node at depth `d` sits `d + 1` elements deep and storage wraps a tree
/// in up to three more (`pxml:document`/`pxml:content` plus `pxml:text`
/// around a conditional text node; `pxml:batch`/`pxml:update`/`pxml:insert`
/// around an inserted subtree), so every checkpoint and journal record of
/// such a tree stays within [`MAX_NESTING_DEPTH`] and parses back.
pub const MAX_TREE_DEPTH: usize = MAX_NESTING_DEPTH - 3;

/// A handle to a node of a [`Tree`].
///
/// Node ids are only meaningful relative to the tree that created them; they
/// remain stable across insertions and deletions of *other* nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node inside its tree's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a raw arena index, the inverse of
    /// [`NodeId::index`]. Meant for positional side tables (storage keyed by
    /// `index()`); the id is only meaningful for the tree the index came from.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    label: Label,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    alive: bool,
}

/// A finite, unordered, labelled data tree.
///
/// This is the data model of the paper: element and text nodes, no attribute
/// nodes, no mixed content (the latter is not enforced on every mutation but
/// can be checked with [`Tree::check_data_model`]).
///
/// The arena is stored in [`ChunkedVec`] chunks behind `Arc`s, so cloning a
/// tree is O(slots / chunk-size) pointer bumps and the clone shares every
/// chunk with the original. Mutations copy only the chunks they touch
/// (copy-on-write); [`Tree::chunk_copies`] exposes how many chunk copies a
/// sequence of mutations actually paid for.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: ChunkedVec<Slot>,
    root: NodeId,
    alive: usize,
}

impl Tree {
    /// Creates a tree with a single root node.
    ///
    /// A bare `&str` is interpreted as an element name.
    pub fn new(root_label: impl Into<Label>) -> Self {
        let mut nodes = ChunkedVec::new();
        nodes.push(Slot {
            label: root_label.into(),
            parent: None,
            children: Vec::new(),
            alive: true,
        });
        Tree {
            nodes,
            root: NodeId(0),
            alive: 1,
        }
    }

    /// The root node of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The number of live nodes.
    pub fn node_count(&self) -> usize {
        self.alive
    }

    /// The number of arena slots, including deleted ones.
    pub fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cumulative count of arena chunks copied to un-share them before a
    /// write (see [`ChunkedVec::chunk_copies`]). The counter is carried
    /// across clones, so the delta between a snapshot clone and the mutated
    /// copy bounds the copy work of the mutation batch.
    pub fn chunk_copies(&self) -> u64 {
        self.nodes.chunk_copies()
    }

    /// Returns `true` if `id` refers to a live node of this tree.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.index())
            .map(|slot| slot.alive)
            .unwrap_or(false)
    }

    fn slot(&self, id: NodeId) -> &Slot {
        let slot = self
            .nodes
            .get(id.index())
            .unwrap_or_else(|| panic!("node id {id} out of bounds"));
        assert!(slot.alive, "node id {id} refers to a deleted node");
        slot
    }

    fn slot_mut(&mut self, id: NodeId) -> &mut Slot {
        let slot = self
            .nodes
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("node id {id} out of bounds"));
        assert!(slot.alive, "node id {id} refers to a deleted node");
        slot
    }

    /// The label of a node.
    ///
    /// # Panics
    /// Panics if `id` is not a live node of this tree.
    pub fn label(&self, id: NodeId) -> &Label {
        &self.slot(id).label
    }

    /// Replaces the label of a node.
    pub fn set_label(&mut self, id: NodeId, label: impl Into<Label>) {
        self.slot_mut(id).label = label.into();
    }

    /// The parent of a node, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.slot(id).parent
    }

    /// The children of a node, in insertion order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.slot(id).children
    }

    /// Returns `true` if the node has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.slot(id).children.is_empty()
    }

    /// Returns `true` if the node is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.slot(id).label.is_element()
    }

    /// Returns `true` if the node is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.slot(id).label.is_text()
    }

    /// Adds a child with an arbitrary label and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` is not a live node or is a text node.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<Label>) -> NodeId {
        self.try_add_child(parent, label)
            .expect("add_child: invalid parent")
    }

    /// Adds a child element node and returns its id.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        self.add_child(parent, Label::Element(name.into()))
    }

    /// Adds a child text node and returns its id.
    pub fn add_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        self.add_child(parent, Label::Text(value.into()))
    }

    /// Fallible variant of [`Tree::add_child`].
    pub fn try_add_child(
        &mut self,
        parent: NodeId,
        label: impl Into<Label>,
    ) -> Result<NodeId, TreeError> {
        if !self.contains(parent) {
            return Err(TreeError::InvalidNode(parent.0));
        }
        if self.slot(parent).label.is_text() {
            return Err(TreeError::TextNodeHasNoChildren(parent.0));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Slot {
            label: label.into(),
            parent: Some(parent),
            children: Vec::new(),
            alive: true,
        });
        self.slot_mut(parent).children.push(id);
        self.alive += 1;
        Ok(id)
    }

    /// Removes the subtree rooted at `id` (the node and all its descendants).
    ///
    /// The root of the tree cannot be removed.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<(), TreeError> {
        if !self.contains(id) {
            return Err(TreeError::InvalidNode(id.0));
        }
        if id == self.root {
            return Err(TreeError::CannotRemoveRoot);
        }
        // Unlink from the parent first.
        let parent = self.slot(id).parent.expect("non-root node has a parent");
        let siblings = &mut self.slot_mut(parent).children;
        siblings.retain(|&child| child != id);
        // Mark the whole subtree dead.
        let mut stack = vec![id];
        while let Some(node) = stack.pop() {
            let slot = self
                .nodes
                .get_mut(node.index())
                .expect("subtree child id in bounds");
            if !slot.alive {
                continue;
            }
            slot.alive = false;
            self.alive -= 1;
            stack.extend(slot.children.iter().copied());
            slot.children.clear();
            slot.parent = None;
        }
        Ok(())
    }

    /// Deep-copies the subtree of `other` rooted at `other_node` as a new
    /// child of `parent` in this tree; returns the id of the copied root.
    pub fn copy_subtree_from(
        &mut self,
        parent: NodeId,
        other: &Tree,
        other_node: NodeId,
    ) -> NodeId {
        let new_root = self.add_child(parent, other.label(other_node).clone());
        let mut stack: Vec<(NodeId, NodeId)> = vec![(other_node, new_root)];
        while let Some((src, dst)) = stack.pop() {
            for &child in other.children(src) {
                let copy = self.add_child(dst, other.label(child).clone());
                stack.push((child, copy));
            }
        }
        new_root
    }

    /// Extracts the subtree rooted at `id` as a new, independent tree.
    pub fn subtree_to_tree(&self, id: NodeId) -> Tree {
        let mut out = Tree::new(self.label(id).clone());
        let mut stack: Vec<(NodeId, NodeId)> = vec![(id, out.root())];
        while let Some((src, dst)) = stack.pop() {
            for &child in self.children(src) {
                let copy = out.add_child(dst, self.label(child).clone());
                stack.push((child, copy));
            }
        }
        out
    }

    /// Iterates over the node ids of the subtree rooted at `id`, in preorder.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(node) = stack.pop() {
            out.push(node);
            // Push children in reverse so that preorder follows insertion order.
            for &child in self.children(node).iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Iterates over the proper descendants of `id`, in preorder.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut all = self.descendants_or_self(id);
        all.remove(0);
        all
    }

    /// All live nodes of the tree, in preorder from the root.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.descendants_or_self(self.root)
    }

    /// The chain of proper ancestors of `id`, from its parent up to the root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(node) = cur {
            out.push(node);
            cur = self.parent(node);
        }
        out
    }

    /// The chain `id, parent(id), …, root`.
    pub fn ancestors_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = vec![id];
        out.extend(self.ancestors(id));
        out
    }

    /// The depth of `id` (the root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).len()
    }

    /// The height of the tree (a single-node tree has height 0).
    pub fn height(&self) -> usize {
        self.nodes()
            .into_iter()
            .map(|n| self.depth(n))
            .max()
            .unwrap_or(0)
    }

    /// The number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants_or_self(id).len()
    }

    /// Returns `true` if `ancestor` is a proper ancestor of `node`.
    pub fn is_strict_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.ancestors(node).contains(&ancestor)
    }

    /// Returns `true` if `ancestor` is `node` or one of its proper ancestors.
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, node: NodeId) -> bool {
        ancestor == node || self.is_strict_ancestor(ancestor, node)
    }

    /// The lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let path_a = self.ancestors_or_self(a);
        let path_b: std::collections::HashSet<NodeId> =
            self.ancestors_or_self(b).into_iter().collect();
        for node in path_a {
            if path_b.contains(&node) {
                return node;
            }
        }
        // Both paths end at the root, so this is unreachable for live nodes.
        self.root
    }

    /// The lowest common ancestor of a non-empty set of nodes.
    pub fn lca_of(&self, nodes: &[NodeId]) -> Option<NodeId> {
        let mut iter = nodes.iter().copied();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, node| self.lca(acc, node)))
    }

    /// The *value* of a node, as used for value tests and joins:
    /// the string of a text node, or the string of an element node whose only
    /// child is a text node; `None` otherwise.
    pub fn node_value(&self, id: NodeId) -> Option<&str> {
        match self.label(id) {
            Label::Text(value) => Some(value),
            Label::Element(_) => {
                let children = self.children(id);
                if children.len() == 1 {
                    self.label(children[0]).text_value()
                } else {
                    None
                }
            }
        }
    }

    /// The concatenation of all text values in the subtree of `id`, sorted
    /// lexicographically so that the result is deterministic even though the
    /// tree is unordered.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut texts: Vec<&str> = self
            .descendants_or_self(id)
            .into_iter()
            .filter_map(|n| self.label(n).text_value())
            .collect();
        texts.sort_unstable();
        texts.concat()
    }

    /// All element nodes whose tag equals `name`.
    pub fn find_elements(&self, name: &str) -> Vec<NodeId> {
        self.nodes()
            .into_iter()
            .filter(|&n| self.label(n).element_name() == Some(name))
            .collect()
    }

    /// All element tag names occurring in the tree, deduplicated and sorted.
    pub fn element_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .nodes()
            .into_iter()
            .filter_map(|n| self.label(n).element_name().map(|s| s.to_string()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Produces a compacted copy of this tree containing only live nodes,
    /// together with the mapping from old node ids to new ones.
    pub fn compact(&self) -> (Tree, HashMap<NodeId, NodeId>) {
        let mut out = Tree::new(self.label(self.root).clone());
        let mut mapping = HashMap::new();
        mapping.insert(self.root, out.root());
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            let dst = mapping[&node];
            for &child in self.children(node) {
                let copy = out.add_child(dst, self.label(child).clone());
                mapping.insert(child, copy);
                stack.push(child);
            }
        }
        (out, mapping)
    }

    /// Checks the structural invariants of the arena (parent/child pointers
    /// are mutually consistent, exactly one root, no cycles).
    pub fn validate(&self) -> Result<(), TreeError> {
        let mut seen = 0usize;
        for (index, slot) in self.nodes.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            seen += 1;
            let id = NodeId(index as u32);
            match slot.parent {
                None => {
                    if id != self.root {
                        return Err(TreeError::DataModelViolation(format!(
                            "node {id} has no parent but is not the root"
                        )));
                    }
                }
                Some(parent) => {
                    if !self.contains(parent) {
                        return Err(TreeError::InvalidNode(parent.0));
                    }
                    if !self.slot(parent).children.contains(&id) {
                        return Err(TreeError::DataModelViolation(format!(
                            "node {id} is not listed among the children of its parent {parent}"
                        )));
                    }
                }
            }
            for &child in &slot.children {
                if !self.contains(child) {
                    return Err(TreeError::InvalidNode(child.0));
                }
                if self.slot(child).parent != Some(id) {
                    return Err(TreeError::DataModelViolation(format!(
                        "child {child} of {id} does not point back to it"
                    )));
                }
            }
        }
        if seen != self.alive {
            return Err(TreeError::DataModelViolation(format!(
                "live-node count mismatch: counted {seen}, recorded {}",
                self.alive
            )));
        }
        // Reachability: every live node must be reachable from the root.
        if self.nodes().len() != self.alive {
            return Err(TreeError::DataModelViolation(
                "some live nodes are unreachable from the root".to_string(),
            ));
        }
        Ok(())
    }

    /// Checks the paper's data-model restrictions: text nodes are leaves, and
    /// there is no mixed content (an element has either element children or a
    /// single text child).
    pub fn check_data_model(&self) -> Result<(), TreeError> {
        for node in self.nodes() {
            match self.label(node) {
                Label::Text(_) => {
                    if !self.is_leaf(node) {
                        return Err(TreeError::TextNodeHasNoChildren(node.0));
                    }
                }
                Label::Element(name) => {
                    let children = self.children(node);
                    let text_children = children.iter().filter(|&&c| self.is_text(c)).count();
                    if text_children > 0 && children.len() != text_children {
                        return Err(TreeError::DataModelViolation(format!(
                            "element <{name}> ({node}) has mixed content"
                        )));
                    }
                    if text_children > 1 {
                        return Err(TreeError::DataModelViolation(format!(
                            "element <{name}> ({node}) has more than one text child"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Unordered-isomorphism test; see [`crate::iso`].
    pub fn isomorphic(&self, other: &Tree) -> bool {
        crate::iso::isomorphic(self, other)
    }
}

impl PartialEq for Tree {
    /// Tree equality is **unordered isomorphism**, matching the paper's
    /// unordered data model.
    fn eq(&self, other: &Self) -> bool {
        self.isomorphic(other)
    }
}

impl Eq for Tree {}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render(tree: &Tree, node: NodeId, out: &mut fmt::Formatter<'_>) -> fmt::Result {
            match tree.label(node) {
                Label::Text(value) => write!(out, "{value:?}"),
                Label::Element(name) => {
                    write!(out, "{name}")?;
                    let children = tree.children(node);
                    if !children.is_empty() {
                        write!(out, "(")?;
                        for (i, &child) in children.iter().enumerate() {
                            if i > 0 {
                                write!(out, ", ")?;
                            }
                            render(tree, child, out)?;
                        }
                        write!(out, ")")?;
                    }
                    Ok(())
                }
            }
        }
        render(self, self.root, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // a(b("foo"), b("foo"), e(c("nee")), d(f("bar")))  — the slide-5 shape.
        let mut t = Tree::new("A");
        let b1 = t.add_element(t.root(), "B");
        t.add_text(b1, "foo");
        let b2 = t.add_element(t.root(), "B");
        t.add_text(b2, "foo");
        let e = t.add_element(t.root(), "E");
        let c = t.add_element(e, "C");
        t.add_text(c, "nee");
        let d = t.add_element(t.root(), "D");
        let f = t.add_element(d, "F");
        t.add_text(f, "bar");
        t
    }

    #[test]
    fn build_and_count() {
        let t = sample();
        assert_eq!(t.node_count(), 11);
        assert_eq!(t.children(t.root()).len(), 4);
        assert!(t.validate().is_ok());
        assert!(t.check_data_model().is_ok());
    }

    #[test]
    fn labels_and_kinds() {
        let mut t = Tree::new("root");
        let x = t.add_element(t.root(), "x");
        let v = t.add_text(x, "42");
        assert!(t.is_element(x));
        assert!(t.is_text(v));
        assert!(t.is_leaf(v));
        assert!(!t.is_leaf(x));
        assert_eq!(t.label(x).element_name(), Some("x"));
        t.set_label(x, "y");
        assert_eq!(t.label(x).element_name(), Some("y"));
    }

    #[test]
    fn parent_children_navigation() {
        let t = sample();
        let root = t.root();
        assert_eq!(t.parent(root), None);
        for &child in t.children(root) {
            assert_eq!(t.parent(child), Some(root));
        }
    }

    #[test]
    fn text_node_refuses_children() {
        let mut t = Tree::new("a");
        let txt = t.add_text(t.root(), "v");
        let err = t.try_add_child(txt, "b").unwrap_err();
        assert_eq!(err, TreeError::TextNodeHasNoChildren(txt.0));
    }

    #[test]
    fn invalid_parent_is_reported() {
        let mut t = Tree::new("a");
        let bogus = NodeId(999);
        assert_eq!(
            t.try_add_child(bogus, "b").unwrap_err(),
            TreeError::InvalidNode(999)
        );
    }

    #[test]
    fn remove_subtree_removes_descendants() {
        let mut t = sample();
        let e = t.find_elements("E")[0];
        let before = t.node_count();
        t.remove_subtree(e).unwrap();
        assert_eq!(t.node_count(), before - 3); // E, C, "nee"
        assert!(!t.contains(e));
        assert!(t.find_elements("C").is_empty());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn removing_root_fails() {
        let mut t = sample();
        assert_eq!(
            t.remove_subtree(t.root()).unwrap_err(),
            TreeError::CannotRemoveRoot
        );
    }

    #[test]
    fn removing_dead_node_fails() {
        let mut t = sample();
        let e = t.find_elements("E")[0];
        t.remove_subtree(e).unwrap();
        assert!(matches!(
            t.remove_subtree(e),
            Err(TreeError::InvalidNode(_))
        ));
    }

    #[test]
    fn descendants_and_preorder() {
        let t = sample();
        let all = t.nodes();
        assert_eq!(all.len(), 11);
        assert_eq!(all[0], t.root());
        let e = t.find_elements("E")[0];
        assert_eq!(t.descendants_or_self(e).len(), 3);
        assert_eq!(t.descendants(e).len(), 2);
    }

    #[test]
    fn ancestors_and_depth() {
        let t = sample();
        let nee = t
            .nodes()
            .into_iter()
            .find(|&n| t.label(n).text_value() == Some("nee"))
            .unwrap();
        assert_eq!(t.depth(nee), 3);
        assert_eq!(t.ancestors(nee).len(), 3);
        assert_eq!(t.ancestors_or_self(nee).len(), 4);
        assert_eq!(*t.ancestors(nee).last().unwrap(), t.root());
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn ancestor_predicates_and_lca() {
        let t = sample();
        let e = t.find_elements("E")[0];
        let c = t.find_elements("C")[0];
        let d = t.find_elements("D")[0];
        assert!(t.is_strict_ancestor(e, c));
        assert!(!t.is_strict_ancestor(c, e));
        assert!(t.is_ancestor_or_self(c, c));
        assert_eq!(t.lca(c, d), t.root());
        assert_eq!(t.lca(c, e), e);
        assert_eq!(t.lca_of(&[c, d, e]), Some(t.root()));
        assert_eq!(t.lca_of(&[]), None);
    }

    #[test]
    fn node_value_and_text_content() {
        let t = sample();
        let b = t.find_elements("B")[0];
        assert_eq!(t.node_value(b), Some("foo"));
        let e = t.find_elements("E")[0];
        assert_eq!(t.node_value(e), None); // its only child is an element
        let root_value: String = t.text_content(t.root());
        assert_eq!(root_value, "barfoofoonee"); // sorted text values concatenated
        let txt = t.children(b)[0];
        assert_eq!(t.node_value(txt), Some("foo"));
    }

    #[test]
    fn copy_subtree_between_trees() {
        let src = sample();
        let mut dst = Tree::new("root");
        let e = src.find_elements("E")[0];
        let copied = dst.copy_subtree_from(dst.root(), &src, e);
        assert_eq!(dst.subtree_size(copied), 3);
        assert_eq!(dst.label(copied).element_name(), Some("E"));
        assert!(dst.validate().is_ok());
        // The copy is deep: mutating the destination does not affect the source.
        dst.remove_subtree(copied).unwrap();
        assert_eq!(src.find_elements("E").len(), 1);
    }

    #[test]
    fn subtree_to_tree_extracts_deep_copy() {
        let t = sample();
        let d = t.find_elements("D")[0];
        let sub = t.subtree_to_tree(d);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.label(sub.root()).element_name(), Some("D"));
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn clone_is_copy_on_write() {
        // Build a tree spanning several chunks, clone it, mutate the clone.
        let mut t = Tree::new("root");
        let mut leaves = Vec::new();
        for i in 0..10 {
            let branch = t.add_element(t.root(), format!("branch{i}"));
            for j in 0..30 {
                leaves.push(t.add_element(branch, format!("leaf{j}")));
            }
        }
        let chunks = t.slot_count().div_ceil(64) as u64;
        let snapshot = t.clone();
        let before = t.chunk_copies();
        // A single-label edit touches exactly one chunk.
        t.set_label(leaves[7], "renamed");
        let copied = t.chunk_copies() - before;
        assert_eq!(copied, 1, "one chunk copy for one touched node");
        assert!(copied < chunks, "far fewer copies than total chunks");
        // The snapshot still sees the old label, untouched.
        assert_eq!(snapshot.label(leaves[7]).element_name(), Some("leaf7"));
        assert_eq!(t.label(leaves[7]).element_name(), Some("renamed"));
        assert_eq!(snapshot.node_count(), t.node_count());
        assert!(snapshot.validate().is_ok());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn small_mutation_batch_copies_few_chunks() {
        let mut t = Tree::new("root");
        for i in 0..8 {
            let branch = t.add_element(t.root(), format!("branch{i}"));
            for j in 0..40 {
                t.add_element(branch, format!("leaf{j}"));
            }
        }
        let _pin = t.clone();
        let before = t.chunk_copies();
        // One insert: copies the tail chunk plus the parent's chunk at most.
        let parent = t.find_elements("branch3")[0];
        t.add_element(parent, "new-leaf");
        let copied = t.chunk_copies() - before;
        assert!(
            copied <= 2,
            "insert after a snapshot copied {copied} chunks, expected <= 2"
        );
    }

    #[test]
    fn compact_preserves_shape() {
        let mut t = sample();
        let e = t.find_elements("E")[0];
        t.remove_subtree(e).unwrap();
        let (compacted, mapping) = t.compact();
        assert_eq!(compacted.node_count(), t.node_count());
        assert_eq!(compacted.slot_count(), t.node_count());
        assert!(compacted.isomorphic(&t));
        assert_eq!(mapping.len(), t.node_count());
    }

    #[test]
    fn equality_is_unordered() {
        let mut t1 = Tree::new("a");
        t1.add_element(t1.root(), "b");
        t1.add_element(t1.root(), "c");
        let mut t2 = Tree::new("a");
        t2.add_element(t2.root(), "c");
        t2.add_element(t2.root(), "b");
        assert_eq!(t1, t2);
        let mut t3 = Tree::new("a");
        t3.add_element(t3.root(), "b");
        assert_ne!(t1, t3);
    }

    #[test]
    fn display_renders_nested_structure() {
        let mut t = Tree::new("a");
        let b = t.add_element(t.root(), "b");
        t.add_text(b, "v");
        let rendered = t.to_string();
        assert!(rendered.contains('a'));
        assert!(rendered.contains("b(\"v\")"));
    }

    #[test]
    fn mixed_content_is_detected() {
        let mut t = Tree::new("a");
        t.add_text(t.root(), "v");
        t.add_element(t.root(), "b");
        assert!(matches!(
            t.check_data_model(),
            Err(TreeError::DataModelViolation(_))
        ));
    }

    #[test]
    fn two_text_children_are_detected() {
        let mut t = Tree::new("a");
        t.add_text(t.root(), "v");
        t.add_text(t.root(), "w");
        assert!(t.check_data_model().is_err());
    }

    #[test]
    fn element_names_are_sorted_and_unique() {
        let t = sample();
        assert_eq!(t.element_names(), vec!["A", "B", "C", "D", "E", "F"]);
    }
}
