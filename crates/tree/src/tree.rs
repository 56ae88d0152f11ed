//! Arena-allocated, unordered data trees.
//!
//! A [`Tree`] owns all its nodes in a single arena; nodes are addressed by
//! [`NodeId`] handles. Children are stored in insertion order for
//! deterministic traversal, but the *semantics* of the data model is
//! unordered: equality between trees and subtrees is unordered isomorphism
//! (see [`crate::iso`]).
//!
//! A tree may carry a [`LabelIndex`] — one run of entries sorted by key,
//! each key's entries in document order: its element nodes under the key
//! of their name, its valued elements again under the key of their name and
//! value (their value postings) — and every node's position in document
//! order. One preorder walk and one sort build it, for a tree that never
//! had one; it is shared by every clone. A mutation takes the index out of
//! service and carries it as the *base* of the next one, noting the node it
//! touched, and the next [`Tree::label_index`] patches the base: it
//! re-walks only the subtrees of the topmost touched nodes, then one pass
//! drops the base's entries inside them and merges the re-walked ones in.
//! So a current index always describes exactly the nodes of the
//! tree that holds it, and the warehouse keeps one on every snapshot it
//! publishes for the cost of what each commit touched. The index is never
//! serialized and takes no part in equality.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
#[derive(Clone)]
pub struct Tree {
    nodes: ChunkedVec<Slot>,
    root: NodeId,
    alive: usize,
    /// The current index: built or patched by [`Tree::label_index`], shared
    /// by clones, taken out of service by [`Tree::touch`].
    index: OnceLock<Arc<LabelIndex>>,
    /// The index the mutations since the last one took out of service, and
    /// what they touched: what [`Tree::label_index`] patches.
    carried: Option<Carried>,
}

/// An index that no longer describes its tree, and the nodes whose
/// subtrees it describes wrongly.
#[derive(Clone)]
struct Carried {
    base: Arc<LabelIndex>,
    /// Nodes the base knows (ids below its slot count) whose children
    /// changed since it was current: in touch order, consecutive repeats
    /// dropped.
    touched: Vec<NodeId>,
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tree")
            .field("nodes", &self.nodes)
            .field("root", &self.root)
            .field("alive", &self.alive)
            .finish()
    }
}

/// The element nodes of one tree by name, and its valued elements by name
/// and value, each list in document (pre)order: what "the elements named
/// X" means, computed by one walk.
///
/// Every list sits in one run of entries, sorted by a 32-bit key and,
/// within a key, in document order, so a list is the run of one key,
/// found by a binary search. Every element goes in once under the key of
/// its name, and an element with a [`node_value`](Tree::node_value) again
/// under the key of its name and value (its **value postings**) unless the
/// two keys collide, so no list holds a node twice. The same walk records
/// every node's position in document order, so that a caller can put any
/// set of the tree's nodes in that order.
#[derive(Debug)]
pub struct LabelIndex {
    /// The entries' keys (see [`key`]), sorted.
    keys: Vec<u32>,
    /// The entries' elements, beside their keys: within a key, in
    /// document order.
    nodes: Vec<NodeId>,
    /// Each live node's position in preorder, by [`NodeId::index`].
    positions: Vec<u32>,
    /// The number of live nodes: where the root's subtree ends.
    len: u32,
}

/// A touched subtree of a patch's base: its preorder range in the base,
/// and the size change of every region up to and including it.
struct Region {
    start: u32,
    end: u32,
    shift_after: i64,
}

/// The most regions a patch merges; past them a full build costs less
/// than the per-entry scans of the region list.
const MAX_REGIONS: usize = 16;

/// The new position of a node the base put at `old`, or `None` for a node
/// inside one of `regions` (sorted and disjoint), re-walked if it is still
/// live. Scans them from the last: a commit touches one or a few.
fn moved(regions: &[Region], old: u32) -> Option<u32> {
    for region in regions.iter().rev() {
        if old >= region.end {
            return Some(shifted(old, region.shift_after));
        }
        if old >= region.start {
            return None;
        }
    }
    Some(old)
}

fn shifted(position: u32, shift: i64) -> u32 {
    (i64::from(position) + shift) as u32
}

#[cfg(test)]
thread_local! {
    /// This thread's full builds, and the nodes its builds and patches
    /// walked: the count gate's private counters.
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static WALKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One preorder walk's output: positions written into an array of the
/// whole tree's slots, and the entries of the elements it met, in document
/// order.
struct Walker<'t> {
    tree: &'t Tree,
    positions: Vec<u32>,
    entries: Vec<(u32, NodeId)>,
    stack: Vec<NodeId>,
}

impl<'t> Walker<'t> {
    fn new(tree: &'t Tree) -> Self {
        Walker {
            tree,
            positions: vec![u32::MAX; tree.slot_count()],
            entries: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Walks the subtree of `top` in preorder, numbering it from `first`;
    /// returns its size.
    fn walk(&mut self, top: NodeId, first: u32) -> u32 {
        let tree = self.tree;
        let mut position = first;
        self.stack.push(top);
        while let Some(node) = self.stack.pop() {
            let slot = tree.slot(node);
            self.positions[node.index()] = position;
            position += 1;
            if let Some(name) = slot.label.element_name() {
                let named = key(name, None);
                self.entries.push((named, node));
                // `Tree::node_value` of an element, from the slot in hand.
                if let [only] = slot.children[..] {
                    if let Some(value) = tree.slot(only).label.text_value() {
                        // Under a colliding key the node is already there:
                        // no list holds a node twice.
                        let valued = key(name, Some(value));
                        if valued != named {
                            self.entries.push((valued, node));
                        }
                    }
                }
            }
            self.stack.extend(slot.children.iter().rev());
        }
        #[cfg(test)]
        WALKED.with(|walked| walked.set(walked.get() + (position - first) as usize));
        position - first
    }
}

/// The key of the elements named `name` or, with a `value`, of their value
/// postings: the low half of FxHash's word step over the strings, seeded
/// with their lengths (so a tail's zero bytes count), then SplitMix64's
/// finaliser. Keys can collide, and names and values come from documents,
/// so a list may hold an element of another name or value (at worst, every
/// element); every caller re-tests what it takes.
fn key(name: &str, value: Option<&str>) -> u32 {
    fn step(hash: u64, word: u64) -> u64 {
        (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    fn words(mut hash: u64, text: &str) -> u64 {
        let mut words = text.as_bytes().chunks_exact(8);
        for word in &mut words {
            hash = step(
                hash,
                u64::from_le_bytes(word.try_into().expect("eight bytes")),
            );
        }
        let tail = words.remainder().iter().rev();
        step(
            hash,
            tail.fold(0, |word, &byte| word << 8 | u64::from(byte)),
        )
    }
    let mut hash = match value {
        None => words(!(name.len() as u64), name),
        Some(value) => words(
            words((name.len() as u64) << 32 | value.len() as u64, name),
            value,
        ),
    };
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (hash ^ (hash >> 31)) as u32
}

impl LabelIndex {
    /// A fresh index of `tree` by one preorder walk, whatever index the
    /// tree holds or carries: what [`Tree::label_index`]'s patches equal.
    pub fn build(tree: &Tree) -> LabelIndex {
        #[cfg(test)]
        BUILDS.with(|builds| builds.set(builds.get() + 1));
        let mut walker = Walker::new(tree);
        let len = walker.walk(tree.root, 0);
        // Stable: each key's entries keep document order.
        walker.entries.sort_by_key(|&(key, _)| key);
        let (keys, nodes) = walker.entries.into_iter().unzip();
        LabelIndex {
            keys,
            nodes,
            positions: walker.positions,
            len,
        }
    }

    /// The index of `tree`, from `base` (the index of the tree before the
    /// mutations since) and `touched` (what they touched): the subtrees of
    /// the topmost live touched nodes are re-walked, every other position
    /// is shifted by the size change of the regions before it, and one
    /// pass drops the base's entries inside the regions and merges the
    /// re-walked ones in at their `(key, position)` place. Equal to
    /// [`LabelIndex::build`] of `tree`, field for field; a touched root, or
    /// more than [`MAX_REGIONS`] regions, falls back to it.
    ///
    /// Sound because the tree only ever appends children and removes
    /// subtrees, each through [`Tree::touch`]: a node no touched node is
    /// above kept its parent, its subtree and its place in document order,
    /// and so did its ancestors' child lists.
    fn patch(base: &LabelIndex, tree: &Tree, touched: &[NodeId]) -> LabelIndex {
        // The regions: touched nodes still live and below no other one, in
        // document order. A live node the base knows was live in the base.
        let mut live: Vec<NodeId> = touched
            .iter()
            .copied()
            .filter(|&node| tree.contains(node))
            .collect();
        live.sort_unstable();
        live.dedup();
        let mut tops: Vec<(u32, NodeId)> = Vec::with_capacity(live.len());
        for &node in &live {
            if node == tree.root {
                return LabelIndex::build(tree);
            }
            let mut above = tree.parent(node);
            while let Some(ancestor) = above.filter(|a| live.binary_search(a).is_err()) {
                above = tree.parent(ancestor);
            }
            if above.is_none() {
                tops.push((base.positions[node.index()], node));
            }
        }
        if tops.len() > MAX_REGIONS {
            return LabelIndex::build(tree);
        }
        tops.sort_unstable();
        let mut walker = Walker::new(tree);
        let mut regions = Vec::with_capacity(tops.len());
        let mut shift = 0;
        for (start, node) in tops {
            let new_start = shifted(start, shift);
            let size = walker.walk(node, new_start);
            let end = base.end_of(tree, node);
            shift += i64::from(size) - i64::from(end - start);
            regions.push(Region {
                start,
                end,
                shift_after: shift,
            });
        }
        for (position, &old) in walker.positions.iter_mut().zip(&base.positions) {
            if old != u32::MAX {
                if let Some(moved) = moved(&regions, old) {
                    *position = moved;
                }
            }
        }

        // The base's entries inside a region leave, and the rest are copied
        // in runs. A re-walked entry goes in after the base's entries of
        // smaller keys, and of its own key those before its region (a key's
        // entries are in document order): two binary searches.
        let at = |node: NodeId| walker.positions[node.index()];
        walker
            .entries
            .sort_unstable_by_key(|&(key, node)| (key, at(node)));
        let capacity = base.keys.len() + walker.entries.len();
        let (mut keys, mut nodes) = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        let inside = |node: &NodeId| moved(&regions, base.positions[node.index()]).is_none();
        let copy_kept = |keys: &mut Vec<u32>, nodes: &mut Vec<NodeId>, mut run: Range<usize>| {
            while let Some(dropped) = base.nodes[run.clone()].iter().position(inside) {
                keys.extend_from_slice(&base.keys[run.start..run.start + dropped]);
                nodes.extend_from_slice(&base.nodes[run.start..run.start + dropped]);
                run.start += dropped + 1;
            }
            keys.extend_from_slice(&base.keys[run.clone()]);
            nodes.extend_from_slice(&base.nodes[run]);
        };
        let mut run = 0;
        for (key, node) in walker.entries {
            let position = at(node);
            let region = regions
                .iter()
                .find(|region| position < shifted(region.end, region.shift_after))
                .expect("a re-walked node is inside its region");
            let list = base.span(key);
            let place = list.start
                + base.nodes[list]
                    .partition_point(|node| base.positions[node.index()] < region.start);
            copy_kept(&mut keys, &mut nodes, run..place);
            keys.push(key);
            nodes.push(node);
            run = place;
        }
        copy_kept(&mut keys, &mut nodes, run..base.keys.len());
        LabelIndex {
            keys,
            nodes,
            positions: walker.positions,
            len: shifted(base.len, shift),
        }
    }

    /// Where the subtree of `node` ends in this index: at the position of
    /// the next node in document order that is not below it — the next
    /// sibling of its nearest ancestor-or-self that has one — or at the
    /// end. Read for a node no touched node is above, whose ancestors'
    /// child lists are the ones this index saw, in document order.
    fn end_of(&self, tree: &Tree, node: NodeId) -> u32 {
        let mut node = node;
        while let Some(parent) = tree.parent(node) {
            let siblings = tree.children(parent);
            let at = self.positions[node.index()];
            let next = siblings.partition_point(|s| self.positions[s.index()] <= at);
            if let Some(sibling) = siblings.get(next) {
                return self.positions[sibling.index()];
            }
            node = parent;
        }
        self.len
    }

    /// Where the entries under `key` sit in the run (in document order).
    fn span(&self, key: u32) -> Range<usize> {
        let start = self.keys.partition_point(|&k| k < key);
        start..start + self.keys[start..].partition_point(|&k| k == key)
    }

    /// The element nodes named `name`, in document order, and rarely (a
    /// key collision) others. Callers re-test what they take from here.
    pub fn elements(&self, name: &str) -> &[NodeId] {
        &self.nodes[self.span(key(name, None))]
    }

    /// The postings of `(name, value)`, in document order: every element
    /// named `name` whose [`node_value`](Tree::node_value) is `value`, and
    /// rarely (a key collision) another element. Callers re-test what they
    /// take from here.
    pub fn postings(&self, name: &str, value: &str) -> &[NodeId] {
        &self.nodes[self.span(key(name, Some(value)))]
    }

    /// The position of a live node of the tree in document (pre)order, the
    /// root's being 0: sorting nodes by it puts them in document order.
    pub fn position(&self, node: NodeId) -> u32 {
        self.positions[node.index()]
    }
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
            index: OnceLock::new(),
            carried: None,
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

    /// The one door to a mutable slot, so it touches the node: every
    /// mutation passes here before it changes a node.
    fn slot_mut(&mut self, id: NodeId) -> &mut Slot {
        self.touch(id);
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

    /// Notes that the subtree of `id` is about to change (its children):
    /// takes the current label index out of service as
    /// the base of the next one, and records `id` if the base knows it. A
    /// node the base does not know hangs below one it knows and that was
    /// touched when the new node was added. Past as many touches as the
    /// base has slots, the base goes too and the next index is built.
    fn touch(&mut self, id: NodeId) {
        if let Some(index) = self.index.take() {
            self.carried = Some(Carried {
                base: index,
                touched: Vec::new(),
            });
        }
        if let Some(carried) = &mut self.carried {
            let known = carried.base.positions.len();
            if id.index() < known && carried.touched.last() != Some(&id) {
                if carried.touched.len() == known {
                    self.carried = None;
                } else {
                    carried.touched.push(id);
                }
            }
        }
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
    fn try_add_child(
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

    /// The depth of `id` (the root has depth 0), counted along parent links.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            depth += 1;
            cur = parent;
        }
        depth
    }

    /// The height of the tree (a single-node tree has height 0): one
    /// preorder pass carrying each node's depth.
    pub fn height(&self) -> usize {
        let mut height = 0;
        let mut stack = vec![(self.root, 0)];
        while let Some((node, depth)) = stack.pop() {
            height = height.max(depth);
            stack.extend(self.children(node).iter().map(|&child| (child, depth + 1)));
        }
        height
    }

    /// The number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants_or_self(id).len()
    }

    /// The lowest common ancestor of two nodes: until they meet, the deeper
    /// of the two (`a` when level) steps to its parent. Follows parent links
    /// only, so it allocates nothing.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        let (mut depth_a, mut depth_b) = (self.depth(a), self.depth(b));
        while a != b {
            let (node, depth) = if depth_a >= depth_b {
                (&mut a, &mut depth_a)
            } else {
                (&mut b, &mut depth_b)
            };
            *node = self
                .parent(*node)
                .expect("two distinct nodes are not both the root");
            *depth -= 1;
        }
        a
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

    /// All element nodes whose tag equals `name`, in document order (from
    /// the label index, built now if the tree has none).
    pub fn find_elements(&self, name: &str) -> Vec<NodeId> {
        let mut elements = self.label_index().elements(name).to_vec();
        elements.retain(|&node| self.label(node).element_name() == Some(name));
        elements
    }

    /// The label index of this tree: the current one if the tree (or the
    /// tree it was cloned from) has one since its last mutation, else the
    /// index the mutations took out of service, patched by re-walking what
    /// they touched, else (a tree that never had one) one built by a
    /// preorder walk. Concurrent first callers get the same index. The base
    /// of a patch stays carried until the next mutation or
    /// [`Tree::refresh_label_index`].
    pub fn label_index(&self) -> &LabelIndex {
        self.index.get_or_init(|| {
            Arc::new(match &self.carried {
                Some(carried) => LabelIndex::patch(&carried.base, self, &carried.touched),
                None => LabelIndex::build(self),
            })
        })
    }

    /// Makes the label index current, as [`Tree::label_index`] does, and
    /// lets go of the base it was patched from, so the tree holds one
    /// index: what a document does before it is published as a snapshot.
    pub fn refresh_label_index(&mut self) {
        self.label_index();
        self.carried = None;
    }

    /// The label index if it is current; never builds or patches it.
    pub fn built_label_index(&self) -> Option<&LabelIndex> {
        self.index.get().map(|index| &**index)
    }

    #[cfg(test)]
    fn shared_label_index(&self) -> Option<&Arc<LabelIndex>> {
        self.index.get()
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
    use std::cell::Cell;

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
        assert_eq!(t.descendants_or_self(e)[0], e);
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
        assert_eq!(t.lca(c, d), t.root());
        assert_eq!(t.lca(c, e), e);
        assert_eq!(t.lca_of(&[c, d, e]), Some(t.root()));
        assert_eq!(t.lca_of(&[]), None);
    }

    /// A tree of `size` nodes, each attached to a pseudo-random earlier
    /// node (a fixed linear congruential sequence per `seed`), so shapes
    /// range from chains to stars.
    fn random_tree(seed: u64, size: usize) -> Tree {
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut t = Tree::new("r");
        let mut nodes = vec![t.root()];
        for i in 1..size {
            // Half the time hang the node off one of the last three, which
            // builds deep chains; otherwise off any node.
            let parent = if next(2) == 0 {
                nodes[nodes.len() - 1 - next(nodes.len().min(3))]
            } else {
                nodes[next(nodes.len())]
            };
            nodes.push(t.add_element(parent, format!("n{i}")));
        }
        t
    }

    #[test]
    fn lca_agrees_with_the_ancestor_set_reference() {
        let reference = |t: &Tree, a: NodeId, b: NodeId| {
            let above_b: std::collections::HashSet<NodeId> =
                t.ancestors_or_self(b).into_iter().collect();
            t.ancestors_or_self(a)
                .into_iter()
                .find(|n| above_b.contains(n))
                .unwrap()
        };
        for seed in 0..40 {
            let t = random_tree(seed, 1 + seed as usize * 3);
            let nodes = t.nodes();
            for &a in &nodes {
                for &b in &nodes {
                    assert_eq!(t.lca(a, b), reference(&t, a, b), "seed {seed}: {a}, {b}");
                }
                assert_eq!(t.lca(a, a), a);
                assert_eq!(t.lca(a, t.root()), t.root());
                for ancestor in t.ancestors(a) {
                    assert_eq!(t.lca(a, ancestor), ancestor);
                    assert_eq!(t.lca(ancestor, a), ancestor);
                }
            }
        }
    }

    #[test]
    fn height_and_depth_agree_with_the_ancestor_chains() {
        for seed in 0..40 {
            let t = random_tree(seed, 1 + seed as usize * 3);
            for n in t.nodes() {
                assert_eq!(t.depth(n), t.ancestors(n).len());
            }
            let reference = t
                .nodes()
                .into_iter()
                .map(|n| t.ancestors(n).len())
                .max()
                .unwrap();
            assert_eq!(t.height(), reference, "seed {seed}");
        }
    }

    #[test]
    fn node_value_and_text_content() {
        let t = sample();
        let b = t.find_elements("B")[0];
        assert_eq!(t.node_value(b), Some("foo"));
        let e = t.find_elements("E")[0];
        assert_eq!(t.node_value(e), None); // its only child is an element
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
        // Removing a leaf touches exactly one chunk: its own and its
        // parent's.
        t.remove_subtree(leaves[7]).unwrap();
        let copied = t.chunk_copies() - before;
        assert_eq!(copied, 1, "one chunk copy for one removed leaf");
        assert!(copied < chunks, "far fewer copies than total chunks");
        // The snapshot still sees the leaf, untouched.
        assert_eq!(snapshot.label(leaves[7]).element_name(), Some("leaf7"));
        assert!(!t.contains(leaves[7]));
        assert_eq!(snapshot.node_count(), t.node_count() + 1);
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
    fn racing_first_queries_share_one_index() {
        let t = sample();
        let barrier = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|scope| {
            let race = || {
                scope.spawn(|| {
                    barrier.wait();
                    t.label_index();
                    Arc::clone(t.shared_label_index().unwrap())
                })
            };
            [race(), race()].map(|handle| handle.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, t.shared_label_index().unwrap()));
    }

    #[test]
    fn a_clone_shares_the_index_and_its_first_mutation_drops_it() {
        let t = sample();
        assert!(t.built_label_index().is_none(), "built lazily");
        assert_eq!(t.find_elements("B").len(), 2);
        let shared = Arc::clone(t.shared_label_index().unwrap());
        let e = t.find_elements("E")[0];
        type Mutator = (&'static str, fn(&mut Tree, NodeId));
        let mutators: [Mutator; 3] = [
            ("add_child", |c, e| {
                c.add_child(e, "B");
            }),
            ("remove_subtree", |c, e| c.remove_subtree(e).unwrap()),
            ("copy_subtree_from", |c, e| {
                let source = sample();
                c.copy_subtree_from(e, &source, source.root());
            }),
        ];
        for (name, mutate) in mutators {
            let mut clone = t.clone();
            assert!(Arc::ptr_eq(clone.shared_label_index().unwrap(), &shared));
            mutate(&mut clone, e);
            assert!(clone.built_label_index().is_none(), "{name} kept the index");
            // Rebuilt on demand, from the mutated nodes.
            for label in ["A", "B", "C", "E"] {
                let scanned: Vec<NodeId> = clone
                    .nodes()
                    .into_iter()
                    .filter(|&n| clone.label(n).element_name() == Some(label))
                    .collect();
                assert_eq!(clone.find_elements(label), scanned, "{name}: {label}");
            }
            assert!(Arc::ptr_eq(t.shared_label_index().unwrap(), &shared));
        }
        assert_eq!(t.find_elements("B").len(), 2);
    }

    #[test]
    fn the_index_lists_elements_by_name_in_document_order() {
        let mut t = Tree::new("r");
        let late = t.add_element(t.root(), "x");
        let early = t.add_element(t.root(), "y");
        let nested = t.add_element(early, "x");
        t.add_text(nested, "v");
        // Ids grow with insertion; the index follows the tree instead.
        let moved = t.add_element(late, "x");
        assert_eq!(t.find_elements("x"), [late, moved, nested]);
        assert!(t.find_elements("v").is_empty(), "text is not an element");
        assert!(t.find_elements("z").is_empty());
    }

    #[test]
    fn postings_list_valued_elements_by_name_and_value_in_document_order() {
        let mut t = Tree::new("r");
        let outer = t.add_element(t.root(), "p");
        let inner = t.add_element(outer, "p");
        let deep = t.add_element(inner, "n");
        t.add_text(deep, "v");
        let other = t.add_element(outer, "n");
        t.add_text(other, "w");
        let late = t.add_element(outer, "n");
        t.add_text(late, "v");
        let empty = t.add_element(outer, "n");
        // A valued `n` added last, but second in document order.
        let moved = t.add_element(inner, "n");
        t.add_text(moved, "v");
        let index = t.label_index();
        assert_eq!(index.postings("n", "v"), [deep, moved, late]);
        assert_eq!(index.postings("n", "w"), [other]);
        assert!(index.postings("n", "").is_empty());
        assert!(
            index.postings("p", "v").is_empty(),
            "p has element children"
        );
        assert!(index.postings("m", "v").is_empty());
        assert_eq!(index.elements("n"), [deep, moved, other, late, empty]);
        let positions: Vec<u32> = t.nodes().iter().map(|&n| index.position(n)).collect();
        assert_eq!(positions, (0..t.node_count() as u32).collect::<Vec<_>>());
    }

    /// Every name's key, and every name-and-value key, differs from every
    /// other one in the table: `"name"` and `"name\0"` read as the same
    /// word but for their lengths.
    #[test]
    fn posting_keys_separate_names_lengths_and_tails() {
        let values = [
            None,
            Some(""),
            Some("a"),
            Some("a\0"),
            Some("person-17"),
            Some("person-171"),
            Some("12345678"),
            Some("123456789"),
        ];
        let names = ["n", "name", "name\0", "namename"];
        let keys: std::collections::HashSet<u32> = names
            .iter()
            .flat_map(|name| values.map(|value| key(name, value)))
            .collect();
        assert_eq!(keys.len(), names.len() * values.len());
        assert_ne!(key("ab", Some("c")), key("a", Some("bc")));
    }

    #[test]
    fn an_element_whose_two_keys_collide_is_listed_once() {
        // A value whose key under `a` is `a`'s own, found by a brute-force
        // search over `v0`, `v1`, …: keys come from documents, so a
        // document can hold one.
        const A_KEYED_VALUE: &str = "v592710628";
        assert_eq!(key("a", Some(A_KEYED_VALUE)), key("a", None));
        let mut t = Tree::new("r");
        let valued = t.add_element(t.root(), "a");
        let other = t.add_element(t.root(), "a");
        t.label_index();
        t.add_text(valued, A_KEYED_VALUE);
        assert_patch_is_a_build(&t, "the colliding value");
        let index = t.label_index();
        assert_eq!(index.elements("a"), [valued, other]);
        // `other` shares the key; a reader re-tests it.
        assert_eq!(index.postings("a", A_KEYED_VALUE), [valued, other]);
        assert_eq!(t.find_elements("a"), [valued, other]);
        assert_eq!(LabelIndex::build(&t).elements("a"), [valued, other]);
    }

    /// Asserts that the tree's index (patched, if it carries a base) is a
    /// fresh build's, field for field.
    fn assert_patch_is_a_build(t: &Tree, step: &str) {
        assert_eq!(
            format!("{:?}", t.label_index()),
            format!("{:?}", LabelIndex::build(t)),
            "after {step}"
        );
    }

    #[test]
    fn a_patch_springs_no_trap_of_the_splice() {
        // r(p(p(n("v")), n("w")), q)
        let mut t = Tree::new("r");
        let outer = t.add_element(t.root(), "p");
        let inner = t.add_element(outer, "p");
        let deep = t.add_element(inner, "n");
        t.add_text(deep, "v");
        let sibling = t.add_element(outer, "n");
        t.add_text(sibling, "w");
        let q = t.add_element(t.root(), "q");
        t.label_index();
        type Step = (&'static str, fn(&mut Tree, [NodeId; 4]));
        let steps: [Step; 7] = [
            // Nested elements of one name, the inner one touched.
            ("a child of the inner p", |t, [_, inner, _, _]| {
                t.add_element(inner, "m");
            }),
            // A text that becomes its parent's only child files a posting.
            ("a removed sibling", |t, [_, _, _, q]| {
                let value = t.add_text(q, "x");
                let extra = t.add_element(q, "m");
                t.label_index();
                t.remove_subtree(extra).unwrap();
                assert_eq!(t.node_value(q), Some("x"), "{value}");
            }),
            // A second child takes the parent's posting away.
            ("a second child", |t, [_, _, _, q]| {
                t.add_element(q, "m");
            }),
            // A name's first element.
            ("a new name", |t, [outer, _, _, _]| {
                let first = t.add_element(outer, "a");
                t.add_text(first, "v");
            }),
            // A name's last element.
            ("the last m gone", |t, _| {
                for m in t.find_elements("m") {
                    if t.contains(m) {
                        t.remove_subtree(m).unwrap();
                    }
                }
            }),
            // Two regions, the first grown by more than the second's size:
            // the second's re-walked `n` goes in before the `n` kept after
            // it, which its new position has passed.
            ("two regions, the first grown", |t, [outer, inner, _, _]| {
                let sibling = t.children(outer)[1];
                t.add_element(outer, "n");
                t.label_index();
                for _ in 0..6 {
                    t.add_element(inner, "m");
                }
                t.add_element(sibling, "m");
            }),
            ("the root touched", |t, [_, _, _, _]| {
                let root = t.root();
                t.add_element(root, "z");
            }),
        ];
        for (step, mutate) in steps {
            let snapshot = t.clone();
            mutate(&mut t, [outer, inner, deep, q]);
            assert!(t.built_label_index().is_none(), "{step}");
            assert_patch_is_a_build(&t, step);
            assert_patch_is_a_build(&snapshot, step);
        }
    }

    /// A directory of `people` persons, each with a name, two phones and
    /// an email (every one valued), as pxbench's documents are shaped.
    fn directory(people: usize) -> Tree {
        let mut t = Tree::new("directory");
        for p in 0..people {
            let person = t.add_element(t.root(), "person");
            for (name, value) in [
                ("name", format!("person-{p}")),
                ("phone", format!("+33-{p}-0")),
                ("phone", format!("+33-{p}-1")),
                ("email", format!("p{p}@example.org")),
            ] {
                let field = t.add_element(person, name);
                t.add_text(field, value);
            }
        }
        t
    }

    /// The count gate of the carried index: what one extraction insert and
    /// one phone retraction do to a published snapshot's tree (a phone
    /// copied in under a person; the phone's conditional copy added beside
    /// it and the phone removed), each followed by `label_index()`,
    /// re-walks that person's subtree and nothing else, at 200 and at
    /// 3 200 persons, and never builds. A refresh by a full build walks
    /// every node (1 803 and 28 803).
    #[test]
    fn a_commit_re_walks_the_same_nodes_at_any_directory_size() {
        let costs = [200, 3200].map(|people| {
            let snapshot = directory(people);
            snapshot.label_index();
            let mut working = snapshot.clone();
            let person = working.children(working.root())[17];
            let mut phone = Tree::new("phone");
            phone.add_text(phone.root(), "+33-17-new");
            let counts = || (BUILDS.with(Cell::get), WALKED.with(Cell::get));
            let before = counts();
            working.copy_subtree_from(person, &phone, phone.root());
            working.label_index();
            let inserted = counts();
            let retracted = working.children(person)[1];
            working.copy_subtree_from(person, &snapshot, retracted);
            working.remove_subtree(retracted).unwrap();
            working.label_index();
            let after = counts();
            assert_patch_is_a_build(&working, "the retraction");
            (
                inserted.1 - before.1,
                after.1 - inserted.1,
                after.0 - before.0,
            )
        });
        // The person, and its name, three phones and email with their texts.
        assert_eq!(costs, [(11, 11, 0); 2]);
    }
}
