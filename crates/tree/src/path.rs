//! Minimal connecting subtrees.
//!
//! The paper defines the answer to a tree-pattern query as the *minimal
//! subtree* of the data tree containing every node the match maps (slide
//! 6): the nodes on the paths from the mapped nodes up to their lowest
//! common ancestor. `steiner_nodes` finds them by following parent links
//! from each mapped node, so the work is the paths' length, never the size
//! of the subtree below the ancestor. [`steiner_tree`] builds that subtree
//! as a fresh [`Tree`], and [`crate::iso::steiner_canonical_string`] writes
//! its canonical string over the data tree without building it: the key a
//! query groups its matches by, building one tree per distinct answer.

use crate::tree::{NodeId, Tree};

/// The root of the minimal subtree of `tree` containing every node in
/// `nodes` (their lowest common ancestor) and that subtree's nodes, in
/// ascending id order: the union, over the selected nodes, of the path from
/// the ancestor down to that node.
///
/// Returns `None` when `nodes` is empty.
pub(crate) fn steiner_nodes(tree: &Tree, nodes: &[NodeId]) -> Option<(NodeId, Vec<NodeId>)> {
    let lca = tree.lca_of(nodes)?;
    let mut keep = Vec::with_capacity(2 * nodes.len());
    for &node in nodes {
        let mut cur = node;
        while cur != lca {
            keep.push(cur);
            cur = tree
                .parent(cur)
                .expect("selected node must be a descendant of the LCA");
        }
    }
    keep.push(lca);
    keep.sort_unstable();
    keep.dedup();
    Some((lca, keep))
}

/// Builds the minimal subtree of `tree` containing every node in `nodes` as a
/// fresh [`Tree`]: the nodes of `steiner_nodes`, copied in preorder with
/// every node's kept children in the data tree's order.
///
/// Returns `None` when `nodes` is empty.
pub fn steiner_tree(tree: &Tree, nodes: &[NodeId]) -> Option<Tree> {
    let (lca, keep) = steiner_nodes(tree, nodes)?;
    let mut out = Tree::new(tree.label(lca).clone());
    // (data node, copy of its parent): popped in preorder, because kept
    // children are pushed in reverse.
    let mut stack = Vec::new();
    let push_children = |stack: &mut Vec<(NodeId, NodeId)>, node: NodeId, copy: NodeId| {
        for &child in tree.children(node).iter().rev() {
            if keep.binary_search(&child).is_ok() {
                stack.push((child, copy));
            }
        }
    };
    push_children(&mut stack, lca, out.root());
    while let Some((node, parent_copy)) = stack.pop() {
        let copy = out.add_child(parent_copy, tree.label(node).clone());
        push_children(&mut stack, node, copy);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // A(B("foo"), B("bar"), E(C("nee")), D(F))
        let mut t = Tree::new("A");
        let b1 = t.add_element(t.root(), "B");
        t.add_text(b1, "foo");
        let b2 = t.add_element(t.root(), "B");
        t.add_text(b2, "bar");
        let e = t.add_element(t.root(), "E");
        let c = t.add_element(e, "C");
        t.add_text(c, "nee");
        let d = t.add_element(t.root(), "D");
        t.add_element(d, "F");
        t
    }

    #[test]
    fn steiner_of_single_node_is_path_to_itself() {
        let t = sample();
        let c = t.find_elements("C")[0];
        let (root, nodes) = steiner_nodes(&t, &[c]).unwrap();
        assert_eq!((root, nodes), (c, vec![c]));
    }

    #[test]
    fn steiner_connects_through_lca() {
        let t = sample();
        let c = t.find_elements("C")[0];
        let f = t.find_elements("F")[0];
        let (root, nodes) = steiner_nodes(&t, &[c, f]).unwrap();
        // LCA is the root A: keep A, E, C, D, F.
        assert_eq!(root, t.root());
        assert_eq!(nodes.len(), 5);
        assert!(nodes.contains(&t.root()));
        assert!(nodes.contains(&t.find_elements("E")[0]));
        assert!(nodes.contains(&t.find_elements("D")[0]));
    }

    #[test]
    fn steiner_tree_builds_minimal_answer() {
        let t = sample();
        let c = t.find_elements("C")[0];
        let f = t.find_elements("F")[0];
        let answer = steiner_tree(&t, &[c, f]).unwrap();
        assert_eq!(answer.node_count(), 5);
        assert_eq!(answer.label(answer.root()).element_name(), Some("A"));
        assert!(answer.validate().is_ok());
        // The "foo"/"bar" B nodes are not part of the minimal subtree.
        assert!(answer.find_elements("B").is_empty());
    }

    #[test]
    fn steiner_below_root_keeps_subtree_rooted_at_lca() {
        let t = sample();
        let c = t.find_elements("C")[0];
        let nee = t.children(c)[0];
        let answer = steiner_tree(&t, &[c, nee]).unwrap();
        // LCA of C and "nee" is C itself.
        assert_eq!(answer.label(answer.root()).element_name(), Some("C"));
        assert_eq!(answer.node_count(), 2);
    }

    #[test]
    fn steiner_of_empty_set_is_none() {
        let t = sample();
        assert!(steiner_tree(&t, &[]).is_none());
        assert!(steiner_nodes(&t, &[]).is_none());
    }
}
