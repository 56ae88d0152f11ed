//! Minimal connecting subtrees.
//!
//! [`steiner_nodes`] / [`steiner_tree`] compute the *minimal subtree* of a
//! data tree containing a given set of nodes, which is exactly how the paper
//! defines the answer to a tree-pattern query (slide 6).

use std::collections::{HashMap, HashSet};

use crate::tree::{NodeId, Tree};

/// The node set of the minimal subtree of `tree` containing every node in
/// `nodes`: the union, over all selected nodes, of the path from the lowest
/// common ancestor of the whole set down to that node.
///
/// Returns an empty vector when `nodes` is empty.
pub fn steiner_nodes(tree: &Tree, nodes: &[NodeId]) -> Vec<NodeId> {
    let Some(lca) = tree.lca_of(nodes) else {
        return Vec::new();
    };
    let mut keep: HashSet<NodeId> = HashSet::new();
    for &node in nodes {
        let mut cur = node;
        loop {
            keep.insert(cur);
            if cur == lca {
                break;
            }
            cur = tree
                .parent(cur)
                .expect("selected node must be a descendant of the LCA");
        }
    }
    // Return in preorder for determinism.
    tree.descendants_or_self(lca)
        .into_iter()
        .filter(|n| keep.contains(n))
        .collect()
}

/// Builds the minimal subtree of `tree` containing every node in `nodes` as a
/// fresh [`Tree`].
///
/// Returns `None` when `nodes` is empty.
pub fn steiner_tree(tree: &Tree, nodes: &[NodeId]) -> Option<Tree> {
    let keep = steiner_nodes(tree, nodes);
    let (&root, rest) = keep.split_first()?;
    let mut out = Tree::new(tree.label(root).clone());
    let mut mapping = HashMap::new();
    mapping.insert(root, out.root());
    // keep is in preorder, so every non-root node's parent was mapped already.
    for &node in rest {
        let parent = tree
            .parent(node)
            .expect("non-root steiner node has a parent");
        let mapped_parent = mapping[&parent];
        let copy = out.add_child(mapped_parent, tree.label(node).clone());
        mapping.insert(node, copy);
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
        let nodes = steiner_nodes(&t, &[c]);
        assert_eq!(nodes, vec![c]);
    }

    #[test]
    fn steiner_connects_through_lca() {
        let t = sample();
        let c = t.find_elements("C")[0];
        let f = t.find_elements("F")[0];
        let nodes = steiner_nodes(&t, &[c, f]);
        // LCA is the root A: keep A, E, C, D, F.
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
        assert!(steiner_nodes(&t, &[]).is_empty());
    }
}
