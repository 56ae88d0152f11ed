//! Evaluation of TPWJ patterns: finding all matches (homomorphisms).
//!
//! The pattern root is seeded from the tree root (anchored patterns) or from
//! every element in document order; every other pattern node takes its
//! candidates directly from the image of its parent pattern node (its
//! children or its descendants), which satisfies the structural edge by
//! construction. Matches come back in that (document) order.

use pxml_tree::{NodeId, Tree};

use crate::pattern::{Axis, PNodeId, Pattern};

/// A complete match: the image of every pattern node in the data tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    assignments: Vec<NodeId>,
}

impl Matching {
    /// The data node mapped by a pattern node.
    pub fn image(&self, node: PNodeId) -> NodeId {
        self.assignments[node.index()]
    }

    /// The images of all pattern nodes, in pattern-node order.
    pub fn images(&self) -> &[NodeId] {
        &self.assignments
    }

    /// The set of distinct data nodes used by the match.
    pub fn mapped_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.assignments.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Finds every match of `pattern` in `tree`.
pub fn find_matches(pattern: &Pattern, tree: &Tree) -> Vec<Matching> {
    let mut assignment: Vec<Option<NodeId>> = vec![None; pattern.len()];
    let mut results = Vec::new();
    assign(pattern, tree, 0, &mut assignment, &mut results);
    results
}

fn assign(
    pattern: &Pattern,
    tree: &Tree,
    next: usize,
    assignment: &mut Vec<Option<NodeId>>,
    results: &mut Vec<Matching>,
) {
    if next == pattern.len() {
        results.push(Matching {
            assignments: assignment
                .iter()
                .map(|slot| slot.expect("complete assignment"))
                .collect(),
        });
        return;
    }
    let pattern_node_id = crate::pattern::PNodeId(next as u32);
    let pattern_node = pattern.node(pattern_node_id);

    let candidates: Vec<NodeId> = match pattern_node.parent {
        None if pattern.is_anchored() => vec![tree.root()],
        None => tree
            .nodes()
            .into_iter()
            .filter(|&n| tree.is_element(n))
            .collect(),
        // Non-root: the parent pattern node has an image already (pattern
        // nodes are created parent-first, so its index is smaller).
        Some((parent, axis)) => {
            let parent_image = assignment[parent.index()].expect("parent assigned before child");
            match axis {
                Axis::Child => tree.children(parent_image).to_vec(),
                Axis::Descendant => tree.descendants(parent_image),
            }
        }
    };

    for candidate in candidates {
        if !node_satisfies_tests(pattern, pattern_node_id, tree, candidate) {
            continue;
        }
        // Join constraints against already-assigned members of the group.
        if let Some(join) = pattern_node.join {
            let candidate_value = tree.node_value(candidate);
            if candidate_value.is_none() {
                continue;
            }
            let mut consistent = true;
            for other in pattern.node_ids() {
                if other == pattern_node_id || pattern.node(other).join != Some(join) {
                    continue;
                }
                if let Some(other_image) = assignment[other.index()] {
                    if tree.node_value(other_image) != candidate_value {
                        consistent = false;
                        break;
                    }
                }
            }
            if !consistent {
                continue;
            }
        }
        assignment[next] = Some(candidate);
        assign(pattern, tree, next + 1, assignment, results);
        assignment[next] = None;
    }
}

fn node_satisfies_tests(
    pattern: &Pattern,
    pattern_node: PNodeId,
    tree: &Tree,
    node: NodeId,
) -> bool {
    let spec = pattern.node(pattern_node);
    let Some(name) = tree.label(node).element_name() else {
        // Pattern nodes match element nodes only.
        return false;
    };
    if !spec.matches_label(name) {
        return false;
    }
    if let Some(required) = &spec.value {
        if tree.node_value(node) != Some(required.as_str()) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Axis, Pattern};
    use pxml_tree::parse_data_tree;

    fn sample_tree() -> Tree {
        parse_data_tree(
            "<A>\
               <B>k</B>\
               <B>other</B>\
               <C>v</C>\
               <E><D>v</D><D>w</D></E>\
             </A>",
        )
        .unwrap()
    }

    #[test]
    fn single_label_pattern_matches_every_occurrence() {
        let tree = sample_tree();
        let pattern = Pattern::element("B");
        assert_eq!(pattern.find_matches(&tree).len(), 2);
    }

    #[test]
    fn child_edges_are_respected() {
        let tree = sample_tree();
        let mut pattern = Pattern::element("A");
        pattern.add_child(pattern.root(), Axis::Child, Some("D"));
        // D is a grandchild of A, not a child.
        assert!(pattern.find_matches(&tree).is_empty());
    }

    #[test]
    fn descendant_edges_reach_deeper_nodes() {
        let tree = sample_tree();
        let mut pattern = Pattern::element("A");
        pattern.add_child(pattern.root(), Axis::Descendant, Some("D"));
        assert_eq!(pattern.find_matches(&tree).len(), 2);
    }

    #[test]
    fn value_tests_filter_matches() {
        let tree = sample_tree();
        let mut pattern = Pattern::element("A");
        let d = pattern.add_child(pattern.root(), Axis::Descendant, Some("D"));
        pattern.set_value(d, "v");
        let matches = pattern.find_matches(&tree);
        assert_eq!(matches.len(), 1);
        let image = matches[0].image(d);
        assert_eq!(tree.node_value(image), Some("v"));
    }

    #[test]
    fn join_by_value_links_branches() {
        let tree = sample_tree();
        // C and some descendant D must carry the same value.
        let mut pattern = Pattern::element("A");
        let c = pattern.add_child(pattern.root(), Axis::Child, Some("C"));
        let d = pattern.add_child(pattern.root(), Axis::Descendant, Some("D"));
        let j = pattern.new_join("x");
        pattern.join(c, j);
        pattern.join(d, j);
        let matches = pattern.find_matches(&tree);
        assert_eq!(matches.len(), 1, "only D=v joins with C=v");
        assert_eq!(tree.node_value(matches[0].image(d)), Some("v"));
    }

    #[test]
    fn join_requires_a_value() {
        let tree = sample_tree();
        // E has no value (its children are elements), so a join on E and C
        // can never be satisfied.
        let mut pattern = Pattern::element("A");
        let c = pattern.add_child(pattern.root(), Axis::Child, Some("C"));
        let e = pattern.add_child(pattern.root(), Axis::Child, Some("E"));
        let j = pattern.new_join("x");
        pattern.join(c, j);
        pattern.join(e, j);
        assert!(pattern.find_matches(&tree).is_empty());
    }

    #[test]
    fn wildcard_matches_any_element() {
        let tree = sample_tree();
        let pattern = Pattern::new(None);
        // Every element node matches (8 of them), but no text node.
        let expected = tree
            .nodes()
            .into_iter()
            .filter(|&n| tree.is_element(n))
            .count();
        assert_eq!(pattern.find_matches(&tree).len(), expected);
    }

    #[test]
    fn anchored_pattern_only_matches_the_root() {
        let tree = sample_tree();
        let mut pattern = Pattern::new(None);
        pattern.set_anchored(true);
        let matches = pattern.find_matches(&tree);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].image(pattern.root()), tree.root());
    }

    #[test]
    fn unanchored_root_matches_anywhere() {
        let tree = sample_tree();
        let pattern = Pattern::element("D");
        assert_eq!(pattern.find_matches(&tree).len(), 2);
    }

    #[test]
    fn joined_siblings_must_carry_equal_values() {
        let tree = parse_data_tree(
            "<r><a><b>1</b><c>1</c></a><a><b>2</b><c>3</c></a><a><b>4</b><c>4</c><d/></a></r>",
        )
        .unwrap();
        let mut pattern = Pattern::element("a");
        let b = pattern.add_child(pattern.root(), Axis::Child, Some("b"));
        let c = pattern.add_child(pattern.root(), Axis::Child, Some("c"));
        let j = pattern.new_join("v");
        pattern.join(b, j);
        pattern.join(c, j);
        let matches = pattern.find_matches(&tree);
        let values: Vec<_> = matches
            .iter()
            .map(|m| tree.node_value(m.image(b)))
            .collect();
        assert_eq!(values, [Some("1"), Some("4")]);
    }

    #[test]
    fn mapped_nodes_are_deduplicated() {
        let tree = parse_data_tree("<a><b/></a>").unwrap();
        // Two pattern nodes can map to the same data node via // + *.
        let mut pattern = Pattern::element("a");
        pattern.add_child(pattern.root(), Axis::Descendant, None);
        let matches = pattern.find_matches(&tree);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].mapped_nodes().len(), 2);
    }
}
