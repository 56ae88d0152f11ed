//! Evaluation of TPWJ patterns: finding all matches (homomorphisms).
//!
//! Pattern nodes are assigned in index order (parents before children) by a
//! backtracking search, and no candidate list of the tree's size is ever
//! collected:
//!
//! - an anchored root has one candidate, the tree root;
//! - an unanchored root named `X` on a tree that already has a
//!   [`LabelIndex`] starts from the most selective list the index holds
//!   for it, by one rule. The lists are its own value postings if it has a
//!   value test, else the group of elements named `X`; and, for each named
//!   child-axis child, that child's postings if it has a value test, else
//!   its label group, mapped to the hits' parents, deduplicated and put in
//!   document order. Postings rank before any label group (a value names
//!   few elements), and among lists of one kind the shortest wins; a tie
//!   keeps the root's own list. So `person { name[="…"], phone }` starts
//!   from the parent of one posting, and `person { name, email }` from the
//!   few persons with an email;
//! - an unanchored root on a tree without an index, like a wildcard root
//!   always, walks the whole tree in preorder on an explicit stack, testing
//!   each node as it goes;
//! - a child edge iterates the borrowed child list of its parent's image,
//!   and a descendant edge walks the subtree below that image in preorder,
//!   so the structural edge holds by construction.
//!
//! Every candidate still goes through every test, so a list entry that
//! only shares its key (the index files names and values by a 32-bit hash),
//! or a parent of a hit that is not named `X` (a child label also used
//! under other parents), costs one test and never a wrong match. The
//! matcher never builds or patches the index, it only reads a current
//! one: the warehouse makes every snapshot's index current before it
//! publishes or replays it (built when a document enters, patched from
//! what each commit touched), so queries and update matches on a snapshot
//! start from it. Matches come back in document order either way.

use pxml_tree::{LabelIndex, NodeId, Tree};

use crate::pattern::{Axis, PNodeId, Pattern, PatternNode};

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

/// Finds every match of `pattern` in `tree`, in document order.
pub fn find_matches(pattern: &Pattern, tree: &Tree) -> Vec<Matching> {
    search(pattern, tree).results
}

/// Runs the whole search, and returns it with its results and counters.
fn search<'a>(pattern: &'a Pattern, tree: &'a Tree) -> Search<'a> {
    let mut search = Search {
        pattern,
        tree,
        assignment: vec![None; pattern.len()],
        stacks: vec![Vec::new(); pattern.len()],
        results: Vec::new(),
        root_candidates: 0,
    };
    search.assign(0);
    search
}

struct Search<'a> {
    pattern: &'a Pattern,
    tree: &'a Tree,
    assignment: Vec<Option<NodeId>>,
    /// One preorder-walk stack per pattern node, reused across candidates.
    stacks: Vec<Vec<NodeId>>,
    results: Vec<Matching>,
    /// Every node offered as the root's image, counted before any test: a
    /// count of the search's work that no timing noise can move.
    root_candidates: usize,
}

impl<'a> Search<'a> {
    fn assign(&mut self, next: usize) {
        if next == self.pattern.len() {
            self.results.push(Matching {
                assignments: self
                    .assignment
                    .iter()
                    .map(|slot| slot.expect("complete assignment"))
                    .collect(),
            });
            return;
        }
        let tree = self.tree;
        let spec = self.pattern.node(PNodeId(next as u32));
        match spec.parent {
            None if self.pattern.is_anchored() => self.try_candidate(next, tree.root()),
            None => match spec.label.as_deref().zip(tree.built_label_index()) {
                Some((name, index)) => self.indexed_root(next, name, index),
                None => self.walk(next, &[tree.root()]),
            },
            // Non-root: the parent pattern node has an image already (pattern
            // nodes are created parent-first, so its index is smaller).
            Some((parent, axis)) => {
                let parent_image =
                    self.assignment[parent.index()].expect("parent assigned before child");
                let children = tree.children(parent_image);
                match axis {
                    Axis::Child => {
                        for &candidate in children {
                            self.try_candidate(next, candidate);
                        }
                    }
                    Axis::Descendant => self.walk(next, children),
                }
            }
        }
    }

    /// Tries the candidates of an unanchored root named `name` from the
    /// label index: the most selective of the lists the module docs name.
    fn indexed_root(&mut self, next: usize, name: &str, index: &'a LabelIndex) {
        let pattern = self.pattern;
        let spec = pattern.node(PNodeId(next as u32));
        // (a child's list, name, value test): the root's own list first.
        let own = (false, name, spec.value.as_deref());
        let children = spec
            .children
            .iter()
            .filter_map(|&child| match pattern.node(child) {
                PatternNode {
                    parent: Some((_, Axis::Child)),
                    label: Some(label),
                    value,
                    ..
                } => Some((true, label.as_str(), value.as_deref())),
                _ => None,
            });
        // Postings rank before any label group: when a value test names
        // postings, no label group is even looked up.
        let valued = spec.value.is_some() || children.clone().any(|(_, _, value)| value.is_some());
        let (from_child, list) = std::iter::once(own)
            .chain(children)
            .filter(|&(_, _, value)| value.is_some() == valued)
            .map(|(from_child, name, value)| (from_child, hits(index, name, value)))
            .min_by_key(|&(_, list)| list.len())
            .expect("the root's own list or a valued child's is of the kind that ranks first");
        if from_child {
            self.try_parents(next, list, index);
        } else {
            for &candidate in list {
                self.try_candidate(next, candidate);
            }
        }
    }

    /// Tries the parents of `children` (in document order), each once and
    /// in document order.
    fn try_parents(&mut self, next: usize, children: &[NodeId], index: &LabelIndex) {
        let tree = self.tree;
        let mut parents = children.iter().filter_map(|&child| tree.parent(child));
        match (parents.next(), parents.next()) {
            (None, _) => {}
            (Some(parent), None) => self.try_candidate(next, parent),
            (Some(first), Some(second)) => {
                let mut parents: Vec<NodeId> = [first, second].into_iter().chain(parents).collect();
                // The children are in document order, but their parents are
                // not when elements of one name nest, and siblings share one.
                parents.sort_unstable_by_key(|&parent| index.position(parent));
                parents.dedup();
                for parent in parents {
                    self.try_candidate(next, parent);
                }
            }
        }
    }

    /// Tries every node of the subtrees rooted at `roots`, in preorder.
    fn walk(&mut self, next: usize, roots: &[NodeId]) {
        let mut stack = std::mem::take(&mut self.stacks[next]);
        stack.extend(roots.iter().rev());
        while let Some(node) = stack.pop() {
            self.try_candidate(next, node);
            // Reversed, so that preorder follows insertion order.
            stack.extend(self.tree.children(node).iter().rev());
        }
        self.stacks[next] = stack;
    }

    fn try_candidate(&mut self, next: usize, candidate: NodeId) {
        if next == 0 {
            self.root_candidates += 1;
        }
        let pattern = self.pattern;
        let tree = self.tree;
        let pattern_node_id = PNodeId(next as u32);
        if !node_satisfies_tests(pattern, pattern_node_id, tree, candidate) {
            return;
        }
        // Join constraints against already-assigned members of the group.
        if let Some(join) = pattern.node(pattern_node_id).join {
            let Some(candidate_value) = tree.node_value(candidate) else {
                return;
            };
            let consistent = pattern.node_ids().all(|other| {
                other == pattern_node_id
                    || pattern.node(other).join != Some(join)
                    || self.assignment[other.index()]
                        .is_none_or(|image| tree.node_value(image) == Some(candidate_value))
            });
            if !consistent {
                return;
            }
        }
        self.assignment[next] = Some(candidate);
        self.assign(next + 1);
        self.assignment[next] = None;
    }
}

/// The list an indexed start reads for a pattern node named `name`, in
/// document order: its value postings when it has a value test, its label
/// group otherwise. Both are one key's run of the index, one binary search.
fn hits<'i>(index: &'i LabelIndex, name: &str, value: Option<&str>) -> &'i [NodeId] {
    match value {
        Some(value) => index.postings(name, value),
        None => index.elements(name),
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

    /// `pxml_gen::scenarios::people_directory` (a dependency this crate does
    /// not have): `directory / person* / name`, the n-th name
    /// `<first name>-<n / 16>`.
    fn people_directory(people: usize) -> Tree {
        const FIRST_NAMES: [&str; 16] = [
            "alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi", "ivan", "judy",
            "mallory", "oscar", "peggy", "trent", "victor", "wendy",
        ];
        let mut tree = Tree::new("directory");
        for index in 0..people {
            let person = tree.add_element(tree.root(), "person");
            let name = tree.add_element(person, "name");
            tree.add_text(name, format!("{}-{}", FIRST_NAMES[index % 16], index / 16));
        }
        tree
    }

    /// The count gate of the selective start: pxbench's point query and an
    /// extraction update's pattern consider one root candidate, the parent
    /// of the one `name` posting, at any directory size. Scanning the
    /// `person` group instead considers every person (200 and 3 200).
    #[test]
    fn a_point_pattern_considers_the_same_root_candidates_at_any_directory_size() {
        for text in [
            "person { name[=\"bob-3\"], phone }",
            "person { name[=\"bob-3\"] }",
            "name[=\"bob-3\"]",
        ] {
            let pattern = Pattern::parse(text).unwrap();
            let costs = [200, 3200].map(|people| {
                let tree = people_directory(people);
                let unindexed = find_matches(&pattern, &tree);
                tree.label_index();
                let search = search(&pattern, &tree);
                assert_eq!(search.results, unindexed, "{text} at {people}");
                (search.results.len(), search.root_candidates)
            });
            let matches = usize::from(!text.contains("phone"));
            assert_eq!(costs, [(matches, 1); 2], "{text}");
        }
    }

    /// The count gate of the rarest-child start: pxbench's scan shape on a
    /// directory where the same few persons carry an email at every size
    /// starts from the `email` group and considers those persons only.
    /// Scanning the `person` group instead considers every person (200 and
    /// 3 200).
    #[test]
    fn a_scan_considers_only_the_persons_its_rarest_child_names_at_any_directory_size() {
        const EMAILS: usize = 7;
        let pattern = Pattern::parse("person { name, email }").unwrap();
        let costs = [200, 3200].map(|people| {
            let mut tree = people_directory(people);
            let persons = tree.children(tree.root()).to_vec();
            for &person in persons.iter().step_by(people / EMAILS).take(EMAILS) {
                let email = tree.add_element(person, "email");
                tree.add_text(email, "someone@example.org");
            }
            let unindexed = find_matches(&pattern, &tree);
            tree.label_index();
            let search = search(&pattern, &tree);
            assert_eq!(search.results, unindexed, "at {people}");
            (search.results.len(), search.root_candidates)
        });
        assert_eq!(costs, [(EMAILS, EMAILS); 2]);
    }

    #[test]
    fn parents_of_postings_are_deduplicated_and_put_in_document_order() {
        // The inner `a`'s hit comes first in document order, but the outer
        // `a` holds two hits and comes first itself.
        let tree =
            parse_data_tree("<r><a><a><b>v</b></a><b>v</b><b>v</b><b>w</b></a></r>").unwrap();
        let pattern = Pattern::parse("a { b[=\"v\"] }").unwrap();
        let unindexed = find_matches(&pattern, &tree);
        tree.label_index();
        let search = search(&pattern, &tree);
        assert_eq!(search.results, unindexed);
        let outer = tree.children(tree.root())[0];
        let roots: Vec<NodeId> = unindexed.iter().map(|m| m.image(PNodeId(0))).collect();
        assert_eq!(roots, [outer, outer, tree.children(outer)[0]]);
        assert_eq!(search.root_candidates, 2);
    }

    #[test]
    fn an_element_whose_two_keys_collide_matches_once() {
        // `v592710628`'s key under `a` is `a`'s own (a brute-force find).
        let tree = parse_data_tree("<r><a>v592710628</a><a/></r>").unwrap();
        let patterns = ["a", "a[=\"v592710628\"]", "r { a[=\"v592710628\"] }"]
            .map(|text| Pattern::parse(text).unwrap());
        let unindexed = patterns
            .each_ref()
            .map(|pattern| find_matches(pattern, &tree));
        tree.label_index();
        for ((pattern, unindexed), count) in patterns.iter().zip(unindexed).zip([2, 1, 1]) {
            let indexed = search(pattern, &tree).results;
            assert_eq!(indexed.len(), count);
            assert_eq!(indexed, unindexed);
        }
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
