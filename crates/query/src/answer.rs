//! Query answers: the minimal subtree containing the mapped nodes.
//!
//! Slide 6: *"Result: minimal subtree containing all the nodes mapped by the
//! query."* Slide 13 asks for answers *up to isomorphism*: the probability
//! of an answer is that of the disjunction over every match whose answer is
//! isomorphic to it. So a match's answer is only ever needed as a key.
//! [`AnswerGroups`] writes a match's key over the data tree
//! ([`steiner_canonical_string`]), groups matches by it in first-match
//! order, and builds one answer tree ([`steiner_tree`]) per group, when the
//! group's first match arrives. A match keeps its data nodes, which is where
//! probabilistic evaluation reads node conditions, and the index of its
//! group. This is the one place matches are grouped by answer: [`evaluate`]
//! and `pxml-core`'s fuzzy-tree query both go through it.
//!
//! **One key per partition.** Call a pattern *child-only* when every node
//! has a label and every edge is a child edge (`person { name, email }`).
//! In a match of one, every non-root image is a child of its parent's
//! image, so the images are closed under "parent, up to the root's image":
//! their minimal subtree is exactly the image set, rooted at the root's
//! image. Each image is an element carrying its pattern node's label, and
//! no text is part of the answer. So the answer is the pattern tree with
//! the nodes that share an image merged, and its key depends only on that
//! partition of the pattern's nodes. For such a pattern [`AnswerGroups`]
//! remembers, for each partition it has seen, the group the key of its
//! first match fell in, and files a later match of that partition there
//! without writing its key. Groups still merge by key, so two partitions
//! with isomorphic quotients (`a { b, b, b }` mapping its first two `b`s
//! to one element, or its last two) share one group, and groups keep
//! first-match order. A pattern with a descendant edge or a wildcard keys
//! every match: its answer also depends on the paths between the images.

use std::collections::HashMap;

use pxml_tree::path::steiner_tree;
use pxml_tree::{steiner_canonical_string, NodeId, Tree};

use crate::matcher::Matching;
use crate::pattern::{Axis, Pattern};

/// One match and the group of its answer.
#[derive(Debug, Clone)]
pub struct MatchAnswer {
    /// The match itself (images of every pattern node).
    pub matching: Matching,
    /// The index in [`QueryAnswers::answers`] of the minimal subtree of the
    /// data tree containing all mapped nodes, up to isomorphism.
    pub group: usize,
}

/// The result of evaluating a query over a data tree.
#[derive(Debug, Clone, Default)]
pub struct QueryAnswers {
    /// One entry per match, in matcher order.
    pub matches: Vec<MatchAnswer>,
    /// One answer tree per isomorphism class of the matches' answers, in
    /// order of each class's first match.
    pub answers: Vec<Tree>,
}

impl QueryAnswers {
    /// The number of matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// `true` when the query did not match.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// The distinct answers, in order of their first match: one tree per
    /// group together with the indices of the matches producing it.
    pub fn distinct_answers(&self) -> Vec<(Tree, Vec<usize>)> {
        let mut members = vec![Vec::new(); self.answers.len()];
        for (index, answer) in self.matches.iter().enumerate() {
            members[answer.group].push(index);
        }
        self.answers.iter().cloned().zip(members).collect()
    }
}

/// The matches of one data tree grouped by answer up to isomorphism, with
/// one answer tree per group.
#[derive(Debug)]
pub struct AnswerGroups<'t> {
    tree: &'t Tree,
    /// Each group's key: the canonical string of its answer.
    groups: HashMap<String, usize>,
    answers: Vec<Tree>,
    /// For a child-only pattern, the partitions of its nodes by image that
    /// earlier matches showed, each with the group its key fell in (module
    /// docs): a partition as, for every pattern node, the first pattern
    /// node whose image is its own.
    partitions: Option<Vec<(Vec<usize>, usize)>>,
}

/// How many partitions a query remembers. Past that, a match whose
/// partition is not among them is keyed like any other match, so that a
/// pattern of many same-label siblings, whose partitions are many, never
/// pays more per match for the lookup than for its key.
const REMEMBERED_PARTITIONS: usize = 16;

/// The first pattern node whose image is `node`'s own.
fn first_sharing(images: &[NodeId], node: usize) -> usize {
    images
        .iter()
        .position(|&image| image == images[node])
        .expect("a node shares its own image")
}

impl<'t> AnswerGroups<'t> {
    /// No groups yet, for the matches of `pattern` over `tree`.
    pub fn new(tree: &'t Tree, pattern: &Pattern) -> Self {
        let child_only = pattern.node_ids().all(|id| {
            let node = pattern.node(id);
            node.label.is_some() && node.parent.is_none_or(|(_, axis)| axis == Axis::Child)
        });
        AnswerGroups {
            tree,
            groups: HashMap::new(),
            answers: Vec::new(),
            partitions: child_only.then(Vec::new),
        }
    }

    /// The group of the answer to a match whose pattern nodes map to
    /// `images` (in pattern-node order, repeats allowed): the group of an
    /// earlier match whose answer is isomorphic, or a new group, whose
    /// answer tree is built now.
    pub fn group_of(&mut self, images: &[NodeId]) -> usize {
        let seen = self.partitions.iter().flatten().find(|(firsts, _)| {
            firsts
                .iter()
                .enumerate()
                .all(|(node, &first)| first_sharing(images, node) == first)
        });
        if let Some(&(_, group)) = seen {
            return group;
        }
        let key =
            steiner_canonical_string(self.tree, images).expect("a match maps at least one node");
        let next = self.answers.len();
        let group = *self.groups.entry(key).or_insert(next);
        if group == next {
            self.answers
                .push(steiner_tree(self.tree, images).expect("a match maps at least one node"));
        }
        if let Some(partitions) = &mut self.partitions {
            if partitions.len() < REMEMBERED_PARTITIONS {
                let firsts = (0..images.len()).map(|node| first_sharing(images, node));
                partitions.push((firsts.collect(), group));
            }
        }
        group
    }

    /// The answer trees, one per group, in order of their first match.
    pub fn into_answers(self) -> Vec<Tree> {
        self.answers
    }
}

/// Evaluates a pattern over a tree: all matches, each with the group of its
/// minimal-subtree answer, and one tree per group. The tree's label index
/// is made current first ([`Tree::label_index`]): a warehouse snapshot's
/// already is, so a query there reads it; a tree that never had one builds
/// it, and one mutated since it had one patches it.
pub fn evaluate(pattern: &Pattern, tree: &Tree) -> QueryAnswers {
    tree.label_index();
    let mut groups = AnswerGroups::new(tree, pattern);
    let matches = pattern
        .find_matches(tree)
        .into_iter()
        .map(|matching| {
            let group = groups.group_of(matching.images());
            MatchAnswer { matching, group }
        })
        .collect();
    QueryAnswers {
        matches,
        answers: groups.into_answers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Axis, Pattern};
    use pxml_tree::parse_data_tree;

    fn library() -> Tree {
        parse_data_tree(
            "<library>\
               <book><author>Knuth</author><title>TAOCP</title></book>\
               <book><author>Turing</author><title>On Computable Numbers</title></book>\
               <journal><title>CACM</title></journal>\
             </library>",
        )
        .unwrap()
    }

    #[test]
    fn answer_is_minimal_subtree() {
        let tree = library();
        let mut pattern = Pattern::element("book");
        pattern.add_child(pattern.root(), Axis::Child, Some("author"));
        pattern.add_child(pattern.root(), Axis::Child, Some("title"));
        let answers = evaluate(&pattern, &tree);
        assert_eq!(answers.len(), 2);
        // Both books answer book(author, title): one group.
        assert_eq!(answers.answers.len(), 1);
        assert!(answers.matches.iter().all(|answer| answer.group == 0));
        let answer = &answers.answers[0];
        // book + author + title, but not the text values (they are not
        // mapped by the pattern and lie below the mapped nodes).
        assert_eq!(answer.node_count(), 3);
        assert_eq!(answer.label(answer.root()).element_name(), Some("book"));
        assert!(!answers.is_empty());
    }

    #[test]
    fn answers_spanning_branches_go_through_the_lca() {
        let tree = library();
        // author and a title anywhere below library: LCA is the library root
        // when they come from different books.
        let mut pattern = Pattern::element("library");
        pattern.add_child(pattern.root(), Axis::Descendant, Some("author"));
        pattern.add_child(pattern.root(), Axis::Descendant, Some("title"));
        let answers = evaluate(&pattern, &tree);
        // 2 authors × 3 titles.
        assert_eq!(answers.len(), 6);
        for answer in &answers.answers {
            assert_eq!(answer.label(answer.root()).element_name(), Some("library"));
        }
    }

    #[test]
    fn distinct_answers_merge_isomorphic_results() {
        let tree =
            parse_data_tree("<r><p><q>same</q></p><p><q>same</q></p><p><q>different</q></p></r>")
                .unwrap();
        let mut pattern = Pattern::element("p");
        pattern.add_child(pattern.root(), Axis::Child, Some("q"));
        let answers = evaluate(&pattern, &tree);
        assert_eq!(answers.len(), 3);
        // All three answers are p(q) — identical once text is excluded — so
        // they merge into a single distinct answer.
        let distinct = answers.distinct_answers();
        assert_eq!(distinct.len(), 1);
        assert_eq!(distinct[0].1.len(), 3);
    }

    #[test]
    fn distinct_answers_keep_structurally_different_results_apart() {
        let tree = library();
        let pattern = Pattern::parse("* { title }").unwrap();
        let answers = evaluate(&pattern, &tree);
        // book{title} twice and journal{title} once → two distinct shapes.
        let distinct = answers.distinct_answers();
        assert_eq!(distinct.len(), 2);
        let sizes: Vec<usize> = distinct.iter().map(|(_, group)| group.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn empty_result_set() {
        let tree = library();
        let pattern = Pattern::element("nonexistent");
        let answers = evaluate(&pattern, &tree);
        assert!(answers.is_empty());
        assert!(answers.distinct_answers().is_empty());
    }
}
