//! Query answers: the minimal subtree containing the mapped nodes.
//!
//! Slide 6: *"Result: minimal subtree containing all the nodes mapped by the
//! query."* Slide 13 asks for answers *up to isomorphism*: the probability
//! of an answer is that of the disjunction over every match whose answer is
//! isomorphic to it. So a match's answer is only ever needed as a key.
//! [`AnswerGroups`] writes each match's key over the data tree
//! ([`steiner_canonical_string`]), groups matches by it in first-match
//! order, and builds one answer tree ([`steiner_tree`]) per group, when the
//! group's first match arrives. A match keeps its data nodes, which is where
//! probabilistic evaluation reads node conditions, and the index of its
//! group. This is the one place matches are grouped by answer: [`evaluate`]
//! and `pxml-core`'s fuzzy-tree query both go through it.

use std::collections::HashMap;

use pxml_tree::path::steiner_tree;
use pxml_tree::{steiner_canonical_string, NodeId, Tree};

use crate::matcher::Matching;
use crate::pattern::Pattern;

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
}

impl<'t> AnswerGroups<'t> {
    /// No groups yet, over `tree`.
    pub fn new(tree: &'t Tree) -> Self {
        AnswerGroups {
            tree,
            groups: HashMap::new(),
            answers: Vec::new(),
        }
    }

    /// The group of the answer to a match that maps `mapped` (its mapped
    /// nodes, at least one): the group of an earlier match whose answer is
    /// isomorphic, or a new group, whose answer tree is built now.
    pub fn group_of(&mut self, mapped: &[NodeId]) -> usize {
        let key =
            steiner_canonical_string(self.tree, mapped).expect("a match maps at least one node");
        let next = self.answers.len();
        let group = *self.groups.entry(key).or_insert(next);
        if group == next {
            self.answers
                .push(steiner_tree(self.tree, mapped).expect("a match maps at least one node"));
        }
        group
    }

    /// The answer trees, one per group, in order of their first match.
    pub fn into_answers(self) -> Vec<Tree> {
        self.answers
    }
}

/// Evaluates a pattern over a tree: all matches, each with the group of its
/// minimal-subtree answer, and one tree per group. The first query of a
/// snapshot builds the tree's label index, which every later query of that
/// snapshot (and of its clones, until they mutate) reuses.
pub fn evaluate(pattern: &Pattern, tree: &Tree) -> QueryAnswers {
    tree.label_index();
    let mut groups = AnswerGroups::new(tree);
    let matches = pattern
        .find_matches(tree)
        .into_iter()
        .map(|matching| {
            let group = groups.group_of(&matching.mapped_nodes());
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
