//! Query answers: the minimal subtree containing the mapped nodes.
//!
//! Slide 6: *"Result: minimal subtree containing all the nodes mapped by the
//! query."* For every match we build that subtree (a Steiner tree of the
//! mapped nodes) as an independent [`Tree`]; the match itself keeps the data
//! nodes, which is where probabilistic evaluation reads node conditions.

use pxml_tree::path::steiner_tree;
use pxml_tree::{isomorphism_classes, Tree};

use crate::matcher::Matching;
use crate::pattern::Pattern;

/// The answer derived from a single match.
#[derive(Debug, Clone)]
pub struct MatchAnswer {
    /// The match itself (images of every pattern node).
    pub matching: Matching,
    /// The minimal subtree of the data tree containing all mapped nodes.
    pub answer: Tree,
}

/// The result of evaluating a query over a data tree.
#[derive(Debug, Clone, Default)]
pub struct QueryAnswers {
    /// One entry per match, in matcher order.
    pub matches: Vec<MatchAnswer>,
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

    /// Groups matches whose answers are unordered-isomorphic; returns one
    /// representative tree per group together with the indices of the matches
    /// producing it.
    pub fn distinct_answers(&self) -> Vec<(Tree, Vec<usize>)> {
        isomorphism_classes(self.matches.iter().map(|m| &m.answer))
            .into_iter()
            .map(|(_, members)| (self.matches[members[0]].answer.clone(), members))
            .collect()
    }
}

/// Evaluates a pattern over a tree: all matches plus their minimal-subtree
/// answers.
pub fn evaluate(pattern: &Pattern, tree: &Tree) -> QueryAnswers {
    let matches = pattern
        .find_matches(tree)
        .into_iter()
        .map(|matching| answer_for(tree, matching))
        .collect();
    QueryAnswers { matches }
}

/// Builds the minimal-subtree answer for one match.
fn answer_for(tree: &Tree, matching: Matching) -> MatchAnswer {
    let mapped = matching.mapped_nodes();
    let answer = steiner_tree(tree, &mapped).expect("a match maps at least one node");
    MatchAnswer { matching, answer }
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
        for answer in &answers.matches {
            // book + author + title, but not the text values (they are not
            // mapped by the pattern and lie below the mapped nodes).
            assert_eq!(answer.answer.node_count(), 3);
            assert_eq!(
                answer.answer.label(answer.answer.root()).element_name(),
                Some("book")
            );
        }
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
        for answer in &answers.matches {
            assert_eq!(
                answer.answer.label(answer.answer.root()).element_name(),
                Some("library")
            );
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
