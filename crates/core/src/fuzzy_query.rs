//! Querying fuzzy trees (slide 13).
//!
//! A TPWJ query is evaluated on the *underlying* data tree; every match is
//! returned together with:
//!
//! * its minimal-subtree answer, and
//! * its **match condition** — the conjunction of the existence conditions of
//!   all mapped nodes (and of the text children supplying the values used by
//!   value tests and joins) — whose probability is the probability that the
//!   match exists in a random world.
//!
//! When several matches yield unordered-isomorphic answers, the probability
//! of that *answer* is the probability of the **disjunction** of their match
//! conditions, computed exactly; this is what makes the commutation theorem
//! of slide 13 hold: `query(worlds(F)) = worlds(query(F))`.
//!
//! The model's events are independent, so match conditions that share no
//! event are independent as well — and the conditions of a broad query
//! mostly are (one person's phones share that person's update events, two
//! persons' phones share nothing). Both disjunctions this module evaluates,
//! [`FuzzyQueryResult::selection_probability`] and each answer group of
//! [`FuzzyQueryResult::merged_answers`], go through
//! [`pxml_event::disjunction_probability`], which splits the conditions into
//! event-independent components, takes a lone condition's literal product,
//! builds a BDD only for a component of several conditions, and combines by
//! `1 − Π(1 − pᵢ)`. Nothing is cached between calls or kept on the tree.

use pxml_event::{disjunction_probability, Condition, EventTable, Literal};
use pxml_query::{Matching, Pattern};
use pxml_tree::{isomorphism_classes, NodeId, Tree};

use crate::fuzzy::FuzzyTree;
use crate::worlds::PossibleWorlds;

/// A query match on a fuzzy tree, with its answer and probability.
#[derive(Debug, Clone)]
pub struct ProbabilisticMatch {
    /// The match (images of all pattern nodes in the underlying tree).
    pub matching: Matching,
    /// The minimal subtree containing the mapped nodes.
    pub answer: Tree,
    /// The condition under which this match exists.
    pub condition: Condition,
    /// `P(condition)` — the probability that the match exists.
    pub probability: f64,
}

/// The result of evaluating a query over a fuzzy tree.
#[derive(Debug, Clone, Default)]
pub struct FuzzyQueryResult {
    /// One entry per consistent match.
    pub matches: Vec<ProbabilisticMatch>,
}

impl FuzzyQueryResult {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// `true` when the query cannot match in any world.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Groups unordered-isomorphic answers and computes, for each group, the
    /// probability that *at least one* of its matches exists (the disjunction
    /// of the group's match conditions, evaluated exactly by
    /// [`disjunction_probability`]).
    ///
    /// Groups are the [`isomorphism_classes`] of the answers and come back in
    /// first-match order, each with its first match's answer tree; no
    /// condition is cloned.
    pub fn merged_answers(&self, events: &EventTable) -> Vec<(Tree, f64)> {
        isomorphism_classes(self.matches.iter().map(|m| &m.answer))
            .into_iter()
            .map(|(_, members)| {
                let conditions = members.iter().map(|&index| &self.matches[index].condition);
                (
                    self.matches[members[0]].answer.clone(),
                    disjunction_probability(conditions, events),
                )
            })
            .collect()
    }

    /// The merged answers as a [`PossibleWorlds`] value (one "world" per
    /// distinct answer, weighted by its probability) — the representation the
    /// commutation theorem compares against the possible-worlds-side query.
    pub fn as_possible_worlds(&self, events: &EventTable) -> PossibleWorlds {
        self.merged_answers(events)
            .into_iter()
            .collect::<PossibleWorlds>()
            .normalized()
    }

    /// The probability that the query matches at all (the document is
    /// *selected* by the query) — the disjunction of every match condition,
    /// evaluated exactly by [`disjunction_probability`] straight from the
    /// borrowed conditions. When every match falls in one answer group this
    /// is that group's [`merged_answers`](Self::merged_answers) probability.
    pub fn selection_probability(&self, events: &EventTable) -> f64 {
        disjunction_probability(self.matches.iter().map(|m| &m.condition), events)
    }
}

/// Computes the condition under which a given match exists: the existence
/// conditions of every mapped node, plus the conditions of the text children
/// whose values are used by value tests or joins.
pub(crate) fn match_condition(
    fuzzy: &FuzzyTree,
    pattern: &Pattern,
    matching: &Matching,
) -> Condition {
    // Accumulate every contributing literal first and sort/dedup once:
    // conjoining per-node `Condition`s in a loop re-sorts and re-allocates
    // at every step.
    let mut literals: Vec<Literal> = Vec::new();
    for node in matching.mapped_nodes() {
        fuzzy.extend_existence_literals(node, &mut literals);
    }
    for pattern_node in pattern.node_ids() {
        let spec = pattern.node(pattern_node);
        if spec.value.is_none() && spec.join.is_none() {
            continue;
        }
        let image = matching.image(pattern_node);
        if let Some(text_child) = value_text_child(fuzzy.tree(), image) {
            literals.extend_from_slice(fuzzy.condition_literals(text_child));
        }
    }
    Condition::from_literals(literals)
}

/// The text child providing [`Tree::node_value`] for an element node, if any.
fn value_text_child(tree: &Tree, node: NodeId) -> Option<NodeId> {
    if tree.is_text(node) {
        return None;
    }
    let children = tree.children(node);
    if children.len() == 1 && tree.is_text(children[0]) {
        Some(children[0])
    } else {
        None
    }
}

impl FuzzyTree {
    /// Evaluates a TPWJ query over this fuzzy tree (slide 13): matches are
    /// found on the underlying tree and weighted by the probability of their
    /// match condition. Matches whose condition is inconsistent (they exist
    /// in no world) are dropped.
    pub fn query(&self, pattern: &Pattern) -> FuzzyQueryResult {
        let answers = pattern.evaluate(self.tree());
        let mut matches = Vec::with_capacity(answers.matches.len());
        for answer in answers.matches {
            let condition = match_condition(self, pattern, &answer.matching);
            if !condition.is_consistent() {
                continue;
            }
            let probability = condition.probability(self.events());
            matches.push(ProbabilisticMatch {
                matching: answer.matching,
                answer: answer.answer,
                condition,
                probability,
            });
        }
        FuzzyQueryResult { matches }
    }

    /// Convenience: the probability that `pattern` matches this document.
    pub fn selection_probability(&self, pattern: &Pattern) -> f64 {
        self.query(pattern).selection_probability(self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy::slide12_example;
    use pxml_event::Literal;
    use pxml_tree::parse_data_tree;

    #[test]
    fn querying_a_certain_node_gives_probability_one() {
        let fuzzy = slide12_example();
        let query = Pattern::parse("A { C }").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 1);
        assert!((result.matches[0].probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn match_probability_is_condition_probability() {
        let fuzzy = slide12_example();
        let query = Pattern::parse("A { B }").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 1);
        // P(w1 ∧ ¬w2) = 0.24.
        assert!((result.matches[0].probability - 0.24).abs() < 1e-12);
        let query_d = Pattern::parse("A { D }").unwrap();
        let result_d = fuzzy.query(&query_d);
        assert!((result_d.matches[0].probability - 0.7).abs() < 1e-12);
    }

    #[test]
    fn match_condition_includes_ancestors() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let v = fuzzy.add_event("v", 0.4).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(v)))
            .unwrap();
        let query = Pattern::parse("b").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 1);
        assert_eq!(result.matches[0].condition.len(), 2);
        assert!((result.matches[0].probability - 0.2).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_matches_are_dropped() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let b = fuzzy.add_element(a, "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::neg(w)))
            .unwrap();
        // b exists only when w and ¬w: never.
        let query = Pattern::parse("b").unwrap();
        assert!(fuzzy.query(&query).is_empty());
    }

    #[test]
    fn value_tests_account_for_text_child_conditions() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.3).unwrap();
        let name = fuzzy.add_element(fuzzy.root(), "name");
        let text = fuzzy.add_text(name, "Alan");
        fuzzy
            .set_condition(text, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let query = Pattern::parse("name[=\"Alan\"]").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 1);
        // The value is only present when the text node is.
        assert!((result.matches[0].probability - 0.3).abs() < 1e-12);
    }

    #[test]
    fn join_queries_combine_conditions_of_both_sides() {
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.5).unwrap();
        let v = fuzzy.add_event("v", 0.2).unwrap();
        let a = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        fuzzy.add_text(a, "k");
        let b = fuzzy.add_element(fuzzy.root(), "b");
        fuzzy
            .set_condition(b, Condition::from_literal(Literal::pos(v)))
            .unwrap();
        fuzzy.add_text(b, "k");
        let query = Pattern::parse("r { a[$x], b[$x] }").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 1);
        assert!((result.matches[0].probability - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merged_answers_use_disjunction_not_sum() {
        // Two uncertain copies of the same answer: probabilities must combine
        // as P(c1 ∨ c2), not c1 + c2.
        let mut fuzzy = FuzzyTree::new("r");
        let w = fuzzy.add_event("w", 0.6).unwrap();
        let v = fuzzy.add_event("v", 0.5).unwrap();
        let a1 = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a1, Condition::from_literal(Literal::pos(w)))
            .unwrap();
        let a2 = fuzzy.add_element(fuzzy.root(), "a");
        fuzzy
            .set_condition(a2, Condition::from_literal(Literal::pos(v)))
            .unwrap();
        let query = Pattern::parse("r { a }").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 2);
        let merged = result.merged_answers(fuzzy.events());
        assert_eq!(merged.len(), 1);
        // P(w ∨ v) = 0.6 + 0.5 − 0.3 = 0.8.
        assert!((merged[0].1 - 0.8).abs() < 1e-12);
        assert!((result.selection_probability(fuzzy.events()) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn query_commutes_with_possible_worlds_semantics_on_slide12() {
        let fuzzy = slide12_example();
        for text in [
            "A { B }",
            "A { C }",
            "A { D }",
            "A { B, D }",
            "* { B }",
            "A { Z }",
        ] {
            let query = Pattern::parse(text).unwrap();
            let via_fuzzy = fuzzy.query(&query).as_possible_worlds(fuzzy.events());
            let via_worlds = fuzzy.to_possible_worlds().unwrap().query(&query);
            assert!(
                via_fuzzy.equivalent(&via_worlds, 1e-9),
                "commutation failed for {text}"
            );
        }
    }

    #[test]
    fn answer_is_minimal_subtree_of_underlying_tree() {
        let tree = parse_data_tree("<A><B><X>1</X></B><C/></A>").unwrap();
        let fuzzy = FuzzyTree::from_tree(tree);
        let query = Pattern::parse("A { //X, C }").unwrap();
        let result = fuzzy.query(&query);
        assert_eq!(result.len(), 1);
        let answer = &result.matches[0].answer;
        // A, B, X, C but not the text node "1".
        assert_eq!(answer.node_count(), 4);
    }
}
