//! The possible-worlds model: the semantic foundation of probabilistic XML.
//!
//! A probabilistic instance is a finite set of `(tree, probability)` pairs —
//! one per possible world (slide 9). Queries and updates are defined world by
//! world (slide 10):
//!
//! * the result of a query `Q` over `T = {(tᵢ, pᵢ)}` is the normalisation of
//!   `{(t, pᵢ) | t ∈ Q(tᵢ)}`;
//! * the result of an update `u` (query `Q` + operations `τ` + confidence `c`)
//!   is the normalisation of the worlds not selected by `Q`, plus `(τ(t), p·c)`
//!   and `(t, p·(1−c))` for every selected world `(t, p)`.
//!
//! **Normalisation** merges unordered-isomorphic trees, summing their
//! probabilities. [`PossibleWorlds::rescaled`] additionally scales the total
//! mass back to 1 for the situations where the paper's definition calls for a
//! proper distribution.

use pxml_query::Pattern;
use pxml_tree::{isomorphism_classes, CanonicalForm, Tree};

use crate::error::CoreError;
use crate::update::UpdateTransaction;

/// A finite set of possible worlds, each a data tree with a probability.
#[derive(Debug, Clone, Default)]
pub struct PossibleWorlds {
    worlds: Vec<(Tree, f64)>,
}

impl PossibleWorlds {
    /// The empty set of worlds.
    pub fn new() -> Self {
        PossibleWorlds::default()
    }

    /// A deterministic instance: a single world with probability 1.
    pub fn certain(tree: Tree) -> Self {
        PossibleWorlds {
            worlds: vec![(tree, 1.0)],
        }
    }

    /// Builds a set from explicit `(tree, probability)` pairs.
    pub fn from_worlds(worlds: impl IntoIterator<Item = (Tree, f64)>) -> Result<Self, CoreError> {
        let worlds: Vec<(Tree, f64)> = worlds.into_iter().collect();
        for (_, p) in &worlds {
            if !p.is_finite() || *p <= 0.0 {
                return Err(CoreError::InvalidWorldProbability(*p));
            }
        }
        Ok(PossibleWorlds { worlds })
    }

    /// Adds a world. Worlds with non-positive probability are ignored (they
    /// cannot be observed and normalisation would drop them anyway).
    pub fn push(&mut self, tree: Tree, probability: f64) {
        if probability > 0.0 && probability.is_finite() {
            self.worlds.push((tree, probability));
        }
    }

    /// The number of worlds (before any merging).
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// `true` when the set contains no world.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Iterates over the worlds.
    pub fn iter(&self) -> impl Iterator<Item = &(Tree, f64)> {
        self.worlds.iter()
    }

    /// The sum of all world probabilities.
    pub fn total_probability(&self) -> f64 {
        self.worlds.iter().map(|(_, p)| p).sum()
    }

    /// The expected number of nodes of a random world.
    pub fn expected_node_count(&self) -> f64 {
        let total = self.total_probability();
        if total == 0.0 {
            return 0.0;
        }
        self.worlds
            .iter()
            .map(|(tree, p)| tree.node_count() as f64 * p)
            .sum::<f64>()
            / total
    }

    /// The probability mass of the worlds satisfying `predicate`.
    pub fn probability_that(&self, mut predicate: impl FnMut(&Tree) -> bool) -> f64 {
        self.worlds
            .iter()
            .filter(|(tree, _)| predicate(tree))
            .map(|(_, p)| p)
            .sum()
    }

    /// The probability mass of the worlds isomorphic to `tree`.
    pub fn probability_of_tree(&self, tree: &Tree) -> f64 {
        self.probability_that(|world| world.isomorphic(tree))
    }

    /// The isomorphism classes of the worlds in canonical-form order — the
    /// deterministic order of a normalised set — each with the position of
    /// its first member and its summed mass.
    fn classes(&self) -> Vec<(CanonicalForm, usize, f64)> {
        let mut classes: Vec<(CanonicalForm, usize, f64)> =
            isomorphism_classes(self.worlds.iter().map(|(tree, _)| tree))
                .into_iter()
                .map(|(form, members)| {
                    let mass = members.iter().map(|&index| self.worlds[index].1).sum();
                    (form, members[0], mass)
                })
                .collect();
        classes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        classes
    }

    /// Normalisation: merges unordered-isomorphic worlds, summing their
    /// probabilities. The total mass is preserved.
    pub fn normalized(&self) -> PossibleWorlds {
        let worlds = self
            .classes()
            .into_iter()
            .map(|(_, first, mass)| (self.worlds[first].0.clone(), mass))
            .collect();
        PossibleWorlds { worlds }
    }

    /// Normalisation followed by rescaling so that probabilities sum to 1.
    pub fn rescaled(&self) -> Result<PossibleWorlds, CoreError> {
        let normalized = self.normalized();
        let total = normalized.total_probability();
        if normalized.is_empty() || total <= 0.0 {
            return Err(CoreError::EmptyWorldSet);
        }
        Ok(PossibleWorlds {
            worlds: normalized
                .worlds
                .into_iter()
                .map(|(tree, p)| (tree, p / total))
                .collect(),
        })
    }

    /// Semantic equality: both sets, once normalised, contain the same trees
    /// with the same probabilities (up to `epsilon`).
    pub fn equivalent(&self, other: &PossibleWorlds, epsilon: f64) -> bool {
        let (a, b) = (self.classes(), other.classes());
        a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| x.0 == y.0 && (x.2 - y.2).abs() <= epsilon)
    }

    /// The query semantic foundation (slide 10): evaluate `query` in every
    /// world, emit each answer with the world's probability, and normalise.
    ///
    /// The returned set is *not* rescaled: the probability attached to an
    /// answer tree is the probability that this answer is produced, so the
    /// total can be below 1 (worlds with no match contribute nothing) or
    /// above 1 (a world can produce several distinct answers).
    pub fn query(&self, query: &Pattern) -> PossibleWorlds {
        let mut result = PossibleWorlds::new();
        for (tree, p) in &self.worlds {
            let answers = query.evaluate(tree);
            // Several matches within one world may yield isomorphic answers;
            // the paper's definition collects the *set* Q(tᵢ), so deduplicate
            // inside each world before emitting.
            for (answer, _group) in answers.distinct_answers() {
                result.push(answer, *p);
            }
        }
        result.normalized()
    }

    /// The update semantic foundation (slide 10): worlds selected by the
    /// update's query are split into an updated copy (probability `p·c`) and
    /// an unchanged copy (`p·(1−c)`); unselected worlds are kept; the result
    /// is normalised.
    pub fn update(&self, update: &UpdateTransaction) -> PossibleWorlds {
        let mut result = PossibleWorlds::new();
        let confidence = update.confidence();
        for (tree, p) in &self.worlds {
            let matches = update.pattern().find_matches(tree);
            if matches.is_empty() {
                result.push(tree.clone(), *p);
                continue;
            }
            let updated = update.apply_to_tree_with_matches(tree, &matches);
            result.push(updated, p * confidence);
            if confidence < 1.0 {
                result.push(tree.clone(), p * (1.0 - confidence));
            }
        }
        result.normalized()
    }
}

impl FromIterator<(Tree, f64)> for PossibleWorlds {
    fn from_iter<T: IntoIterator<Item = (Tree, f64)>>(iter: T) -> Self {
        let mut worlds = PossibleWorlds::new();
        for (tree, p) in iter {
            worlds.push(tree, p);
        }
        worlds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::parse_data_tree;

    /// The slide-9 example: four worlds over A with children among {B, C, D}.
    fn slide9() -> PossibleWorlds {
        let worlds = vec![
            (parse_data_tree("<A><C/></A>").unwrap(), 0.06),
            (parse_data_tree("<A><C/><D/></A>").unwrap(), 0.14),
            (parse_data_tree("<A><B/><C/></A>").unwrap(), 0.24),
            (parse_data_tree("<A><B/><C/><D/></A>").unwrap(), 0.56),
        ];
        PossibleWorlds::from_worlds(worlds).unwrap()
    }

    #[test]
    fn slide9_is_a_distribution() {
        let worlds = slide9();
        assert_eq!(worlds.len(), 4);
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        assert!(!worlds.is_empty());
    }

    #[test]
    fn probability_queries() {
        let worlds = slide9();
        // P(B present) = 0.24 + 0.56
        let p_b = worlds.probability_that(|t| !t.find_elements("B").is_empty());
        assert!((p_b - 0.8).abs() < 1e-12);
        // P(D present) = 0.14 + 0.56
        let p_d = worlds.probability_that(|t| !t.find_elements("D").is_empty());
        assert!((p_d - 0.7).abs() < 1e-12);
        let exact = parse_data_tree("<A><C/></A>").unwrap();
        assert!((worlds.probability_of_tree(&exact) - 0.06).abs() < 1e-12);
    }

    #[test]
    fn push_ignores_non_positive_probabilities() {
        let mut worlds = PossibleWorlds::new();
        worlds.push(parse_data_tree("<A/>").unwrap(), 0.0);
        worlds.push(parse_data_tree("<A/>").unwrap(), -0.5);
        worlds.push(parse_data_tree("<A/>").unwrap(), f64::NAN);
        assert!(worlds.is_empty());
        worlds.push(parse_data_tree("<A/>").unwrap(), 0.5);
        assert_eq!(worlds.len(), 1);
    }

    #[test]
    fn from_worlds_rejects_bad_probabilities() {
        let bad = vec![(parse_data_tree("<A/>").unwrap(), 0.0)];
        assert!(matches!(
            PossibleWorlds::from_worlds(bad),
            Err(CoreError::InvalidWorldProbability(_))
        ));
    }

    #[test]
    fn normalization_merges_isomorphic_worlds() {
        let mut worlds = PossibleWorlds::new();
        worlds.push(parse_data_tree("<A><B/><C/></A>").unwrap(), 0.3);
        worlds.push(parse_data_tree("<A><C/><B/></A>").unwrap(), 0.2);
        worlds.push(parse_data_tree("<A><B/></A>").unwrap(), 0.5);
        let normalized = worlds.normalized();
        assert_eq!(normalized.len(), 2);
        let merged = parse_data_tree("<A><B/><C/></A>").unwrap();
        assert!((normalized.probability_of_tree(&merged) - 0.5).abs() < 1e-12);
        assert!((normalized.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rescaling_restores_a_distribution() {
        let mut worlds = PossibleWorlds::new();
        worlds.push(parse_data_tree("<A><B/></A>").unwrap(), 0.2);
        worlds.push(parse_data_tree("<A/>").unwrap(), 0.2);
        let rescaled = worlds.rescaled().unwrap();
        assert!((rescaled.total_probability() - 1.0).abs() < 1e-12);
        assert!(
            (rescaled.probability_of_tree(&parse_data_tree("<A/>").unwrap()) - 0.5).abs() < 1e-12
        );
        assert!(matches!(
            PossibleWorlds::new().rescaled(),
            Err(CoreError::EmptyWorldSet)
        ));
    }

    #[test]
    fn equivalence_is_insensitive_to_order_and_split_mass() {
        let a = slide9();
        let mut b = PossibleWorlds::new();
        // Same distribution, worlds listed in another order and one world
        // split into two pieces.
        b.push(parse_data_tree("<A><B/><C/><D/></A>").unwrap(), 0.26);
        b.push(parse_data_tree("<A><B/><C/><D/></A>").unwrap(), 0.30);
        b.push(parse_data_tree("<A><B/><C/></A>").unwrap(), 0.24);
        b.push(parse_data_tree("<A><C/><D/></A>").unwrap(), 0.14);
        b.push(parse_data_tree("<A><C/></A>").unwrap(), 0.06);
        assert!(a.equivalent(&b, 1e-9));
        let mut c = PossibleWorlds::new();
        c.push(parse_data_tree("<A/>").unwrap(), 1.0);
        assert!(!a.equivalent(&c, 1e-9));
    }

    #[test]
    fn expected_node_count() {
        let worlds = slide9();
        // Node counts: 2, 3, 3, 4 with probabilities 0.06, 0.14, 0.24, 0.56.
        let expected = 2.0 * 0.06 + 3.0 * 0.14 + 3.0 * 0.24 + 4.0 * 0.56;
        assert!((worlds.expected_node_count() - expected).abs() < 1e-12);
        assert_eq!(PossibleWorlds::new().expected_node_count(), 0.0);
    }

    #[test]
    fn query_semantics_collects_answers_across_worlds() {
        let worlds = slide9();
        // Query: an A with a B child — answer is the minimal subtree A{B}.
        let query = Pattern::parse("A { B }").unwrap();
        let result = worlds.query(&query);
        assert_eq!(result.len(), 1);
        let answer = parse_data_tree("<A><B/></A>").unwrap();
        assert!((result.probability_of_tree(&answer) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn query_with_no_match_returns_empty_set() {
        let worlds = slide9();
        let query = Pattern::parse("Z").unwrap();
        assert!(worlds.query(&query).is_empty());
    }

    #[test]
    fn certain_instance_and_collect() {
        let tree = parse_data_tree("<A><B/></A>").unwrap();
        let worlds = PossibleWorlds::certain(tree.clone());
        assert_eq!(worlds.len(), 1);
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        let collected: PossibleWorlds = vec![(tree, 0.4)].into_iter().collect();
        assert_eq!(collected.len(), 1);
    }
}
