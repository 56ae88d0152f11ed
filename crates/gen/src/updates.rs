//! Random probabilistic update transactions.

use pxml_core::UpdateTransaction;
use pxml_query::Pattern;
use pxml_tree::Tree;
use rand::Rng;

use crate::queries::{derived_query, QueryGenConfig};
use crate::trees::{random_tree, TreeGenConfig};

/// Parameters for random update transactions.
#[derive(Debug, Clone)]
pub struct UpdateGenConfig {
    /// Shape of the query anchoring the update.
    pub query: QueryGenConfig,
    /// Shape of inserted subtrees.
    pub insert_subtree: TreeGenConfig,
    /// Probability that the transaction contains an insertion.
    pub insert_probability: f64,
    /// Probability that the transaction contains a deletion.
    pub delete_probability: f64,
    /// Lower bound of the confidence range.
    pub min_confidence: f64,
    /// Upper bound of the confidence range.
    pub max_confidence: f64,
}

impl Default for UpdateGenConfig {
    fn default() -> Self {
        UpdateGenConfig {
            query: QueryGenConfig {
                pattern_nodes: 3,
                value_probability: 0.0,
                ..QueryGenConfig::default()
            },
            insert_subtree: TreeGenConfig {
                target_elements: 4,
                max_depth: 2,
                ..TreeGenConfig::default()
            },
            insert_probability: 0.8,
            delete_probability: 0.4,
            min_confidence: 0.5,
            max_confidence: 1.0,
        }
    }
}

/// Generates a random update transaction anchored at a query derived from
/// `tree` (so that it is guaranteed to select the document). The transaction
/// always contains at least one operation.
pub fn random_update(
    rng: &mut impl Rng,
    tree: &Tree,
    config: &UpdateGenConfig,
) -> UpdateTransaction {
    let pattern: Pattern = derived_query(rng, tree, &config.query);
    let confidence = if config.max_confidence > config.min_confidence {
        rng.gen_range(config.min_confidence..=config.max_confidence)
    } else {
        config.max_confidence
    };
    let targets: Vec<_> = pattern.node_ids().collect();
    let mut update =
        UpdateTransaction::new(pattern, confidence).expect("confidence is within [0, 1]");
    let mut has_operation = false;
    if rng.gen_bool(config.insert_probability) {
        let target = targets[rng.gen_range(0..targets.len())];
        let subtree = random_tree(rng, &config.insert_subtree);
        update = update.with_insert(target, subtree);
        has_operation = true;
    }
    if rng.gen_bool(config.delete_probability) || !has_operation {
        // Prefer deleting a non-root pattern node so that something happens.
        let target = if targets.len() > 1 {
            targets[rng.gen_range(1..targets.len())]
        } else {
            targets[0]
        };
        update = update.with_delete(target);
    }
    update
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::FuzzyTree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_updates_apply_cleanly_to_fuzzy_documents() {
        let tree_config = TreeGenConfig::sized(80);
        let update_config = UpdateGenConfig::default();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = random_tree(&mut rng, &tree_config);
            let mut fuzzy = FuzzyTree::from_tree(tree.clone());
            let update = random_update(&mut rng, &tree, &update_config);
            assert!(!update.operations().is_empty());
            assert!(update.confidence() >= 0.5 && update.confidence() <= 1.0);
            let stats = update.apply_to_fuzzy(&mut fuzzy).unwrap();
            assert!(stats.match_count >= 1, "derived query must select the doc");
            assert!(fuzzy.validate().is_ok());
        }
    }

    #[test]
    fn random_updates_apply_to_plain_trees() {
        let mut rng = StdRng::seed_from_u64(21);
        let tree = random_tree(&mut rng, &TreeGenConfig::sized(60));
        let update = random_update(&mut rng, &tree, &UpdateGenConfig::default());
        let updated = update.apply_to_tree(&tree);
        assert!(updated.validate().is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let tree = random_tree(&mut StdRng::seed_from_u64(2), &TreeGenConfig::sized(50));
        let a = random_update(
            &mut StdRng::seed_from_u64(3),
            &tree,
            &UpdateGenConfig::default(),
        );
        let b = random_update(
            &mut StdRng::seed_from_u64(3),
            &tree,
            &UpdateGenConfig::default(),
        );
        assert_eq!(a.pattern().to_string(), b.pattern().to_string());
        assert_eq!(a.operations().len(), b.operations().len());
        assert!((a.confidence() - b.confidence()).abs() < 1e-15);
    }
}
