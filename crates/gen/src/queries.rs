//! Random TPWJ query generation.

use pxml_query::{Axis, Pattern};
use pxml_tree::{NodeId, Tree};
use rand::Rng;

/// Parameters for random queries.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Number of pattern nodes (including the root).
    pub pattern_nodes: usize,
    /// Probability that an edge is a descendant edge rather than a child edge.
    pub descendant_probability: f64,
    /// Probability that a leaf pattern node carries a value test (only for
    /// document-derived queries, where the value is read off the document).
    pub value_probability: f64,
    /// Probability that the query carries one value join between two leaves.
    pub join_probability: f64,
    /// Probability that a pattern node is a wildcard instead of a label test.
    pub wildcard_probability: f64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            pattern_nodes: 3,
            descendant_probability: 0.3,
            value_probability: 0.2,
            join_probability: 0.0,
            wildcard_probability: 0.1,
        }
    }
}

/// Generates a query *derived from the document*: pattern nodes are sampled
/// from actual document paths, so the query is guaranteed to have at least
/// one match on `tree`.
pub fn derived_query(rng: &mut impl Rng, tree: &Tree, config: &QueryGenConfig) -> Pattern {
    let elements: Vec<NodeId> = tree
        .nodes()
        .into_iter()
        .filter(|&n| tree.is_element(n))
        .collect();
    // Seed the pattern at a random element that has element children if
    // possible (so that it can grow).
    let internal: Vec<NodeId> = elements
        .iter()
        .copied()
        .filter(|&n| tree.children(n).iter().any(|&c| tree.is_element(c)))
        .collect();
    let seed = if internal.is_empty() {
        elements[rng.gen_range(0..elements.len())]
    } else {
        internal[rng.gen_range(0..internal.len())]
    };
    let seed_label = tree
        .label(seed)
        .element_name()
        .unwrap_or("root")
        .to_string();
    let mut pattern = Pattern::element(&seed_label);
    // Track which document node each pattern node was sampled from.
    let mut images = vec![seed];
    let mut pattern_ids = vec![pattern.root()];

    while pattern.len() < config.pattern_nodes {
        // Pick an already-sampled pattern node whose image has element
        // children and extend below it.
        let candidates: Vec<usize> = (0..images.len())
            .filter(|&i| tree.children(images[i]).iter().any(|&c| tree.is_element(c)))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let parent_index = candidates[rng.gen_range(0..candidates.len())];
        let parent_image = images[parent_index];
        let element_children: Vec<NodeId> = tree
            .children(parent_image)
            .iter()
            .copied()
            .filter(|&c| tree.is_element(c))
            .collect();
        let child_image = element_children[rng.gen_range(0..element_children.len())];
        let axis = if rng.gen_bool(config.descendant_probability) {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let label = if rng.gen_bool(config.wildcard_probability) {
            None
        } else {
            tree.label(child_image).element_name()
        };
        let new_node = pattern.add_child(pattern_ids[parent_index], axis, label);
        // Optionally pin the node to its document value.
        if rng.gen_bool(config.value_probability) {
            if let Some(value) = tree.node_value(child_image) {
                pattern.set_value(new_node, value);
            }
        }
        images.push(child_image);
        pattern_ids.push(new_node);
    }

    // Optionally join two leaves that happen to share a value.
    if rng.gen_bool(config.join_probability) && pattern.len() >= 3 {
        let values: Vec<(usize, String)> = (1..images.len())
            .filter_map(|i| {
                tree.node_value(images[i])
                    .map(|value| (i, value.to_string()))
            })
            .collect();
        'outer: for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                if values[i].1 == values[j].1 {
                    let join = pattern.new_join("v");
                    pattern.join(pattern_ids[values[i].0], join);
                    pattern.join(pattern_ids[values[j].0], join);
                    break 'outer;
                }
            }
        }
    }
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::{random_tree, TreeGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn derived_queries_always_match() {
        let tree_config = TreeGenConfig::sized(120);
        let query_config = QueryGenConfig {
            pattern_nodes: 4,
            value_probability: 0.4,
            ..QueryGenConfig::default()
        };
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = random_tree(&mut rng, &tree_config);
            let query = derived_query(&mut rng, &tree, &query_config);
            assert!(query.validate().is_ok());
            assert!(
                !query.find_matches(&tree).is_empty(),
                "derived query {query} must match its source document (seed {seed})"
            );
        }
    }

    #[test]
    fn derived_queries_respect_size_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let tree = random_tree(&mut rng, &TreeGenConfig::sized(100));
        let config = QueryGenConfig {
            pattern_nodes: 5,
            ..QueryGenConfig::default()
        };
        let query = derived_query(&mut rng, &tree, &config);
        assert!(query.len() <= 5);
        assert!(!query.is_empty());
    }

    #[test]
    fn joins_are_only_added_when_values_coincide() {
        let mut rng = StdRng::seed_from_u64(8);
        let tree = random_tree(&mut rng, &TreeGenConfig::sized(150));
        let config = QueryGenConfig {
            pattern_nodes: 6,
            join_probability: 1.0,
            value_probability: 0.0,
            ..QueryGenConfig::default()
        };
        for _ in 0..10 {
            let query = derived_query(&mut rng, &tree, &config);
            // Whether or not a join got added, the query must stay valid and
            // matching.
            assert!(query.validate().is_ok());
            assert!(!query.find_matches(&tree).is_empty());
        }
    }
}
