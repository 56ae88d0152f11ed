//! Random data-tree generation.

use pxml_tree::{NodeId, Tree};
use rand::Rng;

/// Shape parameters for random data trees.
#[derive(Debug, Clone)]
pub struct TreeGenConfig {
    /// Target number of element nodes (the generator stops adding elements
    /// once reached, so the final count is close to but never above it,
    /// excluding text nodes).
    pub target_elements: usize,
    /// Maximum depth of element nodes.
    pub max_depth: usize,
    /// Maximum number of element children per node.
    pub max_fanout: usize,
    /// Element names to draw from.
    pub labels: Vec<String>,
    /// Text values to draw from.
    pub values: Vec<String>,
    /// Probability that a leaf element receives a text child.
    pub text_probability: f64,
}

impl Default for TreeGenConfig {
    fn default() -> Self {
        TreeGenConfig {
            target_elements: 100,
            max_depth: 6,
            max_fanout: 5,
            labels: ["a", "b", "c", "d", "item", "name", "value", "entry"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            values: ["1", "2", "3", "x", "y", "z", "foo", "bar"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            text_probability: 0.5,
        }
    }
}

impl TreeGenConfig {
    /// A configuration producing roughly `target_elements` element nodes.
    ///
    /// Depth and fanout scale with the target so that large documents are
    /// actually reachable (a depth-6 / fanout-5 tree caps out below 20 000
    /// nodes).
    pub fn sized(target_elements: usize) -> Self {
        let (max_depth, max_fanout) = if target_elements <= 2_000 {
            (6, 5)
        } else if target_elements <= 20_000 {
            (8, 6)
        } else {
            (10, 8)
        };
        TreeGenConfig {
            target_elements,
            max_depth,
            max_fanout,
            ..TreeGenConfig::default()
        }
    }
}

/// Generates a random data tree.
pub fn random_tree(rng: &mut impl Rng, config: &TreeGenConfig) -> Tree {
    let mut tree = Tree::new("root");
    let mut elements = 1usize;
    // Frontier of nodes that may still receive children, with their depth.
    let mut frontier: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
    while elements < config.target_elements && !frontier.is_empty() {
        let slot = rng.gen_range(0..frontier.len());
        let (parent, depth) = frontier[slot];
        let fanout = rng.gen_range(1..=config.max_fanout.max(1));
        for _ in 0..fanout {
            if elements >= config.target_elements {
                break;
            }
            let label = &config.labels[rng.gen_range(0..config.labels.len())];
            let child = tree.add_element(parent, label.clone());
            elements += 1;
            if depth + 1 < config.max_depth {
                frontier.push((child, depth + 1));
            }
        }
        frontier.swap_remove(slot);
    }
    // Give leaf elements a text value with the configured probability, so
    // that value tests and joins have something to bite on.
    for node in tree.nodes() {
        if tree.is_element(node) && tree.is_leaf(node) && rng.gen_bool(config.text_probability) {
            let value = &config.values[rng.gen_range(0..config.values.len())];
            tree.add_text(node, value.clone());
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_trees_are_valid_and_bounded() {
        let config = TreeGenConfig::sized(200);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = random_tree(&mut rng, &config);
            assert!(tree.validate().is_ok());
            assert!(tree.check_storable(|_, _| false).is_ok());
            let elements = tree
                .nodes()
                .into_iter()
                .filter(|&n| tree.is_element(n))
                .count();
            assert!(elements <= 200, "element count {elements} exceeds target");
            assert!(elements > 10, "tree is unexpectedly small: {elements}");
            assert!(tree.height() <= config.max_depth + 1);
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let config = TreeGenConfig::default();
        let a = random_tree(&mut StdRng::seed_from_u64(42), &config);
        let b = random_tree(&mut StdRng::seed_from_u64(42), &config);
        assert!(a.isomorphic(&b));
        let c = random_tree(&mut StdRng::seed_from_u64(43), &config);
        // Different seeds almost surely differ.
        assert!(!a.isomorphic(&c));
    }

    #[test]
    fn labels_come_from_the_alphabet() {
        let config = TreeGenConfig {
            labels: vec!["only".to_string()],
            ..TreeGenConfig::sized(30)
        };
        let tree = random_tree(&mut StdRng::seed_from_u64(1), &config);
        for node in tree.nodes() {
            if let Some(name) = tree.label(node).element_name() {
                assert!(name == "only" || name == "root");
            }
        }
    }

    #[test]
    fn tiny_target_produces_tiny_tree() {
        let config = TreeGenConfig::sized(1);
        let tree = random_tree(&mut StdRng::seed_from_u64(7), &config);
        assert_eq!(
            tree.nodes()
                .into_iter()
                .filter(|&n| tree.is_element(n))
                .count(),
            1
        );
    }
}
