//! Update batches: the atomic [`apply_batch`] pipeline the warehouse commits
//! through, and the [`BatchStats`] it reports.
//!
//! The paper's update interface (slide 3) hands the warehouse *(update
//! transaction, confidence)* pairs; a commit is a sequence of them applied to
//! one document. [`apply_batch`] applies such a sequence through the
//! policy-aware pipeline to a copy-on-write clone of the base document, with
//! all-or-nothing semantics: when any transaction fails, the error comes back
//! and the base is exactly as it was.
//!
//! ```
//! use pxml_core::{apply_batch, FuzzyTree, SimplifyPolicy, UpdateTransaction};
//! use pxml_query::Pattern;
//! use pxml_tree::parse_data_tree;
//!
//! let base = FuzzyTree::from_tree(parse_data_tree("<person><name>alice</name></person>").unwrap());
//! let pattern = Pattern::parse("person { name }").unwrap();
//! let person = pattern.root();
//! let phone = UpdateTransaction::new(pattern, 0.8)
//!     .unwrap()
//!     .with_insert(person, parse_data_tree("<phone>+33-1</phone>").unwrap());
//!
//! let (updated, stats) = apply_batch(&base, &[phone], SimplifyPolicy::Inline).unwrap();
//! assert_eq!(stats.updates[0].applied_matches, 1);
//! assert_eq!(updated.tree().find_elements("phone").len(), 1);
//! assert!(base.tree().find_elements("phone").is_empty());
//! ```

use crate::error::CoreError;
use crate::fuzzy::FuzzyTree;
use crate::simplify::SimplifyPolicy;
use crate::update::{UpdateStats, UpdateTransaction};

/// The per-update statistics of one [`apply_batch`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// One entry per transaction of the batch, in application order.
    pub updates: Vec<UpdateStats>,
}

impl BatchStats {
    /// Number of transactions applied.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// Applies a batch of update transactions to a copy-on-write clone of `base`
/// through the policy-aware pipeline and returns the resulting document with
/// the per-update statistics. Atomic with respect to `base`, which is only
/// read: either every transaction applies (in order) to the clone, or the
/// first error is returned and the clone is dropped.
pub fn apply_batch(
    base: &FuzzyTree,
    batch: &[UpdateTransaction],
    policy: SimplifyPolicy,
) -> Result<(FuzzyTree, BatchStats), CoreError> {
    let mut working = base.clone();
    let mut stats = BatchStats::default();
    for update in batch {
        stats
            .updates
            .push(update.apply_to_fuzzy_with(&mut working, policy)?);
    }
    Ok((working, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy::slide12_example;
    use pxml_query::Pattern;
    use pxml_tree::parse_data_tree;

    fn insert_e() -> UpdateTransaction {
        let pattern = Pattern::parse("A { D }").unwrap();
        let target = pattern.root();
        UpdateTransaction::new(pattern, 0.6)
            .unwrap()
            .with_insert(target, parse_data_tree("<E/>").unwrap())
    }

    fn delete_b() -> UpdateTransaction {
        let pattern = Pattern::parse("A { B }").unwrap();
        let b = pattern.node_ids().nth(1).unwrap();
        UpdateTransaction::new(pattern, 0.5).unwrap().with_delete(b)
    }

    #[test]
    fn batch_equals_sequential_application() {
        let updates = vec![insert_e(), delete_b()];
        let (batched, stats) =
            apply_batch(&slide12_example(), &updates, SimplifyPolicy::Never).unwrap();
        assert_eq!(stats.len(), 2);

        let mut sequential = slide12_example();
        for update in &updates {
            update.apply_to_fuzzy(&mut sequential).unwrap();
        }
        assert!(batched.semantically_equivalent(&sequential, 1e-9).unwrap());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let base = slide12_example();
        let (fuzzy, stats) = apply_batch(&base, &[], SimplifyPolicy::Inline).unwrap();
        assert!(stats.is_empty());
        assert!(fuzzy.semantically_equivalent(&base, 1e-9).unwrap());
    }

    #[test]
    fn inline_policy_simplifies_every_update() {
        let updates = vec![delete_b()];
        let (fuzzy, stats) =
            apply_batch(&slide12_example(), &updates, SimplifyPolicy::Inline).unwrap();
        assert!(stats.updates[0].simplify.is_some());
        assert!(fuzzy.validate().is_ok());
    }
}
