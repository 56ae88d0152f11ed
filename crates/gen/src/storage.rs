//! Seeded storage workloads: deterministic streams of committed batches.
//!
//! A store's commit cost is a property of its *journal shape* — how many
//! batches it has accumulated — not of the batches' content, so a writer
//! that has `count` commits to make (harness experiments E14 and E15) takes
//! them from this stream.

use pxml_core::UpdateTransaction;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenarios::{extraction_update, PeopleScenarioConfig};

/// A deterministic stream of committed transaction batches against the
/// people-directory scenario: `count` batches of `updates_per_batch`
/// extraction-style updates each.
pub fn journal_batches(
    seed: u64,
    count: usize,
    updates_per_batch: usize,
    config: &PeopleScenarioConfig,
) -> Vec<Vec<UpdateTransaction>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..updates_per_batch)
                .map(|_| extraction_update(&mut rng, config).0)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_sized() {
        let config = PeopleScenarioConfig::default();
        let a = journal_batches(7, 5, 2, &config);
        let b = journal_batches(7, 5, 2, &config);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|batch| batch.len() == 2));
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.pattern().to_string(), y.pattern().to_string());
            assert_eq!(x.confidence(), y.confidence());
        }
        // A different seed diverges somewhere in the stream.
        let c = journal_batches(8, 5, 2, &config);
        assert!(
            a.iter()
                .flatten()
                .zip(c.iter().flatten())
                .any(|(x, y)| x.pattern().to_string() != y.pattern().to_string()
                    || x.confidence() != y.confidence()),
            "distinct seeds must produce distinct streams"
        );
    }
}
