//! Simulated imprecise source modules.
//!
//! The paper's warehouse is fed by modules whose output is inherently
//! imprecise — information extraction, natural-language processing, data
//! cleaning, schema matching (slide 2). Those pipelines are not available, so
//! this module simulates them: each [`SourceModule`] produces a stream of
//! probabilistic update transactions with confidences drawn from its own
//! quality profile. The warehouse code path exercised is identical to the one
//! a real extractor would use: *update transaction + confidence in, fuzzy
//! tree mutation out*.

use pxml_core::UpdateTransaction;
use pxml_gen::scenarios::{extraction_update, ExtractionKind, PeopleScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::warehouse::{Warehouse, WarehouseError};

/// A source of probabilistic updates feeding the warehouse.
pub trait SourceModule {
    /// Human-readable module name (shown in statistics).
    fn name(&self) -> &str;
    /// Produces the next update transaction, if the module has more to say.
    fn next_update(&mut self) -> Option<UpdateTransaction>;
}

/// A simulated information-extraction / NLP module: it emits insertions of
/// phone numbers, e-mail addresses and cities for the people of the scenario
/// directory, with confidences reflecting the module's quality.
pub struct ExtractionModule {
    name: String,
    rng: StdRng,
    config: PeopleScenarioConfig,
    remaining: usize,
}

impl ExtractionModule {
    /// Creates a module emitting `updates` transactions, seeded for
    /// reproducibility. `quality` in `[0, 1]` shifts the confidence range
    /// (a 0.9-quality extractor is right far more often than a 0.5 one).
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        people: usize,
        updates: usize,
        quality: f64,
    ) -> Self {
        let quality = quality.clamp(0.05, 1.0);
        ExtractionModule {
            name: name.into(),
            rng: StdRng::seed_from_u64(seed),
            config: PeopleScenarioConfig {
                people,
                min_confidence: (0.4 * quality).max(0.05),
                max_confidence: quality.max(0.1),
            },
            remaining: updates,
        }
    }
}

impl SourceModule for ExtractionModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_update(&mut self) -> Option<UpdateTransaction> {
        while self.remaining > 0 {
            self.remaining -= 1;
            let (update, kind) = extraction_update(&mut self.rng, &self.config);
            // Extraction modules only insert; retractions belong to the
            // data-cleaning module.
            if kind != ExtractionKind::RetractPhones {
                return Some(update);
            }
        }
        None
    }
}

/// A simulated data-cleaning module: it emits retractions (deletions) of
/// previously extracted phone numbers.
pub struct DataCleaningModule {
    name: String,
    rng: StdRng,
    config: PeopleScenarioConfig,
    remaining: usize,
}

impl DataCleaningModule {
    /// Creates a cleaning module emitting `updates` retraction transactions.
    pub fn new(name: impl Into<String>, seed: u64, people: usize, updates: usize) -> Self {
        DataCleaningModule {
            name: name.into(),
            rng: StdRng::seed_from_u64(seed),
            config: PeopleScenarioConfig {
                people,
                min_confidence: 0.6,
                max_confidence: 0.95,
            },
            remaining: updates,
        }
    }
}

impl SourceModule for DataCleaningModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_update(&mut self) -> Option<UpdateTransaction> {
        while self.remaining > 0 {
            self.remaining -= 1;
            let (update, kind) = extraction_update(&mut self.rng, &self.config);
            if kind == ExtractionKind::RetractPhones {
                return Some(update);
            }
        }
        None
    }
}

/// Drains a set of modules round-robin into a warehouse document: each round
/// takes one update per module and commits them atomically as one batch.
/// Returns the number of updates pushed per module (by module name, in the
/// given order).
pub fn run_modules(
    warehouse: &Warehouse,
    document: &str,
    modules: &mut [Box<dyn SourceModule>],
) -> Result<Vec<(String, usize)>, WarehouseError> {
    let mut pushed = vec![0usize; modules.len()];
    loop {
        let mut batch: Vec<UpdateTransaction> = Vec::new();
        let mut staged_by: Vec<usize> = Vec::new();
        for (index, module) in modules.iter_mut().enumerate() {
            if let Some(update) = module.next_update() {
                batch.push(update);
                staged_by.push(index);
            }
        }
        if batch.is_empty() {
            break;
        }
        warehouse.commit_batch(document, &batch, None)?;
        for index in staged_by {
            pushed[index] += 1;
        }
    }
    Ok(modules
        .iter()
        .zip(pushed)
        .map(|(module, count)| (module.name().to_string(), count))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use pxml_gen::scenarios::people_directory;
    use pxml_query::Pattern;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn scratch(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pxml-modules-test-{}-{}-{}",
            std::process::id(),
            label,
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ))
    }

    #[test]
    fn extraction_module_emits_the_requested_number_of_insertions() {
        let mut module = ExtractionModule::new("ie", 1, 10, 20, 0.9);
        let mut count = 0;
        while let Some(update) = module.next_update() {
            assert!(!update.operations().is_empty());
            assert!(update.confidence() <= 0.9 + 1e-12);
            count += 1;
        }
        assert!(count > 0);
        assert!(count <= 20);
        assert_eq!(module.name(), "ie");
    }

    #[test]
    fn cleaning_module_only_retracts() {
        let mut module = DataCleaningModule::new("clean", 2, 10, 40);
        while let Some(update) = module.next_update() {
            assert!(update
                .operations()
                .iter()
                .all(|op| matches!(op, pxml_core::UpdateOperation::Delete { .. })));
        }
    }

    #[test]
    fn modules_feed_the_warehouse_end_to_end() {
        let dir = scratch("end-to-end");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        let people = 8;
        warehouse
            .create_document(
                "people",
                people_directory(&PeopleScenarioConfig {
                    people,
                    ..PeopleScenarioConfig::default()
                }),
            )
            .unwrap();
        let mut modules: Vec<Box<dyn SourceModule>> = vec![
            Box::new(ExtractionModule::new("ie-web", 10, people, 15, 0.9)),
            Box::new(ExtractionModule::new("nlp", 11, people, 15, 0.6)),
            Box::new(DataCleaningModule::new("cleaner", 12, people, 10)),
        ];
        let pushed = run_modules(&warehouse, "people", &mut modules).unwrap();
        assert_eq!(pushed.len(), 3);
        let total: usize = pushed.iter().map(|(_, count)| count).sum();
        assert!(total > 0);
        assert_eq!(warehouse.stats().updates_applied, total);

        // The document is still a valid fuzzy tree and queries answer with
        // probabilities strictly between 0 and 1 for extracted facts.
        let snapshot = warehouse.snapshot("people").unwrap();
        assert!(snapshot.fuzzy().validate().is_ok());
        let phones = Pattern::parse("person { phone }").unwrap();
        let result = warehouse.query("people", &phones).unwrap();
        for m in &result.matches {
            assert!(m.probability > 0.0 && m.probability <= 1.0);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
