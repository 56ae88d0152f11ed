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

/// Runs each module on its own thread, feeding its own warehouse document:
/// module `i` drains into `documents[i % documents.len()]`, one commit per
/// update. Because the engine locks per document, modules
/// writing to distinct documents genuinely run in parallel — no module ever
/// waits behind another module's commit (the paper's multi-module warehouse,
/// slide 3). Returns the number of updates pushed per module, in the given
/// module order; handing it modules without any documents to drain into is
/// an [`WarehouseError::EmptyDocumentSet`] error, never a silent no-op.
pub fn run_modules_parallel(
    warehouse: &Warehouse,
    documents: &[&str],
    mut modules: Vec<Box<dyn SourceModule + Send>>,
) -> Result<Vec<(String, usize)>, WarehouseError> {
    if modules.is_empty() {
        return Ok(Vec::new());
    }
    if documents.is_empty() {
        return Err(WarehouseError::EmptyDocumentSet);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = modules
            .drain(..)
            .enumerate()
            .map(|(index, mut module)| {
                let document = documents[index % documents.len()];
                scope.spawn(move || -> Result<(String, usize), WarehouseError> {
                    let mut pushed = 0usize;
                    while let Some(update) = module.next_update() {
                        warehouse.commit_batch(document, &[update], None)?;
                        pushed += 1;
                    }
                    Ok((module.name().to_string(), pushed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("module thread panicked"))
            .collect()
    })
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

    /// A module that refuses to produce its next update until its partner
    /// module (on the other thread) has arrived at the same round: a
    /// send-then-receive rendezvous per update. Two such modules make
    /// progress only if their threads run concurrently — a sequential runner
    /// trips the receive timeout.
    struct RendezvousModule {
        name: String,
        to_partner: std::sync::mpsc::Sender<usize>,
        from_partner: std::sync::mpsc::Receiver<usize>,
        round: usize,
        rounds: usize,
    }

    impl SourceModule for RendezvousModule {
        fn name(&self) -> &str {
            &self.name
        }

        fn next_update(&mut self) -> Option<UpdateTransaction> {
            if self.round == self.rounds {
                return None;
            }
            self.to_partner.send(self.round).unwrap();
            let partner_round = self
                .from_partner
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect(
                    "partner module never reached this round: modules are not running in parallel",
                );
            assert_eq!(partner_round, self.round);
            self.round += 1;
            let pattern = pxml_query::Pattern::parse("person { name[=\"alice-0\"] }").unwrap();
            let target = pattern.root();
            let mut phone = pxml_tree::Tree::new("phone");
            phone.add_text(phone.root(), format!("+33-{}", self.round));
            Some(
                UpdateTransaction::new(pattern, 0.8)
                    .unwrap()
                    .with_insert(target, phone),
            )
        }
    }

    /// Module threads demonstrably run in parallel: each module's updates
    /// rendezvous with the other module's, round by round, across two
    /// documents — impossible unless both module threads are live at once.
    #[test]
    fn parallel_modules_run_concurrently_on_distinct_documents() {
        let dir = scratch("parallel-modules");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        let config = PeopleScenarioConfig {
            people: 1,
            ..PeopleScenarioConfig::default()
        };
        warehouse
            .create_document("a", people_directory(&config))
            .unwrap();
        warehouse
            .create_document("b", people_directory(&config))
            .unwrap();

        let (a_to_b, b_from_a) = std::sync::mpsc::channel();
        let (b_to_a, a_from_b) = std::sync::mpsc::channel();
        let rounds = 3;
        let modules: Vec<Box<dyn SourceModule + Send>> = vec![
            Box::new(RendezvousModule {
                name: "left".into(),
                to_partner: a_to_b,
                from_partner: a_from_b,
                round: 0,
                rounds,
            }),
            Box::new(RendezvousModule {
                name: "right".into(),
                to_partner: b_to_a,
                from_partner: b_from_a,
                round: 0,
                rounds,
            }),
        ];
        let pushed = run_modules_parallel(&warehouse, &["a", "b"], modules).unwrap();
        assert_eq!(
            pushed,
            vec![("left".to_string(), rounds), ("right".to_string(), rounds)]
        );
        let phones = Pattern::parse("person { phone }").unwrap();
        assert_eq!(warehouse.query("a", &phones).unwrap().len(), rounds);
        assert_eq!(warehouse.query("b", &phones).unwrap().len(), rounds);
        assert_eq!(warehouse.stats().updates_applied, 2 * rounds);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// No documents + live modules is a hard error (the modules' updates
    /// must never be silently discarded); no modules is a clean no-op.
    #[test]
    fn parallel_runner_rejects_an_empty_document_set() {
        let dir = scratch("empty-documents");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        let modules: Vec<Box<dyn SourceModule + Send>> =
            vec![Box::new(ExtractionModule::new("ie", 1, 4, 5, 0.9))];
        assert!(matches!(
            run_modules_parallel(&warehouse, &[], modules),
            Err(WarehouseError::EmptyDocumentSet)
        ));
        assert_eq!(
            run_modules_parallel(&warehouse, &[], Vec::new()).unwrap(),
            Vec::new()
        );
        assert_eq!(warehouse.stats().updates_applied, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The parallel runner distributes modules round-robin when there are
    /// more modules than documents, and the per-document results match the
    /// modules' own counts.
    #[test]
    fn parallel_modules_share_documents_round_robin() {
        let dir = scratch("parallel-round-robin");
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        let people = 6;
        let config = PeopleScenarioConfig {
            people,
            ..PeopleScenarioConfig::default()
        };
        warehouse
            .create_document("a", people_directory(&config))
            .unwrap();
        warehouse
            .create_document("b", people_directory(&config))
            .unwrap();
        let modules: Vec<Box<dyn SourceModule + Send>> = vec![
            Box::new(ExtractionModule::new("ie-1", 20, people, 8, 0.9)),
            Box::new(ExtractionModule::new("ie-2", 21, people, 8, 0.7)),
            Box::new(DataCleaningModule::new("clean", 22, people, 6)),
        ];
        let pushed = run_modules_parallel(&warehouse, &["a", "b"], modules).unwrap();
        assert_eq!(pushed.len(), 3);
        let total: usize = pushed.iter().map(|(_, count)| count).sum();
        assert!(total > 0);
        assert_eq!(warehouse.stats().updates_applied, total);
        for name in ["a", "b"] {
            assert!(warehouse.snapshot(name).unwrap().fuzzy().validate().is_ok());
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
