//! # pxml-gen
//!
//! Seeded workload generators for probabilistic XML.
//!
//! The paper's warehouse is fed by imprecise modules — information
//! extraction, natural-language processing, data cleaning, schema matching —
//! for which no public corpus exists. This crate provides the synthetic
//! equivalents used by the benchmarks, examples and property-based tests:
//!
//! * [`trees`] — random data trees with a configurable shape (fanout, depth,
//!   label/value alphabets);
//! * [`fuzzy`] — random fuzzy trees: a random tree plus random event
//!   conditions of configurable density;
//! * [`queries`] — random TPWJ queries, either fully random or *derived from
//!   a document* so that they are guaranteed to match;
//! * [`updates`] — random probabilistic update transactions (insertions and
//!   deletions anchored at randomly chosen pattern targets);
//! * [`scenarios`] — the "people directory" scenario used by the warehouse
//!   examples: documents that look like the output of an information
//!   extraction pipeline, and streams of extraction-style updates with
//!   confidences;
//! * [`storage`] — deterministic committed-batch streams: the commits the
//!   writers of harness experiments E14 and E15 make.
//!
//! Every generator takes an explicit [`rand::Rng`] (or derives one from a
//! seed), so workloads are reproducible.

pub mod fuzzy;
pub mod queries;
pub mod scenarios;
pub mod storage;
pub mod trees;
pub mod updates;

pub use fuzzy::{random_fuzzy_tree, FuzzyGenConfig};
pub use queries::{derived_query, random_query, QueryGenConfig};
pub use scenarios::{
    extraction_update, people_directory, uncertain_directory, PeopleScenarioConfig,
};
pub use storage::journal_batches;
pub use trees::{random_tree, TreeGenConfig};
pub use updates::{random_update, UpdateGenConfig};
