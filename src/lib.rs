//! # pxml — probabilistic XML
//!
//! A Rust implementation of *Querying and Updating Probabilistic Information
//! in XML* (Abiteboul & Senellart, EDBT 2006): the possible-worlds and
//! fuzzy-tree models for imprecise semi-structured data, tree-pattern-with-
//! join queries, probabilistic update transactions, fuzzy-data
//! simplification, and a file-backed probabilistic XML warehouse fed by
//! imprecise source modules.
//!
//! This crate is a thin facade re-exporting the workspace crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tree`] | `pxml-tree` | unordered data trees, XML parsing/serialization |
//! | [`event`] | `pxml-event` | probabilistic events, conditions, formulas |
//! | [`query`] | `pxml-query` | TPWJ queries: syntax, matcher, answers |
//! | [`core`] | `pxml-core` | possible worlds, fuzzy trees, updates, batches, simplification |
//! | [`store`] | `pxml-store` | `StorageBackend` trait, PrXML format, segment-journal `FsBackend`, `MemBackend` |
//! | [`warehouse`] | `pxml-warehouse` | the `Warehouse` engine, its configuration, source modules |
//! | [`gen`] | `pxml-gen` | seeded workload generators |
//!
//! ## Quickstart: the warehouse
//!
//! The paper's architecture (slide 3) gives the warehouse two doors, and
//! [`Warehouse`](prelude::Warehouse) is both: *(update transaction,
//! confidence)* in through
//! [`commit_batch`](prelude::Warehouse::commit_batch) — the batch applies
//! through the policy-aware pipeline (inline simplification by default),
//! lands in the journal as one atomic entry, and is replayed by crash
//! recovery — and *query → answers + confidence* out through
//! [`query`](prelude::Warehouse::query).
//!
//! ```
//! use pxml::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("pxml-doc-quickstart-{}", std::process::id()));
//! let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
//! warehouse
//!     .create_document(
//!         "people",
//!         parse_data_tree("<directory><person><name>alice</name></person></directory>").unwrap(),
//!     )
//!     .unwrap();
//!
//! // An extraction module reports a phone number (confidence 0.8) and an
//! // e-mail address (confidence 0.6); both land in one atomic batch.
//! let alice = Pattern::parse("person { name[=\"alice\"] }").unwrap();
//! let person = alice.root();
//! let phone = UpdateTransaction::new(alice.clone(), 0.8)
//!     .unwrap()
//!     .with_insert(person, parse_data_tree("<phone>+33-1</phone>").unwrap());
//! let email = UpdateTransaction::new(alice, 0.6)
//!     .unwrap()
//!     .with_insert(person, parse_data_tree("<email>a@example.org</email>").unwrap());
//! let receipt = warehouse.commit_batch("people", &[phone, email], None).unwrap();
//! assert_eq!(receipt.len(), 2);
//!
//! // Query: answers carry probabilities.
//! let result = warehouse
//!     .query("people", &Pattern::parse("person { phone }").unwrap())
//!     .unwrap();
//! assert!((result.matches[0].probability - 0.8).abs() < 1e-12);
//! # drop(warehouse); let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! The model layer stays available for in-memory work — build a
//! [`FuzzyTree`](prelude::FuzzyTree), query it, expand it to possible worlds
//! — exactly as in the paper's examples (see `examples/quickstart.rs`).
//!
//! Storage is pluggable:
//! [`Warehouse::with_config`](prelude::Warehouse::with_config) keeps the
//! one-line file-backed default ([`FsBackend`](prelude::FsBackend), an
//! append-only segment journal with O(batch) commits), while
//! [`Warehouse::with_backend`](prelude::Warehouse::with_backend) accepts any
//! [`StorageBackend`](prelude::StorageBackend) — e.g. the in-memory
//! [`MemBackend`](prelude::MemBackend). See the README's "Storage
//! architecture" section for the on-disk format.

pub use pxml_core as core;
pub use pxml_event as event;
pub use pxml_gen as gen;
pub use pxml_query as query;
pub use pxml_store as store;
pub use pxml_tree as tree;
pub use pxml_warehouse as warehouse;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use pxml_core::{
        apply_batch, encode_possible_worlds, BatchStats, CoreError, FuzzyQueryResult, FuzzyTree,
        PossibleWorlds, ProbabilisticMatch, Simplifier, SimplifyPolicy, SimplifyReport,
        UpdateOperation, UpdateStats, UpdateTransaction,
    };
    pub use pxml_event::{
        Bdd, BddRef, Condition, EventId, EventTable, Formula, Literal, Valuation,
    };
    pub use pxml_query::{Axis, Pattern, QueryAnswers};
    pub use pxml_store::{CommitPolicy, FsBackend, FsOptions, MemBackend, StorageBackend};
    pub use pxml_tree::{parse_data_tree, write_data_tree, Label, NodeId, Tree};
    pub use pxml_warehouse::{
        AsyncCommit, CompactionPolicy, DocSnapshot, SessionConfig, Warehouse,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable() {
        let tree = parse_data_tree("<a><b>1</b></a>").unwrap();
        let fuzzy = FuzzyTree::from_tree(tree);
        let query = Pattern::parse("a { b }").unwrap();
        assert_eq!(fuzzy.query(&query).len(), 1);
    }

    #[test]
    fn session_types_are_in_the_prelude() {
        let dir = std::env::temp_dir().join(format!("pxml-facade-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let warehouse = Warehouse::with_config(&dir, SessionConfig::default()).unwrap();
        warehouse
            .create_document("doc", parse_data_tree("<r><a/></r>").unwrap())
            .unwrap();
        let pattern = Pattern::parse("r { a }").unwrap();
        let target = pattern.root();
        let insert = UpdateTransaction::new(pattern, 0.5)
            .unwrap()
            .with_insert(target, parse_data_tree("<b/>").unwrap());
        let receipt = warehouse.commit_batch("doc", &[insert], None).unwrap();
        assert_eq!(receipt.len(), 1);
        let inserted = Pattern::parse("r { b }").unwrap();
        assert_eq!(warehouse.query("doc", &inserted).unwrap().len(), 1);
        drop(warehouse);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
