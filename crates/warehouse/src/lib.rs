//! # pxml-warehouse
//!
//! The probabilistic XML warehouse of the paper's architecture (slide 3):
//! imprecise modules push **update transactions with confidences** into a
//! shared store of probabilistic XML documents; users run **tree-pattern
//! queries** against it and get answers with probabilities.
//!
//! * [`warehouse`] — [`Warehouse`], the one engine API: open it over a
//!   directory ([`Warehouse::with_config`]) or a storage backend
//!   ([`Warehouse::with_backend`]), name documents by string, commit batches
//!   of [`pxml_core::UpdateTransaction`]s atomically
//!   ([`Warehouse::commit_batch`]: apply → journal → swap, rollback on error,
//!   crash recovery by replay) and query pinned snapshots
//!   ([`Warehouse::query`]). Sharded and per-document-locked: commits to
//!   distinct documents run in parallel and queries never block (see the
//!   module docs for the full concurrency model);
//! * [`session`] — [`SessionConfig`] and [`CompactionPolicy`], the
//!   configuration a warehouse is opened under;
//! * [`modules`] — simulated imprecise source modules (information
//!   extraction, NLP, data cleaning) standing in for the pipelines the paper
//!   plugs into the warehouse.
//!
//! To run the warehouse as a long-lived multi-tenant *service* instead of
//! embedding it, see the `pxml-server` crate and the README's "Serving"
//! section (wire format, tenant model, admission control, runbook): it
//! fronts one [`Warehouse`] per tenant over a length-prefixed TCP
//! protocol, and [`Warehouse::group_barrier`] is the drain hook its
//! eviction and graceful shutdown paths use.
//!
//! ```no_run
//! use pxml_core::UpdateTransaction;
//! use pxml_query::Pattern;
//! use pxml_tree::parse_data_tree;
//! use pxml_warehouse::{SessionConfig, Warehouse};
//!
//! let warehouse = Warehouse::with_config("/tmp/pxml-wh", SessionConfig::default()).unwrap();
//! warehouse
//!     .create_document(
//!         "people",
//!         parse_data_tree("<directory><person><name>alice</name></person></directory>").unwrap(),
//!     )
//!     .unwrap();
//!
//! // Two probabilistic updates, committed as one atomic batch.
//! let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
//! let person = pattern.root();
//! let phone = UpdateTransaction::new(pattern.clone(), 0.8)
//!     .unwrap()
//!     .with_insert(person, parse_data_tree("<phone>+33-1</phone>").unwrap());
//! let email = UpdateTransaction::new(pattern, 0.6)
//!     .unwrap()
//!     .with_insert(person, parse_data_tree("<email>a@example.org</email>").unwrap());
//! let receipt = warehouse.commit_batch("people", &[phone, email], None).unwrap();
//! assert_eq!(receipt.len(), 2);
//!
//! let answers = warehouse
//!     .query("people", &Pattern::parse("person { phone }").unwrap())
//!     .unwrap();
//! assert_eq!(answers.len(), 1);
//! ```

pub mod modules;
pub mod session;
pub mod warehouse;

pub use modules::{run_modules, DataCleaningModule, ExtractionModule, SourceModule};
pub use pxml_store::CommitPolicy;
pub use session::{CompactionPolicy, SessionConfig};
pub use warehouse::{
    AsyncCommit, DocSnapshot, MergedQuery, Warehouse, WarehouseError, WarehouseStats,
};
