//! # pxml-core
//!
//! The probabilistic XML models of *Querying and Updating Probabilistic
//! Information in XML* (Abiteboul & Senellart, EDBT 2006): the
//! **possible-worlds model** (the semantic foundation) and the **fuzzy-tree
//! model** (the compact representation actually stored and updated), together
//! with query and probabilistic-update semantics on both and the translations
//! between them.
//!
//! The crate is organised around the paper's sections:
//!
//! | Paper | Module |
//! |---|---|
//! | Possible-worlds model, normalisation, query/update semantic foundation (slides 9–10) | [`worlds`] |
//! | Fuzzy trees and their possible-worlds semantics (slide 12) | [`fuzzy`] |
//! | Queries on fuzzy trees and the query commutation theorem (slide 13) | [`fuzzy_query`] |
//! | Probabilistic update transactions on both models, conditional replacement, deletion-induced duplication (slides 14–15) | [`update`] |
//! | Expressiveness: encoding any possible-worlds set as a fuzzy tree (slide 12 theorem) | [`encode`] |
//! | Fuzzy-data simplification (slide 19 perspective) | [`simplify`] |
//!
//! ## The slide-12 example
//!
//! ```
//! use pxml_core::FuzzyTree;
//! use pxml_event::{Condition, Literal};
//!
//! let mut fuzzy = FuzzyTree::new("A");
//! let w1 = fuzzy.add_event("w1", 0.8).unwrap();
//! let w2 = fuzzy.add_event("w2", 0.7).unwrap();
//! let root = fuzzy.root();
//! let b = fuzzy.add_element(root, "B");
//! fuzzy.set_condition(b, Condition::from_literals([Literal::pos(w1), Literal::neg(w2)])).unwrap();
//! fuzzy.add_element(root, "C");
//! let d = fuzzy.add_element(root, "D");
//! fuzzy.set_condition(d, Condition::from_literal(Literal::pos(w2))).unwrap();
//!
//! let worlds = fuzzy.to_possible_worlds().unwrap();
//! assert_eq!(worlds.len(), 3);                       // {A,C}, {A,C,D}, {A,B,C}
//! assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
//! ```

pub mod encode;
pub mod error;
pub mod fuzzy;
pub mod fuzzy_query;
pub mod simplify;
pub mod txn;
pub mod update;
pub mod worlds;

pub use encode::encode_possible_worlds;
pub use error::CoreError;
pub use fuzzy::FuzzyTree;
pub use fuzzy_query::{FuzzyQueryResult, ProbabilisticMatch};
pub use simplify::{Simplifier, SimplifyPolicy, SimplifyReport};
pub use txn::{apply_batch, BatchStats};
pub use update::{UpdateOperation, UpdateStats, UpdateTransaction};
pub use worlds::PossibleWorlds;
