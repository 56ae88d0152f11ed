//! Concurrency correctness tooling for the probabilistic XML warehouse.
//!
//! Three independent prongs, one goal: make the engine's locking and
//! group-commit protocols *checkable* instead of merely documented.
//!
//! - [`lint`] — a lexical invariant linter (`cargo run -p pxml-check --bin
//!   lint`) that fails the build when code bypasses the instrumented lock
//!   shim, unwraps under a lock guard, constructs a lock without a witness
//!   class, reads a protocol atomic with relaxed ordering, or codes a journal
//!   record's bytes outside the store's `journal.rs`.
//! - [`model`] + [`loom`] — a hand-rolled stateless model checker ("mini
//!   loom") that exhaustively explores every bounded interleaving of a
//!   faithful [`model`] of the store's group committer and asserts the
//!   durability contract at every reachable state.
//! - the **lock-order witness** lives in `shims/parking_lot` behind the
//!   `lock-witness` feature; this crate's `tests/lockdep.rs` proves the
//!   witness actually catches ABBA deadlocks and declared-order inversions.
//!
//! None of this is wired into the hot path: the witness compiles to
//! nothing without its feature, the model checker runs against a model, and
//! the linter reads source text. See README § "Concurrency correctness".

pub mod lint;
pub mod loom;
pub mod model;
