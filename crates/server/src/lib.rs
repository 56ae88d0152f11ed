//! `pxml-server`: a long-running multi-tenant warehouse server over
//! hand-rolled length-prefixed TCP framing, plus the matching
//! `pxml-client` module.
//!
//! The paper's warehouse scenario is a *service*: many clients issue
//! probabilistic queries and confidence-weighted updates against shared
//! XML documents, and the engine reconciles them transactionally. This
//! crate is that wire front-end over the engine built in
//! [`pxml_warehouse`]:
//!
//! - **Framing** ([`frame`]): `[len u32][tag u8][tlen u8][tenant][payload]`
//!   request frames, `[len u32][tag u8][payload]` responses; verbs `open`,
//!   `query`, `commit` (sync + async over the group-commit pipeline),
//!   `snapshot` (MVCC pin — reads never block writers), `stats`, `close`.
//! - **Server** ([`server`]): thread-per-connection over `std::net`,
//!   per-tenant [`pxml_warehouse::Warehouse`] isolation with lazy open and
//!   LRU eviction, admission control with typed `Busy` shedding, and
//!   graceful shutdown that drains every tenant's group-commit windows.
//! - **Client** ([`client`]): the blocking [`Client`] the test suites and
//!   the harness's E17 request-rate sweep drive the server with.
//!
//! See README "Serving" for the frame/tag tables, the tenant model and the
//! runbook of the `pxml-server` binary. The engine itself never touches
//! `std::net` — the repo linter's `no-net-in-engine` rule keeps it
//! embeddable by confining sockets to this crate.

pub mod client;
pub mod frame;
pub mod server;

pub use client::{
    Client, ClientConfig, ClientError, RemoteAnswer, RemoteAnswers, RemoteStats, RetryPolicy,
};
pub use frame::{FrameError, DEFAULT_MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig, MAX_PENDING_ASYNC};
