//! `commcsl-server` — the persistent verification service.
//!
//! CommCSL verification (journals_pacmpl_EilersD023) is a pure function
//! of the lowered program, its resource specifications, and the solver
//! budgets. This crate exploits that purity to turn the one-shot
//! pipeline into a **daemon with a content-addressed verdict cache**:
//! unchanged programs are answered from memory (or from the on-disk tier
//! after a restart) without re-running symbolic execution, and only
//! genuinely new content rides the work-stealing batch pool.
//!
//! The pieces:
//!
//! * [`json`] — the workspace's JSON codec, re-exported from
//!   `commcsl-telemetry` where it lives,
//! * [`protocol`] — the newline-delimited JSON request/response schema:
//!   protocol v1 (`verify`, `verify_batch`, `status`, `shutdown`) plus
//!   the v2 workspace-session ops (`hello` version negotiation,
//!   `open`/`update`/`close`, `subscribe` for the streaming
//!   `started`/`obligation_done`/`report` event channel), embedding
//!   [`commcsl_verifier::report::VerifierReport`]s in the shape of their
//!   one codec, [`protocol::report_to_json`],
//! * [`daemon`] — the [`Server`]: per-connection
//!   [`Session`](daemon::Session)s (each owning a
//!   [`Workspace`](commcsl_verifier::workspace::Workspace) for
//!   obligation-level incremental re-verification) over a Unix domain
//!   socket or any reader/writer pair (the stdio fallback), all sharing
//!   one cached [`Verifier`](commcsl_verifier::api::Verifier) and its
//!   verdict/obligation cache,
//! * [`client`] — the matching [`Client`] (v1 and v2
//!   methods, streaming included) plus
//!   [`connect_or_start`](client::connect_or_start), the transparent
//!   auto-spawn used by `commcsl verify --daemon`.
//!
//! The daemon is surface-syntax agnostic: it is constructed with a
//! *compile function* (`&str → AnnotatedProgram`), which `commcsl-front`
//! provides from its `.csl` compiler. See `docs/server.md` for the wire
//! protocol, the cache layout, and the invalidation rules.
//!
//! # Example (in-process, stdio-style transport)
//!
//! ```
//! use commcsl_server::daemon::{Server, ServerConfig};
//! use commcsl_server::protocol::{Request, VerifyItem};
//! use commcsl_verifier::{AnnotatedProgram, VStmt};
//! use commcsl_pure::{Sort, Term};
//!
//! let server = Server::new(ServerConfig::default(), Box::new(|_src| {
//!     Ok(AnnotatedProgram::new("demo").with_body([
//!         VStmt::input("x", Sort::Int, true),
//!         VStmt::Output(Term::var("x")),
//!     ]))
//! }));
//! let item = VerifyItem { name: "demo".into(), source: "…".into() };
//! let (cold, _) = server.handle_request(&Request::Verify(item.clone()));
//! let (warm, _) = server.handle_request(&Request::Verify(item));
//! assert_eq!(cold.get("cached").and_then(|j| j.as_bool()), Some(false));
//! assert_eq!(warm.get("cached").and_then(|j| j.as_bool()), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod protocol;

pub use commcsl_telemetry::json;

pub use client::{connect_with_retry, Client, ClientError};
pub use daemon::{CompileFn, Listen, Server, ServerConfig};
pub use json::Json;
pub use protocol::{
    CacheTier, Request, StatusInfo, VerifyItem, VerifyOk, VerifyOutcome,
};
