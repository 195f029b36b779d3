//! `commcsl-cluster` — the remote obligation-cache tier.
//!
//! CommCSL verification is a pure function of content (program, specs,
//! budgets): any daemon, on any machine, at any time produces the same
//! bytes for the same content. That is what lets many daemons and CI
//! runners share one warm cache. This crate holds the one piece built
//! on it:
//!
//! * [`remote`] — the [`RemoteCacheClient`]: a `cache_get`/`cache_put`
//!   protocol client that slots in as the third tier of the obligation
//!   cache chain (memory → disk → remote), sccache-style. Entries are
//!   self-validating and never stale: the local cache re-validates
//!   everything it fetches.
//!
//! The transports (Unix socket, TCP, stdio) and the daemon that serves
//! them live in `commcsl-server`; every endpoint is one
//! [`Server`](commcsl_server::Server).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remote;

pub use remote::RemoteCacheClient;
