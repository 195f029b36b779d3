//! **CommCSL in Rust** — a from-scratch reproduction of
//! *"CommCSL: Proving Information Flow Security for Concurrent Programs
//! using Abstract Commutativity"* (Eilers, Dardinier, Müller; PLDI 2023).
//!
//! The paper's insight: internal timing channels — secret-dependent thread
//! interleavings — cannot influence the final value of shared data if all
//! mutating operations *commute*, and commutativity is only needed *modulo
//! a user-chosen abstraction* of the data that captures exactly what will
//! be made public.
//!
//! This crate is a facade over the workspace:
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`pure`] | `commcsl-pure` | pure values, symbolic terms, rewriting |
//! | [`telemetry`] | `commcsl-telemetry` | tracing spans, counters, trace/flamegraph exporters |
//! | [`smt`] | `commcsl-smt` | the SMT-lite solver (Z3 stand-in) |
//! | [`lang`] | `commcsl-lang` | the concurrent language, schedulers, empirical NI harness |
//! | [`logic`] | `commcsl-logic` | extended heaps, assertions, resource specs, validity |
//! | [`analysis`] | `commcsl-analysis` | dataflow framework, low-ness pre-pass, lint engine |
//! | [`verifier`] | `commcsl-verifier` | the HyperViper-style automated verifier |
//! | [`server`] | `commcsl-server` | the persistent verification daemon and its client |
//! | [`cluster`] | `commcsl-cluster` | the remote obligation-cache tier (`cache_get`/`cache_put` client) |
//! | [`lsp`] | `commcsl-lsp` | the editor language server (JSON-RPC over stdio, diagnostics, hover, progress) |
//! | [`fixtures`] | `commcsl-fixtures` | the 18 evaluation examples of Table 1 |
//! | [`front`] | `commcsl-front` | the `.csl` surface language, lowering, pretty-printer, and `commcsl` CLI |
//!
//! # Quickstart
//!
//! ```
//! use commcsl::logic::spec::ResourceSpec;
//! use commcsl::logic::validity::{check_validity, ValidityConfig};
//! use commcsl::verifier::{verify, AnnotatedProgram, VStmt};
//! use commcsl::pure::{Sort, Term};
//!
//! // 1. A resource specification: a shared counter, identity abstraction.
//! let spec = ResourceSpec::counter_add();
//! assert!(check_validity(&spec, &ValidityConfig::default()).is_valid());
//!
//! // 2. A program: two threads add low values; the total is output.
//! let program = AnnotatedProgram::new("quickstart")
//!     .with_resource(spec)
//!     .with_body([
//!         VStmt::input("a", Sort::Int, true),
//!         VStmt::Share { resource: 0, init: Term::int(0) },
//!         VStmt::Par { workers: vec![
//!             vec![VStmt::atomic(0, "Add", Term::var("a"))],
//!             vec![VStmt::atomic(0, "Add", Term::int(2))],
//!         ]},
//!         VStmt::Unshare { resource: 0, into: "total".into() },
//!         VStmt::Output(Term::var("total")),
//!     ]);
//!
//! // 3. Verify: non-interference holds on every schedule and hardware.
//! assert!(verify(&program, &Default::default()).verified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use commcsl_analysis as analysis;
pub use commcsl_cluster as cluster;
pub use commcsl_fixtures as fixtures;
pub use commcsl_front as front;
pub use commcsl_lang as lang;
pub use commcsl_logic as logic;
pub use commcsl_lsp as lsp;
pub use commcsl_pure as pure;
pub use commcsl_server as server;
pub use commcsl_smt as smt;
pub use commcsl_telemetry as telemetry;
pub use commcsl_verifier as verifier;

/// Commonly used items in one import.
pub mod prelude {
    pub use commcsl_lang::ast::Cmd;
    pub use commcsl_lang::interp::{run, RunOutcome};
    pub use commcsl_lang::nicheck::{check_non_interference, NiConfig};
    pub use commcsl_lang::parser::{parse_expr, parse_program};
    pub use commcsl_lang::sched::{RandomSched, RoundRobin, SkewSched};
    pub use commcsl_lang::state::State;
    pub use commcsl_logic::spec::{ActionDef, ActionKind, ResourceSpec};
    pub use commcsl_logic::validity::{check_validity, ValidityConfig};
    pub use commcsl_pure::{Func, Multiset, Sort, Symbol, Term, Value};
    pub use commcsl_smt::{BackendKind, Solver, SolverSession, Verdict};
    pub use commcsl_verifier::{verify, AnnotatedProgram, VStmt, Verifier, VerifierConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let t = parse_expr("1 + 2").unwrap();
        assert_eq!(t.eval(&Default::default()).unwrap(), Value::Int(3));
        assert!(check_validity(&ResourceSpec::keyset_map(), &ValidityConfig::default())
            .is_valid());
    }
}
