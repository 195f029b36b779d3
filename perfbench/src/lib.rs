//! The commcsl end-to-end benchmark's Rust half: the seeded workload
//! generator ([`gen`], [`workload`]) and the in-process traced pass
//! ([`trace`]). The runner, `perfbench/run.py`, runs the release
//! `commcsl` binary on the generated inputs and this crate's binary for
//! the rest.

pub mod gen;
pub mod trace;
pub mod workload;
