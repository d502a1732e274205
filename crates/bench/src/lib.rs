//! # gpm-bench
//!
//! The experiment harness reproducing **every table and figure** of the
//! paper's evaluation (Section 6).
//!
//! `cargo run -p gpm-bench --release --bin experiments -- all --scale medium`
//! regenerates the series behind Figures 4 and 5(a)–5(l), the dataset
//! table, and the λ-sensitivity result, printing paper-style tables and
//! optionally dumping CSV/JSON records. Absolute numbers differ from the
//! paper (different hardware, emulated datasets, configurable scale); the
//! *shapes* — who wins, by what factor, where crossovers fall — are the
//! reproduction targets.
//!
//! Performance numbers are **not** measured here: the repository's one
//! benchmark is the `benchmark/` package (`BENCHMARK.json` is its
//! contract). It builds its frozen inputs from three generators that live
//! in this crate — [`delta_bench::dirty_region_workload`],
//! [`registry_bench::registry_graph`] / [`registry_bench::registry_patterns`]
//! — and from [`workloads`]; their paths and the bytes they generate are
//! pinned by its `input_digest`.

#![forbid(unsafe_code)]

pub mod delta_bench;
pub mod experiments;
pub mod registry_bench;
pub mod table;
pub mod workloads;

pub use table::{Records, Table};
