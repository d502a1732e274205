//! # diversified-topk
//!
//! A from-scratch Rust reproduction of **“Diversified Top-k Graph Pattern
//! Matching”** (Wenfei Fan, Xin Wang, Yinghui Wu — PVLDB 6(13), 2013).
//!
//! Graph pattern matching by **graph simulation** with a designated output
//! node: given a pattern `Q` with output node `uo` and a data graph `G`,
//! find the best `k` matches of `uo` instead of the whole (often huge)
//! match relation `M(Q,G)` — ranked by relevance (`δr`, “social impact”),
//! or by the bi-criteria diversification objective `F` that also rewards
//! covering dissimilar parts of the graph (`δd`).
//!
//! ## Quick start
//!
//! ```
//! use diversified_topk::prelude::*;
//!
//! // The paper's Fig. 1 collaboration network and pattern.
//! let g = diversified_topk::datagen::fig1_graph();
//! let q = diversified_topk::datagen::fig1_pattern();
//!
//! // Top-2 project managers by relevance, with early termination.
//! let top = top_k_cyclic(&g, &q, &TopKConfig::new(2));
//! assert_eq!(top.total_relevance(), 14);
//!
//! // Top-2 diversified (λ = 0.5): trades relevance for coverage.
//! let div = top_k_diversified(&g, &q, &DivConfig::new(2, 0.5));
//! assert!(div.f_value > 1.45 && div.f_value < 1.46);
//! ```
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] | CSR graphs, SCC condensation, bitsets, reachability |
//! | [`pattern`] | patterns with output node and attribute predicates |
//! | [`simulation`] | maximum simulation `M(Q,G)`, match graph |
//! | [`ranking`] | relevant sets, `δr`/`δd`/`F`, bound index |
//! | [`core`] | `Match`, `TopKDAG`, `TopK`, `TopKDiv`, `TopKDH` |
//! | [`incremental`] | `PatternRegistry`: top-k maintained under graph deltas, for one pattern or many |
//! | [`serving`] | streaming answer service: subscriptions, delta log, versioned answers |
//! | [`telemetry`] | metrics registry, phase tracing, batch flight recorder |
//! | [`datagen`] | Fig. 1 fixture, synthetic generator, dataset emulators, update streams |
//!
//! `README.md` walks through every layer; its *Benchmarks* section names
//! the harness that reproduces each figure of the paper's evaluation
//! (`cargo run --release -p gpm-bench --bin experiments -- all`).

#![forbid(unsafe_code)]

pub use gpm_core as core;
pub use gpm_datagen as datagen;
pub use gpm_graph as graph;
pub use gpm_incremental as incremental;
pub use gpm_pattern as pattern;
pub use gpm_ranking as ranking;
pub use gpm_serving as serving;
pub use gpm_simulation as simulation;
pub use gpm_telemetry as telemetry;

/// The commonly-used surface of the library.
pub mod prelude {
    pub use gpm_core::config::{DivConfig, SelectionStrategy, TopKConfig};
    pub use gpm_core::result::{DivResult, RankedMatch, RunStats, TopKResult};
    pub use gpm_core::{
        top_k, top_k_by_match, top_k_cyclic, top_k_dag, top_k_diversified,
        top_k_diversified_heuristic,
    };
    pub use gpm_graph::{BitSet, DiGraph, GraphBuilder, GraphDelta, NodeId};
    pub use gpm_incremental::{
        AnswerChange, IncrementalConfig, PatternId, PatternRegistry, RegistryStats,
    };
    pub use gpm_pattern::{CmpOp, Pattern, PatternBuilder, Predicate};
    pub use gpm_serving::{
        AdminServer, AnswerService, AnswerUpdate, Auditor, AuditorConfig, DeltaLog, HealthReport,
        NotifyMode, ServiceConfig, ServiceController, ServiceHandle, Subscription, Telemetry,
        TelemetryConfig,
    };
    pub use gpm_simulation::compute_simulation;
}
