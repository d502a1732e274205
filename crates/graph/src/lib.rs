//! # gpm-graph
//!
//! Directed, node-labeled graph substrate for diversified top-k graph pattern
//! matching (Fan, Wang, Wu — VLDB 2013).
//!
//! A *data graph* in the paper is `G = (V, E, L)`: a finite set of nodes, a
//! set of directed edges and a labeling function `L` assigning each node a
//! label from an alphabet `Σ`. This crate provides:
//!
//! * [`DiGraph`] — an immutable CSR (compressed sparse row) graph with both
//!   forward and reverse adjacency, node labels and optional node attributes;
//! * [`GraphBuilder`] — an incremental builder that deduplicates edges;
//! * [`scc`] — iterative Tarjan strongly-connected components, the
//!   condensation DAG `G_SCC` and the topological ranks `r(v)` used by the
//!   paper's top-k algorithms (Section 4);
//! * [`BitSet`] — a word-packed bitset used for relevant-set algebra
//!   (`R(u,v)` unions, intersections and Jaccard distances; operands of
//!   unequal capacity zero-extend);
//! * [`reach`] — strict descendant sets and hop distances (used by the
//!   distance-based diversity function of Section 3.4);
//! * [`io`] — a line-oriented text format and a compact binary snapshot
//!   format for graphs;
//! * [`json`] — JSON encoding of deltas and attribute-carrying graphs
//!   (the serving layer's replayable delta log persists through it);
//! * [`stats`] — degree/label/SCC summaries used by the experiment harness.
//!
//! The substrate is deliberately free of third-party graph dependencies: the
//! reproduction builds every system the paper relies on from scratch.

#![forbid(unsafe_code)]

pub mod attrs;
pub mod bitset;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod digraph;
pub mod dynamic;
pub mod error;
pub mod io;
pub mod json;
pub mod reach;
pub mod scc;
pub mod stats;

pub use attrs::{AttrValue, Attributes};
pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use delta::{apply_delta, AppliedDelta, DeltaOp, EffectiveOp, GraphDelta, TOMBSTONE_LABEL};
pub use digraph::{DiGraph, EdgeRef, Label, NodeId};
pub use dynamic::DynGraph;
pub use error::GraphError;
pub use scc::{Condensation, SccIndex};

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, GraphError>;
