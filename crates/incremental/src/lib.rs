//! # gpm-incremental
//!
//! Incremental maintenance of (diversified) top-k graph pattern matches
//! under graph updates.
//!
//! The paper targets social networks — graphs that change continuously —
//! yet its algorithms (and this repository's static pipeline) recompute
//! `M(Q,G)`, the relevant sets and the top-k from scratch per call. This
//! crate keeps all three **materialized** and pays cost proportional to
//! the delta:
//!
//! * the maximum simulation survives updates through
//!   [`gpm_simulation::IncSimState`] (counter cascades for deletions,
//!   localized revival regions for insertions, predicate re-evaluation of
//!   exactly the affected pattern nodes for attribute mutations — full
//!   `Predicate` trees are supported, not just labels);
//! * relevant sets survive through a [`gpm_ranking::RelevanceCache`];
//!   after each batch only matches whose `δr` could have changed —
//!   found by a backward sweep from the touched pairs — are re-derived;
//! * the top-k answer is re-ranked from the cache via
//!   [`gpm_core::rank_top_k`], and the diversified answer via
//!   [`gpm_core::greedy_diversified`], so results are **identical** to a
//!   from-scratch run on the updated graph (property-tested).
//!
//! A batch is always replayed through the simulation — its cost is linear
//! in the batch's effective mutations, whatever their number. Only the
//! ranking layers have fallbacks: a dirtiness sweep past
//! [`IncrementalConfig::max_dirty_fraction`] re-derives every relevant
//! set, and pair churn past
//! [`IncrementalConfig::max_cond_churn_fraction`] drops the maintained
//! condensation for the per-batch reach engine until the stream calms.
//!
//! ```
//! use gpm_graph::{builder::graph_from_parts, GraphDelta};
//! use gpm_incremental::{DynamicMatcher, IncrementalConfig};
//! use gpm_pattern::builder::label_pattern;
//!
//! // Two authors (label 0) citing papers (label 1).
//! let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 2), (1, 3)]).unwrap();
//! let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
//! let mut m = DynamicMatcher::new(&g, q, IncrementalConfig::new(2)).unwrap();
//! assert_eq!(m.top_k().nodes(), vec![1, 0]); // author 1 reaches 2 papers
//!
//! // A new paper appears and author 0 cites it: the ranking flips.
//! let top = m.apply(&GraphDelta::new().add_node(1).add_edge(0, 4)).unwrap();
//! assert_eq!(top.nodes(), vec![0, 1]);
//! ```

//! ## Multi-query serving
//!
//! One graph usually serves many query shapes at once. [`PatternRegistry`]
//! maintains N registered patterns over a **single** shared [`gpm_graph::DynGraph`]:
//! each delta batch mutates the graph once, a shared interest index prunes
//! the per-pattern fan-out (node labels and edge label-pairs for
//! structural ops, per-pattern attribute-key interest for
//! `SetAttr`/`UnsetAttr`), and the independent per-pattern ranking refreshes
//! run on a **persistent** worker pool (spawned once, parked between
//! batches) with a deterministic merge. [`PatternRegistry::apply`] surfaces
//! an [`AnswerChange`] — fresh answer plus entered/left/reordered change
//! set — per touched pattern, the hook the streaming serving layer
//! (`gpm-serving`) fans out to subscribers. Answers are bit-identical to N
//! independent [`DynamicMatcher`]s (differentially property-tested in
//! `tests/registry_differential.rs`).
//!
//! ```
//! use gpm_graph::{builder::graph_from_parts, GraphDelta};
//! use gpm_incremental::{IncrementalConfig, PatternRegistry};
//! use gpm_pattern::builder::label_pattern;
//!
//! let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 2), (1, 3)]).unwrap();
//! let mut reg = PatternRegistry::new(&g);
//! let authors = reg.register(label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(),
//!                            IncrementalConfig::new(2)).unwrap();
//! let papers = reg.register(label_pattern(&[1], &[], 0).unwrap(),
//!                           IncrementalConfig::new(3)).unwrap();
//!
//! // One batch, both answers refreshed.
//! reg.apply(&GraphDelta::new().add_node(1).add_edge(0, 4)).unwrap();
//! assert_eq!(reg.top_k(authors).unwrap().nodes(), vec![0, 1]);
//! assert_eq!(reg.top_k(papers).unwrap().nodes(), vec![2, 3, 4]);
//! ```

mod matcher;
mod pool;
mod registry;
mod state;

pub use matcher::{ApplyStats, DynamicMatcher, IncrementalConfig, IncrementalError};
pub use registry::{AnswerChange, PatternId, PatternInfo, PatternRegistry, RegistryStats};

// The observability bundle [`PatternRegistry::set_telemetry`] /
// [`DynamicMatcher::set_telemetry`] accept, re-exported so incremental
// consumers need no direct gpm-telemetry dependency.
pub use gpm_telemetry::{Telemetry, TelemetryConfig};
