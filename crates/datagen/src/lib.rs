//! # gpm-datagen
//!
//! Data and workload generation for the experiments of Section 6:
//!
//! * [`fixtures`] — the paper's running example (Fig. 1): the collaboration
//!   network `G`, the cyclic pattern `Q` and Example 7's DAG pattern `Q1`,
//!   reconstructed so that **every** number in Examples 1–10 is reproduced
//!   (the module docs list them);
//! * [`synthetic`] — the linkage-model generator the paper's synthetic data
//!   uses: preferential attachment controlled by `(|V|, |E|)` over a
//!   15-label alphabet;
//! * [`datasets`] — scaled-down emulators of the three real-life graphs
//!   (Amazon co-purchase, Citation DAG, YouTube recommendation) with the
//!   attribute schemas the paper describes;
//! * [`patterns`] — pattern generation: extraction-based (guarantees a
//!   nonempty `Mu`, like the paper's hand-constructed queries), plus the
//!   Fig. 4 queries `Q1`/`Q2`;
//! * [`update_stream`](mod@update_stream) — delta-batch generation for the dynamic-graph
//!   workloads served by `gpm-incremental`.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod fixtures;
pub mod patterns;
pub mod synthetic;
pub mod update_stream;

pub use datasets::{amazon_like, citation_like, youtube_like, Scale};
pub use fixtures::{fig1_graph, fig1_pattern, fig1_pattern_q1};
pub use patterns::{extract_pattern, PatternGenConfig};
pub use synthetic::{synthetic_graph, SyntheticConfig};
pub use update_stream::{update_stream, UpdateStreamConfig};
