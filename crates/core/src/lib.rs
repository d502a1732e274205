//! # gpm-core
//!
//! The paper's contribution: **(diversified) top-k graph pattern matching**
//! with early termination (Fan, Wang, Wu — VLDB 2013).
//!
//! Given a pattern `Q` with output node `uo`, a data graph `G` and `k`, the
//! problems are (Sections 3.1/3.3):
//!
//! * **topKP** — find `S ⊆ Mu(Q,G,uo)`, `|S| = k`, maximizing
//!   `Σ_{v∈S} δr(uo,v)`;
//! * **topKDP** — maximize the bi-criteria `F(S)` mixing relevance and
//!   diversity (NP-complete; Theorem 5).
//!
//! Algorithms, matching the paper's Sections 4 and 5:
//!
//! | paper | here | notes |
//! |---|---|---|
//! | `Match` | [`match_all::top_k_by_match`] | find-all-then-rank baseline |
//! | `TopKDAG` | [`topk::top_k_dag`] | DAG patterns, early termination |
//! | `TopK` | [`topk::top_k_cyclic`] | cyclic patterns via `Q_SCC` fixpoint |
//! | `TopKDAGnopt`/`TopKnopt` | `SelectionStrategy::Random` | ablation of the selection heuristic |
//! | `TopKDiv` | [`topk_div::top_k_diversified`] | 2-approximation of topKDP |
//! | `TopKDH`/`TopKDAGDH` | [`topk_dh::top_k_diversified_heuristic`] | early-termination heuristic |
//! | generalized topKP/topKDP | [`generalized`] | Propositions 4 & 6 |
//!
//! The early-termination engine ([`engine`]) maintains, for every candidate
//! pair `(u,v)`, the paper's vector `v.T`: a match status standing in for
//! the boolean formula `v.bf` (represented by counters), a partial relevant
//! set `v.R`, and bounds `v.l = |v.R| ≤ δr ≤ v.h`. Leaf batches `Sc` are
//! activated and propagated upward (`AcyclicProp`); nontrivial pattern SCCs
//! run a local fixpoint (`SccProcess`); Proposition 3 decides termination.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod generalized;
pub mod match_all;
pub mod multi_output;
pub mod result;
pub mod selector;
pub mod topk;
pub mod topk_dh;
pub mod topk_div;

pub use config::{DivConfig, SelectionStrategy, TopKConfig};
pub use match_all::{top_k_by_match, MatchOutcome};
pub use multi_output::{top_k_multi, with_output};
pub use result::{rank_top_k, DivResult, RankedMatch, RunStats, TopKResult};
pub use selector::{prop3_holds, BoundedSelector, SelEntry};
pub use topk::{top_k, top_k_cyclic, top_k_dag};
pub use topk_dh::top_k_diversified_heuristic;
pub use topk_div::{greedy_diversified, top_k_diversified};
