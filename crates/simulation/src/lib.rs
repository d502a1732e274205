//! # gpm-simulation
//!
//! Graph simulation (Henzinger, Henzinger, Kopke — FOCS'95), as used by the
//! paper (Section 2.1): a data graph `G` *matches* a pattern `Q` if there is
//! a binary relation `S ⊆ Vp × V` such that
//!
//! 1. every pattern node has at least one match,
//! 2. `(u,v) ∈ S` implies `fv(u) = L(v)`, and
//! 3. for every pattern edge `(u,u')` there is a data edge `(v,v')` with
//!    `(u',v') ∈ S`.
//!
//! When `G` matches `Q` there is a unique **maximum** such relation,
//! `M(Q,G)`, of size `O(|V|·|Vp|)`, computable in `O((|Vp|+|V|)(|Ep|+|E|))`
//! time. This crate computes it with a counter-based refinement
//! ([`refine::compute_simulation`]), validated against a naive fixpoint
//! oracle ([`naive::naive_simulation`]).
//!
//! It also builds the **match graph** ([`match_graph::MatchGraph`]): nodes
//! are the pairs of `M(Q,G)` and edges follow pattern edges — the structure
//! on which relevant sets `R(u,v)` (Section 3.1) are reachability sets, and
//! whose candidate-pair variant underpins the tight upper bounds `v.h` used
//! for early termination (Section 4).

#![forbid(unsafe_code)]

pub mod candidates;
pub mod dyn_match_graph;
pub mod incremental;
pub mod match_graph;
pub mod naive;
pub mod refine;
pub mod relation;
pub mod result_graph;

pub use candidates::CandidateSpace;
pub use dyn_match_graph::{DynMatchGraph, PairDelta};
pub use incremental::IncSimState;
pub use match_graph::{MatchGraph, ReachView};
pub use refine::{compute_simulation, refine_state, RefineState};
pub use relation::SimRelation;
