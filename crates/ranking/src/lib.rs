//! # gpm-ranking
//!
//! Ranking machinery for (diversified) top-k graph pattern matching —
//! Section 3 of the paper:
//!
//! * **Relevant sets** `R(u,v)` ([`relevant_set`]): all matches a match can
//!   reach via paths of matches; `δr(u,v) = |R(u,v)|` is the basic relevance
//!   function ("social impact").
//! * **Distance functions** `δd` ([`distance`]): the Jaccard distance of
//!   relevant sets (a metric), plus the generalized distances of Section 3.4
//!   (neighbourhood diversity, distance-based diversity).
//! * **Relevance functions** ([`relevance`]): `δr` plus the generalized
//!   relevance functions of Section 3.4 (preference attachment, common
//!   neighbours, Jaccard coefficient).
//! * **Diversification objective** `F(S)` ([`objective`]): the bi-criteria
//!   max-sum objective `(1-λ)·Σ δ'r + (2λ/(k-1))·Σ δd` with the candidate
//!   normalizer `Cuo`, plus the pairwise `F'` used by the 2-approximation
//!   and the partial-information `F''` used by the early-termination
//!   heuristic.
//! * **Bound index** ([`bounds`]): upper bounds `h(uo,v) ≥ δr(uo,v)` that
//!   drive Proposition 3 early termination — strict-reach counts over the
//!   output cone.
//! * **Maintained condensation** ([`cond_state`]): the incremental
//!   counterpart of [`reach_sets`] and [`bounds`] — component reach
//!   bitsets `Full(c)` kept alive across deltas, each with its popcount
//!   `h` beside it.
//! * **Set-reachability core** ([`reach_sets`]): a shared
//!   condensation-and-bitset dynamic program used by both relevant sets and
//!   the bound index, with a memory budget and a per-source BFS fallback.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod cache;
pub mod cond_state;
pub mod distance;
pub mod objective;
pub mod reach_sets;
pub mod relevance;
pub mod relevant_set;

pub use bounds::{output_upper_bounds, output_upper_bounds_on_cone, BoundConfig, BoundStrategy};
pub use cache::RelevanceCache;
pub use cond_state::{CondPolicy, CondensationState, MaintainError, MaintainStats};
pub use distance::{DistanceFn, JaccardDistance, MatchInfo, NeighborhoodDiversity};
pub use objective::{c_uo, Objective};
pub use reach_sets::{ReachConfig, ReachEngine};
pub use relevance::{RelevanceCtx, RelevanceFn, RelevantSetSize};
pub use relevant_set::{relevant_set_of_pair, RelevantSets};
