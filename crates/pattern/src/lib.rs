//! # gpm-pattern
//!
//! Pattern graphs for graph-simulation matching, revised per Section 2.2 of
//! the paper: `Q = (Vp, Ep, fv, uo)` where `uo` is the designated **output
//! node** (marked `*` in the paper's figures). Given `Q` and a data graph
//! `G`, the revised semantics asks for `Mu(Q, G, uo) = { v | (uo, v) ∈
//! M(Q,G) }` — the matches of the output node in the unique maximum
//! simulation — instead of the whole relation `M(Q,G)`.
//!
//! Pattern nodes carry [`Predicate`]s: the paper's basic formulation is a
//! single label equality (`fv(u) = L(v)`), and Section 2.2 notes the
//! extension to "multiple predicates" on node attributes, which the paper's
//! own case-study queries use (e.g. Fig. 4: `C = "music" ∧ R > 2`). Both are
//! supported; a pure-label pattern enjoys `O(1)` candidate lookups.

#![forbid(unsafe_code)]

pub mod builder;
pub mod error;
pub mod pattern;
pub mod predicate;

pub use builder::PatternBuilder;
pub use error::PatternError;
pub use pattern::{PNodeId, Pattern};
pub use predicate::{CmpOp, Predicate};
