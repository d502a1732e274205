//! [`BoundedSelector`] — the re-entrant core of Proposition-3 early
//! termination.
//!
//! The static drivers ([`crate::topk`], [`crate::topk_dh`]) and the
//! dynamic refresh planner (gpm-incremental) all ask the same two
//! questions about a running top-k selection in the answer order
//! ([`RankedMatch`]'s `Ord`: relevance descending, node ascending):
//!
//! * **termination** — is the k-th confirmed lower bound ≥ the best
//!   upper bound outside the selection? ([`prop3_holds`])
//! * **domination** — can a candidate with upper bound `h` still
//!   displace the current k-th entry? ([`BoundedSelector::dominates`])
//!
//! Domination is strict in the tie-break too: a candidate `v` with
//! `h = kth.relevance` is only dominated when `kth.node < v` — so
//! pruning on `dominates` is exact, never just approximate, under the
//! global tie order.

use gpm_graph::NodeId;

use crate::result::RankedMatch;

/// Proposition 3: a full selection of confirmed matches is final when
/// its minimum confirmed lower bound dominates the best upper bound
/// outside it (`l(s) ≤ δr(s)` and `δr(r) ≤ h(r)` give
/// `δr(s) ≥ δr(r)` for every selected `s`, rejected `r`).
#[inline]
pub fn prop3_holds(min_l: u64, best_rest: u64) -> bool {
    min_l >= best_rest
}

/// One selection entry: a caller-supplied id (candidate index, node id,
/// …) and the output data node with its confirmed relevance (lower
/// bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelEntry {
    pub id: usize,
    pub rank: RankedMatch,
}

/// A running top-k selection under the global answer order, usable
/// incrementally: seed it with the surviving answers, `offer` the rest,
/// and query `dominates`/`terminated` between offers.
#[derive(Debug, Clone)]
pub struct BoundedSelector {
    k: usize,
    /// Best-first in the answer order, length ≤ k.
    entries: Vec<SelEntry>,
}

impl BoundedSelector {
    pub fn new(k: usize) -> Self {
        BoundedSelector { k, entries: Vec::with_capacity(k.min(1024)) }
    }

    /// Offers a confirmed match; returns whether it entered the top k.
    pub fn offer(&mut self, id: usize, node: NodeId, relevance: u64) -> bool {
        // One comparison rejects what a full selection dominates — the
        // common case when folding a whole cache through `rank_top_k`.
        if self.k == 0 || self.dominates(relevance, node) {
            return false;
        }
        let rank = RankedMatch { node, relevance };
        let pos = self.entries.partition_point(|e| e.rank < rank);
        self.entries.insert(pos, SelEntry { id, rank });
        self.entries.truncate(self.k);
        true
    }

    /// Empties the selection, keeping `k` and the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The selection holds k entries (trivially true for k = 0, where no
    /// query method ever reports termination or domination).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// The current k-th (worst selected) entry.
    pub fn kth(&self) -> Option<&SelEntry> {
        self.entries.last()
    }

    /// Minimum confirmed relevance in the selection.
    pub fn min_relevance(&self) -> Option<u64> {
        self.kth().map(|e| e.rank.relevance)
    }

    /// Caller ids, best-first.
    pub fn ids(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Entries, best-first.
    pub fn entries(&self) -> &[SelEntry] {
        &self.entries
    }

    /// Can a candidate at `node` with upper bound `h` **not** displace
    /// the current selection? Exact under the global tie order; `false`
    /// while the selection is not full (everything can still enter).
    #[inline]
    pub fn dominates(&self, h: u64, node: NodeId) -> bool {
        if self.entries.len() < self.k {
            return false;
        }
        match self.kth() {
            Some(e) => e.rank < RankedMatch { node, relevance: h },
            None => false, // k == 0: never claim domination
        }
    }

    /// Proposition-3 termination against the best bound outside the
    /// selection. `false` until the selection is full.
    #[inline]
    pub fn terminated(&self, best_rest: u64) -> bool {
        self.is_full() && self.min_relevance().is_some_and(|l| prop3_holds(l, best_rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k_in_answer_order() {
        let mut s = BoundedSelector::new(2);
        assert!(!s.is_full());
        assert!(!s.dominates(u64::MAX, 0), "nothing dominated while unfilled");
        s.offer(10, 5, 7);
        s.offer(11, 3, 9);
        s.offer(12, 8, 9); // ties with id 11 → node 3 ranks first
        assert!(s.is_full());
        assert_eq!(s.ids(), vec![11, 12]);
        assert_eq!(s.min_relevance(), Some(9));
        // A worse offer bounces.
        assert!(!s.offer(13, 1, 7));
        assert_eq!(s.ids(), vec![11, 12]);
    }

    #[test]
    fn dominates_is_exact_on_ties() {
        let mut s = BoundedSelector::new(1);
        s.offer(0, 4, 6);
        assert!(s.dominates(5, 9), "strictly smaller bound");
        assert!(s.dominates(6, 9), "tied bound, larger node loses the tie");
        assert!(!s.dominates(6, 2), "tied bound, smaller node would win the tie");
        assert!(!s.dominates(7, 9), "larger bound can displace");
    }

    #[test]
    fn termination_matches_prop3() {
        let mut s = BoundedSelector::new(2);
        s.offer(0, 1, 5);
        assert!(!s.terminated(0), "not full yet");
        s.offer(1, 2, 4);
        assert!(s.terminated(4), "min_l = 4 ≥ best_rest = 4");
        assert!(!s.terminated(5));
    }

    #[test]
    fn k_zero_never_claims_anything() {
        let mut s = BoundedSelector::new(0);
        assert!(!s.offer(0, 1, 5));
        assert!(!s.dominates(0, 0));
        assert!(!s.terminated(u64::MAX));
    }
}
