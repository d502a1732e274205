//! Results and run instrumentation.

use std::cmp::Ordering;
use std::time::Duration;

use gpm_graph::NodeId;

use crate::selector::BoundedSelector;

/// One ranked output match. Its `Ord` **is** the answer order every topKP
/// algorithm reports in — descending relevance, ties by ascending node id
/// — spelled here and nowhere else: `a < b` means `a` ranks before `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedMatch {
    /// The matched data node.
    pub node: NodeId,
    /// Its relevance `δr(uo, node)` — exact: the winners' cones are
    /// completed after termination.
    pub relevance: u64,
}

impl Ord for RankedMatch {
    fn cmp(&self, other: &Self) -> Ordering {
        other.relevance.cmp(&self.relevance).then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for RankedMatch {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Instrumentation of a run — the quantities Section 6 measures.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// `|can(uo)|`.
    pub output_candidates: usize,
    /// Matches of `uo` confirmed before termination — the paper's
    /// `|M_t_u(Q,G,uo)|`, numerator of the match ratio `MR`.
    pub inspected_matches: usize,
    /// `|Mu(Q,G,uo)|` when the run determined it (always for `Match`;
    /// for early-terminating runs only on exhaustion).
    pub total_matches: Option<usize>,
    /// Propagation waves executed.
    pub waves: usize,
    /// Leaf candidates activated.
    pub activated_leaves: usize,
    /// Pair-vector recomputations (propagation work measure).
    pub propagation_updates: u64,
    /// Whether Proposition 3 fired before exhaustion.
    pub early_terminated: bool,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl RunStats {
    /// Match ratio `MR = |M_t_u| / |Mu|` against a known total (from a
    /// baseline run when this run terminated early).
    pub fn match_ratio(&self, total_matches: usize) -> f64 {
        if total_matches == 0 {
            return 0.0;
        }
        self.inspected_matches as f64 / total_matches as f64
    }
}

/// The best `k` of `(node, δr)` entries in the answer order
/// ([`RankedMatch`]'s `Ord`), folded through a [`BoundedSelector`] so only
/// `k` entries are ever held. The re-entrant entry point for maintained
/// states (the incremental `DynamicMatcher` re-ranks from its relevance
/// cache through this on every refresh).
pub fn rank_top_k(rel: impl IntoIterator<Item = (NodeId, u64)>, k: usize) -> Vec<RankedMatch> {
    let mut sel = BoundedSelector::new(k);
    for (node, relevance) in rel {
        sel.offer(0, node, relevance);
    }
    sel.entries().iter().map(|e| e.rank).collect()
}

/// The difference between two ranked answers — what a streaming
/// subscriber needs to reconcile its view after an update, and the test a
/// serving layer applies to decide whether an answer **materially
/// changed** (the diff is empty iff the two ranked lists are identical as
/// `(node, δr)` sequences).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerDiff {
    /// Nodes in the new answer that the old one did not contain, in new
    /// rank order.
    pub entered: Vec<NodeId>,
    /// Nodes of the old answer no longer present, in old rank order.
    pub left: Vec<NodeId>,
    /// Nodes present in both whose rank position or relevance changed, in
    /// new rank order.
    pub reordered: Vec<NodeId>,
}

impl AnswerDiff {
    /// Diffs two ranked lists (each sorted the way [`rank_top_k`] sorts).
    pub fn between(old: &[RankedMatch], new: &[RankedMatch]) -> AnswerDiff {
        let mut diff = AnswerDiff::default();
        for (i, m) in new.iter().enumerate() {
            match old.iter().position(|o| o.node == m.node) {
                None => diff.entered.push(m.node),
                Some(j) if j != i || old[j].relevance != m.relevance => diff.reordered.push(m.node),
                Some(_) => {}
            }
        }
        for o in old {
            if !new.iter().any(|m| m.node == o.node) {
                diff.left.push(o.node);
            }
        }
        diff
    }

    /// `true` when nothing changed — equivalently, when the two lists
    /// compare equal element-for-element.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.left.is_empty() && self.reordered.is_empty()
    }

    /// Total number of differing entries.
    pub fn len(&self) -> usize {
        self.entered.len() + self.left.len() + self.reordered.len()
    }
}

/// Result of a topKP run.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Up to `k` matches, sorted by descending relevance (ties by node id).
    pub matches: Vec<RankedMatch>,
    /// Run statistics.
    pub stats: RunStats,
}

impl TopKResult {
    /// Total relevance `δr(S)` of the returned set.
    pub fn total_relevance(&self) -> u64 {
        self.matches.iter().map(|m| m.relevance).sum()
    }

    /// Just the node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.matches.iter().map(|m| m.node).collect()
    }
}

/// Result of a topKDP run.
#[derive(Debug, Clone)]
pub struct DivResult {
    /// The selected diversified match set.
    pub matches: Vec<RankedMatch>,
    /// `F(S)` of the returned set (computed with exact relevant sets).
    pub f_value: f64,
    /// Run statistics.
    pub stats: RunStats,
}

impl DivResult {
    /// Just the node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.matches.iter().map(|m| m.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_is_empty_iff_lists_equal() {
        let m = |node, relevance| RankedMatch { node, relevance };
        let old = vec![m(1, 8), m(2, 6), m(3, 4)];
        assert!(AnswerDiff::between(&old, &old).is_empty());

        // A new head entry shifts everyone: 1 enters, 3 falls out, 1/2 move.
        let new = vec![m(9, 9), m(1, 8), m(2, 6)];
        let d = AnswerDiff::between(&old, &new);
        assert_eq!(d.entered, vec![9]);
        assert_eq!(d.left, vec![3]);
        assert_eq!(d.reordered, vec![1, 2]);
        assert_eq!(d.len(), 4);

        // Same nodes, one relevance moved: reordered only.
        let bumped = vec![m(1, 9), m(2, 6), m(3, 4)];
        let d = AnswerDiff::between(&old, &bumped);
        assert_eq!((d.entered.len(), d.left.len()), (0, 0));
        assert_eq!(d.reordered, vec![1]);
        assert!(!d.is_empty());

        // Truncation: trailing nodes left, no reorder among survivors.
        let d = AnswerDiff::between(&old, &old[..1]);
        assert_eq!(d.left, vec![2, 3]);
        assert!(d.entered.is_empty() && d.reordered.is_empty());
    }

    #[test]
    fn totals_and_ratio() {
        let r = TopKResult {
            matches: vec![
                RankedMatch { node: 1, relevance: 8 },
                RankedMatch { node: 2, relevance: 6 },
            ],
            stats: RunStats { inspected_matches: 2, ..Default::default() },
        };
        assert_eq!(r.total_relevance(), 14);
        assert_eq!(r.nodes(), vec![1, 2]);
        assert!((r.stats.match_ratio(4) - 0.5).abs() < 1e-12);
        assert_eq!(r.stats.match_ratio(0), 0.0);
    }
}
