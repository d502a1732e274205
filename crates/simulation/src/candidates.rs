//! Candidate spaces: `can(u)` for every pattern node and pair indexing.
//!
//! A data node `v` is a **candidate** of a query node `u` if it satisfies
//! `u`'s predicate (`L(v) = fv(u)` in the basic formulation). The paper's
//! algorithms work pair-wise — every `(u, v)` with `v ∈ can(u)` carries a
//! vector `v.T` — so this module assigns each such pair a dense id. Relevant
//! sets are not numbered here: each match graph numbers the data nodes its
//! edges reach ([`MatchGraph`](crate::MatchGraph)).

use gpm_graph::{DiGraph, NodeId};
use gpm_pattern::{PNodeId, Pattern};

/// Dense identifier of a `(pattern node, candidate)` pair.
pub type PairId = u32;

/// Candidate sets of all pattern nodes plus pair indexing.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// `cand[u]` = sorted candidate node ids of pattern node `u`.
    cand: Vec<Vec<NodeId>>,
    /// Prefix sums: pair id of `(u, i)` is `offset[u] + i`.
    offset: Vec<u32>,
    /// Bitmask per data node: bit `u` set iff the node is a candidate of
    /// pattern node `u` (patterns have ≤ 64 nodes — the paper's largest is
    /// 10). Enables O(1) "is `w` a candidate of `u'`?" tests during
    /// refinement.
    mask: Vec<u64>,
}

impl CandidateSpace {
    /// Maximum pattern size supported by the bitmask representation.
    pub const MAX_PATTERN_NODES: usize = 64;

    /// Enumerates candidates of every pattern node.
    ///
    /// Pure-label predicates use the graph's label index (`O(|can|)`); other
    /// predicates scan the label class when a primary label is implied, or
    /// all nodes otherwise.
    pub fn compute(g: &DiGraph, q: &Pattern) -> Self {
        assert!(
            q.node_count() <= Self::MAX_PATTERN_NODES,
            "patterns with more than {} nodes are not supported",
            Self::MAX_PATTERN_NODES
        );
        let mut cand: Vec<Vec<NodeId>> = Vec::with_capacity(q.node_count());
        for u in q.nodes() {
            let pred = q.predicate(u);
            let list: Vec<NodeId> = match pred.primary_label() {
                Some(l) if pred.is_pure_label() => g.nodes_with_label(l).to_vec(),
                Some(l) => {
                    g.nodes_with_label(l).iter().copied().filter(|&v| pred.matches(g, v)).collect()
                }
                None => g.nodes().filter(|&v| pred.matches(g, v)).collect(),
            };
            cand.push(list);
        }

        let mut offset = Vec::with_capacity(cand.len() + 1);
        let mut acc = 0u32;
        offset.push(0);
        for c in &cand {
            acc += c.len() as u32;
            offset.push(acc);
        }

        let mut mask = vec![0u64; g.node_count()];
        for (u, c) in cand.iter().enumerate() {
            for &v in c {
                mask[v as usize] |= 1u64 << u;
            }
        }

        CandidateSpace { cand, offset, mask }
    }

    /// Candidates of pattern node `u`, sorted by node id.
    #[inline]
    pub fn candidates(&self, u: PNodeId) -> &[NodeId] {
        &self.cand[u as usize]
    }

    /// `|can(u)|`.
    #[inline]
    pub fn candidate_count(&self, u: PNodeId) -> usize {
        self.cand[u as usize].len()
    }

    /// Total number of `(u, v)` pairs.
    #[inline]
    pub fn pair_count(&self) -> usize {
        *self.offset.last().unwrap() as usize
    }

    /// `true` iff `v` is a candidate of `u` (O(1) via the bitmask).
    #[inline]
    pub fn is_candidate(&self, u: PNodeId, v: NodeId) -> bool {
        self.mask[v as usize] & (1u64 << u) != 0
    }

    /// Bitmask of pattern nodes for which `v` is a candidate.
    #[inline]
    pub fn mask_of(&self, v: NodeId) -> u64 {
        self.mask[v as usize]
    }

    /// Pair id of `(u, v)`; `None` if `v ∉ can(u)`.
    pub fn pair_id(&self, u: PNodeId, v: NodeId) -> Option<PairId> {
        let list = &self.cand[u as usize];
        list.binary_search(&v).ok().map(|i| self.offset[u as usize] + i as u32)
    }

    /// Pair id of the `i`-th candidate of `u`.
    #[inline]
    pub fn pair_at(&self, u: PNodeId, i: usize) -> PairId {
        self.offset[u as usize] + i as u32
    }

    /// Decomposes a pair id back into `(pattern node, data node)`.
    pub fn pair_info(&self, p: PairId) -> (PNodeId, NodeId) {
        // offset is small (|Vp|+1 entries): partition_point is O(log |Vp|).
        let u = self.offset.partition_point(|&o| o <= p) - 1;
        let i = (p - self.offset[u]) as usize;
        (u as PNodeId, self.cand[u][i])
    }

    /// Pattern node of a pair id.
    #[inline]
    pub fn pair_pattern_node(&self, p: PairId) -> PNodeId {
        (self.offset.partition_point(|&o| o <= p) - 1) as PNodeId
    }

    /// `true` if some pattern node has no candidate at all (then `G` cannot
    /// match `Q` and `M(Q,G) = ∅`).
    pub fn any_empty(&self) -> bool {
        self.cand.iter().any(|c| c.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;

    fn setup() -> (DiGraph, Pattern) {
        // labels: two 0-nodes, three 1-nodes, one 7-node (never a candidate).
        let g = graph_from_parts(&[0, 0, 1, 1, 1, 7], &[(0, 2), (1, 3)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        (g, q)
    }

    #[test]
    fn candidate_sets_and_pairs() {
        let (g, q) = setup();
        let cs = CandidateSpace::compute(&g, &q);
        assert_eq!(cs.candidates(0), &[0, 1]);
        assert_eq!(cs.candidates(1), &[2, 3, 4]);
        assert_eq!(cs.candidate_count(1), 3);
        assert_eq!(cs.pair_count(), 5);
        assert!(!cs.any_empty());

        assert_eq!(cs.pair_id(0, 0), Some(0));
        assert_eq!(cs.pair_id(0, 1), Some(1));
        assert_eq!(cs.pair_id(1, 2), Some(2));
        assert_eq!(cs.pair_id(1, 4), Some(4));
        assert_eq!(cs.pair_id(0, 2), None);
        assert_eq!(cs.pair_at(1, 0), 2);

        for p in 0..cs.pair_count() as u32 {
            let (u, v) = cs.pair_info(p);
            assert_eq!(cs.pair_id(u, v), Some(p));
            assert_eq!(cs.pair_pattern_node(p), u);
        }
    }

    #[test]
    fn masks() {
        let (g, q) = setup();
        let cs = CandidateSpace::compute(&g, &q);
        assert!(cs.is_candidate(0, 1));
        assert!(!cs.is_candidate(0, 2));
        assert!(cs.is_candidate(1, 4));
        assert_eq!(cs.mask_of(5), 0, "label 7 matches nothing");
    }

    #[test]
    fn shared_labels_between_pattern_nodes() {
        // Two pattern nodes with the same label share candidates but get
        // distinct pairs.
        let g = graph_from_parts(&[0, 0], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 0], &[(0, 1)], 0).unwrap();
        let cs = CandidateSpace::compute(&g, &q);
        assert_eq!(cs.pair_count(), 4);
        assert_eq!(cs.mask_of(0), 0b11);
    }

    #[test]
    fn empty_candidates_detected() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0, 9], &[(0, 1)], 0).unwrap();
        let cs = CandidateSpace::compute(&g, &q);
        assert!(cs.any_empty());
        assert_eq!(cs.candidate_count(1), 0);
    }

    #[test]
    fn attribute_predicate_candidates() {
        use gpm_graph::{Attributes, GraphBuilder};
        use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
        let mut b = GraphBuilder::new();
        b.add_node_with_attrs(0, Attributes::from_pairs([("views", 100i64)]));
        b.add_node_with_attrs(0, Attributes::from_pairs([("views", 9i64)]));
        b.add_node(1);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        pb.node("V", Predicate::labeled(0, [Predicate::attr("views", CmpOp::Gt, 50i64)]));
        pb.output(0).unwrap();
        let q = pb.build().unwrap();
        let cs = CandidateSpace::compute(&g, &q);
        assert_eq!(cs.candidates(0), &[0]);
    }
}
