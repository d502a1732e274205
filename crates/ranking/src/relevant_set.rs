//! Relevant sets `R(u,v)` and the relevance function `δr`.
//!
//! Section 3.1: given a match `v` of query node `u`, `R(u,v)` contains every
//! match `v'` of a descendant `u'` of `u` such that `v` reaches `v'` through
//! a path whose intermediate nodes are themselves matches of the
//! corresponding pattern-path nodes. Equivalently (Lemma 1 guarantees
//! uniqueness/maximality): the data nodes of match-graph pairs strictly
//! reachable from `(u,v)`. Note a match can belong to its own relevant set
//! when the pattern is cyclic (Example 8: `DB3 ∈ R(DB,DB3)`), but not when
//! it is a DAG (Example 4).
//!
//! `δr(u,v) = |R(u,v)|` — "the more matches v can reach, the bigger impact".

use gpm_graph::{BitSet, DiGraph, NodeId};
use gpm_pattern::{PNodeId, Pattern};
use gpm_simulation::{MatchGraph, SimRelation};

use crate::reach_sets::{ReachConfig, ReachEngine};

/// Relevant sets of all matches of the output node, over the match graph's
/// universe (the data nodes its edges reach, in node-id order).
#[derive(Debug, Clone, Default)]
pub struct RelevantSets {
    /// Output matches (ascending node id), aligned with `sets`.
    matches: Vec<NodeId>,
    /// `sets[i]` = R(uo, matches[i]) as universe positions.
    sets: Vec<BitSet>,
    /// The data node at each universe position.
    universe: Vec<NodeId>,
}

impl RelevantSets {
    /// Computes `R(uo, ·)` for every output match. Returns an empty result
    /// when `G` does not match `Q`.
    pub fn compute(g: &DiGraph, q: &Pattern, sim: &SimRelation) -> Self {
        Self::compute_with(g, q, sim, &ReachConfig::default())
    }

    /// As [`RelevantSets::compute`] with an explicit memory policy.
    pub fn compute_with(g: &DiGraph, q: &Pattern, sim: &SimRelation, cfg: &ReachConfig) -> Self {
        if !sim.graph_matches() {
            return RelevantSets::default();
        }
        let mg = MatchGraph::over_matches(g, q, sim);
        let matches = sim.output_matches(q);
        let sources: Vec<u32> = matches
            .iter()
            .map(|&v| {
                let p = sim.space().pair_id(q.output(), v).expect("match is a candidate");
                mg.compact_of(p).expect("match pair is in the match graph")
            })
            .collect();
        let sets = ReachEngine::prepare(&mg, sources, cfg).extract_all();
        RelevantSets { matches, sets, universe: mg.universe().to_vec() }
    }

    /// The output matches, ascending.
    pub fn matches(&self) -> &[NodeId] {
        &self.matches
    }

    /// Number of output matches `|Mu(Q,G,uo)|`.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// `true` when there is no output match.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Relevant set of the `i`-th match.
    pub fn set(&self, i: usize) -> &BitSet {
        &self.sets[i]
    }

    /// `δr(uo, matches[i])`.
    pub fn relevance(&self, i: usize) -> u64 {
        self.sets[i].count() as u64
    }

    /// Index of a match node, if present.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.matches.binary_search(&v).ok()
    }

    /// `δr(uo, v)` by node id.
    pub fn relevance_of(&self, v: NodeId) -> Option<u64> {
        self.index_of(v).map(|i| self.relevance(i))
    }

    /// Jaccard distance `δd` between the `i`-th and `j`-th matches
    /// (Section 3.2). A metric; see `BitSet::jaccard_distance`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.sets[i].jaccard_distance(&self.sets[j])
    }

    /// Decodes the `i`-th relevant set back to data-node ids (ascending).
    pub fn set_node_ids(&self, i: usize) -> Vec<NodeId> {
        self.sets[i].iter().map(|pos| self.universe[pos]).collect()
    }
}

/// Relevant set of an arbitrary pair `(u, v)` — not just the output node —
/// as data-node ids (ascending). Used by golden tests (Example 4 checks `R`
/// of every PM) and by the result-inspection API.
pub fn relevant_set_of_pair(
    g: &DiGraph,
    q: &Pattern,
    sim: &SimRelation,
    u: PNodeId,
    v: NodeId,
) -> Option<Vec<NodeId>> {
    if !sim.contains(u, v) {
        return None;
    }
    let mg = MatchGraph::over_matches(g, q, sim);
    let c = mg.compact_of(sim.space().pair_id(u, v)?)?;
    let sets = ReachEngine::prepare(&mg, vec![c], &ReachConfig::default()).extract_all();
    Some(sets[0].iter().map(|pos| mg.universe()[pos]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;
    use gpm_simulation::compute_simulation;

    /// Two roots with different reach: δr distinguishes them.
    #[test]
    fn relevance_orders_matches() {
        // a-nodes: 0 (reaches b1,c1), 4 (reaches b1 only via 5? no) …
        //   0(a) → 1(b) → 2(c)
        //   3(a) → 1(b)
        // So R(A,0) = R(A,3) = {1,2}? No: 3→1→2 too. Add a second chain:
        //   4(a) → 5(b) → 2(c)
        let g = graph_from_parts(&[0, 1, 2, 0, 0, 1], &[(0, 1), (1, 2), (3, 1), (4, 5), (5, 2)])
            .unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        assert_eq!(rs.matches(), &[0, 3, 4]);
        assert_eq!(rs.relevance_of(0), Some(2)); // {1,2}
        assert_eq!(rs.relevance_of(3), Some(2)); // {1,2}
        assert_eq!(rs.relevance_of(4), Some(2)); // {5,2}
                                                 // Distances: R(0) == R(3) → 0; R(0) vs R(4) share {2} → 1 - 1/3.
        let i0 = rs.index_of(0).unwrap();
        let i3 = rs.index_of(3).unwrap();
        let i4 = rs.index_of(4).unwrap();
        assert_eq!(rs.distance(i0, i3), 0.0);
        assert!((rs.distance(i0, i4) - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(rs.set_node_ids(i4), vec![2, 5]);
    }

    #[test]
    fn empty_on_no_match() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn arbitrary_pair_relevant_set() {
        let g = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert_eq!(relevant_set_of_pair(&g, &q, &sim, 1, 1), Some(vec![2]));
        assert_eq!(relevant_set_of_pair(&g, &q, &sim, 2, 2), Some(vec![]));
        assert_eq!(relevant_set_of_pair(&g, &q, &sim, 0, 2), None, "not a match");
    }

    /// Same data node matched by two pattern nodes counts once.
    #[test]
    fn distinct_data_nodes() {
        // Pattern A→B, A→C where B and C have the same label; data 0→1.
        let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1, 1], &[(0, 1), (0, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let rs = RelevantSets::compute(&g, &q, &sim);
        assert_eq!(rs.relevance_of(0), Some(1), "node 1 counted once");
    }
}
