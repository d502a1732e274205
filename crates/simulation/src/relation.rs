//! The maximum simulation relation `M(Q,G)`.

use gpm_graph::{DiGraph, NodeId};
use gpm_pattern::{PNodeId, Pattern};

use crate::candidates::{CandidateSpace, PairId};

/// Result of simulation: which candidate pairs survive in the maximum
/// relation, plus the emptiness flag of the paper's semantics (`M(Q,G) = ∅`
/// when some pattern node has no match).
#[derive(Debug, Clone)]
pub struct SimRelation {
    space: CandidateSpace,
    /// `alive[p]` for pair id `p`: `(u,v) ∈ M(Q,G)` *structurally* — i.e.
    /// before the global emptiness rule is applied.
    alive: Vec<bool>,
    /// `true` iff every pattern node retains at least one match.
    matched: bool,
}

impl SimRelation {
    pub(crate) fn new(space: CandidateSpace, alive: Vec<bool>, q: &Pattern) -> Self {
        let matched = q
            .nodes()
            .all(|u| (0..space.candidate_count(u)).any(|i| alive[space.pair_at(u, i) as usize]));
        SimRelation { space, alive, matched }
    }

    /// The candidate space the relation was computed over.
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// Gives up the relation, keeping the candidate space it was computed
    /// over (for callers that needed the simulation only as a check).
    pub fn into_space(self) -> CandidateSpace {
        self.space
    }

    /// `true` iff `G` matches `Q` (every pattern node has a match). When
    /// `false`, the paper defines `M(Q,G) = ∅` and `Mu(Q,G,uo) = ∅`.
    pub fn graph_matches(&self) -> bool {
        self.matched
    }

    /// `(u,v) ∈ M(Q,G)`?
    pub fn contains(&self, u: PNodeId, v: NodeId) -> bool {
        self.matched && self.space.pair_id(u, v).is_some_and(|p| self.alive[p as usize])
    }

    /// Raw per-pair survival (ignores the emptiness rule; used by engines).
    #[inline]
    pub fn pair_alive(&self, p: PairId) -> bool {
        self.alive[p as usize]
    }

    /// Matches of pattern node `u` (empty when `G` does not match `Q`).
    pub fn matches_of(&self, u: PNodeId) -> Vec<NodeId> {
        if !self.matched {
            return Vec::new();
        }
        self.space
            .candidates(u)
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.alive[self.space.pair_at(u, i) as usize])
            .map(|(_, &v)| v)
            .collect()
    }

    /// `Mu(Q, G, uo)` — matches of the output node (Section 2.2).
    pub fn output_matches(&self, q: &Pattern) -> Vec<NodeId> {
        self.matches_of(q.output())
    }

    /// `|M(Q,G)|` — number of pairs in the relation (0 if `G` ⊭ `Q`).
    pub fn len(&self) -> usize {
        if !self.matched {
            return 0;
        }
        self.alive.iter().filter(|&&a| a).count()
    }

    /// `true` iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that the relation is a valid simulation of `q` in `g`:
    /// condition (2) label/predicate match is structural (candidates), so
    /// only condition (3) — child support — needs verifying. Used by tests
    /// and the property suite; `O(|M|·deg)`.
    pub fn verify_is_simulation(&self, g: &DiGraph, q: &Pattern) -> bool {
        for u in q.nodes() {
            for (i, &v) in self.space.candidates(u).iter().enumerate() {
                if !self.alive[self.space.pair_at(u, i) as usize] {
                    continue;
                }
                for &uc in q.successors(u) {
                    let supported = g.successors(v).iter().any(|&w| {
                        self.space.pair_id(uc, w).is_some_and(|p| self.alive[p as usize])
                    });
                    if !supported {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Checks maximality: no dead pair could be revived. For simulation the
    /// union of simulations is a simulation, so a relation is maximum iff no
    /// single pair can be added while keeping closure under condition (3)
    /// w.r.t. the *current* relation. `O(pairs·deg)`.
    pub fn verify_is_maximum(&self, g: &DiGraph, q: &Pattern) -> bool {
        for u in q.nodes() {
            for (i, &v) in self.space.candidates(u).iter().enumerate() {
                if self.alive[self.space.pair_at(u, i) as usize] {
                    continue;
                }
                // A dead pair must violate some pattern edge.
                let violates = q.successors(u).iter().any(|&uc| {
                    !g.successors(v)
                        .iter()
                        .any(|&w| self.space.pair_id(uc, w).is_some_and(|p| self.alive[p as usize]))
                });
                if !violates {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::refine::compute_simulation;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;

    #[test]
    fn relation_accessors() {
        // 0(a) → 1(b); pattern A→B.
        let g = graph_from_parts(&[0, 1, 0], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert!(sim.graph_matches());
        assert!(sim.contains(0, 0));
        assert!(!sim.contains(0, 2), "node 2 has no b-child");
        assert!(sim.contains(1, 1));
        assert_eq!(sim.matches_of(0), vec![0]);
        assert_eq!(sim.output_matches(&q), vec![0]);
        assert_eq!(sim.len(), 2);
        assert!(!sim.is_empty());
        assert!(sim.verify_is_simulation(&g, &q));
        assert!(sim.verify_is_maximum(&g, &q));
    }

    #[test]
    fn empty_when_pattern_node_unmatched() {
        let g = graph_from_parts(&[0, 0], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 5], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert!(!sim.graph_matches());
        assert_eq!(sim.len(), 0);
        assert!(sim.is_empty());
        assert!(sim.matches_of(0).is_empty());
        assert!(!sim.contains(0, 0));
    }
}
