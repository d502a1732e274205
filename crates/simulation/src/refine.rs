//! Counter-based computation of the maximum simulation.
//!
//! For every pair `(u, v)` with `v ∈ can(u)` and every pattern edge
//! `(u, u')`, we maintain `cnt = |succ(v) ∩ alive(can(u'))|` — the number of
//! data children of `v` that still match `u'`. A pair dies when any of its
//! counters hits zero; each death decrements the counters of its candidate
//! parents, cascading to the greatest fixpoint. This is the standard
//! linear-time formulation of HHK refinement:
//! `O(Σ_u Σ_{v ∈ can(u)} deg(v) · outdeg(u)) ⊆ O(|Q||G|)` after an
//! `O(|V|)` candidate-mask pass, matching the paper's bound.

use gpm_graph::DiGraph;
use gpm_pattern::{PNodeId, Pattern};

use crate::candidates::{CandidateSpace, PairId};
use crate::relation::SimRelation;

/// Computes the maximum simulation `M(Q,G)` of `q` in `g`.
pub fn compute_simulation(g: &DiGraph, q: &Pattern) -> SimRelation {
    let space = CandidateSpace::compute(g, q);
    let alive = refine(g, q, &space);
    SimRelation::new(space, alive, q)
}

/// The full fixpoint state of a refinement run: survival flags plus the
/// support counters, **maintained for dead pairs too** (a dead pair's
/// counters keep tracking its alive children). The incremental engine
/// ([`crate::incremental`]) resumes from this state instead of recomputing
/// it, which is what makes registering a pattern for incremental
/// maintenance cheap.
#[derive(Debug, Clone)]
pub struct RefineState {
    /// Per-pair survival (no emptiness rule applied).
    pub alive: Vec<bool>,
    /// Flattened counters: pair `(u, i)` with `d = outdeg(u)` owns
    /// `counters[ebase[u] + i*d .. +d]`, one slot per pattern edge of `u`
    /// in successor order; slot `j` counts the alive children under the
    /// `j`-th pattern edge.
    pub counters: Vec<u32>,
    /// Per-pattern-node offsets into `counters` (length `|Vp| + 1`).
    pub ebase: Vec<usize>,
}

/// Runs the refinement over a precomputed candidate space, returning the
/// per-pair survival flags (no emptiness rule applied).
pub fn refine(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> Vec<bool> {
    refine_state(g, q, space).alive
}

/// As [`refine`], but returns the full counter state for incremental resume.
pub fn refine_state(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> RefineState {
    let pair_count = space.pair_count();
    let mut alive = vec![true; pair_count];
    if pair_count == 0 {
        return RefineState { alive, counters: Vec::new(), ebase: vec![0; q.node_count() + 1] };
    }

    // Flattened counters: pair (u, i) with outdeg(u) = d(u) owns the slice
    // cnt[ebase(u) + i*d(u) .. +d(u)], one slot per pattern edge of u in
    // successor order.
    let mut ebase = Vec::with_capacity(q.node_count() + 1);
    let mut acc = 0usize;
    ebase.push(0);
    for u in q.nodes() {
        acc += space.candidate_count(u) * q.successors(u).len();
        ebase.push(acc);
    }
    let mut cnt = vec![0u32; acc];

    let mut dead: Vec<PairId> = Vec::new();

    // Initialize counters by scanning each candidate's successor list once.
    for u in q.nodes() {
        let succs_u = q.successors(u);
        let d = succs_u.len();
        if d == 0 {
            continue; // leaves: all candidates survive unconditionally
        }
        for (i, &v) in space.candidates(u).iter().enumerate() {
            let base = ebase[u as usize] + i * d;
            for &w in g.successors(v) {
                let m = space.mask_of(w);
                if m == 0 {
                    continue;
                }
                for (j, &uc) in succs_u.iter().enumerate() {
                    if m & (1u64 << uc) != 0 {
                        cnt[base + j] += 1;
                    }
                }
            }
            if (0..d).any(|j| cnt[base + j] == 0) {
                let p = space.pair_at(u, i);
                alive[p as usize] = false;
                dead.push(p);
            }
        }
    }

    // Edge index of (u, u') in u's successor list (successors are sorted).
    let edge_index = |u: PNodeId, uc: PNodeId| -> usize {
        q.successors(u).binary_search(&uc).expect("pattern edge must exist")
    };

    // Cascade deaths. Dead pairs keep receiving decrements so that, at the
    // fixpoint, every counter equals its pair's current alive-child count —
    // the invariant the incremental engine resumes from.
    while let Some(p) = dead.pop() {
        let (uc, vc) = space.pair_info(p);
        for &u in q.predecessors(uc) {
            let j = edge_index(u, uc);
            let d = q.successors(u).len();
            for &w in g.predecessors(vc) {
                if !space.is_candidate(u, w) {
                    continue;
                }
                let pw = space.pair_id(u, w).expect("mask and list agree");
                let local = (pw - space.pair_at(u, 0)) as usize;
                let slot = ebase[u as usize] + local * d + j;
                cnt[slot] -= 1;
                if cnt[slot] == 0 && alive[pw as usize] {
                    alive[pw as usize] = false;
                    dead.push(pw);
                }
            }
        }
    }

    RefineState { alive, counters: cnt, ebase }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;

    #[test]
    fn chain_pattern_prunes_transitively() {
        // Data: a→b, b→c, plus an `a` with no chain below it.
        //  0(a)→1(b)→2(c), 3(a)→4(b), 5(a)
        let g = graph_from_parts(&[0, 1, 2, 0, 1, 0], &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert!(sim.graph_matches());
        assert_eq!(sim.matches_of(0), vec![0], "only node 0 has a full chain");
        assert_eq!(sim.matches_of(1), vec![1], "node 4 has no c-child");
        assert_eq!(sim.matches_of(2), vec![2]);
        assert!(sim.verify_is_simulation(&g, &q));
        assert!(sim.verify_is_maximum(&g, &q));
    }

    #[test]
    fn cycle_pattern_on_cycle_graph() {
        // Pattern: A ⇄ B. Data: 0(a)⇄1(b), and 2(a)→3(b) (no back edge).
        let g = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 0), (2, 3)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert_eq!(sim.matches_of(0), vec![0]);
        assert_eq!(sim.matches_of(1), vec![1]);
        assert!(sim.verify_is_maximum(&g, &q));
    }

    #[test]
    fn self_loop_pattern() {
        // Pattern node with a self loop requires a data cycle of its label.
        let g = graph_from_parts(&[0, 0, 0], &[(0, 1), (1, 0), (1, 2)]).unwrap();
        let q = label_pattern(&[0], &[(0, 0)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let m = sim.matches_of(0);
        assert_eq!(m, vec![0, 1], "node 2 has no outgoing edge to label 0");
    }

    #[test]
    fn no_match_graph() {
        let g = graph_from_parts(&[0, 1], &[]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert!(!sim.graph_matches(), "no edge a→b exists");
        assert!(sim.output_matches(&q).is_empty());
    }

    #[test]
    fn single_node_pattern_matches_all_of_label() {
        let g = graph_from_parts(&[3, 3, 1], &[(0, 2)]).unwrap();
        let q = label_pattern(&[3], &[], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert_eq!(sim.matches_of(0), vec![0, 1]);
    }

    #[test]
    fn diamond_with_shared_child() {
        // Pattern: A→B, A→C, B→D, C→D (diamond).
        // Data mirrors the diamond exactly.
        let g = graph_from_parts(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        assert_eq!(sim.len(), 4);
        assert!(sim.verify_is_simulation(&g, &q));
    }
}
