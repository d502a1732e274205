//! The match graph (and its candidate-pair superset, the product graph).
//!
//! Nodes are pairs `(u, v)`; there is an edge `(u,v) → (u',v')` iff
//! `(u,u') ∈ Ep` and `(v,v') ∈ E`. Over the pairs of `M(Q,G)` this is the
//! paper's *result graph* skeleton, and relevant sets are exactly strict
//! reachability in it:
//!
//! > `R(u,v)` includes all matches `v'` to which `v` can reach via a path of
//! > matches. (Section 3.1)
//!
//! Over **all candidate pairs** (the product graph) the same construction
//! yields the tight upper bounds `v.h` of Examples 7–8: the number of
//! distinct data nodes in candidate pairs strictly reachable from `(u,v)`
//! bounds `δr(u,v)` from above, because matches are candidates. Only the
//! **output cone** of the product graph — the pairs reachable from an
//! output pair — can influence an answer, so that is what the
//! early-termination engine and the bound index build
//! ([`MatchGraph::over_output_cone`]).
//!
//! Every match graph numbers its own universe: the distinct data nodes of
//! its pairs that have a predecessor — the only nodes a strict-reachability
//! set over it can hold — in ascending node-id order. Sets over it are as
//! wide as the graph has reachable data nodes, and because positions keep
//! node-id order, popcounts and Jaccard distances equal those over node ids.

use gpm_graph::csr::Csr;
use gpm_graph::scc::Successors;
use gpm_graph::{DiGraph, NodeId};
use gpm_pattern::{PNodeId, Pattern};

use crate::candidates::{CandidateSpace, PairId};
use crate::relation::SimRelation;

/// Abstract pair-graph view the shared reach engine
/// (`gpm-ranking::reach_sets`) runs over: dense pair ids
/// `0..node_count()`, successor slices (via [`Successors`]), and a
/// projection of every pair onto a position in a fixed universe of data
/// nodes. A [`MatchGraph`] implements it over its own universe; a
/// [`DynMatchGraph`](crate::DynMatchGraph) over the candidate slots of an
/// [`IncSimState`](crate::IncSimState), dead ones without edges, with
/// stable data-node ids as the universe (the encoding the relevance cache
/// persists across batches). One DP, two worlds.
pub trait ReachView: Successors {
    /// Width of the universe the projections index into.
    fn universe_size(&self) -> usize;
    /// Universe position of compact pair `c`'s data node. Only asked for
    /// pairs that have a predecessor: a strict-reachability set holds
    /// nothing else.
    fn universe_pos(&self, c: u32) -> usize;
}

impl<T: ReachView + ?Sized> ReachView for &T {
    fn universe_size(&self) -> usize {
        (**self).universe_size()
    }
    fn universe_pos(&self, c: u32) -> usize {
        (**self).universe_pos(c)
    }
}

/// A pair graph over a subset of candidate pairs, with forward and reverse
/// CSR adjacency, dense *compact* node ids and its own universe.
#[derive(Debug, Clone)]
pub struct MatchGraph {
    full_to_compact: Vec<u32>,
    compact_to_full: Vec<PairId>,
    pnode: Vec<PNodeId>,
    gnode: Vec<NodeId>,
    fwd: Csr,
    rev: Csr,
    /// Universe position of each compact pair's data node ([`NOT_INCLUDED`]
    /// for pairs nothing reaches).
    pos: Vec<u32>,
    /// The data node at each universe position, ascending.
    universe: Vec<NodeId>,
}

pub const NOT_INCLUDED: u32 = u32::MAX;

/// Calls `f` with the full pair id of every product-graph child of
/// `(u, v)`: `(u', w)` with `(u,u') ∈ Ep`, `(v,w) ∈ E`, `w ∈ can(u')`.
fn for_each_child(
    g: &DiGraph,
    q: &Pattern,
    space: &CandidateSpace,
    u: PNodeId,
    v: NodeId,
    mut f: impl FnMut(PairId),
) {
    for &uc in q.successors(u) {
        for &w in g.successors(v) {
            if space.is_candidate(uc, w) {
                f(space.pair_id(uc, w).expect("candidate must have a pair id"));
            }
        }
    }
}

/// The node half of a [`MatchGraph`] under construction: the included
/// pairs numbered densely in `(pattern node, candidate)` order.
struct PairNumbering {
    full_to_compact: Vec<u32>,
    compact_to_full: Vec<PairId>,
    pnode: Vec<PNodeId>,
    gnode: Vec<NodeId>,
}

impl PairNumbering {
    fn new(q: &Pattern, space: &CandidateSpace, mut include: impl FnMut(PairId) -> bool) -> Self {
        let mut full_to_compact = vec![NOT_INCLUDED; space.pair_count()];
        let mut compact_to_full = Vec::new();
        let mut pnode = Vec::new();
        let mut gnode = Vec::new();
        for u in q.nodes() {
            for (i, &v) in space.candidates(u).iter().enumerate() {
                let p = space.pair_at(u, i);
                if include(p) {
                    full_to_compact[p as usize] = compact_to_full.len() as u32;
                    compact_to_full.push(p);
                    pnode.push(u);
                    gnode.push(v);
                }
            }
        }
        PairNumbering { full_to_compact, compact_to_full, pnode, gnode }
    }

    fn assemble(self, edges: &[(u32, u32)]) -> MatchGraph {
        let n = self.compact_to_full.len();
        let fwd = Csr::from_edges(n, edges);
        let rev = fwd.reversed(n);
        let reachable = |c: usize| !rev.neighbors(c as u32).is_empty();
        let mut universe: Vec<NodeId> =
            (0..n).filter(|&c| reachable(c)).map(|c| self.gnode[c]).collect();
        universe.sort_unstable();
        universe.dedup();
        let pos = (0..n)
            .map(|c| {
                if reachable(c) {
                    universe.binary_search(&self.gnode[c]).expect("collected above") as u32
                } else {
                    NOT_INCLUDED
                }
            })
            .collect();
        MatchGraph {
            full_to_compact: self.full_to_compact,
            compact_to_full: self.compact_to_full,
            pnode: self.pnode,
            gnode: self.gnode,
            fwd,
            rev,
            pos,
            universe,
        }
    }
}

impl MatchGraph {
    /// Builds the match graph over the **alive pairs** of a simulation.
    pub fn over_matches(g: &DiGraph, q: &Pattern, sim: &SimRelation) -> Self {
        Self::build(g, q, sim.space(), &mut |p| sim.pair_alive(p))
    }

    /// Builds the product graph over **all candidate pairs**.
    pub fn over_candidates(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> Self {
        Self::build(g, q, space, &mut |_| true)
    }

    /// Builds the **output cone**: the product graph restricted to the
    /// candidate pairs reachable from an output pair `(uo, v)`,
    /// `v ∈ can(uo)` — the only pairs that can influence `Mu(Q,G,uo)` or
    /// any `δr(uo, ·)`. It is the subgraph of [`Self::over_candidates`]
    /// induced by those pairs: compact ids ascend in `(pattern node,
    /// candidate)` order exactly as there, so relative pair order and
    /// successor lists are preserved, and the output pairs stay
    /// contiguous. Costs one traversal of the cone, never of the whole
    /// candidate space.
    pub fn over_output_cone(g: &DiGraph, q: &Pattern, space: &CandidateSpace) -> Self {
        let uo = q.output();
        let mut in_cone = vec![false; space.pair_count()];
        let mut stack: Vec<PairId> =
            (0..space.candidate_count(uo)).map(|i| space.pair_at(uo, i)).collect();
        for &p in &stack {
            in_cone[p as usize] = true;
        }
        // Every cone pair is expanded exactly once, so this is the cone's
        // edge list — in full pair ids until the cone is numbered.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        while let Some(p) = stack.pop() {
            let (u, v) = space.pair_info(p);
            for_each_child(g, q, space, u, v, |pw| {
                if !in_cone[pw as usize] {
                    in_cone[pw as usize] = true;
                    stack.push(pw);
                }
                edges.push((p, pw));
            });
        }
        let nodes = PairNumbering::new(q, space, |p| in_cone[p as usize]);
        for e in &mut edges {
            *e = (nodes.full_to_compact[e.0 as usize], nodes.full_to_compact[e.1 as usize]);
        }
        nodes.assemble(&edges)
    }

    fn build(
        g: &DiGraph,
        q: &Pattern,
        space: &CandidateSpace,
        include: &mut dyn FnMut(PairId) -> bool,
    ) -> Self {
        let nodes = PairNumbering::new(q, space, include);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (c, &p) in nodes.compact_to_full.iter().enumerate() {
            let (u, v) = (nodes.pnode[c], nodes.gnode[c]);
            debug_assert_eq!(space.pair_info(p), (u, v));
            for_each_child(g, q, space, u, v, |pw| {
                let cw = nodes.full_to_compact[pw as usize];
                if cw != NOT_INCLUDED {
                    edges.push((c as u32, cw));
                }
            });
        }
        nodes.assemble(&edges)
    }

    /// Number of included pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.compact_to_full.len()
    }

    /// `true` when no pair is included.
    pub fn is_empty(&self) -> bool {
        self.compact_to_full.is_empty()
    }

    /// Number of pair edges.
    pub fn edge_count(&self) -> usize {
        self.fwd.edge_count()
    }

    /// Compact id of a full pair id, if included.
    #[inline]
    pub fn compact_of(&self, p: PairId) -> Option<u32> {
        let c = self.full_to_compact[p as usize];
        (c != NOT_INCLUDED).then_some(c)
    }

    /// Full pair id of a compact id.
    #[inline]
    pub fn full_of(&self, c: u32) -> PairId {
        self.compact_to_full[c as usize]
    }

    /// Pattern node of compact pair `c`.
    #[inline]
    pub fn pattern_node(&self, c: u32) -> PNodeId {
        self.pnode[c as usize]
    }

    /// Data node of compact pair `c`.
    #[inline]
    pub fn data_node(&self, c: u32) -> NodeId {
        self.gnode[c as usize]
    }

    /// Successor pairs of `c`.
    #[inline]
    pub fn successors(&self, c: u32) -> &[u32] {
        self.fwd.neighbors(c)
    }

    /// Predecessor pairs of `c`.
    #[inline]
    pub fn predecessors(&self, c: u32) -> &[u32] {
        self.rev.neighbors(c)
    }

    /// All compact ids of pairs belonging to pattern node `u`, in candidate
    /// order (compact ids of one pattern node are contiguous by
    /// construction).
    pub fn pairs_of_pattern_node(&self, u: PNodeId) -> impl Iterator<Item = u32> + '_ {
        (0..self.len() as u32).filter(move |&c| self.pnode[c as usize] == u)
    }

    /// The data node at each universe position, ascending — what decodes a
    /// set over this graph back to node ids.
    #[inline]
    pub fn universe(&self) -> &[NodeId] {
        &self.universe
    }
}

impl Successors for MatchGraph {
    fn node_count(&self) -> usize {
        self.len()
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        self.successors(v)
    }
}

impl ReachView for MatchGraph {
    fn universe_size(&self) -> usize {
        self.universe.len()
    }
    fn universe_pos(&self, c: u32) -> usize {
        debug_assert_ne!(self.pos[c as usize], NOT_INCLUDED, "pair {c} is not reachable");
        self.pos[c as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::compute_simulation;
    use gpm_graph::builder::graph_from_parts;
    use gpm_pattern::builder::label_pattern;

    #[test]
    fn match_graph_over_chain() {
        // 0(a)→1(b)→2(c); 3(b) dangling (not a match of B).
        let g = graph_from_parts(&[0, 1, 2, 1], &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        assert_eq!(mg.len(), 3, "pairs (A,0),(B,1),(C,2)");
        assert_eq!(mg.edge_count(), 2);
        // Product graph includes (B,3) too.
        let pg = MatchGraph::over_candidates(&g, &q, sim.space());
        assert_eq!(pg.len(), 4);
        assert_eq!(pg.edge_count(), 3, "(A,0)->(B,1),(A,0)->(B,3),(B,1)->(C,2)");
    }

    #[test]
    fn compact_full_roundtrip_and_adjacency() {
        let g = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        for c in 0..mg.len() as u32 {
            let p = mg.full_of(c);
            assert_eq!(mg.compact_of(p), Some(c));
            let (u, v) = sim.space().pair_info(p);
            assert_eq!(mg.pattern_node(c), u);
            assert_eq!(mg.data_node(c), v);
        }
        let a0 = mg.compact_of(sim.space().pair_id(0, 0).unwrap()).unwrap();
        let b1 = mg.compact_of(sim.space().pair_id(1, 1).unwrap()).unwrap();
        let c2 = mg.compact_of(sim.space().pair_id(2, 2).unwrap()).unwrap();
        assert_eq!(mg.successors(a0), &[b1]);
        assert_eq!(mg.predecessors(b1), &[a0]);
        assert_eq!(mg.successors(c2), &[] as &[u32]);
        assert_eq!(mg.pairs_of_pattern_node(1).collect::<Vec<_>>(), vec![b1]);
    }

    #[test]
    fn cyclic_pattern_match_graph_has_cycle() {
        let g = graph_from_parts(&[0, 1], &[(0, 1), (1, 0)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let sim = compute_simulation(&g, &q);
        let mg = MatchGraph::over_matches(&g, &q, &sim);
        assert_eq!(mg.len(), 2);
        assert_eq!(mg.edge_count(), 2);
        let cond = gpm_graph::Condensation::compute(&mg);
        assert_eq!(cond.component_count(), 1, "the two pairs form one SCC");
        assert!(cond.is_nontrivial(0));
    }

    /// The cone is the subgraph of the candidate product graph reachable
    /// from the output pairs: same pairs in the same relative order, same
    /// adjacency — over random graphs and DAG / cyclic / non-root shapes.
    #[test]
    fn output_cone_is_the_reachable_product_subgraph() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let patterns = [
            label_pattern(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)], 0).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2), (2, 1)], 0).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 0), (1, 2)], 1).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 1).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..30 {
            let n = rng.random_range(5..50u32);
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..4u32)).collect();
            let mut edges: Vec<(u32, u32)> = (0..rng.random_range(n..n * 4))
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let g = graph_from_parts(&labels, &edges).unwrap();
            for (pi, q) in patterns.iter().enumerate() {
                let space = CandidateSpace::compute(&g, q);
                let full = MatchGraph::over_candidates(&g, q, &space);
                let cone = MatchGraph::over_output_cone(&g, q, &space);

                let mut reachable = vec![false; full.len()];
                let mut stack: Vec<u32> = full.pairs_of_pattern_node(q.output()).collect();
                for &c in &stack {
                    reachable[c as usize] = true;
                }
                while let Some(c) = stack.pop() {
                    for &w in full.successors(c) {
                        if !std::mem::replace(&mut reachable[w as usize], true) {
                            stack.push(w);
                        }
                    }
                }
                let kept: Vec<u32> =
                    (0..full.len() as u32).filter(|&c| reachable[c as usize]).collect();
                let ctx = format!("trial {trial} pattern {pi}");
                assert_eq!(cone.len(), kept.len(), "{ctx}");
                // `kept` ascends, so position in it is the expected cone id.
                let in_cone = |cs: &[u32]| -> Vec<u32> {
                    cs.iter().filter_map(|c| kept.binary_search(c).ok().map(|i| i as u32)).collect()
                };
                for (i, &c) in kept.iter().enumerate() {
                    let i = i as u32;
                    assert_eq!(cone.full_of(i), full.full_of(c), "{ctx}");
                    assert_eq!(cone.compact_of(full.full_of(c)), Some(i), "{ctx}");
                    assert_eq!(cone.pattern_node(i), full.pattern_node(c), "{ctx}");
                    assert_eq!(cone.data_node(i), full.data_node(c), "{ctx}");
                    assert_eq!(cone.successors(i), in_cone(full.successors(c)), "{ctx}");
                    assert_eq!(cone.predecessors(i), in_cone(full.predecessors(c)), "{ctx}");
                }
                for c in (0..full.len() as u32).filter(|&c| !reachable[c as usize]) {
                    assert_eq!(cone.compact_of(full.full_of(c)), None, "{ctx}");
                }

                // The universe numbers exactly the nodes some pair reaches,
                // in node-id order, identically for pairs sharing a node.
                let mut seen = std::collections::BTreeSet::new();
                for i in (0..cone.len() as u32).filter(|&i| !cone.predecessors(i).is_empty()) {
                    assert_eq!(cone.universe()[cone.universe_pos(i)], cone.data_node(i), "{ctx}");
                    seen.insert(cone.data_node(i));
                }
                assert!(seen.iter().eq(cone.universe()), "{ctx}");
            }
        }
    }
}
