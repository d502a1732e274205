//! Strongly connected components, condensation and topological ranks.
//!
//! Section 4 of the paper defines, for a graph `G`, the SCC graph `G_SCC`
//! obtained by collapsing each strongly connected component into one node,
//! and the *topological rank* `r(v)`:
//!
//! * `r(v) = 0` if `v`'s SCC is a leaf of `G_SCC` (out-degree 0), and
//! * `r(v) = max(1 + r(v'))` over SCC edges `(v_SCC, v'_SCC)` otherwise.
//!
//! Both the data graph and the pattern are condensed this way (`TopK` treats
//! `Q_SCC` as a DAG pattern), and the match graph is condensed when relevant
//! sets are computed. The algorithm is an iterative Tarjan so deep graphs do
//! not overflow the call stack.

use crate::csr::Csr;
use crate::digraph::{DiGraph, NodeId};

/// Anything that exposes successor slices; lets the same Tarjan run over data
/// graphs, pattern graphs and match graphs.
pub trait Successors {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Successor slice of `v`.
    fn successors_of(&self, v: NodeId) -> &[NodeId];
}

impl Successors for DiGraph {
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        self.successors(v)
    }
}

impl<T: Successors + ?Sized> Successors for &T {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        (**self).successors_of(v)
    }
}

impl Successors for Csr {
    fn node_count(&self) -> usize {
        Csr::node_count(self)
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }
}

/// The repo's one Tarjan: iterative (deep graphs do not overflow the call
/// stack), parameterised by a root list and a node filter, over scratch
/// that survives between runs.
///
/// The scratch is vector-indexed and **epoch-stamped**: DFS indices keep
/// counting up across runs, so "visited in this run" is `index[v] ≥` the
/// run's first index and nothing is cleared between runs. A run therefore
/// costs O(nodes + edges it visits) — a maintained condensation re-running
/// Tarjan inside a small region pays for the region, not for the graph —
/// plus an O(n) grow the first time a graph of `n` nodes is seen.
#[derive(Debug, Clone, Default)]
pub struct TarjanScratch {
    /// DFS index per node; `0` = never visited, `< base` = a previous run.
    index: Vec<u32>,
    lowlink: Vec<u32>,
    /// All `false` between runs (every visited node is popped with its SCC).
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// DFS frames: (node, next successor position).
    frames: Vec<(u32, usize)>,
    /// Last DFS index handed out, by any run.
    last: u32,
}

impl TarjanScratch {
    /// Runs Tarjan over the subgraph of `g` induced by `keep`, starting a
    /// DFS from each not-yet-visited root in order, and hands every SCC to
    /// `emit` in emission order — a **reverse topological order** of the
    /// induced condensation. Members arrive in stack order (the SCC's DFS
    /// root first). Every root must satisfy `keep`.
    pub fn run<G: Successors>(
        &mut self,
        g: &G,
        roots: impl IntoIterator<Item = u32>,
        keep: impl Fn(u32) -> bool,
        mut emit: impl FnMut(&[u32]),
    ) {
        let n = g.node_count();
        if self.index.len() < n {
            self.index.resize(n, 0);
            self.lowlink.resize(n, 0);
            self.on_stack.resize(n, false);
        }
        // A run hands out at most `n` indices; restart the epochs before
        // they could wrap.
        if self.last as usize + n >= u32::MAX as usize {
            self.index.fill(0);
            self.last = 0;
        }
        let base = self.last + 1;
        for root in roots {
            if self.index[root as usize] >= base {
                continue;
            }
            self.enter(root);
            while let Some(&mut (v, ref mut si)) = self.frames.last_mut() {
                let succs = g.successors_of(v);
                if *si < succs.len() {
                    let w = succs[*si];
                    *si += 1;
                    if !keep(w) {
                        continue;
                    }
                    if self.index[w as usize] < base {
                        self.enter(w);
                    } else if self.on_stack[w as usize] {
                        self.lowlink[v as usize] =
                            self.lowlink[v as usize].min(self.index[w as usize]);
                    }
                } else {
                    self.frames.pop();
                    if let Some(&(p, _)) = self.frames.last() {
                        self.lowlink[p as usize] =
                            self.lowlink[p as usize].min(self.lowlink[v as usize]);
                    }
                    if self.lowlink[v as usize] == self.index[v as usize] {
                        // v is the root of an SCC: everything above it on
                        // the stack is its component.
                        let at = self.stack.iter().rposition(|&w| w == v).expect("root on stack");
                        for &w in &self.stack[at..] {
                            self.on_stack[w as usize] = false;
                        }
                        emit(&self.stack[at..]);
                        self.stack.truncate(at);
                    }
                }
            }
        }
    }

    fn enter(&mut self, v: u32) {
        self.last += 1;
        self.index[v as usize] = self.last;
        self.lowlink[v as usize] = self.last;
        self.stack.push(v);
        self.on_stack[v as usize] = true;
        self.frames.push((v, 0));
    }
}

/// Maps each node to its strongly connected component.
///
/// Component ids are assigned in Tarjan emission order, which is a **reverse
/// topological order** of the condensation: every edge between distinct
/// components goes from a higher component id to a lower one. Bottom-up
/// dynamic programs can therefore just iterate component ids ascending.
#[derive(Debug, Clone)]
pub struct SccIndex {
    comp_of: Vec<u32>,
    comp_count: usize,
}

impl SccIndex {
    /// Runs iterative Tarjan over all of `g` — the all-roots, no-filter
    /// call of [`TarjanScratch::run`].
    pub fn compute(g: &impl Successors) -> Self {
        let n = g.node_count();
        let mut comp_of = vec![0u32; n];
        let mut comp_count = 0u32;
        TarjanScratch::default().run(
            g,
            0..n as u32,
            |_| true,
            |scc| {
                for &w in scc {
                    comp_of[w as usize] = comp_count;
                }
                comp_count += 1;
            },
        );
        SccIndex { comp_of, comp_count: comp_count as usize }
    }

    /// Component id of node `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.comp_of[v as usize]
    }

    /// Number of components.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.comp_count
    }

    /// Component ids, indexed by node.
    #[inline]
    pub fn components(&self) -> &[u32] {
        &self.comp_of
    }
}

/// The condensation DAG `G_SCC`, with member lists, per-component flags and
/// the paper's topological ranks.
#[derive(Debug, Clone)]
pub struct Condensation {
    index: SccIndex,
    /// DAG over components (deduplicated, self-loops removed).
    dag: Csr,
    /// Members grouped by component: `member_flat[member_off[c]..member_off[c+1]]`.
    member_off: Vec<u32>,
    member_flat: Vec<NodeId>,
    /// `true` for components with >1 member or a self-loop member: nodes in
    /// such components lie on at least one nonempty cycle.
    nontrivial: Vec<bool>,
    /// Topological ranks per component (paper Section 4).
    rank: Vec<u32>,
}

impl Condensation {
    /// Condenses `g`.
    pub fn compute(g: &impl Successors) -> Self {
        let index = SccIndex::compute(g);
        let n = g.node_count();
        let nc = index.component_count();

        let mut size = vec![0u32; nc];
        for v in 0..n {
            size[index.comp_of[v] as usize] += 1;
        }
        let mut member_off = Vec::with_capacity(nc + 1);
        let mut acc = 0u32;
        member_off.push(0u32);
        for s in &size {
            acc += s;
            member_off.push(acc);
        }
        let mut cursor = member_off[..nc].to_vec();
        let mut member_flat = vec![0 as NodeId; n];
        for v in 0..n as NodeId {
            let c = index.comp_of[v as usize] as usize;
            member_flat[cursor[c] as usize] = v;
            cursor[c] += 1;
        }

        let mut nontrivial: Vec<bool> = size.iter().map(|&s| s > 1).collect();
        let mut comp_edges: Vec<(u32, u32)> = Vec::new();
        for v in 0..n as NodeId {
            let cv = index.comp_of[v as usize];
            for &w in g.successors_of(v) {
                let cw = index.comp_of[w as usize];
                if cv == cw {
                    if v == w {
                        nontrivial[cv as usize] = true;
                    }
                } else {
                    comp_edges.push((cv, cw));
                }
            }
        }
        comp_edges.sort_unstable();
        comp_edges.dedup();
        let dag = Csr::from_edges(nc, &comp_edges);

        // Tarjan numbers components in reverse topological order, so every
        // DAG edge goes from a higher id to a lower id; iterate ascending.
        let mut rank = vec![0u32; nc];
        for c in 0..nc as u32 {
            let mut r = 0;
            for &s in dag.neighbors(c) {
                debug_assert!(s < c, "component ids must be reverse-topological");
                r = r.max(1 + rank[s as usize]);
            }
            rank[c as usize] = r;
        }

        Condensation { index, dag, member_off, member_flat, nontrivial, rank }
    }

    /// The underlying node→component mapping.
    pub fn index(&self) -> &SccIndex {
        &self.index
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.index.component_count()
    }

    /// Component id of node `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.index.component_of(v)
    }

    /// Members of component `c` (sorted by insertion during grouping).
    pub fn members(&self, c: u32) -> &[NodeId] {
        let (a, b) =
            (self.member_off[c as usize] as usize, self.member_off[c as usize + 1] as usize);
        &self.member_flat[a..b]
    }

    /// Successor components of `c` in the condensation DAG.
    pub fn comp_successors(&self, c: u32) -> &[u32] {
        self.dag.neighbors(c)
    }

    /// `true` if component `c` contains a nonempty cycle (size > 1 or a
    /// self-loop). Nodes of such components reach themselves via ≥1 edge.
    #[inline]
    pub fn is_nontrivial(&self, c: u32) -> bool {
        self.nontrivial[c as usize]
    }

    /// Topological rank `r(v)` of a node, per the paper's definition.
    #[inline]
    pub fn node_rank(&self, v: NodeId) -> u32 {
        self.rank[self.index.component_of(v) as usize]
    }

    /// Maximum rank over all components ("height" of the graph).
    pub fn height(&self) -> u32 {
        self.rank.iter().copied().max().unwrap_or(0)
    }

    /// Component ids in ascending order — i.e. reverse topological order,
    /// suitable for bottom-up dynamic programming.
    pub fn reverse_topological(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.component_count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_parts;

    /// Two 2-cycles bridged by an edge plus a tail.
    fn fixture() -> DiGraph {
        // 0⇄1 → 2⇄3 → 4
        graph_from_parts(&[0; 5], &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn scc_grouping() {
        let g = fixture();
        let idx = SccIndex::compute(&g);
        assert_eq!(idx.component_count(), 3);
        assert_eq!(idx.component_of(0), idx.component_of(1));
        assert_eq!(idx.component_of(2), idx.component_of(3));
        assert_ne!(idx.component_of(0), idx.component_of(2));
        assert_ne!(idx.component_of(4), idx.component_of(2));
    }

    #[test]
    fn reverse_topological_ids() {
        let g = fixture();
        let idx = SccIndex::compute(&g);
        // Edges must go from higher comp id to lower comp id.
        for v in g.nodes() {
            for &w in g.successors(v) {
                let (cv, cw) = (idx.component_of(v), idx.component_of(w));
                if cv != cw {
                    assert!(cv > cw, "edge {v}->{w} maps to comps {cv}->{cw}");
                }
            }
        }
    }

    #[test]
    fn condensation_ranks() {
        let g = fixture();
        let c = Condensation::compute(&g);
        // Node 4 is the only leaf (rank 0); the 2⇄3 SCC has rank 1; 0⇄1 rank 2.
        assert_eq!(c.node_rank(4), 0);
        assert_eq!(c.node_rank(2), 1);
        assert_eq!(c.node_rank(3), 1);
        assert_eq!(c.node_rank(0), 2);
        assert_eq!(c.height(), 2);
        assert!(c.is_nontrivial(c.component_of(0)));
        assert!(!c.is_nontrivial(c.component_of(4)));
    }

    #[test]
    fn self_loop_is_nontrivial() {
        let g = graph_from_parts(&[0, 0], &[(0, 0), (0, 1)]).unwrap();
        let c = Condensation::compute(&g);
        assert_eq!(c.component_count(), 2);
        assert!(c.is_nontrivial(c.component_of(0)));
        assert!(!c.is_nontrivial(c.component_of(1)));
        assert_eq!(c.node_rank(0), 1);
    }

    #[test]
    fn dag_members_and_successors() {
        let g = fixture();
        let c = Condensation::compute(&g);
        let c01 = c.component_of(0);
        let c23 = c.component_of(2);
        let c4 = c.component_of(4);
        let mut m = c.members(c01).to_vec();
        m.sort_unstable();
        assert_eq!(m, vec![0, 1]);
        assert_eq!(c.comp_successors(c01), &[c23]);
        assert_eq!(c.comp_successors(c23), &[c4]);
        assert_eq!(c.comp_successors(c4), &[] as &[u32]);
    }

    /// Root list + node filter, on scratch a previous run already used:
    /// only the induced subgraph is condensed, in reverse topological
    /// order, and stale indices from the earlier run are not "visited".
    #[test]
    fn filtered_run_on_reused_scratch() {
        let g = fixture();
        let mut scratch = TarjanScratch::default();
        let mut all = Vec::new();
        scratch.run(&g, 0..5, |_| true, |scc| all.push(scc.to_vec()));
        assert_eq!(all.len(), 3);

        // Without node 3 the 2⇄3 cycle is gone and 4 is unreachable.
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        scratch.run(
            &g,
            [2, 0],
            |v| v != 3,
            |scc| {
                let mut scc = scc.to_vec();
                scc.sort_unstable();
                sccs.push(scc);
            },
        );
        assert_eq!(sccs, vec![vec![2], vec![0, 1]], "roots in order, successors first");
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // A 200k-long chain would overflow a recursive Tarjan.
        let n = 200_000u32;
        let labels = vec![0u32; n as usize];
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph_from_parts(&labels, &edges).unwrap();
        let c = Condensation::compute(&g);
        assert_eq!(c.component_count(), n as usize);
        assert_eq!(c.node_rank(0), n - 1);
        assert_eq!(c.node_rank(n - 1), 0);
    }

    #[test]
    fn single_big_cycle() {
        let n = 1000u32;
        let labels = vec![0u32; n as usize];
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_from_parts(&labels, &edges).unwrap();
        let c = Condensation::compute(&g);
        assert_eq!(c.component_count(), 1);
        assert!(c.is_nontrivial(0));
        assert_eq!(c.height(), 0);
    }
}
