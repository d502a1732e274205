//! [`DynMatchGraph`]: the dynamic path's match-graph view.
//!
//! The static pipeline materializes a [`MatchGraph`](crate::MatchGraph)
//! from a CSR snapshot per query; the dynamic path instead maintains an
//! [`IncSimState`](crate::IncSimState) against a mutable
//! [`DynGraph`](gpm_graph::DynGraph) and historically re-derived each
//! dirty relevant set by an ad-hoc per-source BFS that shared nothing
//! across the dirty set. This view closes that gap: it packs the **alive
//! pairs** of the simulation into dense compact ids with sorted adjacency
//! and implements [`ReachView`](crate::ReachView), so the shared
//! condensation-and-bitset DP (`gpm-ranking::reach_sets`) is the single
//! reach engine for both worlds.
//!
//! Since PR 7 the view is **stateful across batches**: compact ids are
//! stable (a pair that dies keeps its slot as a tombstone and revives
//! into it), and [`DynMatchGraph::apply_pair_delta`] folds one batch's
//! simulation flips and data-edge changes into the adjacency in
//! `O(|Δ|·deg)` instead of rebuilding the packing from scratch. The
//! emitted [`PairDelta`] names exactly the pair-level births, deaths and
//! edge changes, which is what incremental condensation maintenance
//! (`gpm-ranking`'s `CondensationState`) consumes.
//!
//! The universe projection is the **data-node id** itself (not a per-query
//! compact universe): node ids are stable across updates while universes
//! are not, and the relevance cache's bitsets are keyed by node id — so
//! the DP's output bitsets can be stored in the cache directly, no
//! re-encoding. The universe is the graph's node count as of the last
//! batch folded in: a set built over the view is exactly as wide as the
//! graph is then, and readers zero-extend older, narrower ones.

use std::collections::{BTreeSet, HashMap};

use gpm_graph::dynamic::DynGraph;
use gpm_graph::scc::Successors;
use gpm_graph::NodeId;
use gpm_pattern::{PNodeId, Pattern};

use crate::incremental::IncSimState;
use crate::match_graph::ReachView;

/// One batch's effect on the pair graph, in compact ids: which slots came
/// alive, which died, and which pair edges appeared or disappeared
/// **between pairs that are alive after the batch**. Edges incident to a
/// dying pair are stripped silently (consumers learn enough from `died`);
/// edges incident to a born pair are always reported in `added`.
#[derive(Debug, Default, Clone)]
pub struct PairDelta {
    /// Slots that became alive (fresh or revived tombstones).
    pub born: Vec<u32>,
    /// Slots that became tombstones.
    pub died: Vec<u32>,
    /// Pair edges that newly exist between post-batch-alive pairs.
    pub added: Vec<(u32, u32)>,
    /// Pair edges that ceased to exist between post-batch-alive pairs.
    pub removed: Vec<(u32, u32)>,
}

impl PairDelta {
    /// `true` when the batch left the pair graph untouched.
    pub fn is_empty(&self) -> bool {
        self.born.is_empty()
            && self.died.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
    }

    /// Number of pair-level changes (for churn thresholds).
    pub fn change_count(&self) -> usize {
        self.born.len() + self.died.len() + self.added.len() + self.removed.len()
    }
}

/// A pair graph over the alive pairs of an incremental simulation, with
/// sorted forward/backward adjacency, stable compact ids (tombstoned on
/// death, revived in place) and a data-node-id universe.
#[derive(Debug, Clone)]
pub struct DynMatchGraph {
    pnode: Vec<PNodeId>,
    gnode: Vec<NodeId>,
    /// `index[u]`: data node → compact id of the pair `(u, v)` (alive or
    /// tombstoned — slots are never reclaimed, revivals reuse them).
    index: Vec<HashMap<NodeId, u32>>,
    /// Sorted successor / predecessor compact ids per slot (empty for
    /// tombstones: a dying pair's incident edges are stripped).
    out: Vec<Vec<u32>>,
    inn: Vec<Vec<u32>>,
    alive: Vec<bool>,
    edges: usize,
    /// The graph's node count when the view was built or last folded a
    /// batch in — the universe every node id in the view fits.
    nodes: usize,
}

impl DynMatchGraph {
    /// Builds the view over the **alive pairs** of `sim` against the
    /// current contents of `g`. Compact ids are assigned pattern node by
    /// pattern node, data nodes ascending — deterministic regardless of
    /// the simulation's internal slot order.
    pub fn over_alive(g: &DynGraph, q: &Pattern, sim: &IncSimState) -> Self {
        let np = q.node_count();
        let mut pnode = Vec::new();
        let mut gnode = Vec::new();
        let mut index: Vec<HashMap<NodeId, u32>> = vec![HashMap::new(); np];
        for u in q.nodes() {
            for v in sim.structural_matches_of(u) {
                let c = pnode.len() as u32;
                pnode.push(u);
                gnode.push(v);
                index[u as usize].insert(v, c);
            }
        }

        let n = pnode.len();
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut inn: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut edges = 0usize;
        for c in 0..n {
            let (u, v) = (pnode[c], gnode[c]);
            for &uc in q.successors(u) {
                for w in g.successors(v) {
                    if let Some(&cw) = index[uc as usize].get(&w) {
                        out[c].push(cw);
                        inn[cw as usize].push(c as u32);
                        edges += 1;
                    }
                }
            }
        }
        for adj in out.iter_mut().chain(inn.iter_mut()) {
            adj.sort_unstable();
        }
        let nodes = g.node_count();
        DynMatchGraph { pnode, gnode, index, out, inn, alive: vec![true; n], edges, nodes }
    }

    /// Folds one applied batch into the view: `flips` are the simulation's
    /// alive-flips (as drained by `take_dirty`), `added_edges` /
    /// `removed_edges` the batch's effective data-edge changes. `g` and
    /// `sim` must already be in their post-batch state. Returns the exact
    /// pair-level delta for condensation maintenance.
    pub fn apply_pair_delta(
        &mut self,
        g: &DynGraph,
        q: &Pattern,
        sim: &IncSimState,
        flips: &[(PNodeId, NodeId)],
        added_edges: &[(NodeId, NodeId)],
        removed_edges: &[(NodeId, NodeId)],
    ) -> PairDelta {
        let mut delta = PairDelta::default();
        self.nodes = g.node_count();

        // Classify flips against the view's current alive flags (a pair
        // can flip twice in one batch — only the net change matters), in
        // sorted order for determinism.
        let uniq: BTreeSet<(PNodeId, NodeId)> = flips.iter().copied().collect();
        let mut born_slots: Vec<u32> = Vec::new();
        for &(u, v) in &uniq {
            let now = sim.pair_alive(u, v);
            match self.index[u as usize].get(&v).copied() {
                Some(c) => {
                    if self.alive[c as usize] == now {
                        continue;
                    }
                    if now {
                        self.alive[c as usize] = true;
                        born_slots.push(c);
                        delta.born.push(c);
                    } else {
                        self.alive[c as usize] = false;
                        self.strip_edges(c);
                        delta.died.push(c);
                    }
                }
                None if now => {
                    let c = self.pnode.len() as u32;
                    self.pnode.push(u);
                    self.gnode.push(v);
                    self.index[u as usize].insert(v, c);
                    self.out.push(Vec::new());
                    self.inn.push(Vec::new());
                    self.alive.push(true);
                    born_slots.push(c);
                    delta.born.push(c);
                }
                None => {} // flipped on and back off without ever materializing
            }
        }

        // Data-edge removals between pairs that are both still alive
        // (edges incident to a death were stripped above).
        for &(v, w) in removed_edges {
            self.for_pair_edges(q, v, w, |view, c, cw| {
                if view.unlink(c, cw) {
                    delta.removed.push((c, cw));
                }
            });
        }

        // Born pairs wire up against the post-batch graph, both
        // directions; `link` refuses duplicates, so an edge between two
        // born pairs is reported once.
        for &c in &born_slots {
            let (u, v) = (self.pnode[c as usize], self.gnode[c as usize]);
            for &uc in q.successors(u) {
                for w in g.successors(v) {
                    if let Some(cw) = self.alive_compact(uc, w) {
                        if self.link(c, cw) {
                            delta.added.push((c, cw));
                        }
                    }
                }
            }
            for &up in q.predecessors(u) {
                for x in g.predecessors(v) {
                    if let Some(cp) = self.alive_compact(up, x) {
                        if self.link(cp, c) {
                            delta.added.push((cp, c));
                        }
                    }
                }
            }
        }

        // Data-edge insertions between surviving pairs (already-present
        // edges — e.g. wired by a birth above — are skipped).
        for &(v, w) in added_edges {
            self.for_pair_edges(q, v, w, |view, c, cw| {
                if view.link(c, cw) {
                    delta.added.push((c, cw));
                }
            });
        }

        delta
    }

    /// Invokes `f` on every pair edge `(c, cw)` the data edge `(v, w)`
    /// induces between **alive** pairs under `q`'s edges.
    fn for_pair_edges(
        &mut self,
        q: &Pattern,
        v: NodeId,
        w: NodeId,
        mut f: impl FnMut(&mut Self, u32, u32),
    ) {
        for u in q.nodes() {
            let Some(c) = self.alive_compact(u, v) else { continue };
            for &uc in q.successors(u) {
                if let Some(cw) = self.alive_compact(uc, w) {
                    f(self, c, cw);
                }
            }
        }
    }

    fn alive_compact(&self, u: PNodeId, v: NodeId) -> Option<u32> {
        let c = self.index[u as usize].get(&v).copied()?;
        self.alive[c as usize].then_some(c)
    }

    /// Inserts pair edge `a → b` unless present. Returns `true` on insert.
    fn link(&mut self, a: u32, b: u32) -> bool {
        let o = &mut self.out[a as usize];
        match o.binary_search(&b) {
            Ok(_) => false,
            Err(i) => {
                o.insert(i, b);
                let inn = &mut self.inn[b as usize];
                let j = inn.binary_search(&a).unwrap_err();
                inn.insert(j, a);
                self.edges += 1;
                true
            }
        }
    }

    /// Removes pair edge `a → b` if present. Returns `true` on removal.
    fn unlink(&mut self, a: u32, b: u32) -> bool {
        let o = &mut self.out[a as usize];
        match o.binary_search(&b) {
            Ok(i) => {
                o.remove(i);
                let inn = &mut self.inn[b as usize];
                let j = inn.binary_search(&a).expect("in-list mirrors out-list");
                inn.remove(j);
                self.edges -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Strips every edge incident to `c` (a dying pair).
    fn strip_edges(&mut self, c: u32) {
        for s in std::mem::take(&mut self.out[c as usize]) {
            let inn = &mut self.inn[s as usize];
            let j = inn.binary_search(&c).expect("in-list mirrors out-list");
            inn.remove(j);
            self.edges -= 1;
        }
        for p in std::mem::take(&mut self.inn[c as usize]) {
            let o = &mut self.out[p as usize];
            let j = o.binary_search(&c).expect("out-list mirrors in-list");
            o.remove(j);
            self.edges -= 1;
        }
    }

    /// Number of slots (alive pairs **plus** tombstones — the id space).
    #[inline]
    pub fn len(&self) -> usize {
        self.pnode.len()
    }

    /// `true` when no slot exists.
    pub fn is_empty(&self) -> bool {
        self.pnode.is_empty()
    }

    /// Number of currently alive pairs.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// `true` when slot `c` holds an alive pair.
    #[inline]
    pub fn is_alive(&self, c: u32) -> bool {
        self.alive[c as usize]
    }

    /// Number of pair edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Compact id of the **alive** pair `(u, v)`, if it is in the view.
    #[inline]
    pub fn compact_of(&self, u: PNodeId, v: NodeId) -> Option<u32> {
        self.alive_compact(u, v)
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

    /// Successor pairs of `c`, ascending.
    #[inline]
    pub fn successors(&self, c: u32) -> &[u32] {
        &self.out[c as usize]
    }

    /// Predecessor pairs of `c`, ascending.
    #[inline]
    pub fn predecessors(&self, c: u32) -> &[u32] {
        &self.inn[c as usize]
    }
}

impl Successors for DynMatchGraph {
    fn node_count(&self) -> usize {
        self.len()
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        &self.out[v as usize]
    }
}

impl ReachView for DynMatchGraph {
    fn universe_size(&self) -> usize {
        self.nodes
    }
    fn universe_pos(&self, c: u32) -> usize {
        self.gnode[c as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_simulation;
    use crate::MatchGraph;
    use gpm_graph::builder::graph_from_parts;
    use gpm_graph::GraphDelta;
    use gpm_pattern::builder::label_pattern;

    /// The dynamic view over a freshly built state mirrors the static
    /// match graph: same pairs, same adjacency (modulo compact-id names).
    #[test]
    fn mirrors_static_match_graph() {
        let g0 =
            graph_from_parts(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (0, 3), (3, 2), (4, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g0, &q);
        let mg = MatchGraph::over_matches(&g0, &q, &sim);

        let dg = DynGraph::from_digraph(&g0);
        let inc = IncSimState::new(&dg, &q).unwrap();
        let view = DynMatchGraph::over_alive(&dg, &q, &inc);

        assert_eq!(view.len(), mg.len());
        assert_eq!(view.alive_count(), mg.len());
        assert_eq!(view.edge_count(), mg.edge_count());
        for c in 0..mg.len() as u32 {
            let (u, v) = (mg.pattern_node(c), mg.data_node(c));
            let dc = view.compact_of(u, v).expect("pair present in both");
            assert_eq!(view.pattern_node(dc), u);
            assert_eq!(view.data_node(dc), v);
            let mut statics: Vec<(u32, u32)> =
                mg.successors(c).iter().map(|&s| (mg.pattern_node(s), mg.data_node(s))).collect();
            let mut dyns: Vec<(u32, u32)> = view
                .successors(dc)
                .iter()
                .map(|&s| (view.pattern_node(s), view.data_node(s)))
                .collect();
            statics.sort_unstable();
            dyns.sort_unstable();
            assert_eq!(statics, dyns, "adjacency of ({u},{v})");
        }
    }

    /// Dead pairs are excluded, and the universe projection is the node id.
    #[test]
    fn excludes_dead_pairs_and_projects_node_ids() {
        let g0 = graph_from_parts(&[0, 1, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let dg = DynGraph::from_digraph(&g0);
        let inc = IncSimState::new(&dg, &q).unwrap();
        let view = DynMatchGraph::over_alive(&dg, &q, &inc);
        // (A,0), (B,1), (B,2): all structurally alive (B is a leaf).
        assert_eq!(view.len(), 3);
        assert_eq!(view.universe_size(), 3);
        for c in 0..view.len() as u32 {
            assert_eq!(view.universe_pos(c), view.data_node(c) as usize);
        }
        assert!(view.compact_of(0, 1).is_none(), "label mismatch is no pair");
    }

    /// Replays a batch through sim + view and asserts the maintained view
    /// equals a scratch rebuild (same alive pairs, same adjacency).
    fn assert_view_matches_scratch(
        view: &DynMatchGraph,
        g: &DynGraph,
        q: &Pattern,
        sim: &IncSimState,
    ) {
        let fresh = DynMatchGraph::over_alive(g, q, sim);
        assert_eq!(view.universe_size(), g.node_count(), "universe follows the graph");
        assert_eq!(view.alive_count(), fresh.len(), "alive pair count");
        assert_eq!(view.edge_count(), fresh.edge_count(), "pair edge count");
        for fc in 0..fresh.len() as u32 {
            let (u, v) = (fresh.pattern_node(fc), fresh.data_node(fc));
            let mc = view.compact_of(u, v).expect("alive pair present in maintained view");
            let mut want: Vec<(u32, u32)> = fresh
                .successors(fc)
                .iter()
                .map(|&s| (fresh.pattern_node(s), fresh.data_node(s)))
                .collect();
            let mut got: Vec<(u32, u32)> = view
                .successors(mc)
                .iter()
                .map(|&s| (view.pattern_node(s), view.data_node(s)))
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "adjacency of ({u},{v})");
            let mut wantp: Vec<(u32, u32)> = fresh
                .predecessors(fc)
                .iter()
                .map(|&s| (fresh.pattern_node(s), fresh.data_node(s)))
                .collect();
            let mut gotp: Vec<(u32, u32)> = view
                .predecessors(mc)
                .iter()
                .map(|&s| (view.pattern_node(s), view.data_node(s)))
                .collect();
            wantp.sort_unstable();
            gotp.sort_unstable();
            assert_eq!(gotp, wantp, "predecessors of ({u},{v})");
        }
    }

    /// Kill-and-revive on a cycle: slots tombstone and revive in place,
    /// and the maintained adjacency tracks a scratch rebuild batch by
    /// batch.
    #[test]
    fn maintained_view_tracks_scratch_across_batches() {
        let g0 = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let mut dg = DynGraph::from_digraph(&g0);
        let mut sim = IncSimState::new(&dg, &q).unwrap();
        sim.take_dirty();
        let mut view = DynMatchGraph::over_alive(&dg, &q, &sim);
        let slots_before = view.len();

        let batches: Vec<GraphDelta> = vec![
            GraphDelta::new().remove_edge(1, 2),
            GraphDelta::new().add_edge(1, 2),
            GraphDelta::new().remove_node(3),
            GraphDelta::new().add_node(1).add_edge(2, 4).add_edge(4, 0),
        ];
        for delta in batches {
            let applied = dg
                .apply_with(&delta, |g, eff| {
                    use gpm_graph::EffectiveOp;
                    match *eff {
                        EffectiveOp::NodeAdded(v, _) => sim.on_node_added(g, &q, v),
                        EffectiveOp::EdgeAdded(s, t) => sim.on_edge_inserted(g, &q, s, t),
                        EffectiveOp::EdgeRemoved(s, t) => sim.on_edge_removed(g, &q, s, t),
                        EffectiveOp::NodeRemoved(v, _) => sim.on_node_removed(&q, v),
                        EffectiveOp::AttrSet { node, ref key, .. }
                        | EffectiveOp::AttrUnset { node, ref key } => {
                            sim.on_attr_changed(g, &q, node, key)
                        }
                    }
                })
                .expect("valid batch");
            let flips = sim.take_dirty();
            view.apply_pair_delta(
                &dg,
                &q,
                &sim,
                &flips,
                &applied.added_edges,
                &applied.removed_edges,
            );
            assert_view_matches_scratch(&view, &dg, &q, &sim);
        }
        assert!(view.len() >= slots_before, "slots are never reclaimed");
    }
}
