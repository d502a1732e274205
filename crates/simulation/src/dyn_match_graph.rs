//! [`DynMatchGraph`]: the dynamic path's match-graph view.
//!
//! The static pipeline materializes a [`MatchGraph`](crate::MatchGraph)
//! from a CSR snapshot per query; the dynamic path instead maintains an
//! [`IncSimState`] against a mutable [`DynGraph`]. This view gives the simulation's
//! **alive pairs** sorted adjacency and implements
//! [`ReachView`], so the shared condensation-and-bitset
//! DP (`gpm-ranking::reach_sets`) is the single reach engine for both
//! worlds.
//!
//! The view has no numbering of its own: a pair's id is its simulation
//! **slot** — dense, append-only, never reused — so the view, the
//! condensation maintained over it and the refresh planner all name a pair
//! the same way, and a maintained view compares slot for slot with one
//! built from scratch ([`DynMatchGraph::over_alive`]). A dead slot (a pair
//! that died, or a candidate that never came alive) has no edges and a
//! cleared flag, and one that has never been alive costs no lists at all;
//! revival reuses the slot.
//!
//! The view is **stateful across batches**:
//! [`DynMatchGraph::apply_pair_delta`] folds one batch's simulation flips
//! and data-edge changes into the adjacency in `O(|Δ|·deg)`. The emitted
//! [`PairDelta`] names exactly the pair-level births, deaths and edge
//! changes, which is what incremental condensation maintenance
//! (`gpm-ranking`'s `CondensationState`) consumes.
//!
//! The universe projection is the **data-node id** itself (not a per-query
//! compact universe): node ids are stable across updates while universes
//! are not, and the relevance cache's bitsets are keyed by node id — so
//! the DP's output bitsets can be stored in the cache directly, no
//! re-encoding. The universe is the graph's node count as of the last
//! batch folded in: a set built over the view is exactly as wide as the
//! graph is then, and readers zero-extend older, narrower ones.

use gpm_graph::dynamic::DynGraph;
use gpm_graph::scc::Successors;
use gpm_graph::NodeId;
use gpm_pattern::{PNodeId, Pattern};

use crate::incremental::IncSimState;
use crate::match_graph::ReachView;

/// One batch's effect on the pair graph, in slots: which slots came alive,
/// which died, and which pair edges appeared or disappeared **between
/// pairs that are alive after the batch**. Edges incident to a dying pair
/// are stripped silently (consumers learn enough from `died`); edges
/// incident to a born pair are always reported in `added`.
#[derive(Debug, Default, Clone)]
pub struct PairDelta {
    /// Slots that became alive (fresh or revived).
    pub born: Vec<u32>,
    /// Slots that died.
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

/// One slot's sorted successor and predecessor slots.
#[derive(Debug, Clone, Default)]
struct Row {
    out: Vec<u32>,
    inn: Vec<u32>,
}

/// A pair graph over the alive pairs of an incremental simulation, indexed
/// by simulation slot, with sorted forward/backward adjacency and a
/// data-node-id universe.
#[derive(Debug, Clone)]
pub struct DynMatchGraph {
    /// Data node per slot — the simulation's append-only column, copied so
    /// the universe projection needs no simulation at hand.
    gnode: Vec<NodeId>,
    /// `rows[row[c]]`: slot `c`'s adjacency. Most slots are candidates
    /// that never come alive (two in three on the benchmark's 50 k-node
    /// registry), so a slot gets a row of its own on its first birth and
    /// shares the empty row 0 until then. A dying pair's row is emptied
    /// (its incident edges are stripped) and kept for its revival.
    row: Vec<u32>,
    rows: Vec<Row>,
    /// Alive flags as of the last batch folded in.
    alive: Vec<bool>,
    edges: usize,
    /// The graph's node count when the view was built or last folded a
    /// batch in — the universe every node id in the view fits.
    nodes: usize,
}

impl DynMatchGraph {
    /// Builds the view over the **alive pairs** of `sim` against the
    /// current contents of `g`.
    pub fn over_alive(g: &DynGraph, q: &Pattern, sim: &IncSimState) -> Self {
        let mut view = DynMatchGraph {
            gnode: Vec::new(),
            row: Vec::new(),
            rows: vec![Row::default()],
            alive: Vec::new(),
            edges: 0,
            nodes: g.node_count(),
        };
        view.grow(sim);
        for c in 0..view.len() as u32 {
            if sim.is_alive(c) {
                view.revive(c);
            }
        }
        for c in 0..view.len() as u32 {
            if !view.alive[c as usize] {
                continue;
            }
            let (u, v) = sim.pair(c);
            for &uc in q.successors(u) {
                for w in g.successors(v) {
                    if let Some(cw) = view.alive_slot(sim, uc, w) {
                        view.row_mut(c).out.push(cw);
                        view.row_mut(cw).inn.push(c);
                        view.edges += 1;
                    }
                }
            }
        }
        // In-lists fill in ascending source order already.
        for row in &mut view.rows {
            row.out.sort_unstable();
        }
        view
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
        flips: &[u32],
        added_edges: &[(NodeId, NodeId)],
        removed_edges: &[(NodeId, NodeId)],
    ) -> PairDelta {
        let mut delta = PairDelta::default();
        self.nodes = g.node_count();
        self.grow(sim);

        // Classify flips against the view's current alive flags (a pair
        // can flip twice in one batch — only the net change matters), in
        // slot order for determinism.
        let mut slots = flips.to_vec();
        slots.sort_unstable();
        slots.dedup();
        let mut born: Vec<u32> = Vec::new();
        for c in slots {
            let now = sim.is_alive(c);
            if self.alive[c as usize] == now {
                continue;
            }
            if now {
                self.revive(c);
                born.push(c);
            } else {
                self.alive[c as usize] = false;
                self.strip_edges(c);
                delta.died.push(c);
            }
        }

        // Data-edge removals between pairs that are both still alive
        // (edges incident to a death were stripped above).
        for &(v, w) in removed_edges {
            self.for_pair_edges(g, q, sim, v, w, |view, c, cw| {
                if view.unlink(c, cw) {
                    delta.removed.push((c, cw));
                }
            });
        }

        // Born pairs wire up against the post-batch graph, both
        // directions; `link` refuses duplicates, so an edge between two
        // born pairs is reported once.
        for &c in &born {
            let (u, v) = sim.pair(c);
            for &uc in q.successors(u) {
                for w in g.successors(v) {
                    if let Some(cw) = self.alive_slot(sim, uc, w) {
                        if self.link(c, cw) {
                            delta.added.push((c, cw));
                        }
                    }
                }
            }
            for &up in q.predecessors(u) {
                for x in g.predecessors(v) {
                    if let Some(cp) = self.alive_slot(sim, up, x) {
                        if self.link(cp, c) {
                            delta.added.push((cp, c));
                        }
                    }
                }
            }
        }
        delta.born = born;

        // Data-edge insertions between surviving pairs (already-present
        // edges — e.g. wired by a birth above — are skipped).
        for &(v, w) in added_edges {
            self.for_pair_edges(g, q, sim, v, w, |view, c, cw| {
                if view.link(c, cw) {
                    delta.added.push((c, cw));
                }
            });
        }

        delta
    }

    /// Extends the per-slot columns to the simulation's slot count; new
    /// slots start dead, on the empty row.
    fn grow(&mut self, sim: &IncSimState) {
        let n = sim.slot_count();
        for c in self.gnode.len()..n {
            self.gnode.push(sim.pair(c as u32).1);
        }
        self.row.resize(n, 0);
        self.alive.resize(n, false);
    }

    /// Marks slot `c` alive, giving it a row of its own on its first birth.
    fn revive(&mut self, c: u32) {
        self.alive[c as usize] = true;
        if self.row[c as usize] == 0 {
            self.row[c as usize] = self.rows.len() as u32;
            self.rows.push(Row::default());
        }
    }

    fn row_of(&self, c: u32) -> &Row {
        &self.rows[self.row[c as usize] as usize]
    }

    fn row_mut(&mut self, c: u32) -> &mut Row {
        &mut self.rows[self.row[c as usize] as usize]
    }

    /// Invokes `f` on every pair edge `(c, cw)` the data edge `(v, w)`
    /// induces between **alive** pairs under `q`'s edges. Candidates of a
    /// pattern node carry its primary label, so a mismatch skips the slot
    /// lookup: the simulation's map holds every candidate ever seen, dead
    /// ones included, and probing it is most of this loop's cost.
    fn for_pair_edges(
        &mut self,
        g: &DynGraph,
        q: &Pattern,
        sim: &IncSimState,
        v: NodeId,
        w: NodeId,
        mut f: impl FnMut(&mut Self, u32, u32),
    ) {
        let fits =
            |u: PNodeId, x: NodeId| q.predicate(u).primary_label().is_none_or(|l| l == g.label(x));
        for u in q.nodes().filter(|&u| fits(u, v)) {
            let Some(c) = self.alive_slot(sim, u, v) else { continue };
            for &uc in q.successors(u).iter().filter(|&&uc| fits(uc, w)) {
                if let Some(cw) = self.alive_slot(sim, uc, w) {
                    f(self, c, cw);
                }
            }
        }
    }

    /// Slot of `(u, v)` when the view holds it alive.
    fn alive_slot(&self, sim: &IncSimState, u: PNodeId, v: NodeId) -> Option<u32> {
        sim.slot_of(u, v).filter(|&c| self.alive[c as usize])
    }

    /// Inserts pair edge `a → b` unless present. Returns `true` on insert.
    fn link(&mut self, a: u32, b: u32) -> bool {
        let o = &mut self.row_mut(a).out;
        match o.binary_search(&b) {
            Ok(_) => false,
            Err(i) => {
                o.insert(i, b);
                let inn = &mut self.row_mut(b).inn;
                let j = inn.binary_search(&a).unwrap_err();
                inn.insert(j, a);
                self.edges += 1;
                true
            }
        }
    }

    /// Removes pair edge `a → b` if present. Returns `true` on removal.
    fn unlink(&mut self, a: u32, b: u32) -> bool {
        let o = &mut self.row_mut(a).out;
        match o.binary_search(&b) {
            Ok(i) => {
                o.remove(i);
                let inn = &mut self.row_mut(b).inn;
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
        for s in std::mem::take(&mut self.row_mut(c).out) {
            let inn = &mut self.row_mut(s).inn;
            let j = inn.binary_search(&c).expect("in-list mirrors out-list");
            inn.remove(j);
            self.edges -= 1;
        }
        for p in std::mem::take(&mut self.row_mut(c).inn) {
            let o = &mut self.row_mut(p).out;
            let j = o.binary_search(&c).expect("out-list mirrors in-list");
            o.remove(j);
            self.edges -= 1;
        }
    }

    /// Number of slots, alive or dead — the id space.
    #[inline]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// `true` when no slot exists.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
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

    /// Data node of slot `c`.
    #[inline]
    pub fn data_node(&self, c: u32) -> NodeId {
        self.gnode[c as usize]
    }

    /// Successor slots of `c`, ascending.
    #[inline]
    pub fn successors(&self, c: u32) -> &[u32] {
        &self.row_of(c).out
    }

    /// Predecessor slots of `c`, ascending.
    #[inline]
    pub fn predecessors(&self, c: u32) -> &[u32] {
        &self.row_of(c).inn
    }
}

impl Successors for DynMatchGraph {
    fn node_count(&self) -> usize {
        self.len()
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        self.successors(v)
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
    use gpm_graph::{AppliedDelta, Attributes, EffectiveOp, GraphBuilder, GraphDelta};
    use gpm_pattern::builder::label_pattern;
    use gpm_pattern::{CmpOp, PatternBuilder, Predicate};
    use proptest::prelude::*;

    /// The dynamic view over a freshly built state mirrors the static
    /// match graph: same pairs, same adjacency (modulo id names).
    #[test]
    fn mirrors_static_match_graph() {
        let g0 =
            graph_from_parts(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (0, 3), (3, 2), (4, 3)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let sim = compute_simulation(&g0, &q);
        let mg = MatchGraph::over_matches(&g0, &q, &sim);

        let dg = DynGraph::from_digraph(&g0);
        let inc = IncSimState::new(&dg, &q);
        let view = DynMatchGraph::over_alive(&dg, &q, &inc);

        assert_eq!(view.alive_count(), mg.len());
        assert_eq!(view.edge_count(), mg.edge_count());
        for c in 0..mg.len() as u32 {
            let (u, v) = (mg.pattern_node(c), mg.data_node(c));
            let dc = inc.slot_of(u, v).expect("pair present in both");
            assert!(view.is_alive(dc));
            assert_eq!(view.data_node(dc), v);
            let mut statics: Vec<(u32, u32)> =
                mg.successors(c).iter().map(|&s| (mg.pattern_node(s), mg.data_node(s))).collect();
            let mut dyns: Vec<(u32, u32)> =
                view.successors(dc).iter().map(|&s| inc.pair(s)).collect();
            statics.sort_unstable();
            dyns.sort_unstable();
            assert_eq!(statics, dyns, "adjacency of ({u},{v})");
        }
    }

    /// The universe projection is the node id, and a label mismatch has
    /// no slot at all.
    #[test]
    fn projects_node_ids() {
        let g0 = graph_from_parts(&[0, 1, 1], &[(0, 1)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        let dg = DynGraph::from_digraph(&g0);
        let inc = IncSimState::new(&dg, &q);
        let view = DynMatchGraph::over_alive(&dg, &q, &inc);
        // (A,0), (B,1), (B,2): all structurally alive (B is a leaf).
        assert_eq!(view.len(), 3);
        assert_eq!(view.alive_count(), 3);
        assert_eq!(view.universe_size(), 3);
        for c in 0..view.len() as u32 {
            assert_eq!(view.universe_pos(c), inc.pair(c).1 as usize);
        }
        assert!(inc.slot_of(0, 1).is_none(), "label mismatch is no pair");
    }

    /// Applies `delta` to the graph, replaying every effective mutation
    /// through `sim`, and folds the batch into `view`.
    fn step(
        dg: &mut DynGraph,
        sim: &mut IncSimState,
        view: &mut DynMatchGraph,
        q: &Pattern,
        delta: &GraphDelta,
    ) -> PairDelta {
        let applied: AppliedDelta = dg
            .apply_with(delta, |g, eff| match *eff {
                EffectiveOp::NodeAdded(v, _) => sim.on_node_added(g, q, v),
                EffectiveOp::EdgeAdded(s, t) => sim.on_edge_inserted(g, q, s, t),
                EffectiveOp::EdgeRemoved(s, t) => sim.on_edge_removed(g, q, s, t),
                EffectiveOp::NodeRemoved(v, _) => sim.on_node_removed(q, v),
                EffectiveOp::AttrSet { node, ref key, .. }
                | EffectiveOp::AttrUnset { node, ref key } => sim.on_attr_changed(g, q, node, key),
            })
            .expect("valid batch");
        let flips = sim.take_dirty();
        view.apply_pair_delta(dg, q, sim, &flips, &applied.added_edges, &applied.removed_edges)
    }

    /// The maintained view equals a scratch build on identical ids: same
    /// slots, same alive flags, same sorted adjacency both ways.
    fn assert_view_matches_scratch(
        view: &DynMatchGraph,
        g: &DynGraph,
        q: &Pattern,
        sim: &IncSimState,
    ) {
        let fresh = DynMatchGraph::over_alive(g, q, sim);
        assert_eq!(view.universe_size(), g.node_count(), "universe follows the graph");
        assert_eq!(view.len(), fresh.len(), "slot count");
        for c in 0..fresh.len() as u32 {
            let pair = sim.pair(c);
            assert_eq!(view.is_alive(c), fresh.is_alive(c), "alive flag of slot {c} = {pair:?}");
            assert_eq!(view.data_node(c), pair.1, "data node of slot {c}");
            assert_eq!(view.successors(c), fresh.successors(c), "out of slot {c} = {pair:?}");
            assert_eq!(view.predecessors(c), fresh.predecessors(c), "in of slot {c} = {pair:?}");
        }
        assert_eq!(view.edge_count(), fresh.edge_count(), "pair edge count");
    }

    /// Kill-and-revive on a cycle: slots die and revive in place, and the
    /// maintained adjacency tracks a scratch rebuild batch by batch.
    #[test]
    fn maintained_view_tracks_scratch_across_batches() {
        let g0 = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();
        let mut dg = DynGraph::from_digraph(&g0);
        let mut sim = IncSimState::new(&dg, &q);
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
            step(&mut dg, &mut sim, &mut view, &q, &delta);
            assert_view_matches_scratch(&view, &dg, &q, &sim);
        }
        assert!(view.len() > slots_before, "the added node appended a slot");
    }

    /// A pair revived under a parent that stayed alive is wired to it
    /// although the data edge between them is old: A0 keeps its match
    /// through B3 while B1 regains its C child.
    #[test]
    fn revival_under_an_alive_parent_links_the_old_edge() {
        let g0 = graph_from_parts(&[0, 1, 2, 1, 2], &[(0, 1), (0, 3), (3, 4)]).unwrap();
        let q = label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let mut dg = DynGraph::from_digraph(&g0);
        let mut sim = IncSimState::new(&dg, &q);
        let mut view = DynMatchGraph::over_alive(&dg, &q, &sim);
        let (a0, b1) = (sim.slot_of(0, 0).unwrap(), sim.slot_of(1, 1).unwrap());
        assert!(view.is_alive(a0) && !view.is_alive(b1));

        let delta = step(&mut dg, &mut sim, &mut view, &q, &GraphDelta::new().add_edge(1, 2));
        assert_eq!(delta.born, vec![b1]);
        assert!(delta.added.contains(&(a0, b1)), "{delta:?}");
        assert_view_matches_scratch(&view, &dg, &q, &sim);
    }

    /// `label`, plus the `k ≥ 2` threshold when `attr` is set.
    fn threshold_pred(label: u32, attr: bool) -> Predicate {
        if attr {
            Predicate::labeled(label, [Predicate::attr("k", CmpOp::Ge, 2i64)])
        } else {
            Predicate::Label(label)
        }
    }

    /// An attribute exit and re-entry keeps the pair's one slot, in the
    /// simulation and in the view, with the slot dead in between.
    #[test]
    fn attr_exit_and_reentry_keep_one_slot() {
        let g0 = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let mut b = PatternBuilder::new();
        b.node("A", threshold_pred(0, false));
        b.node("B", threshold_pred(1, true));
        b.node("C", threshold_pred(2, false));
        b.edge_by_name("A", "B").unwrap();
        b.edge_by_name("B", "C").unwrap();
        b.output(0).unwrap();
        let q = b.build().unwrap();
        let mut dg = DynGraph::from_digraph(&g0);
        let mut sim = IncSimState::new(&dg, &q);
        let mut view = DynMatchGraph::over_alive(&dg, &q, &sim);
        assert!(sim.slot_of(1, 1).is_none(), "no k yet: never a candidate");

        let enter =
            step(&mut dg, &mut sim, &mut view, &q, &GraphDelta::new().set_attr(1, "k", 5i64));
        let b1 = sim.slot_of(1, 1).expect("entered candidacy");
        let a0 = sim.slot_of(0, 0).expect("initial candidate");
        assert!(enter.born.contains(&b1) && enter.born.contains(&a0), "{enter:?}");
        assert_eq!(view.successors(a0), &[b1]);

        let exit =
            step(&mut dg, &mut sim, &mut view, &q, &GraphDelta::new().set_attr(1, "k", 1i64));
        assert_eq!(sim.slot_of(1, 1), Some(b1), "the exit keeps the slot");
        assert!(exit.died.contains(&b1) && !view.is_alive(b1));
        assert!(view.successors(b1).is_empty() && view.predecessors(b1).is_empty());

        let slots = view.len();
        let back =
            step(&mut dg, &mut sim, &mut view, &q, &GraphDelta::new().set_attr(1, "k", 3i64));
        assert_eq!(sim.slot_of(1, 1), Some(b1), "re-entry revalidates the same slot");
        assert_eq!((sim.slot_count(), view.len()), (slots, slots), "no slot appended");
        assert!(back.born.contains(&b1) && view.is_alive(b1));
        assert_eq!(view.successors(a0), &[b1]);
        assert_view_matches_scratch(&view, &dg, &q, &sim);
    }

    /// Raw op codes decoded into a `GraphDelta` against the current graph:
    /// edge insertions and removals, node additions and tombstones, and
    /// `k` set / unset across the patterns' `k ≥ 2` threshold.
    fn decode(g: &DynGraph, ops: &[(u8, u32, u32)]) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let n = g.node_count() as u32;
        for &(code, a, b) in ops {
            let (a, b) = (a % n, b % n);
            delta = match code {
                0..=2 if a != b => delta.add_edge(a, b),
                3 | 4 => {
                    let t = g.successors(a).nth(b as usize % g.out_degree(a).max(1));
                    delta.remove_edge(a, t.unwrap_or(b))
                }
                5 => delta.add_node(a % 3),
                6 => delta.remove_node(a),
                7 | 8 => delta.set_attr(a, "k", i64::from(b % 4)),
                9 => delta.unset_attr(a, "k"),
                _ => delta,
            };
        }
        delta
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // After every batch of a mixed stream, the maintained view equals
        // `over_alive` on identical ids, and the simulation it folds in
        // stays at its fixpoint.
        #[test]
        fn maintained_view_equals_over_alive_slot_for_slot(
            (nodes, edges) in (4usize..14).prop_flat_map(|n| (
                proptest::collection::vec((0u32..3, 0i64..5), n),
                proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..n * 3),
            )),
            (pnodes, pextra) in (1usize..5).prop_flat_map(|k| (
                proptest::collection::vec((0u32..3, 0u8..2), k),
                proptest::collection::vec((0u32..k as u32, 0u32..k as u32), 0..k),
            )),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..10, 0u32..64, 0u32..64), 1..5), 1..8),
        ) {
            // k = 4 stands for "no k".
            let mut gb = GraphBuilder::new();
            for &(l, k) in &nodes {
                match k {
                    4 => gb.add_node(l),
                    k => gb.add_node_with_attrs(l, Attributes::from_pairs([("k", k)])),
                };
            }
            for &(x, y) in &edges {
                gb.add_edge(x, y).unwrap();
            }
            let g0 = gb.build();
            let mut b = PatternBuilder::new();
            for (i, &(l, attr)) in pnodes.iter().enumerate() {
                b.node(format!("u{i}"), threshold_pred(l, attr == 1));
            }
            for i in 1..pnodes.len() as u32 {
                b.edge(i - 1, i).unwrap();
            }
            for (x, y) in pextra {
                let _ = b.edge(x, y);
            }
            b.output(0).unwrap();
            let q = b.build().unwrap();

            let mut dg = DynGraph::from_digraph(&g0);
            let mut sim = IncSimState::new(&dg, &q);
            let mut view = DynMatchGraph::over_alive(&dg, &q, &sim);
            for raw in &batches {
                let delta = decode(&dg, raw);
                step(&mut dg, &mut sim, &mut view, &q, &delta);
                prop_assert_eq!(sim.check_invariants(&dg, &q), Ok(()));
                assert_view_matches_scratch(&view, &dg, &q, &sim);
            }
        }
    }
}
