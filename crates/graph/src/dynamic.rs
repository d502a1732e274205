//! [`DynGraph`]: a mutable adjacency structure for incremental maintenance.
//!
//! The CSR [`DiGraph`] is immutable by design — the static
//! algorithms want packed, cache-friendly adjacency. The dynamic path
//! instead keeps per-node sorted edge sets that support `O(log d)` insert,
//! remove and membership while preserving deterministic iteration order,
//! applies [`GraphDelta`] batches in place with a monotonically increasing
//! **version**, and can snapshot back into a `DiGraph` whenever a
//! from-scratch baseline or fallback recompute needs one.
//! [`DynGraph::shared_snapshot`] hands out one such copy per version: it
//! is built on first request, retained until the next `apply` starts
//! mutating, and shared by every caller in between. At version 0 the copy
//! is the graph the mirror was built from: a `DiGraph` is canonical
//! (adjacency sorted and deduplicated by its builder), so cloning it costs
//! a copy of its arrays where a rebuild would re-sort every edge.
//!
//! The label index (`nodes_with_label`) is maintained incrementally too:
//! candidate enumeration after node additions must not rescan the graph.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use crate::attrs::Attributes;
use crate::builder::GraphBuilder;
use crate::delta::{AppliedDelta, DeltaOp, EffectiveOp, GraphDelta, TOMBSTONE_LABEL};
use crate::digraph::{DiGraph, Label, NodeId};
use crate::error::GraphError;
use crate::Result;

/// A directed labeled graph under updates.
#[derive(Debug, Clone)]
pub struct DynGraph {
    labels: Vec<Label>,
    fwd: Vec<BTreeSet<NodeId>>,
    rev: Vec<BTreeSet<NodeId>>,
    /// Sorted node ids per label (tombstoned nodes excluded).
    by_label: std::collections::BTreeMap<Label, BTreeSet<NodeId>>,
    /// Per-node attribute maps (empty for attribute-less nodes; cleared on
    /// tombstone — a removed slot accrues no state of any kind).
    attrs: Vec<Attributes>,
    edge_count: usize,
    version: u64,
    /// [`Self::shared_snapshot`] of the current state: the source graph
    /// at version 0, otherwise built once asked for; emptied by every
    /// mutation.
    shared: OnceLock<Arc<DiGraph>>,
}

impl DynGraph {
    /// Builds the dynamic mirror of `g` at version 0.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut fwd = vec![BTreeSet::new(); n];
        let mut rev = vec![BTreeSet::new(); n];
        for e in g.edges() {
            fwd[e.source as usize].insert(e.target);
            rev[e.target as usize].insert(e.source);
        }
        let mut by_label: std::collections::BTreeMap<Label, BTreeSet<NodeId>> =
            std::collections::BTreeMap::new();
        for v in g.nodes() {
            by_label.entry(g.label(v)).or_default().insert(v);
        }
        let attrs: Vec<Attributes> =
            g.nodes().map(|v| g.attributes(v).cloned().unwrap_or_default()).collect();
        DynGraph {
            labels: g.labels().to_vec(),
            fwd,
            rev,
            by_label,
            attrs,
            edge_count: g.edge_count(),
            version: 0,
            shared: OnceLock::from(Arc::new(g.clone())),
        }
    }

    /// Number of node slots (tombstones included — ids stay dense).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Current version (one increment per applied batch).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Label of `v` ([`TOMBSTONE_LABEL`] when removed).
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// `true` when `v` has been tombstoned.
    #[inline]
    pub fn is_removed(&self, v: NodeId) -> bool {
        self.labels[v as usize] == TOMBSTONE_LABEL
    }

    /// Attributes of `v` (empty for attribute-less and tombstoned nodes).
    #[inline]
    pub fn attributes(&self, v: NodeId) -> &Attributes {
        &self.attrs[v as usize]
    }

    /// One attribute of `v`.
    #[inline]
    pub fn attr(&self, v: NodeId, key: &str) -> Option<&crate::attrs::AttrValue> {
        self.attrs[v as usize].get(key)
    }

    /// Successor set of `v` (sorted ascending).
    #[inline]
    pub fn successors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.fwd[v as usize].iter().copied()
    }

    /// Predecessor set of `v` (sorted ascending).
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.rev[v as usize].iter().copied()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.fwd[v as usize].len()
    }

    /// `true` iff the edge `(s, t)` exists.
    #[inline]
    pub fn has_edge(&self, s: NodeId, t: NodeId) -> bool {
        self.fwd[s as usize].contains(&t)
    }

    /// Live nodes with `label`, ascending.
    pub fn nodes_with_label(&self, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        self.by_label.get(&label).into_iter().flat_map(|s| s.iter().copied())
    }

    /// Number of live nodes carrying `label` — the candidate count a
    /// label-only predicate enumerates. O(log labels), no scan; this is
    /// the shared index the multi-pattern registry sizes its candidate
    /// universe from.
    pub fn label_count(&self, label: Label) -> usize {
        self.by_label.get(&label).map_or(0, |s| s.len())
    }

    /// `(label, live node count)` for every label currently present,
    /// ascending by label. Tombstoned nodes are excluded; labels whose
    /// last node was removed report as absent.
    pub fn live_labels(&self) -> impl Iterator<Item = (Label, usize)> + '_ {
        self.by_label.iter().filter(|(_, s)| !s.is_empty()).map(|(&l, s)| (l, s.len()))
    }

    /// Number of live (non-tombstoned) nodes.
    pub fn live_node_count(&self) -> usize {
        self.by_label.values().map(|s| s.len()).sum()
    }

    /// Applies one batch in place, returning the normalized effective
    /// updates. On error the graph is left **unchanged** (the batch is
    /// validated before any mutation).
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<AppliedDelta> {
        self.apply_with(delta, |_, _| {})
    }

    /// As [`Self::apply`], invoking `hook` after **every single effective
    /// mutation** with the graph in exactly that intermediate state. This
    /// is the contract incremental consumers need: a `RemoveNode` expands
    /// into one hook call per dropped edge (each observing the edge
    /// already gone but later edges still present) before the tombstone
    /// call — cascade algorithms that walk current adjacency stay in
    /// lockstep. Every mutation drops the retained
    /// [`Self::shared_snapshot`] before the hook runs, so a hook never sees
    /// a copy of an earlier state; a rejected batch keeps it.
    pub fn apply_with(
        &mut self,
        delta: &GraphDelta,
        mut hook: impl FnMut(&DynGraph, &EffectiveOp),
    ) -> Result<AppliedDelta> {
        // Validation pass: node references must be in range at the point
        // their op executes (additions extend the range mid-batch). Attr
        // ops are exempt — on a tombstoned or never-added node they are
        // recorded no-ops, never errors.
        let mut n = self.node_count();
        for op in &delta.ops {
            match *op {
                DeltaOp::AddNode(label) => {
                    if label == TOMBSTONE_LABEL {
                        return Err(GraphError::Parse {
                            line: 0,
                            msg: "cannot add a node with the reserved tombstone label".into(),
                        });
                    }
                    n += 1;
                }
                DeltaOp::AddEdge(s, t) | DeltaOp::RemoveEdge(s, t) => {
                    for v in [s, t] {
                        if v as usize >= n {
                            return Err(GraphError::UnknownNode(v));
                        }
                    }
                }
                DeltaOp::RemoveNode(v) => {
                    if v as usize >= n {
                        return Err(GraphError::UnknownNode(v));
                    }
                }
                DeltaOp::SetAttr { .. } | DeltaOp::UnsetAttr { .. } => {}
            }
        }

        let mut out = AppliedDelta::default();
        macro_rules! emit {
            ($self:ident, $eff:expr) => {{
                let eff = $eff;
                $self.shared.take();
                hook(&*$self, &eff);
                out.effects.push(eff);
            }};
        }
        for op in &delta.ops {
            match *op {
                DeltaOp::AddNode(label) => {
                    let id = self.labels.len() as NodeId;
                    self.labels.push(label);
                    self.fwd.push(BTreeSet::new());
                    self.rev.push(BTreeSet::new());
                    self.attrs.push(Attributes::new());
                    self.by_label.entry(label).or_default().insert(id);
                    out.added_nodes.push((id, label));
                    emit!(self, EffectiveOp::NodeAdded(id, label));
                }
                DeltaOp::AddEdge(s, t) => {
                    // Tombstoned endpoints: the slot is never reused, so
                    // attaching a new edge to a dead node would contradict
                    // removal semantics. Treated as ineffective (not an
                    // error) because generated streams may legitimately
                    // batch a RemoveNode ahead of an AddEdge to the same
                    // node. RemoveEdge needs no such guard — a tombstone
                    // has no edges left to remove.
                    if self.is_removed(s) || self.is_removed(t) {
                        continue;
                    }
                    if self.fwd[s as usize].insert(t) {
                        self.rev[t as usize].insert(s);
                        self.edge_count += 1;
                        out.added_edges.push((s, t));
                        emit!(self, EffectiveOp::EdgeAdded(s, t));
                    }
                }
                DeltaOp::RemoveEdge(s, t) => {
                    if self.fwd[s as usize].remove(&t) {
                        self.rev[t as usize].remove(&s);
                        self.edge_count -= 1;
                        out.removed_edges.push((s, t));
                        emit!(self, EffectiveOp::EdgeRemoved(s, t));
                    }
                }
                DeltaOp::RemoveNode(v) => {
                    if self.is_removed(v) {
                        continue;
                    }
                    // Strip incident edges one at a time — the hook must
                    // observe each intermediate adjacency state.
                    let outgoing: Vec<NodeId> = self.fwd[v as usize].iter().copied().collect();
                    for t in outgoing {
                        self.fwd[v as usize].remove(&t);
                        self.rev[t as usize].remove(&v);
                        self.edge_count -= 1;
                        out.removed_edges.push((v, t));
                        emit!(self, EffectiveOp::EdgeRemoved(v, t));
                    }
                    let incoming: Vec<NodeId> = self.rev[v as usize].iter().copied().collect();
                    for s in incoming {
                        self.rev[v as usize].remove(&s);
                        self.fwd[s as usize].remove(&v);
                        self.edge_count -= 1;
                        out.removed_edges.push((s, v));
                        emit!(self, EffectiveOp::EdgeRemoved(s, v));
                    }
                    let label = self.labels[v as usize];
                    if let Some(set) = self.by_label.get_mut(&label) {
                        set.remove(&v);
                    }
                    self.labels[v as usize] = TOMBSTONE_LABEL;
                    self.attrs[v as usize] = Attributes::new();
                    out.removed_nodes.push(v);
                    emit!(self, EffectiveOp::NodeRemoved(v, label));
                }
                DeltaOp::SetAttr { node, ref key, ref value } => {
                    // Tombstoned / never-added targets: recorded no-op
                    // (mirror of the AddEdge-onto-tombstone rule — streams
                    // may batch a RemoveNode ahead of a SetAttr). Setting
                    // the stored value again is idempotent, so replays see
                    // only *changes*.
                    if node as usize >= self.labels.len() || self.is_removed(node) {
                        continue;
                    }
                    if self.attrs[node as usize].get(key) == Some(value) {
                        continue;
                    }
                    self.attrs[node as usize].set(key.clone(), value.clone());
                    // Intern once; the change record and the effect share it.
                    let key: std::sync::Arc<str> = std::sync::Arc::from(key.as_str());
                    out.attr_changes.push((node, key.clone()));
                    emit!(self, EffectiveOp::AttrSet { node, key, value: value.clone() });
                }
                DeltaOp::UnsetAttr { node, ref key } => {
                    if node as usize >= self.labels.len() || self.is_removed(node) {
                        continue;
                    }
                    if self.attrs[node as usize].remove(key).is_none() {
                        continue;
                    }
                    let key: std::sync::Arc<str> = std::sync::Arc::from(key.as_str());
                    out.attr_changes.push((node, key.clone()));
                    emit!(self, EffectiveOp::AttrUnset { node, key });
                }
            }
        }
        self.version += 1;
        out.version = self.version;
        Ok(out)
    }

    /// Packs the current state into an immutable [`DiGraph`], attributes
    /// included — static recomputes on the snapshot see exactly the
    /// predicate environment the dynamic path maintains.
    pub fn snapshot(&self) -> DiGraph {
        let mut b = GraphBuilder::with_capacity(self.node_count(), self.edge_count);
        for (&l, a) in self.labels.iter().zip(&self.attrs) {
            b.add_node_with_attrs(l, a.clone());
        }
        for (s, succs) in self.fwd.iter().enumerate() {
            for &t in succs {
                b.add_edge(s as NodeId, t).expect("dynamic edges are in range");
            }
        }
        b.build()
    }

    /// [`Self::snapshot`] of the current version, built at most once per
    /// version and shared: callers between two batches (say, N pattern
    /// registrations) get the same `Arc`. It is retained until the next
    /// [`Self::apply_with`] mutates the graph.
    pub fn shared_snapshot(&self) -> Arc<DiGraph> {
        self.shared.get_or_init(|| Arc::new(self.snapshot())).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_parts;

    fn sample() -> DiGraph {
        graph_from_parts(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap()
    }

    #[test]
    fn mirror_and_snapshot_roundtrip() {
        let g = sample();
        let dg = DynGraph::from_digraph(&g);
        assert_eq!(dg.node_count(), 4);
        assert_eq!(dg.edge_count(), 4);
        assert_eq!(dg.version(), 0);
        let snap = dg.snapshot();
        assert_eq!(snap.node_count(), g.node_count());
        assert_eq!(snap.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(snap.label(v), g.label(v));
            assert_eq!(snap.successors(v), g.successors(v));
        }
    }

    #[test]
    fn apply_matches_immutable_apply_delta() {
        let g = sample();
        let delta = GraphDelta::new()
            .add_node(1)
            .add_edge(3, 4)
            .remove_edge(0, 1)
            .remove_node(2)
            .add_edge(4, 0);
        let mut dg = DynGraph::from_digraph(&g);
        let applied = dg.apply(&delta).unwrap();
        let expect = crate::delta::apply_delta(&g, &delta).unwrap();

        assert_eq!(dg.version(), 1);
        assert_eq!(applied.added_nodes, vec![(4, 1)]);
        assert_eq!(applied.removed_nodes, vec![2]);
        // (1,2) and (2,3) disappear via RemoveNode, (0,1) explicitly.
        assert_eq!(applied.removed_edges.len(), 3);
        assert_eq!(applied.edge_churn(), 5);

        let snap = dg.snapshot();
        assert_eq!(snap.node_count(), expect.node_count());
        assert_eq!(snap.edge_count(), expect.edge_count());
        for v in expect.nodes() {
            assert_eq!(snap.label(v), expect.label(v));
            assert_eq!(snap.successors(v), expect.successors(v));
        }
    }

    #[test]
    fn label_index_tracks_updates() {
        let g = sample();
        let mut dg = DynGraph::from_digraph(&g);
        assert_eq!(dg.nodes_with_label(0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(dg.label_count(0), 2);
        assert_eq!(dg.live_node_count(), 4);
        dg.apply(&GraphDelta::new().add_node(0).remove_node(0)).unwrap();
        assert_eq!(dg.nodes_with_label(0).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(dg.label_count(0), 2);
        assert_eq!(dg.live_node_count(), 4, "one added, one tombstoned");
        assert!(dg.is_removed(0));
        assert_eq!(dg.nodes_with_label(TOMBSTONE_LABEL).count(), 0, "tombstones unindexed");
        assert_eq!(dg.label_count(TOMBSTONE_LABEL), 0);
        assert_eq!(
            dg.live_labels().collect::<Vec<_>>(),
            vec![(0, 2), (1, 1), (2, 1)],
            "histogram over live nodes only"
        );
    }

    #[test]
    fn edges_onto_tombstones_are_noops() {
        let g = sample();
        let mut dg = DynGraph::from_digraph(&g);
        // Same batch: RemoveNode ahead of AddEdge to the dead node (the
        // shape datagen's pre-batch validation can emit).
        let applied =
            dg.apply(&GraphDelta::new().remove_node(1).add_edge(0, 1).add_edge(1, 2)).unwrap();
        assert!(applied.added_edges.is_empty(), "tombstoned endpoints accrue no edges");
        assert_eq!(dg.successors(1).count() + dg.predecessors(1).count(), 0);
        // Later batch: still a no-op, and the immutable path agrees.
        let applied2 = dg.apply(&GraphDelta::new().add_edge(3, 1)).unwrap();
        assert!(applied2.added_edges.is_empty());
        let expect = crate::delta::apply_delta(
            &g,
            &GraphDelta::new().remove_node(1).add_edge(0, 1).add_edge(1, 2).add_edge(3, 1),
        )
        .unwrap();
        assert_eq!(dg.edge_count(), expect.edge_count());
        assert_eq!(dg.snapshot().edge_count(), expect.edge_count());
    }

    #[test]
    fn attr_mutations_roundtrip_and_mirror_immutable_path() {
        use crate::attrs::AttrValue;
        let g = sample();
        let mut dg = DynGraph::from_digraph(&g);
        let delta = GraphDelta::new()
            .set_attr(0, "views", 10i64)
            .set_attr(0, "views", 10i64) // idempotent: second set is a no-op
            .set_attr(1, "category", "music")
            .set_attr(0, "views", 12i64) // overwrite is effective
            .unset_attr(1, "category")
            .unset_attr(1, "category"); // unset of absent key is a no-op
        let applied = dg.apply(&delta).unwrap();
        let want: Vec<(NodeId, std::sync::Arc<str>)> = vec![
            (0, "views".into()),
            (1, "category".into()),
            (0, "views".into()),
            (1, "category".into()),
        ];
        assert_eq!(applied.attr_changes, want);
        assert_eq!(applied.effects.len(), 4, "two of six ops were no-ops");
        assert!(!applied.is_noop());
        assert_eq!(applied.edge_churn(), 0, "attr flips are not edge churn");
        assert_eq!(dg.attr(0, "views"), Some(&AttrValue::Int(12)));
        assert_eq!(dg.attr(1, "category"), None);

        // Snapshot carries the attributes; the immutable path agrees.
        let snap = dg.snapshot();
        assert_eq!(snap.attributes(0).unwrap().get("views"), Some(&AttrValue::Int(12)));
        let expect = crate::delta::apply_delta(&g, &delta).unwrap();
        for v in expect.nodes() {
            assert_eq!(snap.attributes(v), expect.attributes(v), "node {v}");
        }
    }

    /// Regression (mirror of the AddEdge-onto-tombstone fix): attr ops
    /// targeting a tombstoned or never-added node are recorded no-ops in
    /// both application paths, and a tombstone wipes existing attributes.
    #[test]
    fn attr_ops_on_tombstoned_or_missing_nodes_are_noops() {
        let g = sample();
        let mut dg = DynGraph::from_digraph(&g);
        dg.apply(&GraphDelta::new().set_attr(1, "views", 7i64)).unwrap();
        assert!(dg.attr(1, "views").is_some());

        // Same batch: RemoveNode ahead of attr ops on the dead node, plus
        // attr ops on an id that was never added.
        let delta = GraphDelta::new()
            .remove_node(1)
            .set_attr(1, "views", 9i64)
            .unset_attr(1, "views")
            .set_attr(42, "views", 9i64)
            .unset_attr(42, "views");
        let mut hook_effects = 0usize;
        let applied = dg.apply_with(&delta, |_, _| hook_effects += 1).unwrap();
        assert!(applied.attr_changes.is_empty(), "dead/missing slots accrue no attr state");
        assert_eq!(dg.attributes(1).len(), 0, "tombstone wiped the old attributes");
        // Only the structural effects of RemoveNode reached the hook.
        assert_eq!(hook_effects, applied.effects.len());
        assert!(applied
            .effects()
            .all(|e| !matches!(e, EffectiveOp::AttrSet { .. } | EffectiveOp::AttrUnset { .. })));

        // Later batch: still a no-op, and the immutable path agrees.
        let applied2 = dg.apply(&GraphDelta::new().set_attr(1, "x", 1i64)).unwrap();
        assert!(applied2.is_noop());
        let expect = crate::delta::apply_delta(
            &crate::delta::apply_delta(&g, &GraphDelta::new().set_attr(1, "views", 7i64)).unwrap(),
            &delta,
        )
        .unwrap();
        assert!(expect.attributes(1).is_none_or(|a| a.is_empty()));
        assert_eq!(dg.snapshot().has_attributes(), expect.has_attributes());
    }

    #[test]
    fn failed_batch_leaves_graph_unchanged() {
        let g = sample();
        let mut dg = DynGraph::from_digraph(&g);
        let bad = GraphDelta::new().add_edge(0, 2).add_edge(0, 99);
        assert!(dg.apply(&bad).is_err());
        assert_eq!(dg.version(), 0);
        assert!(!dg.has_edge(0, 2), "earlier ops of a failed batch are not applied");
    }

    /// Node labels, attributes and edges of two snapshots agree.
    fn assert_same_graph(a: &DiGraph, b: &DiGraph) {
        assert_eq!(a.labels(), b.labels());
        assert_eq!(
            a.edges().map(|e| (e.source, e.target)).collect::<Vec<_>>(),
            b.edges().map(|e| (e.source, e.target)).collect::<Vec<_>>()
        );
        for v in a.nodes() {
            assert_eq!(a.attributes(v), b.attributes(v), "attributes of {v}");
        }
    }

    #[test]
    fn shared_snapshot_is_one_copy_per_version() {
        let mut dg = DynGraph::from_digraph(&sample());
        let first = dg.shared_snapshot();
        assert!(Arc::ptr_eq(&first, &dg.shared_snapshot()), "one copy between batches");
        assert_same_graph(&first, &dg.snapshot());

        // A rejected batch mutates nothing and keeps the copy.
        assert!(dg.apply(&GraphDelta::new().add_edge(0, 2).add_edge(0, 99)).is_err());
        assert!(Arc::ptr_eq(&first, &dg.shared_snapshot()));

        // A clone shares the copy; an applied batch replaces it.
        let twin = dg.clone();
        dg.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        let second = dg.shared_snapshot();
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(second.successors(0).contains(&2));
        assert!(Arc::ptr_eq(&first, &twin.shared_snapshot()));
        assert_same_graph(&second, &dg.snapshot());

        // At version 0 the copy is the source graph, attributes included,
        // and equals a rebuild.
        let mut b = GraphBuilder::new();
        b.add_node_with_attrs(0, Attributes::from_pairs([("k", 2i64)]));
        b.add_node(1);
        b.add_edge(1, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        let attributed = DynGraph::from_digraph(&b.build());
        assert_same_graph(&attributed.shared_snapshot(), &attributed.snapshot());
    }

    /// A hook that asks for the shared snapshot mid-batch sees the graph
    /// as of its own mutation — never a copy built before it — and the
    /// copy the batch leaves behind is the post-batch graph.
    #[test]
    fn hooks_never_see_an_earlier_shared_snapshot() {
        let mut dg = DynGraph::from_digraph(&sample());
        let before = dg.shared_snapshot();
        let delta = GraphDelta::new()
            .add_node(1)
            .add_edge(3, 4)
            .set_attr(4, "views", 3i64)
            .remove_node(2)
            .remove_edge(0, 1);
        let mut hooks = 0usize;
        dg.apply_with(&delta, |g, _| {
            let seen = g.shared_snapshot();
            assert!(!Arc::ptr_eq(&seen, &before));
            assert_same_graph(&seen, &g.snapshot());
            hooks += 1;
        })
        .unwrap();
        assert!(hooks >= 5);
        assert_same_graph(&dg.shared_snapshot(), &dg.snapshot());
    }

    /// Over a seeded mixed stream (nodes, edges, attributes, tombstones)
    /// the shared snapshot equals a fresh one after every batch.
    #[test]
    fn shared_snapshot_tracks_a_mixed_stream() {
        let mut dg = DynGraph::from_digraph(&sample());
        let mut x = 0x2545_f491_u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as u32
        };
        for _ in 0..60 {
            let n = dg.node_count() as u64;
            let mut delta = GraphDelta::new();
            for _ in 0..4 {
                let (a, b) = (next(n), next(n));
                delta = match next(6) {
                    0 => delta.add_node(next(3)),
                    1 | 2 if a != b => delta.add_edge(a, b),
                    3 => delta.remove_edge(a, b),
                    4 => delta.set_attr(a, "w", i64::from(next(3))),
                    _ if next(4) == 0 => delta.remove_node(a),
                    _ => delta.unset_attr(a, "w"),
                };
            }
            dg.apply(&delta).unwrap();
            let shared = dg.shared_snapshot();
            assert!(Arc::ptr_eq(&shared, &dg.shared_snapshot()));
            assert_same_graph(&shared, &dg.snapshot());
        }
    }

    #[test]
    fn idempotent_ops_are_filtered() {
        let g = sample();
        let mut dg = DynGraph::from_digraph(&g);
        let applied =
            dg.apply(&GraphDelta::new().add_edge(0, 1).remove_edge(1, 0).remove_node(3)).unwrap();
        assert!(applied.added_edges.is_empty());
        assert_eq!(applied.removed_edges, vec![(0, 3), (2, 3)], "incoming in source order");
        let applied2 = dg.apply(&GraphDelta::new().remove_node(3)).unwrap();
        assert!(applied2.is_noop() || applied2.removed_nodes.is_empty());
    }
}
