//! Graph deltas: batched updates for dynamic data graphs.
//!
//! Social networks — the paper's target domain — change continuously, so
//! the serving layer maintains matches **incrementally** instead of
//! recomputing `M(Q,G)` from scratch (see the `gpm-incremental` crate). A
//! [`GraphDelta`] is one batch of updates; [`DynGraph`] (in
//! [`crate::dynamic`]) applies it in place, and [`apply_delta`] rebuilds an
//! immutable [`DiGraph`](crate::DiGraph) for from-scratch baselines and
//! equivalence tests.
//!
//! Semantics:
//!
//! * **`AddNode(label)`** — appends a node; ids stay dense, so the `i`-th
//!   added node of a batch gets id `node_count + i` (with `node_count`
//!   taken *before* the batch).
//! * **`AddEdge(s, t)`** / **`RemoveEdge(s, t)`** — idempotent: inserting
//!   an existing edge or removing a missing one is a no-op, recorded as
//!   such in the [`AppliedDelta`]. Edge ops whose endpoints are tombstoned
//!   (even by an earlier op of the same batch) are no-ops too — a removed
//!   node's slot never accrues new edges.
//! * **`RemoveNode(v)`** — tombstone semantics: node ids must stay dense
//!   (every index in the CSR, candidate bitmasks and relevant-set universes
//!   is an id), so removal drops all incident edges, relabels the node
//!   to the reserved [`TOMBSTONE_LABEL`], which no pattern may use, and
//!   clears its attributes. The slot is never reused.
//! * **`SetAttr { node, key, value }`** / **`UnsetAttr { node, key }`** —
//!   node attribute mutations (the paper's real-life queries filter on
//!   `category`, `views`, `sales rank`, …). Idempotent like the edge ops:
//!   setting a key to its current value or unsetting an absent key is a
//!   recorded no-op. Attr ops targeting a **tombstoned or never-added**
//!   node are no-ops too, never errors — generated streams may batch a
//!   `RemoveNode` ahead of a `SetAttr` to the same node, and a removed
//!   slot accrues no state of any kind.

use std::sync::Arc;

use crate::attrs::{AttrValue, Attributes};
use crate::builder::GraphBuilder;
use crate::digraph::{DiGraph, Label, NodeId};
use crate::error::GraphError;
use crate::Result;

/// Reserved label for removed nodes. Patterns must not use it; both the
/// dynamic path and [`apply_delta`] reject deltas that would add a node
/// with this label.
pub const TOMBSTONE_LABEL: Label = Label::MAX;

/// One update operation.
///
/// Not `Copy` since the attribute variants carry owned keys/values; the
/// structural variants stay cheap to clone.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Append a node with the given label (id = next dense id).
    AddNode(Label),
    /// Insert the edge `(s, t)`.
    AddEdge(NodeId, NodeId),
    /// Remove the edge `(s, t)`.
    RemoveEdge(NodeId, NodeId),
    /// Tombstone node `v`: drop incident edges, relabel to
    /// [`TOMBSTONE_LABEL`], clear attributes.
    RemoveNode(NodeId),
    /// Insert or overwrite one attribute of `node`.
    SetAttr {
        /// Target node.
        node: NodeId,
        /// Attribute key.
        key: String,
        /// New value.
        value: AttrValue,
    },
    /// Remove one attribute of `node`.
    UnsetAttr {
        /// Target node.
        node: NodeId,
        /// Attribute key.
        key: String,
    },
}

/// A batch of updates, applied in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// The operations, in application order.
    pub ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// Empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: append a node addition.
    pub fn add_node(mut self, label: Label) -> Self {
        self.ops.push(DeltaOp::AddNode(label));
        self
    }

    /// Builder-style: append an edge insertion.
    pub fn add_edge(mut self, s: NodeId, t: NodeId) -> Self {
        self.ops.push(DeltaOp::AddEdge(s, t));
        self
    }

    /// Builder-style: append an edge removal.
    pub fn remove_edge(mut self, s: NodeId, t: NodeId) -> Self {
        self.ops.push(DeltaOp::RemoveEdge(s, t));
        self
    }

    /// Builder-style: append a node removal.
    pub fn remove_node(mut self, v: NodeId) -> Self {
        self.ops.push(DeltaOp::RemoveNode(v));
        self
    }

    /// Builder-style: append an attribute insertion/overwrite.
    pub fn set_attr(
        mut self,
        node: NodeId,
        key: impl Into<String>,
        value: impl Into<AttrValue>,
    ) -> Self {
        self.ops.push(DeltaOp::SetAttr { node, key: key.into(), value: value.into() });
        self
    }

    /// Builder-style: append an attribute removal.
    pub fn unset_attr(mut self, node: NodeId, key: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::UnsetAttr { node, key: key.into() });
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when there is nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One *effective* (normalized) update: what actually changed, in
/// application order. `RemoveNode` expands into its incident
/// `EdgeRemoved`s followed by a `NodeRemoved`. Incremental consumers
/// replay this stream op-by-op, in lockstep with the graph.
///
/// Attribute keys are interned as `Arc<str>`: one allocation per effective
/// mutation, shared by the recorded effect, the [`AppliedDelta::attr_changes`]
/// entry and every interested per-pattern replay — the multi-pattern
/// fan-out clones a pointer, never the string.
#[derive(Debug, Clone, PartialEq)]
pub enum EffectiveOp {
    /// A node appeared with this id and label.
    NodeAdded(NodeId, Label),
    /// An edge appeared.
    EdgeAdded(NodeId, NodeId),
    /// An edge disappeared.
    EdgeRemoved(NodeId, NodeId),
    /// A node with this id and label was tombstoned (after its incident
    /// edges were removed; the slot no longer holds the label).
    NodeRemoved(NodeId, Label),
    /// An attribute of a live node changed to `value` (insert or
    /// overwrite — same-value sets are filtered out as no-ops).
    AttrSet {
        /// Target node.
        node: NodeId,
        /// Attribute key (interned, pointer-cheap to clone).
        key: Arc<str>,
        /// The value now stored.
        value: AttrValue,
    },
    /// An attribute that was present on a live node disappeared.
    AttrUnset {
        /// Target node.
        node: NodeId,
        /// Attribute key (interned, pointer-cheap to clone).
        key: Arc<str>,
    },
}

/// The *effective* updates of a batch after normalization: duplicate edge
/// inserts, removals of absent edges, and edges already dropped by an
/// earlier `RemoveNode` are filtered out. Incremental consumers replay
/// these without re-deriving idempotency.
#[derive(Debug, Clone, Default)]
pub struct AppliedDelta {
    /// The normalized update stream, in application order.
    pub effects: Vec<EffectiveOp>,
    /// Ids assigned to `AddNode` ops, in op order.
    pub added_nodes: Vec<(NodeId, Label)>,
    /// Edges that actually appeared.
    pub added_edges: Vec<(NodeId, NodeId)>,
    /// Edges that actually disappeared (including those dropped by
    /// `RemoveNode`), in removal order.
    pub removed_edges: Vec<(NodeId, NodeId)>,
    /// Nodes tombstoned by this batch.
    pub removed_nodes: Vec<NodeId>,
    /// `(node, key)` of every attribute that effectively changed (set to a
    /// new value or unset while present), in application order. Keys are
    /// shared with the corresponding [`EffectiveOp`] (same `Arc`).
    pub attr_changes: Vec<(NodeId, Arc<str>)>,
    /// The graph version after application.
    pub version: u64,
}

impl AppliedDelta {
    /// The normalized update stream, in application order.
    pub fn effects(&self) -> impl Iterator<Item = &EffectiveOp> + '_ {
        self.effects.iter()
    }

    /// Number of effective edge changes (the "delta size" the incremental
    /// engine's fallback heuristics reason about — attribute flips change
    /// no adjacency and therefore count zero here).
    pub fn edge_churn(&self) -> usize {
        self.added_edges.len() + self.removed_edges.len()
    }

    /// `true` when the batch changed nothing.
    pub fn is_noop(&self) -> bool {
        self.added_nodes.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.removed_nodes.is_empty()
            && self.attr_changes.is_empty()
    }
}

/// Applies `delta` to an immutable graph, producing the updated graph.
///
/// This is the from-scratch path (used by baselines and the equivalence
/// property tests); the incremental path lives in
/// [`DynGraph::apply`](crate::dynamic::DynGraph::apply). Attributes are
/// carried through and mutated by the attr ops (the dynamic path evaluates
/// predicates against them); display names are dropped — dynamic workloads
/// never read them.
pub fn apply_delta(g: &DiGraph, delta: &GraphDelta) -> Result<DiGraph> {
    let mut labels: Vec<Label> = g.labels().to_vec();
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.source, e.target)).collect();
    let mut attrs: Vec<Attributes> =
        g.nodes().map(|v| g.attributes(v).cloned().unwrap_or_default()).collect();

    for op in &delta.ops {
        match op {
            &DeltaOp::AddNode(label) => {
                if label == TOMBSTONE_LABEL {
                    return Err(GraphError::Parse {
                        line: 0,
                        msg: "cannot add a node with the reserved tombstone label".into(),
                    });
                }
                labels.push(label);
                attrs.push(Attributes::new());
            }
            &DeltaOp::AddEdge(s, t) => {
                check_node(s, labels.len())?;
                check_node(t, labels.len())?;
                // Mirror DynGraph: edges onto tombstoned nodes are
                // ineffective, never materialized.
                if labels[s as usize] != TOMBSTONE_LABEL && labels[t as usize] != TOMBSTONE_LABEL {
                    edges.push((s, t)); // GraphBuilder deduplicates
                }
            }
            &DeltaOp::RemoveEdge(s, t) => {
                check_node(s, labels.len())?;
                check_node(t, labels.len())?;
                edges.retain(|&e| e != (s, t));
            }
            &DeltaOp::RemoveNode(v) => {
                check_node(v, labels.len())?;
                labels[v as usize] = TOMBSTONE_LABEL;
                edges.retain(|&(s, t)| s != v && t != v);
                attrs[v as usize] = Attributes::new();
            }
            // Attr ops onto tombstoned or out-of-range nodes are no-ops,
            // not errors — mirror of the AddEdge-onto-tombstone rule.
            DeltaOp::SetAttr { node, key, value } => {
                let v = *node as usize;
                if v < labels.len() && labels[v] != TOMBSTONE_LABEL {
                    attrs[v].set(key.clone(), value.clone());
                }
            }
            DeltaOp::UnsetAttr { node, key } => {
                let v = *node as usize;
                if v < labels.len() && labels[v] != TOMBSTONE_LABEL {
                    attrs[v].remove(key);
                }
            }
        }
    }

    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for (l, a) in labels.iter().zip(attrs) {
        b.add_node_with_attrs(*l, a);
    }
    for (s, t) in edges {
        b.add_edge(s, t)?;
    }
    Ok(b.build())
}

fn check_node(v: NodeId, n: usize) -> Result<()> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(GraphError::UnknownNode(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_parts;

    #[test]
    fn add_and_remove_edges() {
        let g = graph_from_parts(&[0, 1, 2], &[(0, 1)]).unwrap();
        let d = GraphDelta::new().add_edge(1, 2).remove_edge(0, 1);
        let g2 = apply_delta(&g, &d).unwrap();
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(1, 2));
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn add_nodes_get_dense_ids() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        let d = GraphDelta::new().add_node(7).add_node(8).add_edge(1, 2);
        let g2 = apply_delta(&g, &d).unwrap();
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.label(1), 7);
        assert_eq!(g2.label(2), 8);
        assert!(g2.has_edge(1, 2));
    }

    #[test]
    fn remove_node_tombstones() {
        let g = graph_from_parts(&[0, 1, 0], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let d = GraphDelta::new().remove_node(1);
        let g2 = apply_delta(&g, &d).unwrap();
        assert_eq!(g2.node_count(), 3, "ids stay dense");
        assert_eq!(g2.label(1), TOMBSTONE_LABEL);
        assert_eq!(g2.edge_count(), 1, "only (2,0) survives");
        assert!(g2.has_edge(2, 0));
        assert!(g2.nodes_with_label(1).is_empty());
    }

    #[test]
    fn duplicate_and_missing_edges_are_idempotent() {
        let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        let d = GraphDelta::new().add_edge(0, 1).remove_edge(1, 0);
        let g2 = apply_delta(&g, &d).unwrap();
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn edges_onto_tombstones_are_dropped() {
        let g = graph_from_parts(&[0, 1, 0], &[(0, 1)]).unwrap();
        let d = GraphDelta::new().remove_node(1).add_edge(2, 1).add_edge(1, 0).add_edge(2, 0);
        let g2 = apply_delta(&g, &d).unwrap();
        assert_eq!(g2.edge_count(), 1, "only the live-endpoint edge lands");
        assert!(g2.has_edge(2, 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let g = graph_from_parts(&[0], &[]).unwrap();
        assert!(apply_delta(&g, &GraphDelta::new().add_edge(0, 5)).is_err());
        assert!(apply_delta(&g, &GraphDelta::new().remove_node(9)).is_err());
        assert!(apply_delta(&g, &GraphDelta::new().add_node(TOMBSTONE_LABEL)).is_err());
    }

    #[test]
    fn attrs_carried_through_and_mutated() {
        use crate::attrs::Attributes;
        use crate::builder::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_node_with_attrs(
            0,
            Attributes::from_pairs([("views", AttrValue::Int(5)), ("rate", AttrValue::Float(1.5))]),
        );
        b.add_node(1);
        let g = b.build();
        let d = GraphDelta::new()
            .set_attr(0, "views", 9i64)
            .unset_attr(0, "rate")
            .set_attr(1, "category", "music")
            .add_node(2)
            .set_attr(2, "views", 1i64);
        let g2 = apply_delta(&g, &d).unwrap();
        let a0 = g2.attributes(0).unwrap();
        assert_eq!(a0.get("views"), Some(&AttrValue::Int(9)));
        assert_eq!(a0.get("rate"), None);
        assert_eq!(
            g2.attributes(1).unwrap().get("category").and_then(|v| v.as_str()),
            Some("music")
        );
        assert_eq!(g2.attributes(2).unwrap().get("views"), Some(&AttrValue::Int(1)));
    }

    #[test]
    fn attr_ops_on_dead_or_missing_nodes_are_noops() {
        let g = graph_from_parts(&[0, 1], &[(0, 1)]).unwrap();
        // Tombstoned in the same batch, then attr ops on it, plus an attr
        // op on a node that was never added: all silently ineffective.
        let d = GraphDelta::new()
            .remove_node(1)
            .set_attr(1, "views", 3i64)
            .unset_attr(1, "views")
            .set_attr(99, "views", 3i64)
            .unset_attr(99, "views");
        let g2 = apply_delta(&g, &d).unwrap();
        assert_eq!(g2.label(1), TOMBSTONE_LABEL);
        assert!(!g2.has_attributes(), "no attribute ever landed");
    }

    #[test]
    fn remove_node_clears_attrs() {
        let g = graph_from_parts(&[0, 1], &[]).unwrap();
        let d = GraphDelta::new().set_attr(0, "views", 3i64).remove_node(0);
        let g2 = apply_delta(&g, &d).unwrap();
        assert!(!g2.has_attributes(), "tombstoned slot keeps no attributes");
    }
}
