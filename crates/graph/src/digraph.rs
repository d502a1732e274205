//! The immutable directed labeled graph `G = (V, E, L)`.

use crate::attrs::Attributes;
use crate::csr::Csr;

/// Node identifier: a dense index in `0..node_count`.
pub type NodeId = u32;

/// A multiplicative [`Hasher`](std::hash::Hasher) for maps keyed by
/// [`NodeId`]: a rotate, xor and multiply a word and one fold, where std's
/// default SipHash runs rounds meant to resist keys an adversary picks. Node ids
/// are assigned by the graph, not chosen by a client, so that resistance
/// buys nothing on them. Use it as `BuildHasherDefault<IdHasher>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    /// The product's high bits are its well-mixed ones; the fold brings
    /// them down to where the table picks its bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Node label from the alphabet `Σ`, interned as a dense integer.
pub type Label = u32;

/// A borrowed edge `(source, target)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    pub source: NodeId,
    pub target: NodeId,
}

/// An immutable directed graph with node labels, optional display names and
/// optional attribute maps, stored as forward + reverse CSR.
///
/// Construction goes through [`crate::GraphBuilder`], which deduplicates
/// edges and validates node references.
#[derive(Debug, Clone)]
pub struct DiGraph {
    pub(crate) fwd: Csr,
    pub(crate) rev: Csr,
    pub(crate) labels: Vec<Label>,
    pub(crate) names: Option<Vec<String>>,
    pub(crate) attrs: Option<Vec<Attributes>>,
    /// Node ids grouped by label: `by_label_nodes[by_label_spans[l].0 .. .1]`.
    pub(crate) by_label_nodes: Vec<NodeId>,
    pub(crate) by_label_spans: Vec<(Label, u32, u32)>,
}

impl DiGraph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.fwd.edge_count()
    }

    /// `|G| = |V| + |E|`, the size measure used throughout the paper.
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// All labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Successors of `v` (sorted by id).
    #[inline]
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        self.fwd.neighbors(v)
    }

    /// Predecessors of `v` (sorted by id).
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        self.rev.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.fwd.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.rev.degree(v)
    }

    /// `true` iff edge `(s, t)` exists.
    #[inline]
    pub fn has_edge(&self, s: NodeId, t: NodeId) -> bool {
        self.fwd.has_edge(s, t)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Iterates over all edges in source order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |s| {
            self.successors(s).iter().map(move |&t| EdgeRef { source: s, target: t })
        })
    }

    /// All nodes carrying `label`, sorted by id. This is the candidate lookup
    /// `can(u)` for a label-predicate pattern node.
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        match self.by_label_spans.binary_search_by_key(&label, |&(l, _, _)| l) {
            Ok(i) => {
                let (_, a, b) = self.by_label_spans[i];
                &self.by_label_nodes[a as usize..b as usize]
            }
            Err(_) => &[],
        }
    }

    /// Number of distinct labels present in the graph.
    pub fn distinct_label_count(&self) -> usize {
        self.by_label_spans.len()
    }

    /// Display name of `v` if names were provided, else `None`.
    pub fn name(&self, v: NodeId) -> Option<&str> {
        self.names.as_ref().map(|n| n[v as usize].as_str())
    }

    /// Display name or the id rendered as text.
    pub fn display(&self, v: NodeId) -> String {
        match self.name(v) {
            Some(n) => n.to_owned(),
            None => format!("#{v}"),
        }
    }

    /// Resolves a display name back to a node id (linear scan; test helper).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        let names = self.names.as_ref()?;
        names.iter().position(|n| n == name).map(|i| i as NodeId)
    }

    /// Attributes of `v` (empty if the graph has no attribute table).
    pub fn attributes(&self, v: NodeId) -> Option<&Attributes> {
        self.attrs.as_ref().map(|a| &a[v as usize])
    }

    /// `true` if any node has attributes attached.
    pub fn has_attributes(&self) -> bool {
        self.attrs.is_some()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    #[test]
    fn basic_accessors() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0);
        let c = b.add_node(1);
        let d = b.add_node(0);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        b.add_edge(a, d).unwrap();
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 6);
        assert_eq!(g.successors(a), &[c, d]);
        assert_eq!(g.predecessors(d), &[a, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert!(g.has_edge(a, c));
        assert!(!g.has_edge(c, a));
        assert_eq!(g.nodes_with_label(0), &[a, d]);
        assert_eq!(g.nodes_with_label(1), &[c]);
        assert_eq!(g.nodes_with_label(9), &[] as &[u32]);
        assert_eq!(g.distinct_label_count(), 2);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn names_and_display() {
        let mut b = GraphBuilder::new();
        let a = b.add_named_node("PM1", 0);
        let g = b.build();
        assert_eq!(g.name(a), Some("PM1"));
        assert_eq!(g.display(a), "PM1");
        assert_eq!(g.node_by_name("PM1"), Some(a));
        assert_eq!(g.node_by_name("nope"), None);
    }

    /// Strided ids must still differ in the low bits a table indexes by:
    /// a product of `i · 1024` has its low 10 bits zero, so without the
    /// fold every one of them would land in bucket 0. A random function
    /// fills about 162 of 256 buckets; ask for more than a quarter.
    #[test]
    fn id_hasher_spreads_strided_ids_over_low_bits() {
        use super::IdHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        let buckets: std::collections::BTreeSet<u64> =
            (0..256u32).map(|i| build.hash_one(i * 1024) & 255).collect();
        assert!(buckets.len() > 64, "{} of 256 buckets", buckets.len());
    }
}
