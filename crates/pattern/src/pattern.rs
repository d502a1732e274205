//! The pattern graph `Q = (Vp, Ep, fv, uo)`.

use gpm_graph::scc::Successors;
use gpm_graph::{BitSet, Condensation, DiGraph, NodeId};

use crate::predicate::Predicate;

/// Pattern node identifier (dense index in `0..node_count`).
pub type PNodeId = NodeId;

/// An immutable pattern graph with a designated output node.
///
/// The topology is stored as a [`DiGraph`] (labels unused there), so all the
/// SCC / rank machinery of `gpm-graph` applies directly — `TopK` (Section
/// 4.2) condenses `Q` into `Q_SCC` exactly like a data graph.
#[derive(Debug, Clone)]
pub struct Pattern {
    pub(crate) topology: DiGraph,
    pub(crate) predicates: Vec<Predicate>,
    pub(crate) names: Vec<String>,
    pub(crate) output: PNodeId,
}

impl Pattern {
    /// Most nodes a pattern may have: candidate spaces keep one bit per
    /// pattern node for each data node (the paper's largest pattern has
    /// 10). [`PatternBuilder::build`](crate::PatternBuilder::build) refuses
    /// larger patterns, so every algorithm may rely on it.
    pub const MAX_NODES: usize = 64;

    /// Number of pattern nodes `|Vp|`.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Number of pattern edges `|Ep|`.
    pub fn edge_count(&self) -> usize {
        self.topology.edge_count()
    }

    /// `|Q| = |Vp| + |Ep|`, the paper's pattern size measure.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// The designated output node `uo`.
    pub fn output(&self) -> PNodeId {
        self.output
    }

    /// Predicate of pattern node `u` (the generalized `fv(u)`).
    pub fn predicate(&self, u: PNodeId) -> &Predicate {
        &self.predicates[u as usize]
    }

    /// Display name of `u` (empty string if none was given).
    pub fn name(&self, u: PNodeId) -> &str {
        &self.names[u as usize]
    }

    /// Name or `u{id}` for display.
    pub fn display(&self, u: PNodeId) -> String {
        if self.names[u as usize].is_empty() {
            format!("u{u}")
        } else {
            self.names[u as usize].clone()
        }
    }

    /// Resolves a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<PNodeId> {
        self.names.iter().position(|n| n == name).map(|i| i as PNodeId)
    }

    /// Children `u'` with `(u, u') ∈ Ep`.
    pub fn successors(&self, u: PNodeId) -> &[PNodeId] {
        self.topology.successors(u)
    }

    /// Parents `u'` with `(u', u) ∈ Ep`.
    pub fn predecessors(&self, u: PNodeId) -> &[PNodeId] {
        self.topology.predecessors(u)
    }

    /// Iterates over pattern node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PNodeId> + '_ {
        self.topology.nodes()
    }

    /// Iterates over pattern edges.
    pub fn edges(&self) -> impl Iterator<Item = (PNodeId, PNodeId)> + '_ {
        self.topology.edges().map(|e| (e.source, e.target))
    }

    /// The raw topology graph.
    pub fn topology(&self) -> &DiGraph {
        &self.topology
    }

    /// Condenses the pattern into `Q_SCC` (Section 4.2).
    pub fn condensation(&self) -> Condensation {
        Condensation::compute(&self.topology)
    }

    /// `true` iff the pattern is a DAG — selects `TopKDAG` vs `TopK`.
    pub fn is_dag(&self) -> bool {
        let c = self.condensation();
        (0..c.component_count() as u32).all(|comp| !c.is_nontrivial(comp))
    }

    /// Pattern nodes reachable from the output node via ≥1 edge — the query
    /// nodes whose candidates the normalizer `Cuo` counts (Section 3.3).
    pub fn reachable_from_output(&self) -> BitSet {
        gpm_graph::reach::strict_descendants(&self.topology, self.output)
    }

    /// `true` iff `uo` reaches every other pattern node (the paper's default
    /// "root" assumption for `TopKDAG`; non-root outputs are also supported
    /// by the algorithms, with an extra global match-existence check).
    pub fn output_is_root(&self) -> bool {
        let reach = self.reachable_from_output();
        self.nodes().all(|u| u == self.output || reach.contains(u as usize))
    }

    /// Height of the pattern = the largest topological rank (the paper notes
    /// in Exp-2 that algorithms do better on patterns with smaller height).
    pub fn height(&self) -> u32 {
        self.condensation().height()
    }
}

impl Successors for Pattern {
    fn node_count(&self) -> usize {
        Pattern::node_count(self)
    }
    fn successors_of(&self, v: NodeId) -> &[NodeId] {
        self.successors(v)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::PatternBuilder;
    use crate::predicate::Predicate;

    /// The paper's Fig. 1 pattern: PM* → DB, PM → PRG, DB ⇄ PRG, DB → ST,
    /// PRG → ST (labels: PM=0, DB=1, PRG=2, ST=3).
    fn fig1_pattern() -> crate::Pattern {
        let mut b = PatternBuilder::new();
        b.node("PM", Predicate::Label(0));
        b.node("DB", Predicate::Label(1));
        b.node("PRG", Predicate::Label(2));
        b.node("ST", Predicate::Label(3));
        b.edge_by_name("PM", "DB").unwrap();
        b.edge_by_name("PM", "PRG").unwrap();
        b.edge_by_name("DB", "PRG").unwrap();
        b.edge_by_name("PRG", "DB").unwrap();
        b.edge_by_name("DB", "ST").unwrap();
        b.edge_by_name("PRG", "ST").unwrap();
        b.output_by_name("PM").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fig1_shape() {
        let q = fig1_pattern();
        assert_eq!(q.node_count(), 4);
        assert_eq!(q.edge_count(), 6);
        assert_eq!(q.size(), 10);
        assert_eq!(q.display(q.output()), "PM");
        assert!(!q.is_dag(), "DB ⇄ PRG is a cycle");
        assert!(q.output_is_root());
        // Q_SCC: {PM}, {DB,PRG}, {ST} — ranks ST=0, {DB,PRG}=1, PM=2.
        let c = q.condensation();
        assert_eq!(c.component_count(), 3);
        let db = q.node_by_name("DB").unwrap();
        let prg = q.node_by_name("PRG").unwrap();
        let st = q.node_by_name("ST").unwrap();
        assert_eq!(c.component_of(db), c.component_of(prg));
        assert_eq!(c.node_rank(st), 0);
        assert_eq!(c.node_rank(db), 1);
        assert_eq!(c.node_rank(q.output()), 2);
        assert_eq!(q.height(), 2);
        // Cuo counts DB, PRG, ST candidates — PM is not reachable from itself.
        let reach = q.reachable_from_output();
        assert!(!reach.contains(q.output() as usize));
        assert_eq!(reach.count(), 3);
    }

    #[test]
    fn dag_pattern_q1_of_example7() {
        // Q1: PM→DB, PM→PRG, PRG→DB.
        let mut b = PatternBuilder::new();
        let pm = b.node("PM", Predicate::Label(0));
        let db = b.node("DB", Predicate::Label(1));
        let prg = b.node("PRG", Predicate::Label(2));
        b.edge(pm, db).unwrap();
        b.edge(pm, prg).unwrap();
        b.edge(prg, db).unwrap();
        b.output(pm).unwrap();
        let q = b.build().unwrap();
        assert!(q.is_dag());
        assert!(q.output_is_root());
        let c = q.condensation();
        assert_eq!(c.node_rank(db), 0);
        assert_eq!(c.node_rank(prg), 1);
        assert_eq!(c.node_rank(pm), 2);
    }

    #[test]
    fn non_root_output() {
        let mut b = PatternBuilder::new();
        let a = b.node("A", Predicate::Label(0));
        let c = b.node("C", Predicate::Label(1));
        b.edge(a, c).unwrap();
        b.output(c).unwrap();
        let q = b.build().unwrap();
        assert!(!q.output_is_root());
        assert_eq!(q.reachable_from_output().count(), 0);
    }

    #[test]
    fn edges_iteration_and_preds() {
        let q = fig1_pattern();
        let pm = q.node_by_name("PM").unwrap();
        let db = q.node_by_name("DB").unwrap();
        let st = q.node_by_name("ST").unwrap();
        assert_eq!(q.edges().count(), 6);
        assert!(q.successors(pm).contains(&db));
        assert!(q.predecessors(st).contains(&db));
        assert_eq!(q.predicate(st), &Predicate::Label(3));
        assert_eq!(q.node_by_name("nope"), None);
    }
}
