//! Ergonomic pattern construction.

use gpm_graph::{GraphBuilder, Label};

use crate::error::PatternError;
use crate::pattern::{PNodeId, Pattern};
use crate::predicate::Predicate;

/// Builds a [`Pattern`], by node id or by node name.
#[derive(Debug, Default)]
pub struct PatternBuilder {
    predicates: Vec<Predicate>,
    names: Vec<String>,
    edges: Vec<(PNodeId, PNodeId)>,
    output: Option<PNodeId>,
}

impl PatternBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named pattern node with a predicate.
    pub fn node(&mut self, name: impl Into<String>, predicate: Predicate) -> PNodeId {
        let id = self.predicates.len() as PNodeId;
        self.predicates.push(predicate);
        self.names.push(name.into());
        id
    }

    /// Adds an anonymous label-predicate node (paper's basic `fv`).
    pub fn label_node(&mut self, label: Label) -> PNodeId {
        self.node(String::new(), Predicate::Label(label))
    }

    /// Adds a pattern edge by node ids.
    pub fn edge(&mut self, from: PNodeId, to: PNodeId) -> Result<(), PatternError> {
        let n = self.predicates.len() as u32;
        if from >= n {
            return Err(PatternError::UnknownNodeId(from));
        }
        if to >= n {
            return Err(PatternError::UnknownNodeId(to));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Adds a pattern edge by node names.
    pub fn edge_by_name(&mut self, from: &str, to: &str) -> Result<(), PatternError> {
        let f = self.lookup(from)?;
        let t = self.lookup(to)?;
        self.edge(f, t)
    }

    /// Designates the output node `uo` by id.
    pub fn output(&mut self, u: PNodeId) -> Result<(), PatternError> {
        if u >= self.predicates.len() as u32 {
            return Err(PatternError::UnknownNodeId(u));
        }
        self.output = Some(u);
        Ok(())
    }

    /// Designates the output node by name.
    pub fn output_by_name(&mut self, name: &str) -> Result<(), PatternError> {
        let u = self.lookup(name)?;
        self.output = Some(u);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<PNodeId, PatternError> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| i as PNodeId)
            .ok_or_else(|| PatternError::UnknownNode(name.to_owned()))
    }

    /// Validates and freezes the pattern.
    pub fn build(self) -> Result<Pattern, PatternError> {
        if self.predicates.is_empty() {
            return Err(PatternError::Empty);
        }
        if self.predicates.len() > Pattern::MAX_NODES {
            return Err(PatternError::TooManyNodes(self.predicates.len()));
        }
        let output = self.output.ok_or(PatternError::NoOutput)?;
        // Reject duplicate non-empty names: name-based lookups must be
        // unambiguous.
        let mut seen = std::collections::HashSet::new();
        for n in self.names.iter().filter(|n| !n.is_empty()) {
            if !seen.insert(n.as_str()) {
                return Err(PatternError::DuplicateName(n.clone()));
            }
        }
        let mut g = GraphBuilder::with_capacity(self.predicates.len(), self.edges.len());
        for i in 0..self.predicates.len() {
            // Topology labels are unused; store the node index.
            g.add_node(i as Label);
        }
        for (f, t) in self.edges {
            g.add_edge(f, t).expect("edges validated at insertion");
        }
        Ok(Pattern { topology: g.build(), predicates: self.predicates, names: self.names, output })
    }
}

/// One-call construction of a pure-label pattern: `nodes[i]` is the label of
/// pattern node `i`, `edges` are index pairs, `output` is the index of `uo`.
/// This mirrors the paper's `(|Vp|, |Ep|)`-controlled pattern generator
/// interface and is heavily used by tests and workloads.
pub fn label_pattern(
    nodes: &[Label],
    edges: &[(PNodeId, PNodeId)],
    output: PNodeId,
) -> Result<Pattern, PatternError> {
    let mut b = PatternBuilder::new();
    for &l in nodes {
        b.label_node(l);
    }
    for &(f, t) in edges {
        b.edge(f, t)?;
    }
    b.output(output)?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal() {
        let q = label_pattern(&[5], &[], 0).unwrap();
        assert_eq!(q.node_count(), 1);
        assert_eq!(q.output(), 0);
        assert!(q.is_dag());
        assert!(q.output_is_root());
    }

    #[test]
    fn validation_errors() {
        assert_eq!(PatternBuilder::new().build().unwrap_err(), PatternError::Empty);

        let mut b = PatternBuilder::new();
        b.label_node(0);
        assert_eq!(b.build().unwrap_err(), PatternError::NoOutput);

        let mut b = PatternBuilder::new();
        let a = b.label_node(0);
        assert_eq!(b.edge(a, 7).unwrap_err(), PatternError::UnknownNodeId(7));
        assert_eq!(b.edge(9, a).unwrap_err(), PatternError::UnknownNodeId(9));
        assert_eq!(b.output(3).unwrap_err(), PatternError::UnknownNodeId(3));

        let mut b = PatternBuilder::new();
        b.node("X", Predicate::Label(0));
        b.node("X", Predicate::Label(1));
        b.output(0).unwrap();
        assert_eq!(b.build().unwrap_err(), PatternError::DuplicateName("X".into()));

        let mut b = PatternBuilder::new();
        b.node("A", Predicate::Label(0));
        assert_eq!(b.edge_by_name("A", "B").unwrap_err(), PatternError::UnknownNode("B".into()));
        assert_eq!(b.output_by_name("Z").unwrap_err(), PatternError::UnknownNode("Z".into()));
    }

    /// The size limit is enforced where a pattern is built, so nothing
    /// downstream ever sees a pattern it cannot represent.
    #[test]
    fn refuses_more_than_max_nodes() {
        let chain = |n: u32| {
            let edges: Vec<(u32, u32)> = (1..n).map(|i| (i - 1, i)).collect();
            label_pattern(&vec![0; n as usize], &edges, 0)
        };
        let n = Pattern::MAX_NODES as u32;
        assert_eq!(chain(n).unwrap().node_count(), 64);
        assert_eq!(chain(n + 1).unwrap_err(), PatternError::TooManyNodes(65));
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let q = label_pattern(&[0, 1], &[(0, 1), (0, 1)], 0).unwrap();
        assert_eq!(q.edge_count(), 1);
    }

    #[test]
    fn anonymous_display() {
        let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
        assert_eq!(q.display(1), "u1");
        assert_eq!(q.name(1), "");
    }
}
