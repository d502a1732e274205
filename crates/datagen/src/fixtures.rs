//! The paper's Fig. 1 running example, reconstructed edge-by-edge.
//!
//! The reconstruction is pinned by the paper's examples:
//! `|M(Q,G)| = 15` pairs; the relevant sets of Example 4; the distances of
//! Example 5 (`10/11`, `1/4`, `1`, `0`); the λ-regimes of Example 6
//! (`4/33`, `1/2`); Example 7's bounds for the DAG pattern `Q1`; Example
//! 8's shared cycle relevant set; Examples 9/10's `F'`/`F''` values; and —
//! from Example 1 — the facts that subgraph isomorphism finds **no** match
//! (no DB/PRG 2-cycle shares an ST child with its partner, and the 4-cycle
//! region has no 2-cycle at all) while simulation matches every `PMi`.

use gpm_graph::{DiGraph, GraphBuilder, NodeId};
use gpm_pattern::{Pattern, PatternBuilder, Predicate};

/// Labels of the collaboration network.
pub mod labels {
    /// Project manager.
    pub const PM: u32 = 0;
    /// Database developer.
    pub const DB: u32 = 1;
    /// Programmer.
    pub const PRG: u32 = 2;
    /// Software tester.
    pub const ST: u32 = 3;
    /// Business analyst.
    pub const BA: u32 = 4;
    /// UI developer.
    pub const UD: u32 = 5;
}

/// Builds the Fig. 1 data graph `G` (18 nodes, 27 edges).
pub fn fig1_graph() -> DiGraph {
    use labels::*;
    let mut b = GraphBuilder::new();
    let pm: Vec<NodeId> = (1..=4).map(|i| b.add_named_node(format!("PM{i}"), PM)).collect();
    let db: Vec<NodeId> = (1..=3).map(|i| b.add_named_node(format!("DB{i}"), DB)).collect();
    let prg: Vec<NodeId> = (1..=4).map(|i| b.add_named_node(format!("PRG{i}"), PRG)).collect();
    let st: Vec<NodeId> = (1..=4).map(|i| b.add_named_node(format!("ST{i}"), ST)).collect();
    let ba1 = b.add_named_node("BA1", BA);
    let ud1 = b.add_named_node("UD1", UD);
    let ud2 = b.add_named_node("UD2", UD);

    let (pm1, pm2, pm3, pm4) = (pm[0], pm[1], pm[2], pm[3]);
    let (db1, db2, db3) = (db[0], db[1], db[2]);
    let (prg1, prg2, prg3, prg4) = (prg[0], prg[1], prg[2], prg[3]);
    let (st1, st2, st3, st4) = (st[0], st[1], st[2], st[3]);

    let edges = [
        // PM1's group: a DB⇄PRG 2-cycle with *distinct* ST children.
        (pm1, db1),
        (pm1, prg1),
        (db1, prg1),
        (prg1, db1),
        (db1, st2),
        (prg1, st1),
        // PM2/PM3/PM4 share the 4-cycle DB2→PRG2→DB3→PRG3→DB2.
        (pm2, db2),
        (pm2, prg3),
        (pm2, prg4),
        (pm2, ba1),
        (pm3, db2),
        (pm3, prg3),
        (pm4, db2),
        (pm4, prg3),
        (db2, prg2),
        (prg2, db3),
        (db3, prg3),
        (prg3, db2),
        (db2, st3),
        (prg2, st4),
        (db3, st4),
        (prg3, st3),
        // PRG4 hangs off the cycle and additionally supervises ST2/ST3.
        (prg4, db2),
        (prg4, st2),
        (prg4, st3),
        // Flavor nodes outside the pattern's labels.
        (ba1, ud1),
        (ba1, ud2),
    ];
    for (s, t) in edges {
        b.add_edge(s, t).expect("fixture nodes exist");
    }
    b.build()
}

/// The Fig. 1(a) pattern `Q`: `PM* → DB`, `PM → PRG`, `DB ⇄ PRG`,
/// `DB → ST`, `PRG → ST`.
pub fn fig1_pattern() -> Pattern {
    use labels::*;
    let mut b = PatternBuilder::new();
    b.node("PM", Predicate::Label(PM));
    b.node("DB", Predicate::Label(DB));
    b.node("PRG", Predicate::Label(PRG));
    b.node("ST", Predicate::Label(ST));
    for (f, t) in
        [("PM", "DB"), ("PM", "PRG"), ("DB", "PRG"), ("PRG", "DB"), ("DB", "ST"), ("PRG", "ST")]
    {
        b.edge_by_name(f, t).expect("nodes exist");
    }
    b.output_by_name("PM").expect("PM exists");
    b.build().expect("valid pattern")
}

/// Example 7's DAG pattern `Q1`: `PM* → DB`, `PM → PRG`, `PRG → DB`.
pub fn fig1_pattern_q1() -> Pattern {
    use labels::*;
    let mut b = PatternBuilder::new();
    b.node("PM", Predicate::Label(PM));
    b.node("DB", Predicate::Label(DB));
    b.node("PRG", Predicate::Label(PRG));
    b.edge_by_name("PM", "DB").expect("nodes exist");
    b.edge_by_name("PM", "PRG").expect("nodes exist");
    b.edge_by_name("PRG", "DB").expect("nodes exist");
    b.output_by_name("PM").expect("PM exists");
    b.build().expect("valid pattern")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let g = fig1_graph();
        assert_eq!(g.node_count(), 18);
        assert_eq!(g.edge_count(), 27);
        assert_eq!(g.node_by_name("PM2").map(|v| g.label(v)), Some(labels::PM));
        let q = fig1_pattern();
        assert_eq!(q.node_count(), 4);
        assert_eq!(q.edge_count(), 6);
        assert!(!q.is_dag());
        let q1 = fig1_pattern_q1();
        assert!(q1.is_dag());
        assert_eq!(q1.size(), 6);
    }

    #[test]
    fn no_isomorphic_match_exists() {
        // Example 1: subgraph isomorphism finds nothing. The pattern needs
        // x(DB) ⇄ y(PRG) with a COMMON st child plus a PM parent of both.
        let g = fig1_graph();
        let db1 = g.node_by_name("DB1").unwrap();
        let prg1 = g.node_by_name("PRG1").unwrap();
        // The only 2-cycle is DB1⇄PRG1:
        let mut two_cycles = Vec::new();
        for v in g.nodes() {
            for &w in g.successors(v) {
                if v < w && g.has_edge(w, v) {
                    two_cycles.push((v, w));
                }
            }
        }
        assert_eq!(two_cycles, vec![(db1, prg1)]);
        // … and DB1, PRG1 share no common ST child.
        let st_children = |v: u32| -> Vec<u32> {
            g.successors(v).iter().copied().filter(|&w| g.label(w) == labels::ST).collect()
        };
        let a = st_children(db1);
        let b = st_children(prg1);
        assert!(a.iter().all(|x| !b.contains(x)));
    }
}
