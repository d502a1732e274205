//! A collaboration network evolving over time, with the top-k answer
//! maintained incrementally across update batches.
//!
//! Starts from the paper's Fig. 1 network (top-2 project managers by
//! "social impact" are PM2 and PM3, total δr = 14) and replays the kind of
//! churn a real social network sees — people joining, links forming,
//! people leaving — while `DynamicMatcher` keeps the answer fresh at cost
//! proportional to each delta.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```

use diversified_topk::datagen::{fig1_graph, fig1_pattern};
use diversified_topk::prelude::*;

fn show(title: &str, top: &TopKResult, m: &mut DynamicMatcher) {
    // Decode maintained node ids back to Fig. 1 display names where the
    // node predates the stream (fresh hires get synthetic names).
    let base = fig1_graph();
    let name = |v: NodeId| -> String {
        base.name(v).map(str::to_owned).unwrap_or_else(|| format!("new#{v}"))
    };
    println!("── {title}");
    {
        let g = m.graph();
        println!("   graph v{}: {} nodes, {} edges", g.version(), g.node_count(), g.edge_count());
    }
    let ranked: Vec<String> =
        top.matches.iter().map(|r| format!("{} (δr={})", name(r.node), r.relevance)).collect();
    println!(
        "   top-{}: [{}]  (total δr = {})",
        ranked.len(),
        ranked.join(", "),
        top.total_relevance()
    );
    let div = m.top_k_diversified();
    let div_names: Vec<String> = div.matches.iter().map(|r| name(r.node)).collect();
    println!("   diversified (λ=0.5): [{}]  F = {:.3}\n", div_names.join(", "), div.f_value);
}

fn main() {
    let g = fig1_graph();
    let q = fig1_pattern();
    println!(
        "Fig. 1 collaboration network: {} nodes, {} edges; pattern ({}, {})\n",
        g.node_count(),
        g.edge_count(),
        q.node_count(),
        q.edge_count()
    );

    let mut m = DynamicMatcher::new(&g, q, IncrementalConfig::new(2).lambda(0.5))
        .expect("Fig. 1 pattern is maintainable");
    let initial = m.top_k();
    assert_eq!(initial.total_relevance(), 14, "the paper's Example 3 numbers");
    show("initial network (paper Example 3)", &initial, &mut m);

    // Batch 1: PM1's group staffs up — DB1 starts reviewing PRG4's work,
    // giving PM1's cone extra reach.
    let db1 = g.node_by_name("DB1").unwrap();
    let prg4 = g.node_by_name("PRG4").unwrap();
    let top = m.apply(&GraphDelta::new().add_edge(db1, prg4)).unwrap();
    show("DB1 starts collaborating with PRG4", &top, &mut m);

    // Batch 2: a new hire joins PM1's group: a tester reporting to both
    // DB1 and PRG1 (labels::ST = 3).
    let prg1 = g.node_by_name("PRG1").unwrap();
    let new_st = g.node_count() as NodeId; // ids are dense: first new node
    let top = m
        .apply(&GraphDelta::new().add_node(3).add_edge(db1, new_st).add_edge(prg1, new_st))
        .unwrap();
    show("a new tester joins PM1's group", &top, &mut m);

    // Batch 3: DB2 leaves the company — the shared 4-cycle that powered
    // PM2/PM3/PM4 loses a member, and their groups collapse.
    let db2 = g.node_by_name("DB2").unwrap();
    let top = m.apply(&GraphDelta::new().remove_node(db2)).unwrap();
    show("DB2 leaves the company", &top, &mut m);

    let stats = m.stats();
    println!(
        "maintenance: {} batches, {} incremental, {} full rank refreshes, {} relevant sets recomputed",
        stats.applies, stats.incremental_applies, stats.full_rank_refreshes, stats.sets_recomputed
    );
    let _ = new_st;
}
