//! Multi-query serving: one evolving graph, many registered patterns.
//!
//! A serving system rarely answers a single query shape. This example
//! registers several patterns from the paper's domain (a collaboration
//! network) in one `PatternRegistry` — including an **attribute-predicate**
//! pattern (senior managers, filtered on an `experience` attribute the
//! stream mutates with `SetAttr` deltas) — replays a generated update
//! stream through it, registers another pattern mid-stream and deregisters
//! one, while every answer stays identical to a from-scratch recompute.
//!
//! ```text
//! cargo run --release --example multi_pattern_serving
//! ```

use diversified_topk::datagen::synthetic::{synthetic_graph, SyntheticConfig};
use diversified_topk::datagen::update_stream::{update_stream, UpdateStreamConfig};
use diversified_topk::pattern::builder::label_pattern;
use diversified_topk::prelude::*;

// The synthetic generator's 15-label alphabet, read as job titles.
const PM: u32 = 0; // project manager (output role)
const DB: u32 = 1; // database developer
const PRG: u32 = 2; // programmer
const ST: u32 = 3; // software tester

fn show(reg: &PatternRegistry, names: &[(PatternId, &str)]) {
    for &(id, name) in names {
        let Some(top) = reg.top_k(id) else {
            println!("   {name:<22} (deregistered)");
            continue;
        };
        let ranked: Vec<String> =
            top.matches.iter().map(|r| format!("v{}(δr={})", r.node, r.relevance)).collect();
        println!(
            "   {name:<22} top-{}: [{}]  Cuo={}",
            top.matches.len(),
            ranked.join(", "),
            reg.normalizer(id).unwrap()
        );
    }
}

fn main() {
    // A paper-style cyclic collaboration network.
    let g = synthetic_graph(&SyntheticConfig::paper(2_000, 8_000, 42));
    let mut reg = PatternRegistry::new(&g);
    println!(
        "collaboration network: {} live nodes, {} edges, {} labels in use",
        reg.graph().live_node_count(),
        reg.graph().edge_count(),
        reg.label_histogram().len()
    );
    println!(
        "shared candidate index: {} PMs, {} DBs, {} PRGs, {} STs\n",
        reg.candidates_for_label(PM),
        reg.candidates_for_label(DB),
        reg.candidates_for_label(PRG),
        reg.candidates_for_label(ST)
    );

    // Three subscriber queries over the same graph.
    let managers = reg
        .register(
            label_pattern(&[PM, DB, PRG], &[(0, 1), (1, 2)], 0).unwrap(),
            IncrementalConfig::new(3),
        )
        .unwrap();
    let db_leads = reg
        .register(label_pattern(&[DB, PRG], &[(0, 1)], 0).unwrap(), IncrementalConfig::new(3))
        .unwrap();
    let qa_loops = reg
        .register(
            label_pattern(&[PM, ST, PRG], &[(0, 1), (1, 2), (2, 0)], 0).unwrap(),
            IncrementalConfig::new(3).lambda(0.3),
        )
        .unwrap();
    // An attribute-predicate pattern: senior managers (experience ≥ 5
    // years) leading a DB developer. Nobody carries the attribute yet —
    // the stream's SetAttr deltas will create (and destroy) the matches.
    let seniors = {
        let mut b = PatternBuilder::new();
        b.node(
            "senior PM",
            Predicate::labeled(PM, [Predicate::attr("experience", CmpOp::Ge, 5i64)]),
        );
        b.node("DB", Predicate::Label(DB));
        b.edge_by_name("senior PM", "DB").unwrap();
        b.output(0).unwrap();
        reg.register(b.build().unwrap(), IncrementalConfig::new(3)).unwrap()
    };
    let mut names = vec![
        (managers, "managers PM→DB→PRG"),
        (db_leads, "db leads DB→PRG"),
        (qa_loops, "qa loops PM→ST→PRG→PM"),
        (seniors, "seniors PM[exp≥5]→DB"),
    ];

    println!("── initial answers ({} patterns registered)", reg.len());
    show(&reg, &names);

    // Attribute deltas flow through the same apply() as structural ones:
    // seniority arriving on a few PMs creates matches incrementally, and
    // an attr batch on a key no pattern mentions is pruned wholesale by
    // the interest index.
    let pms: Vec<_> = reg.graph().nodes_with_label(PM).take(3).collect();
    let mut promote = GraphDelta::new();
    for (i, &pm) in pms.iter().enumerate() {
        promote = promote.set_attr(pm, "experience", 3 + 2 * i as i64);
    }
    let touched = reg.apply(&promote).unwrap();
    println!(
        "\n── promoted {} PMs (experience 3/5/7): {} pattern(s) touched, {} answer(s) moved",
        pms.len(),
        touched.len(),
        touched.iter().filter(|c| c.changed()).count()
    );
    show(&reg, &names);
    let skipped_before = reg.stats().ops_skipped;
    reg.apply(&GraphDelta::new().set_attr(pms[0], "office", 42i64)).unwrap();
    println!(
        "   an `office` attr batch touches nobody: {} fan-out skips added",
        reg.stats().ops_skipped - skipped_before
    );

    // Replay churn through the shared graph: every batch is applied once
    // and fanned out to all registered patterns.
    let stream = update_stream(&g, &UpdateStreamConfig::new(6, 40, 7));
    for (i, delta) in stream.iter().enumerate() {
        reg.apply(delta).unwrap();

        if i == 2 {
            // A new subscriber arrives mid-stream; it answers as if built
            // from the current snapshot.
            let testers = reg
                .register(label_pattern(&[ST], &[], 0).unwrap(), IncrementalConfig::new(3))
                .unwrap();
            names.push((testers, "testers ST"));
            println!("\n── batch {} applied; registered 'testers' mid-stream", i + 1);
            show(&reg, &names);
        }
        if i == 4 {
            // One subscriber leaves; its state is dropped, nobody else
            // notices.
            reg.deregister(db_leads);
            println!("\n── batch {} applied; deregistered 'db leads'", i + 1);
            show(&reg, &names);
        }
    }

    println!("\n── final answers (graph v{})", reg.graph().version());
    show(&reg, &names);

    // Diversified answers come from the same maintained state.
    let div = reg.top_k_diversified(managers).unwrap();
    println!("\n   diversified managers (λ=0.5): {:?}  F = {:.3}", div.nodes(), div.f_value);

    let s = reg.stats();
    println!(
        "\nmaintenance: {} batches; {} replays + {} skips across {} patterns \
         (shared-index hit rate {:.1}%); last batch touched {} patterns",
        s.batches,
        s.ops_replayed,
        s.ops_skipped,
        reg.len(),
        100.0 * s.shared_index_hit_rate(),
        s.last_patterns_touched,
    );
}
