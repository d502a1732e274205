//! Streaming service: push-model serving over an evolving graph.
//!
//! The multi-pattern examples *pull* — they call `apply` and read the
//! fresh answers. This example runs the full **push** stack instead: an
//! `AnswerService` on its own loop thread ingests update batches into a
//! replayable delta log, while subscribers — a relevance watcher and a
//! diversified watcher — block on their queues from a consumer thread and
//! are woken **exactly** when their top-k materially changes. Mid-stream
//! a late joiner recovers from the serialized log and converges on the
//! same versioned answers, and `query_at` rewinds the answer timeline.
//!
//! ```text
//! cargo run --release --example streaming_service
//! ```

use std::sync::mpsc;
use std::time::Duration;

use diversified_topk::datagen::synthetic::{synthetic_graph, SyntheticConfig};
use diversified_topk::datagen::update_stream::{update_stream, UpdateStreamConfig};
use diversified_topk::pattern::builder::label_pattern;
use diversified_topk::prelude::*;

// The synthetic generator's 15-label alphabet, read as job titles.
const PM: u32 = 0; // project manager (output role)
const DB: u32 = 1; // database developer
const PRG: u32 = 2; // programmer
const ST: u32 = 3; // software tester

fn describe(update: &AnswerUpdate, who: &str) {
    let ranked: Vec<String> =
        update.topk.iter().map(|m| format!("v{}(δr={})", m.node, m.relevance)).collect();
    println!(
        "   [{who}] v{} @ seq {}: [{}]  (+{} −{} ~{})",
        update.version,
        update.seq,
        ranked.join(", "),
        update.diff.entered.len(),
        update.diff.left.len(),
        update.diff.reordered.len()
    );
}

fn main() {
    // A paper-style cyclic collaboration network.
    let g = synthetic_graph(&SyntheticConfig::paper(2_000, 8_000, 42));
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    println!(
        "collaboration network: {} live nodes, {} edges — service anchored at seq {}",
        svc.registry().graph().live_node_count(),
        svc.registry().graph().edge_count(),
        svc.seq()
    );

    // Two subscribers: top managers by relevance, and a diversified QA
    // panel (λ = 0.3 trades relevance for coverage).
    let managers = svc
        .subscribe(
            label_pattern(&[PM, DB, PRG], &[(0, 1), (1, 2)], 0).unwrap(),
            IncrementalConfig::new(3),
            NotifyMode::Relevance,
        )
        .unwrap();
    let qa = svc
        .subscribe(
            label_pattern(&[PM, ST, PRG], &[(0, 1), (1, 2), (2, 0)], 0).unwrap(),
            IncrementalConfig::new(3).lambda(0.3),
            NotifyMode::Diversified,
        )
        .unwrap();
    println!("\n── bootstrap answers (queued at subscribe)");
    let bootstrap = managers.try_recv().unwrap();
    let star = bootstrap.topk.first().map(|m| m.node);
    describe(&bootstrap, "managers ");
    describe(&qa.try_recv().unwrap(), "qa panel ");

    // The service loop takes over; a consumer thread watches both queues
    // and acknowledges each update it printed with the update's seq.
    let handle = ServiceHandle::spawn(svc);
    let (ack, acks) = mpsc::channel::<u64>();
    let consumer = std::thread::spawn(move || {
        let mut seen = 0usize;
        loop {
            let mut any = false;
            if let Some(u) = managers.recv_timeout(Duration::from_millis(50)) {
                describe(&u, "managers ");
                let _ = ack.send(u.seq);
                seen += 1;
                any = true;
            }
            if let Some(u) = qa.recv_timeout(Duration::from_millis(50)) {
                describe(&u, "qa panel ");
                let _ = ack.send(u.seq);
                seen += 1;
                any = true;
            }
            if !any && (managers.is_closed() || qa.is_closed()) {
                return (seen, managers, qa);
            }
        }
    });

    // Stream churn through the service loop.
    println!("\n── streaming 8 update batches (40 ops each) through the loop");
    for delta in update_stream(&g, &UpdateStreamConfig::new(8, 40, 7)) {
        handle.submit(delta);
    }
    let head = handle.seq(); // barrier: everything applied
    println!("   …ingested up to seq {head}");

    // A targeted mutation that must wake the managers subscription: the
    // star manager leaves the company.
    if let Some(star) = star {
        println!("\n── v{star} (the top manager) departs — one push, no polling");
        let report = handle.ingest(GraphDelta::new().remove_node(star)).unwrap();
        // Print the report only after the consumer printed every update
        // this batch pushed.
        let mut unacked = report.notified;
        while unacked > 0 {
            let seq = acks.recv_timeout(Duration::from_secs(10)).expect("consumer acks");
            unacked -= usize::from(seq == report.seq);
        }
        println!(
            "   seq {}: {} pattern(s) touched, {} subscription(s) notified",
            report.seq, report.touched, report.notified
        );
    }

    // A late joiner recovers purely from the serialized log.
    let (persisted, join_seq) = handle.with(|svc| (svc.log().to_json_lines(), svc.seq()));
    let log = DeltaLog::from_json_lines(&persisted).unwrap();
    let mut joiner = AnswerService::at_offset(log.base(), log.base_seq(), ServiceConfig::default());
    let j_managers = joiner
        .subscribe(
            label_pattern(&[PM, DB, PRG], &[(0, 1), (1, 2)], 0).unwrap(),
            IncrementalConfig::new(3),
            NotifyMode::Relevance,
        )
        .unwrap();
    let replayed = joiner.catch_up(&log).unwrap();
    let live = handle.with(|svc| svc.current(svc.registry().pattern_ids()[0]).unwrap());
    let joined = joiner.current(j_managers.pattern()).unwrap();
    println!(
        "\n── late joiner replayed {replayed} batches from the log (seq {} → {join_seq})",
        log.base_seq()
    );
    println!(
        "   live answer   {:?}\n   joiner answer {:?}  — identical: {}",
        live.nodes(),
        joined.nodes(),
        live.matches == joined.matches
    );

    // The answer timeline: versioned, queryable at any retained offset.
    let id = j_managers.pattern();
    println!("\n── manager answers along the timeline (joiner's view)");
    for seq in [join_seq / 2, join_seq] {
        match joiner.query_at(id, seq) {
            Ok(v) => println!("   seq {seq}: version {} answer {:?}", v.version, v.nodes()),
            Err(e) => println!("   seq {seq}: {e}"),
        }
    }

    let svc = handle.shutdown();
    let stats = svc.stats().clone();
    let hit_rate = svc.registry_stats().shared_index_hit_rate();
    let fanout = svc.registry_stats().ops_replayed + svc.registry_stats().ops_skipped;
    drop(svc); // closes the queues; the consumer drains out and exits
    let (seen, _m, _q) = consumer.join().unwrap();

    println!("\n── service stats");
    println!(
        "   batches {}  pushed {}  suppressed {}  coalesced {}  consumer saw {} updates",
        stats.batches, stats.updates_pushed, stats.suppressed, stats.updates_coalesced, seen
    );
    println!("   shared-index skip rate {:.1}% across {fanout} fan-out edges", 100.0 * hit_rate);
}
