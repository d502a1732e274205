//! Telemetry dump: the observability surface of the serving stack.
//!
//! The other examples show *what* the service answers; this one shows
//! **how it spent its time doing so**. A service (telemetry is on by
//! default at the serving tier) ingests a burst of update batches, then
//! we read back the three observability surfaces the stack maintains:
//!
//! 1. the **flight recorder** — a bounded ring of recent batch traces
//!    plus the over-threshold ones; the slowest batch is printed as its
//!    span tree (ingest → apply → replay → refresh → prepare/extract →
//!    notify), each span with its start offset and duration;
//! 2. the **phase histograms** — per-phase latency digests
//!    (p50/p99/max) distilled from the same spans, plus the delta-log
//!    fsync cost from a checkpoint;
//! 3. the **exposition endpoints** — the Prometheus-style `render()`
//!    and the JSON control-plane dump, here pulled through a live
//!    `ServiceHandle` exactly as an admin endpoint would.
//!
//! ```text
//! cargo run --release --example telemetry_dump
//! ```

use diversified_topk::datagen::synthetic::{synthetic_graph, SyntheticConfig};
use diversified_topk::datagen::update_stream::{update_stream, UpdateStreamConfig};
use diversified_topk::pattern::builder::label_pattern;
use diversified_topk::prelude::*;
use diversified_topk::telemetry::names;

fn main() {
    let g = synthetic_graph(&SyntheticConfig::paper(2_000, 8_000, 42));
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    assert!(svc.telemetry().enabled(), "serving telemetry is on by default");

    // Two live subscriptions so the notify fan-out has work to account.
    let managers = svc
        .subscribe(
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap(),
            IncrementalConfig::new(3),
            NotifyMode::Relevance,
        )
        .unwrap();
    let qa = svc
        .subscribe(
            label_pattern(&[0, 3, 2], &[(0, 1), (1, 2), (2, 0)], 0).unwrap(),
            IncrementalConfig::new(3).lambda(0.3),
            NotifyMode::Diversified,
        )
        .unwrap();
    managers.try_recv().unwrap();
    qa.try_recv().unwrap();

    println!("── ingesting 12 batches of 40 ops through the instrumented path");
    for delta in update_stream(&g, &UpdateStreamConfig::new(12, 40, 7)) {
        svc.ingest(&delta).unwrap();
    }

    // A checkpoint gives the fsync histogram its samples.
    let path = std::env::temp_dir().join(format!("telemetry_dump_{}.jsonl", std::process::id()));
    svc.save_log(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // 1. Flight recorder: the slowest batch seen, as a span tree.
    let recorder = svc.telemetry().recorder();
    println!(
        "\n── flight recorder: {} recent trace(s), {} over-threshold",
        recorder.recent().len(),
        recorder.slow().len()
    );
    if let Some(t) = recorder.slowest() {
        println!("slowest batch (seq {}, {:.2} ms):", t.seq, t.total_ns as f64 / 1e6);
        print!("{}", t.render());
    }

    // 2. Phase digests from the latency histograms the spans fed.
    println!("\n── phase latency digests");
    let snap = svc.telemetry().metrics().snapshot();
    for phase in names::PHASES {
        if let Some(h) = snap.histogram(&names::phase(phase)) {
            if h.count > 0 {
                println!(
                    "   {:<8} n={:<4} p50={:.3}ms p99={:.3}ms max={:.3}ms",
                    phase,
                    h.count,
                    h.p50_ns() as f64 / 1e6,
                    h.p99_ns() as f64 / 1e6,
                    h.max_ns as f64 / 1e6
                );
            }
        }
    }
    if let Some(h) = snap.histogram(names::LOG_FSYNC_SECONDS) {
        println!("   fsync    n={:<4} max={:.3}ms", h.count, h.max_ns as f64 / 1e6);
    }

    // 3a. Prometheus-style exposition (bucket lines elided for brevity —
    // a scraper gets them all).
    println!("\n── render() — counters, gauges, histogram summaries");
    for line in svc.telemetry().render().lines().filter(|l| !l.contains("_bucket{")) {
        println!("   {line}");
    }

    // 3b. The JSON control-plane dump, pulled through a running service
    // loop the way an admin endpoint would.
    let handle = ServiceHandle::spawn(svc);
    handle.ingest(GraphDelta::new().add_node(0).add_edge(0, 1)).unwrap();
    let dump = handle.telemetry_dump();
    println!("\n── telemetry_dump() via ServiceHandle: {} bytes of JSON", dump.len());
    assert!(dump.contains("\"metrics\":{") && dump.contains("\"flight_recorder\":{"));
    handle.shutdown();
}
