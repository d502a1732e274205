//! The ISSUE 6 acceptance test, on the parallelism that exists: two
//! heavy patterns refreshed by one batch through [`AnswerService`] must
//! leave behind (a) a flight-recorder batch trace whose span tree shows
//! the two refreshes' `prepare`/`extract` work attributed to ≥ 2 distinct
//! pool workers — each refresh whole on its own worker — and (b) a
//! Prometheus `render()` carrying the mandatory latency histograms —
//! ingest, refresh phase, notify fan-out, log fsync — all with nonzero
//! counts.

use gpm_graph::builder::graph_from_parts;
use gpm_graph::GraphDelta;
use gpm_incremental::IncrementalConfig;
use gpm_pattern::builder::label_pattern;
use gpm_serving::{names, AnswerService, BatchTrace, NotifyMode, ServiceConfig, TelemetryConfig};

/// Workers that touched the heavy per-output phases of one batch trace:
/// the distinct opening threads over `prepare` and `extract` spans.
fn heavy_phase_workers(trace: &BatchTrace) -> usize {
    let mut threads: Vec<u32> = trace
        .spans_named("prepare")
        .chain(trace.spans_named("extract"))
        .map(|s| s.thread)
        .collect();
    threads.sort_unstable();
    threads.dedup();
    threads.len()
}

#[test]
fn parallel_refresh_batch_is_fully_observable() {
    // One 1500-node cycle alternating labels a/b with the cyclic pattern
    // A ⇄ B: every pair is alive and every relevant set is the whole
    // cycle, so the revival batch dirties all 750 outputs at once and
    // each costs a real BFS (reach budget zeroed). Two subscriptions to
    // that shape are two heavy refreshes per batch — whole patterns are
    // what the 4-worker pool claims.
    let n = 1500u32;
    let labels: Vec<u32> = (0..n).map(|i| i % 2).collect();
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = graph_from_parts(&labels, &edges).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1), (1, 0)], 0).unwrap();

    let mut cfg = IncrementalConfig::new(8);
    cfg.max_dirty_fraction = f64::INFINITY;
    cfg.reach = gpm_ranking::ReachConfig { budget_bytes: 0, threads: 1 };

    let mut svc = AnswerService::new(
        &g,
        ServiceConfig { threads: 4, telemetry: TelemetryConfig::default(), ..Default::default() },
    );
    assert!(svc.telemetry().enabled(), "serving telemetry defaults to on");
    let sub = svc.subscribe(q.clone(), cfg.clone(), NotifyMode::Relevance).unwrap();
    let sub2 = svc.subscribe(q, cfg, NotifyMode::Relevance).unwrap();
    sub.try_recv().expect("consistent initial answer");
    sub2.try_recv().expect("consistent initial answer");

    // Toggle one cycle edge: the removal kills every match, the revival
    // brings all 750 back — and must arrive as one coherent update.
    // *Observing* the two refreshes on distinct workers depends on
    // scheduling, so retry a few rounds on a loaded machine.
    let mut parallel_trace: Option<std::sync::Arc<BatchTrace>> = None;
    for _round in 0..6 {
        svc.ingest(&GraphDelta::new().remove_edge(0, 1)).unwrap();
        let report = svc.ingest(&GraphDelta::new().add_edge(0, 1)).unwrap();
        assert_eq!(report.touched, 2);
        let revival = svc
            .telemetry()
            .recorder()
            .recent()
            .last()
            .cloned()
            .expect("enabled telemetry files every batch trace");
        assert_eq!(revival.seq, svc.seq(), "newest trace is the revival batch");
        if heavy_phase_workers(&revival) >= 2 {
            parallel_trace = Some(revival);
            break;
        }
    }
    let trace = parallel_trace.expect("≥ 2 distinct workers never observed on prepare/extract");

    // The span tree is the full ingest story: apply → refresh →
    // prepare/extract under one root, plus the notify fan-out.
    assert_eq!(trace.spans[0].name, "ingest");
    for phase in ["apply", "replay", "refresh", "prepare", "extract", "notify"] {
        assert!(trace.spans_named(phase).next().is_some(), "trace has a {phase} span");
    }
    // One refresh per pattern, each whole on the worker that claimed it:
    // its prepare and extract children opened on the refresh's thread.
    assert_eq!(trace.spans_named("refresh").count(), 2, "{}", trace.render());
    for (i, refresh) in trace.spans.iter().enumerate().filter(|(_, s)| s.name == "refresh") {
        assert!(refresh.detail.starts_with("pattern="), "{}", refresh.detail);
        let children: Vec<_> = trace.spans.iter().filter(|s| s.parent == Some(i as u32)).collect();
        for phase in ["prepare", "extract"] {
            assert_eq!(children.iter().filter(|s| s.name == phase).count(), 1, "one {phase}");
        }
        assert!(
            children.iter().all(|s| s.thread == refresh.thread),
            "a refresh never leaves its worker: {}",
            trace.render()
        );
    }

    // Both per-subscription streams saw every revival (one update per
    // material change, no torn answers).
    assert!(sub.pending() >= 2);
    assert!(sub2.pending() >= 2);

    // A checkpoint gives the fsync histogram its samples.
    let dir = std::env::temp_dir().join("gpm_telemetry_observability_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("log_{}.jsonl", std::process::id()));
    svc.save_log(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Mandatory histograms: present in the snapshot AND in the rendered
    // exposition, with nonzero counts.
    let snap = svc.telemetry().metrics().snapshot();
    let rendered = svc.telemetry().render();
    for name in names::mandatory_histograms() {
        let h = snap.histogram(&name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count > 0, "{name} has no samples");
        let (base, labels) = match name.find('{') {
            Some(i) => (&name[..i], &name[i..]),
            None => (name.as_str(), ""),
        };
        let line = format!("{base}_count{labels} {}", h.count);
        assert!(rendered.contains(&line), "render misses `{line}`");
    }

    // The dump the control plane serves carries both halves.
    let dump = svc.telemetry().dump_json();
    assert!(dump.contains("\"metrics\":{"));
    assert!(dump.contains("\"flight_recorder\":{"));
    assert!(dump.contains("\"extract\""), "dumped traces name their phases");
}

/// Disabled telemetry serves identical answers and records nothing —
/// the serving-level half of the on/off differential (the registry-level
/// half lives in gpm-incremental's `registry_differential`).
#[test]
fn disabled_telemetry_changes_no_answers_and_stays_silent() {
    let g = graph_from_parts(&[0, 0, 1, 1, 1], &[(0, 2), (1, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();

    let mut on = AnswerService::new(&g, ServiceConfig::default());
    let mut off = AnswerService::new(
        &g,
        ServiceConfig { telemetry: TelemetryConfig::disabled(), ..Default::default() },
    );
    assert!(!off.telemetry().enabled());
    let sub_on = on.subscribe(q.clone(), IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();
    let sub_off = off.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();

    let batches = [
        GraphDelta::new().add_edge(1, 3),
        GraphDelta::new().add_edge(0, 3).remove_edge(1, 2),
        GraphDelta::new().add_node(1).add_edge(1, 5),
        GraphDelta::new().remove_node(3),
    ];
    for delta in &batches {
        on.ingest(delta).unwrap();
        off.ingest(delta).unwrap();
    }
    let a: Vec<_> = sub_on.drain();
    let b: Vec<_> = sub_off.drain();
    assert_eq!(a, b, "telemetry changed the update stream");

    // Counters (and thus stats) record either way; traces and phase
    // histograms only on the enabled side.
    assert_eq!(on.stats().batches, off.stats().batches);
    assert!(!on.telemetry().recorder().recent().is_empty());
    assert!(off.telemetry().recorder().recent().is_empty());
    let on_snap = on.telemetry().metrics().snapshot();
    let off_snap = off.telemetry().metrics().snapshot();
    assert!(on_snap.histogram(&names::phase("ingest")).is_some_and(|h| h.count > 0));
    assert!(off_snap.histogram(&names::phase("ingest")).is_none_or(|h| h.count == 0));

    // Runtime flip: the next batch of the quiet service traces.
    off.telemetry().set_enabled(true);
    off.ingest(&GraphDelta::new().add_edge(0, 4)).unwrap();
    assert_eq!(off.telemetry().recorder().recent().len(), 1);
}
