//! The stream driver shared by `stream_relevance`, `stream_diversified`
//! and `stream_dirty`.
//!
//! The load is a **closed loop of one caller on one thread**: an op is
//! `AnswerService::ingest(&delta)` followed by `Subscription::drain()` on
//! every subscription — delta in, `AnswerUpdate`s in hand. No sleeps, no
//! channels, no pacing; the service's maintenance pool has size 1.

use std::collections::BTreeSet;
use std::time::Instant;

use gpm_core::config::{DivConfig, TopKConfig};
use gpm_core::{top_k_by_match, top_k_diversified, RankedMatch};
use gpm_graph::dynamic::DynGraph;
use gpm_graph::{DiGraph, NodeId};
use gpm_incremental::{ApplyStats, IncrementalConfig, PatternId, PatternRegistry};
use gpm_serving::{
    names, AnswerService, AnswerUpdate, BatchTrace, DeltaLog, NotifyMode, ServiceConfig,
    ServiceHandle, Subscription, TelemetryConfig,
};

use super::layer_twins::LayerTwins;
use super::stream_inputs::{generate, StreamInputs};
use super::{dataset_seed, K, LAMBDA};
use crate::args::{RunArgs, NOMINAL_SECONDS};
use crate::estimator::{mean_ms, median_sorted, percentile_ms, summarize, timed_passes, PassTimes};
use crate::host::{self, HostIndex, HostProbe};
use crate::measure::{measure, Ticker};
use crate::report::{Metrics, Outcome};
use crate::spans::{SpanId, SpanLog};

fn incremental_config() -> IncrementalConfig {
    let mut cfg = IncrementalConfig::new(K).lambda(LAMBDA);
    cfg.reach.threads = 1;
    cfg
}

fn topk_config() -> TopKConfig {
    let mut cfg = TopKConfig::new(K);
    cfg.reach.threads = 1;
    cfg
}

/// One freshly built system under test.
struct System {
    svc: AnswerService,
    subs: Vec<Subscription>,
    /// The bootstrap answer each subscription received (`None` = missing).
    bootstrap: Vec<Option<AnswerUpdate>>,
    new_ns: u64,
    subscribe_ns: u64,
}

impl System {
    fn setup_s(&self) -> f64 {
        (self.new_ns + self.subscribe_ns) as f64 / 1e9
    }
}

/// Set-up as a user pays it: `AnswerService::new`, every `subscribe`, and
/// each bootstrap answer received.
fn build(inputs: &StreamInputs, telemetry: TelemetryConfig) -> System {
    build_on(&inputs.base, inputs, telemetry)
}

/// [`build`] over an explicit base graph (recovery builds on the graph a
/// loaded log carries).
fn build_on(base: &DiGraph, inputs: &StreamInputs, telemetry: TelemetryConfig) -> System {
    let t0 = Instant::now();
    let cfg = ServiceConfig { threads: 1, telemetry, ..ServiceConfig::default() };
    let mut svc = AnswerService::new(base, cfg);
    let new_ns = t0.elapsed().as_nanos() as u64;
    let mut subs = Vec::with_capacity(inputs.patterns.len());
    let mut bootstrap = Vec::with_capacity(inputs.patterns.len());
    for q in &inputs.patterns {
        let sub = svc
            .subscribe(q.clone(), incremental_config(), inputs.mode)
            .expect("workload patterns have at most 64 nodes");
        bootstrap.push(sub.try_recv());
        subs.push(sub);
    }
    let subscribe_ns = t0.elapsed().as_nanos() as u64 - new_ns;
    System { svc, subs, bootstrap, new_ns, subscribe_ns }
}

/// What one pass over the stream produced.
struct PassOut {
    op_ns: Vec<u64>,
    /// Every update each subscription received, in order.
    updates: Vec<Vec<AnswerUpdate>>,
    ingest_errors: u64,
    /// `stream_dirty`: the pattern's maintenance counters at the end of
    /// every class block, read between ops (outside any timed region).
    gates: Vec<(u8, ApplyStats)>,
}

impl PassOut {
    fn new(inputs: &StreamInputs) -> Self {
        PassOut {
            op_ns: Vec::with_capacity(inputs.stream.len()),
            updates: vec![Vec::new(); inputs.patterns.len()],
            ingest_errors: 0,
            gates: Vec::new(),
        }
    }

    /// Takes every pending update of every subscription — the second half
    /// of an op.
    fn drain(&mut self, sys: &System) {
        for (sub, got) in sys.subs.iter().zip(&mut self.updates) {
            got.extend(sub.drain());
        }
    }

    /// `stream_dirty`: after the last op of a class block, snapshots the
    /// pattern's maintenance counters (between ops, outside timed regions).
    fn note_gate(&mut self, inputs: &StreamInputs, sys: &System, i: usize) {
        let Some(tag) = inputs.classes.get(i) else { return };
        if inputs.classes.get(i + 1).is_none_or(|next| next.class != tag.class) {
            let stats = sys.svc.registry().stats_of(sys.subs[0].pattern());
            self.gates.push((tag.class, stats.expect("subscribed pattern is registered")));
        }
    }
}

fn pass(inputs: &StreamInputs, sys: &mut System, ticker: &mut Ticker) -> PassOut {
    let mut out = PassOut::new(inputs);
    for (i, delta) in inputs.stream.iter().enumerate() {
        let t0 = Instant::now();
        let report = sys.svc.ingest(delta);
        out.drain(sys);
        out.op_ns.push(t0.elapsed().as_nanos() as u64);
        out.ingest_errors += u64::from(report.is_err());
        out.note_gate(inputs, sys, i);
        ticker.after_op(i);
    }
    out
}

/// Checks counted by the oracle.
#[derive(Default)]
struct Verdict {
    checks: u64,
    failed: u64,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("oracle: {}", what());
        }
    }
}

fn node_set(matches: &[RankedMatch]) -> BTreeSet<NodeId> {
    matches.iter().map(|m| m.node).collect()
}

/// After timing: each subscription's folded updates must equal
/// `AnswerService::current`, which must equal a static recompute on the
/// service's final graph; `stream_dirty` additionally shows each class
/// fired its intended gate.
fn verify(inputs: &StreamInputs, sys: &System, out: &PassOut) -> Verdict {
    let mut v = Verdict::default();
    v.check(out.ingest_errors == 0, || format!("{} ingests returned Err", out.ingest_errors));
    let snapshot = sys.svc.registry().snapshot();
    for (s, sub) in sys.subs.iter().enumerate() {
        let q = &inputs.patterns[s];
        let Some(boot) = &sys.bootstrap[s] else {
            v.check(false, || format!("subscription {s} received no bootstrap answer"));
            continue;
        };
        // Fold: every diff must lead from the previous view to the next.
        let mut view = boot.topk.clone();
        let (mut version, mut seq) = (boot.version, boot.seq);
        let mut fold_ok = true;
        for u in &out.updates[s] {
            let mut nodes = node_set(&view);
            for n in &u.diff.left {
                fold_ok &= nodes.remove(n);
            }
            for n in &u.diff.entered {
                fold_ok &= nodes.insert(*n);
            }
            fold_ok &= nodes == node_set(&u.topk) && u.version > version && u.seq >= seq;
            (version, seq) = (u.version, u.seq);
            view = u.topk.clone();
        }
        v.check(fold_ok, || format!("subscription {s}: update diffs do not fold"));
        let current = sys.svc.current(sub.pattern());
        let static_rel = top_k_by_match(&snapshot, q, &topk_config());
        v.check(current.as_ref().is_ok_and(|c| c.matches == static_rel.matches), || {
            format!("subscription {s}: current() differs from top_k_by_match on the snapshot")
        });
        match inputs.mode {
            NotifyMode::Relevance => v.check(view == static_rel.matches, || {
                format!("subscription {s}: folded updates differ from the static answer")
            }),
            NotifyMode::Diversified => {
                let cfg = DivConfig { topk: topk_config(), lambda: LAMBDA };
                let static_div = top_k_diversified(&snapshot, q, &cfg);
                v.check(view == static_div.matches, || {
                    format!("subscription {s}: folded updates differ from top_k_diversified")
                });
            }
        }
    }
    if !inputs.classes.is_empty() {
        verify_gates(&out.gates, &mut v);
    }
    v
}

/// Per class block, from the pattern's own maintenance counters: every
/// 2 % block is maintained incrementally (after a 100 % block that is the
/// re-adoption, visible as one re-condensation inside the 2 % class), the
/// 25 % class re-condenses, and the 100 % class drops the maintained
/// condensation for a wholesale rank refresh.
fn verify_gates(gates: &[(u8, ApplyStats)], v: &mut Verdict) {
    let mut prev = ApplyStats::default();
    // Per class: cond_incremental, cond_rebuilds, full_rank_refreshes.
    let mut fired = [[0u64; 3]; 3];
    let mut calm_blocks_maintained = true;
    for (class, stats) in gates {
        let delta = [
            stats.cond_incremental - prev.cond_incremental,
            stats.cond_rebuilds - prev.cond_rebuilds,
            stats.full_rank_refreshes - prev.full_rank_refreshes,
        ];
        for (sum, d) in fired[*class as usize].iter_mut().zip(delta) {
            *sum += d;
        }
        if *class == 0 {
            calm_blocks_maintained &= delta[0] > 0;
        }
        prev = stats.clone();
    }
    println!("# gates (cond_incremental, cond_rebuilds, full_rank_refreshes) by class:");
    for (name, f) in ["2%", "25%", "100%"].iter().zip(fired) {
        println!("#   {name:>4}: {f:?}");
    }
    v.check(calm_blocks_maintained, || {
        "a 2% block was not maintained incrementally (no re-adoption)".into()
    });
    v.check(fired[0][1] > 0, || "the 2% class never re-adopted the condensation".into());
    v.check(fired[1][1] > 0, || "the 25% class never re-condensed".into());
    v.check(fired[2][2] > 0, || "the 100% class never fell back to a full rank refresh".into());
}

pub fn run(args: &RunArgs) -> Outcome {
    let wall = Instant::now();
    let calib_start = host::calib_ms();
    let inputs = generate(args.workload, dataset_seed(args.dataset), args.seed);
    let n_ops = inputs.stream.len();
    println!(
        "# input_digest={} nodes={} edges={} patterns={} ops={n_ops} delta_ops={}",
        inputs.digest,
        inputs.base.node_count(),
        inputs.base.edge_count(),
        inputs.patterns.len(),
        inputs.stream.iter().map(|d| d.len()).sum::<usize>()
    );
    let tail_pct = args.workload.tail_pct();
    let rss_reset = host::reset_peak_rss();
    let mut outcome = if args.trace {
        traced(args, &inputs, tail_pct)
    } else {
        untraced(args, &inputs, tail_pct, rss_reset)
    };
    if args.trace {
        let calib_end = host::calib_ms();
        println!("# host.calib_ms start={calib_start} end={calib_end}");
        let m = &mut outcome.metrics;
        m.set("host.calib_ms", (calib_start + calib_end) / 2.0, 2);
        m.set("datagen.graph_gen_s", inputs.graph_gen_s, 1);
        m.set("datagen.pattern_gen_s", inputs.pattern_gen_s, 1);
        m.set("datagen.stream_gen_s", inputs.stream_gen_s, 1);
        m.set("host.wall_s", wall.elapsed().as_secs_f64(), 1);
    }
    outcome
}

fn untraced(args: &RunArgs, inputs: &StreamInputs, tail_pct: f64, rss_reset: bool) -> Outcome {
    let passes = timed_passes(args.workload.nominal_passes(), args.seconds, NOMINAL_SECONDS);
    let m = measure(
        args.workload,
        (passes, args.workload.extra_builds()),
        inputs.stream.len(),
        || build(inputs, TelemetryConfig::default()),
        |sys, ticker| {
            let mut out = pass(inputs, sys, ticker);
            (std::mem::take(&mut out.op_ns), out)
        },
    );
    let verdict = verify(inputs, &m.system, &m.out);
    println!("# updates={}", m.out.updates.iter().map(Vec::len).sum::<usize>());
    // No TopKDiv/TopKDH pair runs on a stream workload: nothing to lose.
    let metrics = m.end_to_end(tail_pct, (1.0, 0), rss_reset);
    // Per timed pass: every op plus every subscription's bootstrap answer.
    let bootstraps = (m.times.passes() * m.system.subs.len()) as u64;
    Outcome {
        attempted: m.ops_attempted() + bootstraps + verdict.checks,
        failed: verdict.failed,
        metrics,
    }
}

/// Service spans that get their own metric, `(span, metric)`; `tarjan`
/// and `bitsets` are children of `prepare` and count as it.
const PHASES: [(&str, &str); 8] = [
    ("apply", "telemetry.phase_ms_sum.apply"),
    ("replay", "telemetry.phase_ms_sum.replay"),
    ("condense_incremental", "telemetry.phase_ms_sum.condense_incremental"),
    ("bound_refold", "telemetry.phase_ms_sum.bound_refold"),
    ("plan", "telemetry.phase_ms_sum.plan"),
    ("prepare", "telemetry.phase_ms_sum.prepare"),
    ("extract", "telemetry.phase_ms_sum.extract"),
    ("notify", "telemetry.phase_ms_sum.notify"),
];

fn phase_of(name: &str) -> Option<usize> {
    let name = if name == "tarjan" || name == "bitsets" { "prepare" } else { name };
    PHASES.iter().position(|(span, _)| *span == name)
}

fn layer_of(name: &str) -> &'static str {
    match name {
        "notify" | "ingest" | "log_save" => "serving",
        "apply" | "replay" | "refresh" | "plan" => "incremental",
        _ => "ranking",
    }
}

/// Copies the service's own span tree of one batch under `parent` and
/// adds each span's self time to its phase.
fn adopt_trace(log: &mut SpanLog, parent: SpanId, trace: &BatchTrace, phase_ns: &mut [u64; 8]) {
    let mut child_ns = vec![0u64; trace.spans.len()];
    for s in &trace.spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns;
        }
    }
    let mut ids = vec![parent; trace.spans.len()];
    for (i, s) in trace.spans.iter().enumerate().skip(1) {
        let p = s.parent.unwrap_or(0) as usize;
        let offset = s.start_ns.saturating_sub(trace.spans[p].start_ns);
        ids[i] = log.adopt(s.name, layer_of(s.name), ids[p], offset, s.duration_ns);
        if let Some(phase) = phase_of(s.name) {
            phase_ns[phase] += s.duration_ns.saturating_sub(child_ns[i]);
        }
    }
}

/// Plain (span-free) passes of the traced run: `reps` passes with default
/// telemetry interleaved with `reps` with telemetry disabled. Also the
/// cold first build's time and the host index over all of them.
fn paired_telemetry_passes(
    inputs: &StreamInputs,
    reps: usize,
) -> (PassTimes, PassTimes, f64, HostIndex) {
    let n = inputs.stream.len();
    let (mut on, mut off) = (PassTimes::new(n), PassTimes::new(n));
    let mut setup_cold_s = 0.0;
    let mut probe = HostProbe::new();
    for rep in 0..reps {
        for (cfg, times) in
            [(TelemetryConfig::default(), &mut on), (TelemetryConfig::disabled(), &mut off)]
        {
            let mut sys = build(inputs, cfg);
            if setup_cold_s == 0.0 {
                setup_cold_s = sys.setup_s(); // the very first build is the cold one
            }
            times.push(pass(inputs, &mut sys, &mut Ticker::new(&mut probe, n, rep, reps)).op_ns);
        }
    }
    (on, off, setup_cold_s, probe.index())
}

fn traced(args: &RunArgs, inputs: &StreamInputs, tail_pct: f64) -> Outcome {
    let n_ops = inputs.stream.len();
    let n_pat = inputs.patterns.len();
    let dirty = !inputs.classes.is_empty();
    let diversified = inputs.mode == NotifyMode::Diversified;
    let mut metrics = Metrics::new();
    let mut v = Verdict::default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let out_dir = crate::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("output directory {}: {e}", out_dir.display());
    }

    // Telemetry cost, paired per-op minima: default vs disabled.
    let (on, off, setup_cold_s, host_index) = paired_telemetry_passes(inputs, 2);
    println!("# baseline passes=2+2 {}", host_index.line());
    host_index.record(&mut metrics);
    let (on_min, off_min) = (on.minima(), off.minima());
    let (on_ns, off_ns): (u64, u64) = (on_min.iter().sum(), off_min.iter().sum());
    metrics.set(
        "telemetry.overhead_pct",
        100.0 * (on_ns as f64 - off_ns as f64) / off_ns as f64,
        n_ops,
    );
    metrics.set("host.pass_spread", on.pass_spread(), n_ops);
    metrics.set("host.setup_cold_s", setup_cold_s, 1);

    // The traced pass: the service under spans, next to its twins.
    let mut log = SpanLog::new();
    let setup_op = n_ops as u32; // spans outside the op sequence
    let setup = log.open("setup", "bench", None, setup_op);
    let mut sys = build(inputs, TelemetryConfig::default());
    log.adopt("serving.new", "serving", setup, 0, sys.new_ns);
    log.adopt("serving.subscribe", "serving", setup, sys.new_ns, sys.subscribe_ns);
    log.close(setup);
    metrics.set("serving.new_ms", ms(sys.new_ns), 1);
    metrics.set("serving.subscribe_ms_sum", ms(sys.subscribe_ns), n_pat);

    let twins = log.open("twins", "bench", None, setup_op);
    let (mut mirror, ns) =
        log.time("graph.dyn_from_digraph", "graph", Some(twins), setup_op, || {
            DynGraph::from_digraph(&inputs.base)
        });
    metrics.set("graph.dyn_from_digraph_ms", ms(ns), 1);
    let mut twin = PatternRegistry::with_threads(&inputs.base, 1);
    let mut twin_ids: Vec<PatternId> = Vec::with_capacity(n_pat);
    let mut register_ns = 0u64;
    for q in &inputs.patterns {
        let (id, ns) =
            log.time("incremental.register", "incremental", Some(twins), setup_op, || {
                twin.register(q.clone(), incremental_config()).expect("registers like the service")
            });
        twin_ids.push(id);
        register_ns += ns;
    }
    metrics.set("incremental.register_ms_sum", ms(register_ns), n_pat);
    // What registration is made of, on the base graph.
    let mut layers = LayerTwins::default();
    for q in &inputs.patterns {
        layers.measure(&mut log, twins, setup_op, (&inputs.base, q, &topk_config()), diversified);
    }
    layers.record(&mut metrics);
    let mut twin2 = dirty.then(|| {
        let mut reg = PatternRegistry::with_threads(&inputs.base, 2);
        reg.register(inputs.patterns[0].clone(), incremental_config())
            .expect("registers like the service");
        reg
    });
    log.close(twins);
    let log_path = out_dir.join(format!("{}.deltalog.jsonl", args.workload.name()));
    let _ = std::fs::remove_file(&log_path);
    let first_pattern = sys.subs[0].pattern();
    let scratch_every = (n_ops / 8).max(1);
    let save_every = 100usize;
    let mut out = PassOut::new(inputs);
    let mut ingest_ns = Vec::with_capacity(n_ops);
    let mut drain_ns = Vec::with_capacity(n_ops);
    let mut root_ns = 0u64; // the service's own ingest roots
    let mut phase_ns = [0u64; 8];
    let mut notified_batches = 0usize;
    let mut dyn_apply_ns = Vec::with_capacity(n_ops);
    let mut twin_apply_ns = Vec::with_capacity(n_ops);
    let mut twin2_apply_ns = Vec::with_capacity(n_ops);
    let mut diversified_ns = Vec::new();
    let mut query_ns = Vec::with_capacity(n_ops);
    let mut save_ns = Vec::new();
    let mut scratch_ns = Vec::new();
    for (i, delta) in inputs.stream.iter().enumerate() {
        let op = i as u32;
        let root = log.open("op", "bench", None, op);
        let ingest = log.open("serving.ingest", "serving", Some(root), op);
        let report = sys.svc.ingest(delta);
        ingest_ns.push(log.close(ingest));
        let drain = log.open("serving.drain", "serving", Some(root), op);
        out.drain(&sys);
        drain_ns.push(log.close(drain));
        out.op_ns.push(log.close(root));
        match &report {
            Ok(r) => notified_batches += usize::from(r.notified > 0),
            Err(_) => out.ingest_errors += 1,
        }
        if let Some(trace) = sys.svc.telemetry().recorder().recent().last() {
            if trace.seq == sys.svc.seq() {
                root_ns += trace.total_ns;
                adopt_trace(&mut log, ingest, trace, &mut phase_ns);
            }
        }
        out.note_gate(inputs, &sys, i);

        // The twins see the same delta, each under its own span.
        let side = log.open("twin", "bench", None, op);
        let (applied, ns) =
            log.time("graph.dyn_apply", "graph", Some(side), op, || mirror.apply(delta).is_ok());
        v.check(applied, || format!("mirror rejected batch {i}"));
        dyn_apply_ns.push(ns);
        let (changes, ns) =
            log.time("incremental.apply", "incremental", Some(side), op, || twin.apply(delta));
        twin_apply_ns.push(ns);
        if diversified {
            for change in changes.iter().flatten() {
                // One diversified answer per touched pattern, as the
                // service's notify phase computes it.
                let (div, ns) =
                    log.time("incremental.diversified", "incremental", Some(side), op, || {
                        twin.top_k_diversified(change.id)
                    });
                std::hint::black_box(div);
                diversified_ns.push(ns);
            }
        }
        if let Some(reg) = &mut twin2 {
            let (r, ns) =
                log.time("incremental.apply_threads2", "incremental", Some(side), op, || {
                    reg.apply(delta).is_ok()
                });
            std::hint::black_box(r);
            twin2_apply_ns.push(ns);
        }
        let (answer, ns) = log.time("serving.query_at", "serving", Some(side), op, || {
            sys.svc.query_at(first_pattern, sys.svc.seq())
        });
        std::hint::black_box(answer.is_ok());
        query_ns.push(ns);
        if (i + 1) % save_every == 0 {
            let (saved, ns) = log.time("serving.save_log", "serving", Some(side), op, || {
                sys.svc.save_log(&log_path)
            });
            v.check(saved.is_ok(), || format!("save_log failed at batch {i}: {saved:?}"));
            save_ns.push(ns);
        }
        if (i + 1) % scratch_every == 0 {
            let ((), ns) = log.time("incremental.scratch", "incremental", Some(side), op, || {
                let snap = mirror.snapshot();
                for q in &inputs.patterns {
                    std::hint::black_box(top_k_by_match(&snap, q, &topk_config()));
                }
            });
            scratch_ns.push(ns);
        }
        log.close(side);
    }
    let (snap, ns) = log.time("graph.snapshot", "graph", None, setup_op, || mirror.snapshot());
    metrics.set("graph.snapshot_ms", ms(ns), 1);
    v.check(snapshot_eq(&snap, &sys.svc.registry().snapshot()), || {
        "DynGraph mirror diverged from the service's graph".into()
    });

    // Twin registry against the service: same answers, and its counters.
    for (s, id) in twin_ids.iter().enumerate() {
        let served = sys.svc.current(sys.subs[s].pattern()).map(|a| a.matches);
        v.check(served.as_ref().ok() == twin.top_k(*id).map(|t| t.matches).as_ref(), || {
            format!("twin registry and service disagree on pattern {s}")
        });
    }
    let mut stats = ApplyStats::default();
    for id in &twin_ids {
        let s = twin.stats_of(*id).expect("registered");
        stats.sets_recomputed += s.sets_recomputed;
        stats.full_rebuilds += s.full_rebuilds;
        stats.full_rank_refreshes += s.full_rank_refreshes;
        stats.cond_incremental += s.cond_incremental;
        stats.cond_rebuilds += s.cond_rebuilds;
        stats.bound_rebuilds += s.bound_rebuilds;
        stats.pruned_outputs += s.pruned_outputs;
    }
    let reg_stats = twin.stats();
    metrics.set("graph.dyn_apply_ms_mean", mean_ms(&dyn_apply_ns), n_ops);
    metrics.set("graph.dyn_apply_ms_p99", percentile_ms(&dyn_apply_ns, 99.0), n_ops);
    metrics.set("incremental.apply_ms_mean", mean_ms(&twin_apply_ns), n_ops);
    metrics.set("incremental.apply_ms_p99", percentile_ms(&twin_apply_ns, 99.0), n_ops);
    metrics.set("incremental.diversified_ms_mean", mean_ms(&diversified_ns), diversified_ns.len());
    metrics.set("incremental.scratch_ms_mean", mean_ms(&scratch_ns), scratch_ns.len());
    metrics.set(
        "incremental.speedup_vs_scratch",
        mean_ms(&scratch_ns) / mean_ms(&twin_apply_ns),
        scratch_ns.len(),
    );
    metrics.set("incremental.shared_index_hit_rate", reg_stats.shared_index_hit_rate(), n_ops);
    metrics.set(
        "incremental.sets_recomputed_per_batch",
        stats.sets_recomputed as f64 / n_ops as f64,
        n_ops,
    );
    metrics.set("incremental.full_rebuilds", stats.full_rebuilds as f64, n_ops);
    metrics.set("incremental.full_rank_refreshes", stats.full_rank_refreshes as f64, n_ops);
    metrics.set("incremental.cond_incremental", stats.cond_incremental as f64, n_ops);
    metrics.set("incremental.cond_rebuilds", stats.cond_rebuilds as f64, n_ops);
    metrics.set("incremental.bound_rebuilds", stats.bound_rebuilds as f64, n_ops);
    metrics.set("incremental.pruned_outputs", stats.pruned_outputs as f64, n_ops);
    metrics.set("incremental.intra_pattern_splits", reg_stats.intra_pattern_splits as f64, n_ops);
    if dirty {
        let of_class = |ns: &[u64], keep: &dyn Fn(usize) -> bool| -> Vec<u64> {
            ns.iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, &x)| x).collect()
        };
        let class = |c: u8| move |i: usize| inputs.classes[i].class == c;
        for (c, name) in [
            (0u8, "incremental.dirty02_apply_ms_p50"),
            (1, "incremental.dirty25_apply_ms_p50"),
            (2, "incremental.dirty100_apply_ms_p50"),
        ] {
            let xs = of_class(&twin_apply_ns, &class(c));
            metrics.set(name, percentile_ms(&xs, 50.0), xs.len());
        }
        let xs = of_class(&twin_apply_ns, &|i| inputs.classes[i].settle);
        metrics.set("incremental.settle_apply_ms_p50", percentile_ms(&xs, 50.0), xs.len());
        let xs = of_class(&twin2_apply_ns, &class(1));
        metrics.set(
            "incremental.dirty25_apply_ms_p50_threads2",
            percentile_ms(&xs, 50.0),
            xs.len(),
        );
    }

    // Serving: what the service adds on top of the registry.
    let svc_stats = sys.svc.stats();
    metrics.set("serving.ingest_ms_p50", percentile_ms(&ingest_ns, 50.0), n_ops);
    metrics.set("serving.ingest_ms_p99", percentile_ms(&ingest_ns, 99.0), n_ops);
    metrics.set("serving.drain_us_mean", mean_ms(&drain_ns) * 1e3, n_ops);
    let self_ns: Vec<u64> =
        (0..n_ops).map(|i| (ingest_ns[i] + drain_ns[i]).saturating_sub(twin_apply_ns[i])).collect();
    metrics.set("serving.self_ms_mean", mean_ms(&self_ns), n_ops);
    let mut sorted = out.op_ns.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top = &sorted[..n_ops.div_ceil(100)];
    metrics.set(
        "serving.top1pct_time_share",
        top.iter().sum::<u64>() as f64 / sorted.iter().sum::<u64>() as f64,
        top.len(),
    );
    metrics.set("serving.notified_batch_share", notified_batches as f64 / n_ops as f64, n_ops);
    metrics.set(
        "serving.updates_delivered",
        out.updates.iter().map(Vec::len).sum::<usize>() as f64,
        n_ops,
    );
    metrics.set("serving.suppressed", svc_stats.suppressed as f64, n_ops);
    metrics.set("serving.coalesced", svc_stats.updates_coalesced as f64, n_ops);
    metrics.set("serving.query_at_us_p50", percentile_ms(&query_ns, 50.0) * 1e3, n_ops);

    // Phase accounting: the listed phases' self times plus the remainder
    // must add back up to the benchmark's own ingest spans.
    let ingest_total: u64 = ingest_ns.iter().sum();
    let attributed: u64 = phase_ns.iter().sum();
    let unattributed = ingest_total.saturating_sub(attributed);
    for ((_, metric), ns) in PHASES.iter().zip(phase_ns) {
        metrics.set(metric, ms(ns), n_ops);
    }
    metrics.set("telemetry.unattributed_ms_mean", ms(unattributed) / n_ops as f64, n_ops);
    v.check(root_ns <= ingest_total && root_ns as f64 >= 0.95 * ingest_total as f64, || {
        format!(
            "the service's ingest roots ({:.1} ms) are not within 5% of the benchmark's ingest \
             spans ({:.1} ms)",
            ms(root_ns),
            ms(ingest_total)
        )
    });
    println!(
        "# phases: attributed={:.2}ms unattributed={:.2}ms service_roots={:.2}ms ingest_spans={:.2}ms",
        ms(attributed),
        ms(unattributed),
        ms(root_ns),
        ms(ingest_total)
    );

    // Durability: final save, load, catch-up on a fresh service.
    let (saved, ns) =
        log.time("serving.save_log", "serving", None, setup_op, || sys.svc.save_log(&log_path));
    v.check(saved.is_ok(), || format!("final save_log failed: {saved:?}"));
    save_ns.push(ns);
    metrics.set("serving.log_save_ms_mean", mean_ms(&save_ns), save_ns.len());
    metrics.set(
        "serving.log_bytes_per_op",
        sys.svc.log().persisted_bytes() as f64 / n_ops as f64,
        n_ops,
    );
    let fsync = sys.svc.telemetry().metrics().snapshot();
    let fsync_ns = fsync.histogram(names::LOG_FSYNC_SECONDS).map_or(0, |h| h.sum_ns);
    metrics.set("telemetry.phase_ms_sum.log_fsync", ms(fsync_ns), save_ns.len());
    recover(&mut log, &sys, inputs, &log_path, &mut v, &mut metrics);
    let _ = std::fs::remove_file(&log_path);

    metrics.set("serving.runtime_hop_ms_p50", runtime_hop_ms_p50(inputs, &on_min, &mut v), n_ops);

    let traced_ns: u64 = out.op_ns.iter().sum();
    metrics.set(
        "host.trace_overhead_pct",
        100.0 * (traced_ns as f64 - on_ns as f64) / on_ns as f64,
        n_ops,
    );
    let t = summarize(&out.op_ns, tail_pct);
    println!(
        "# traced end-to-end (never compared): op_ms_p50={:.4} op_ms_tail={:.4} ops_per_s={:.2}",
        t.p50_ms, t.tail_ms, t.ops_per_s
    );

    let oracle = verify(inputs, &sys, &out);
    let trace_path = out_dir.join(format!("{}.trace.jsonl", args.workload.name()));
    let written = log.write_jsonl(&trace_path);
    v.check(written.is_ok(), || format!("trace file {}: {written:?}", trace_path.display()));
    log.print_self_times();
    println!("# trace: {} spans -> {}", log.spans().len(), trace_path.display());
    Outcome {
        attempted: n_ops as u64 + v.checks + oracle.checks,
        failed: v.failed + oracle.failed,
        metrics,
    }
}

/// Durability: load the saved log, build a fresh service on the graph it
/// carries, catch up, and require the live service's answers.
fn recover(
    log: &mut SpanLog,
    live: &System,
    inputs: &StreamInputs,
    log_path: &std::path::Path,
    v: &mut Verdict,
    metrics: &mut Metrics,
) {
    let n_ops = inputs.stream.len();
    let setup_op = n_ops as u32;
    let ms = |ns: u64| ns as f64 / 1e6;
    let recover = log.open("serving.recover", "serving", None, setup_op);
    let (loaded, load_ns) =
        log.time("serving.log_load", "serving", Some(recover), setup_op, || {
            DeltaLog::load(log_path)
        });
    match loaded {
        Ok(source) => {
            let (mut follower, _) =
                log.time("serving.recover_build", "serving", Some(recover), setup_op, || {
                    build_on(source.base(), inputs, TelemetryConfig::default())
                });
            let (caught, ns) =
                log.time("serving.catch_up", "serving", Some(recover), setup_op, || {
                    follower.svc.catch_up(&source)
                });
            metrics.set("serving.catch_up_ms", ms(ns), n_ops);
            v.check(caught.as_ref().is_ok_and(|&n| n == n_ops as u64), || {
                format!("catch_up replayed {caught:?}, expected {n_ops} batches")
            });
            for (s, sub) in follower.subs.iter().enumerate() {
                let served = live.svc.current(live.subs[s].pattern()).map(|a| a.matches);
                let recovered = follower.svc.current(sub.pattern()).map(|a| a.matches);
                v.check(served.is_ok() && served.as_ref().ok() == recovered.as_ref().ok(), || {
                    format!("recovered answer of pattern {s} differs from the live service")
                });
            }
        }
        Err(e) => v.check(false, || format!("DeltaLog::load failed: {e}")),
    }
    metrics.set("serving.log_load_ms", ms(load_ns), 1);
    metrics.set("serving.recover_s", log.close(recover) as f64 / 1e9, 1);
}

/// The runtime hop: the same ops through `ServiceHandle::ingest` (a
/// channel round-trip to the loop thread), paired per op with the direct
/// passes' minima; the median difference.
fn runtime_hop_ms_p50(inputs: &StreamInputs, direct_min_ns: &[u64], v: &mut Verdict) -> f64 {
    let hop = build(inputs, TelemetryConfig::default());
    let handle = ServiceHandle::spawn(hop.svc);
    let mut diffs_ms = Vec::with_capacity(inputs.stream.len());
    for (delta, &direct) in inputs.stream.iter().zip(direct_min_ns) {
        let t0 = Instant::now();
        let report = handle.ingest(delta.clone());
        for sub in &hop.subs {
            std::hint::black_box(sub.drain());
        }
        diffs_ms.push((t0.elapsed().as_nanos() as f64 - direct as f64) / 1e6);
        v.check(report.is_ok(), || "ingest through ServiceHandle failed".into());
    }
    drop(handle.shutdown()); // joins the loop thread
    diffs_ms.sort_by(f64::total_cmp);
    median_sorted(&diffs_ms)
}

fn snapshot_eq(a: &DiGraph, b: &DiGraph) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.labels() == b.labels()
        && a.nodes()
            .all(|v| a.successors(v) == b.successors(v) && a.attributes(v) == b.attributes(v))
}
