//! # gpm-telemetry
//!
//! Unified observability for the serving stack — offline and std-only,
//! in the spirit of `crates/compat/`: no network listener, no external
//! crates, just data structures the rest of the workspace threads
//! through its hot paths.
//!
//! Three pieces, one bundle:
//!
//! * **metrics** ([`MetricsRegistry`]) — named counters, gauges and
//!   fixed-bucket latency histograms, a few relaxed atomics per record
//!   on the hot path, rendered as JSON or a Prometheus-style text
//!   exposition;
//! * **phase tracing** ([`Span`], [`BatchTrace`]) — a per-batch span
//!   tree with monotonic timestamps, collected on the one thread that
//!   runs the batch;
//! * **flight recorder** ([`FlightRecorder`]) — a bounded ring of
//!   recent batch traces plus captures of every batch that crossed a
//!   latency threshold, dumpable as JSON for post-hoc debugging.
//!
//! [`Telemetry`] is the cloneable handle the stack shares: the serving
//! layer opens a root span per ingested batch
//! ([`Telemetry::start_batch`]) and closes it with
//! [`Telemetry::finish_batch`], which derives the per-phase latency
//! histograms (`gpm_phase_seconds{phase="…"}`) and event counters
//! (`gpm_events_total{event="…"}`) from the finished span tree and
//! files the trace with the recorder. Counters and gauges record even
//! when telemetry is disabled — they are the single source of truth
//! behind the `*Stats` structs — while histograms and tracing honor the
//! enabled flag, keeping the disabled overhead to a couple of relaxed
//! atomic loads.

#![deny(unsafe_code)]

mod clock;
pub mod exposition;
mod metrics;
mod recorder;
mod trace;

pub use metrics::{
    bucket_index, bucket_le_ns, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, BUCKET_COUNT,
};
pub use recorder::{FlightRecorder, RecorderConfig};
pub use trace::{BatchTrace, Span, SpanRecord};

use std::sync::Arc;
use std::time::Duration;

/// The metric-name catalog: every name the stack emits, in one place,
/// so docs, tests and dashboards never chase string drift.
pub mod names {
    /// Histogram family: wall time of each traced phase, labeled
    /// `{phase="…"}`. Phases come from span names — see [`PHASES`].
    pub const PHASE_SECONDS: &str = "gpm_phase_seconds";
    /// Counter family: point events recorded on spans, labeled
    /// `{event="…"}` (budget fallbacks, rebuild decisions, …).
    pub const EVENTS_TOTAL: &str = "gpm_events_total";
    /// Histogram: latency of each fsynced [`DeltaLog`] save
    /// (append or wholesale), recorded by the serving layer.
    ///
    /// [`DeltaLog`]: ../gpm_serving/struct.DeltaLog.html
    pub const LOG_FSYNC_SECONDS: &str = "gpm_log_fsync_seconds";

    /// Span names the instrumented stack opens, root to leaf: batch
    /// ingest; registry delta apply (with its lockstep `replay` child);
    /// per-pattern refresh; incremental condensation maintenance
    /// (`condense_incremental`), plan, prepare (with `tarjan` +
    /// `bitsets` children when the per-batch engine runs) and extract;
    /// subscription fan-out; log persistence.
    pub const PHASES: &[&str] = &[
        "ingest",
        "apply",
        "replay",
        "refresh",
        "condense_incremental",
        "plan",
        "prepare",
        "tarjan",
        "bitsets",
        "extract",
        "notify",
        "log_save",
    ];

    // Registry counters/gauges (always on — they back `RegistryStats`).
    pub const REGISTRY_BATCHES: &str = "gpm_registry_batches_total";
    pub const REGISTRY_REGISTRATIONS: &str = "gpm_registry_registrations_total";
    pub const REGISTRY_DEREGISTRATIONS: &str = "gpm_registry_deregistrations_total";
    pub const REGISTRY_OPS_REPLAYED: &str = "gpm_registry_ops_replayed_total";
    pub const REGISTRY_OPS_SKIPPED: &str = "gpm_registry_ops_skipped_total";
    pub const REGISTRY_LAST_TOUCHED: &str = "gpm_registry_last_patterns_touched";

    // Serving counters/gauges (always on — they back `ServiceStats`).
    pub const SERVING_BATCHES: &str = "gpm_serving_batches_total";
    pub const SERVING_UPDATES_PUSHED: &str = "gpm_serving_updates_pushed_total";
    pub const SERVING_UPDATES_COALESCED: &str = "gpm_serving_updates_coalesced_total";
    pub const SERVING_SUPPRESSED: &str = "gpm_serving_suppressed_total";
    pub const SERVING_INGEST_ERRORS: &str = "gpm_serving_ingest_errors_total";
    pub const SERVING_SUBSCRIPTIONS: &str = "gpm_serving_subscriptions";
    /// Deepest subscription queue observed during the last fan-out.
    pub const SERVING_MAX_QUEUE_DEPTH: &str = "gpm_serving_max_queue_depth";

    // Operator-plane additions (ISSUE 9).
    /// Bytes the delta log has durably written since process start
    /// (appends and wholesale rewrites both count what hit the file).
    pub const DELTA_LOG_BYTES: &str = "gpm_delta_log_bytes";
    /// Seconds since the log's last successful fsync — refreshed at
    /// snapshot/health time, so a stalled log shows up as a growing age.
    pub const DELTA_LOG_FSYNC_AGE: &str = "gpm_delta_log_fsync_age_seconds";
    /// Constant-1 gauge labeled `{version="…"}` — the standard
    /// build-identification idiom, joinable against any other series.
    pub const BUILD_INFO: &str = "gpm_build_info";
    /// Seconds since the serving process constructed its service.
    pub const UPTIME_SECONDS: &str = "gpm_uptime_seconds";
    /// Counter family `{pattern="…"}`: notify latencies within the
    /// pattern's SLO objective.
    pub const SLO_GOOD: &str = "gpm_slo_notify_good_total";
    /// Counter family `{pattern="…"}`: notify latencies over objective.
    pub const SLO_BAD: &str = "gpm_slo_notify_bad_total";
    /// Gauge family `{pattern="…"}`: rolling-window burn rate in
    /// permille of the error budget (1000 = burning exactly at budget).
    pub const SLO_BURN_RATE: &str = "gpm_slo_burn_rate_permille";
    /// Audit cycles the sampled production auditor has completed.
    pub const AUDIT_RUNS: &str = "gpm_audit_runs_total";
    /// Invariant violations the auditor has detected (latches health).
    pub const AUDIT_VIOLATIONS: &str = "gpm_audit_violations_total";

    /// Output matches whose relevant-set materialization was skipped
    /// because their maintained upper bound cannot displace the k-th
    /// answer.
    pub const BOUNDS_PRUNED: &str = "gpm_bounds_pruned_outputs_total";

    /// `# HELP` text for a family base name — the catalog the text
    /// exposition renders from. Unknown names get a generic line so the
    /// exposition is always fully annotated.
    pub fn help(base: &str) -> &'static str {
        match base {
            PHASE_SECONDS => "Wall time of each traced phase, labeled by phase.",
            EVENTS_TOTAL => "Point events recorded on spans, labeled by event.",
            LOG_FSYNC_SECONDS => "Latency of each fsynced delta-log save.",
            REGISTRY_BATCHES => "Delta batches applied by the pattern registry.",
            REGISTRY_REGISTRATIONS => "Patterns registered.",
            REGISTRY_DEREGISTRATIONS => "Patterns deregistered.",
            REGISTRY_OPS_REPLAYED => "Effective ops replayed into per-pattern state.",
            REGISTRY_OPS_SKIPPED => "Effective ops skipped by the shared interest index.",
            REGISTRY_LAST_TOUCHED => "Patterns touched by the last batch.",
            SERVING_BATCHES => "Batches ingested by the answer service.",
            SERVING_UPDATES_PUSHED => "Answer updates pushed to subscriptions.",
            SERVING_UPDATES_COALESCED => "Updates coalesced by bounded queues.",
            SERVING_SUPPRESSED => "Unchanged answers suppressed (no push).",
            SERVING_INGEST_ERRORS => "Rejected delta batches.",
            SERVING_SUBSCRIPTIONS => "Live subscriptions.",
            SERVING_MAX_QUEUE_DEPTH => "Deepest subscription queue in the last fan-out.",
            DELTA_LOG_BYTES => "Bytes durably written to the delta log.",
            DELTA_LOG_FSYNC_AGE => "Seconds since the delta log last fsynced.",
            BUILD_INFO => "Constant 1, labeled with the build version.",
            UPTIME_SECONDS => "Seconds since the service started.",
            SLO_GOOD => "Notify latencies within the pattern's objective.",
            SLO_BAD => "Notify latencies over the pattern's objective.",
            SLO_BURN_RATE => "Rolling-window error-budget burn rate, permille.",
            AUDIT_RUNS => "Completed sampled-auditor cycles.",
            AUDIT_VIOLATIONS => "Invariant violations the auditor detected.",
            BOUNDS_PRUNED => "Output materializations skipped by the maintained upper bounds.",
            _ if base.ends_with("_max_seconds") => {
                "Exact maximum observed sample of the matching histogram, seconds."
            }
            _ => "diversified-topk metric (see gpm_telemetry::names).",
        }
    }

    /// The full labeled name of one phase histogram, e.g.
    /// `gpm_phase_seconds{phase="prepare"}` — the key used by
    /// [`MetricsSnapshot::histogram`](super::MetricsSnapshot::histogram).
    pub fn phase(name: &str) -> String {
        format!("{PHASE_SECONDS}{{phase=\"{name}\"}}")
    }

    /// The full labeled name of one event counter.
    pub fn event(name: &str) -> String {
        format!("{EVENTS_TOTAL}{{event=\"{name}\"}}")
    }

    /// Metric names every healthy serving process must expose with
    /// nonzero counts once it has ingested work — asserted by the
    /// acceptance test and the CI smoke step.
    pub fn mandatory_histograms() -> Vec<String> {
        vec![phase("ingest"), phase("refresh"), phase("notify"), LOG_FSYNC_SECONDS.to_string()]
    }
}

/// Bounds and switches for one [`Telemetry`] bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Gates histograms and tracing (counters/gauges always record).
    pub enabled: bool,
    /// Flight-recorder bounds.
    pub recorder: RecorderConfig,
    /// Deterministic trace sampling: batch roots collect a full span
    /// tree 1 in every `trace_sample` batches (batch 0, N, 2N, …); the
    /// rest get a timing-only root whose duration still lands in the
    /// root phase histogram, and which still produces a root-only
    /// skeleton capture in the recorder's slow list when it crosses the
    /// slow threshold — a slow batch is never invisible, sampled or
    /// not. `1` (the default) traces every batch; `0` is normalized to
    /// `1`. Production guidance: 16 keeps full tracing under the 2%
    /// overhead target on microbatch floods (the benchmark's
    /// `telemetry.overhead_pct` prices full tracing on each workload).
    pub trace_sample: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true, recorder: RecorderConfig::default(), trace_sample: 1 }
    }
}

impl TelemetryConfig {
    /// Telemetry off: counters still count, everything else is free.
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false, ..TelemetryConfig::default() }
    }

    /// Metrics on, span tracing off: with the recorder disabled there is
    /// no trace to collect, so spans skip the histogram fold and the
    /// record push **entirely** — batch roots and children become free
    /// no-ops. Counters, gauges and directly-recorded histograms (e.g.
    /// `gpm_log_fsync_seconds`) keep working. This is the configuration
    /// for sub-100µs microbatch hot paths where even per-span clock
    /// reads are measurable against the <2% overhead target.
    pub fn recorder_off(mut self) -> Self {
        self.recorder.enabled = false;
        self
    }

    /// Sets the slow-batch capture threshold.
    pub fn slow_threshold(mut self, t: Duration) -> Self {
        self.recorder.slow_threshold = t;
        self
    }

    /// Sets the recent-trace ring capacity.
    pub fn ring_capacity(mut self, n: usize) -> Self {
        self.recorder.ring_capacity = n;
        self
    }

    /// Full span trees for 1 in `n` batches (see
    /// [`TelemetryConfig::trace_sample`]).
    pub fn sampled(mut self, n: u32) -> Self {
        self.trace_sample = n.max(1);
        self
    }
}

struct TelemetryInner {
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
    /// 1-in-N trace sampling (normalized ≥ 1; see
    /// [`TelemetryConfig::trace_sample`]).
    trace_sample: u32,
    /// Root spans opened so far — the deterministic sampling phase.
    batches_started: std::sync::atomic::AtomicU64,
    /// Handles for the canonical per-phase histograms, resolved once at
    /// construction so [`Telemetry::finish_batch`] folds span durations
    /// into their histograms without per-span name formatting or map
    /// lookups (a measured multi-µs/batch cost at serving rates).
    /// Non-canonical span names fall back to
    /// [`MetricsRegistry::histogram_with`].
    phase_hists: Vec<(&'static str, Histogram)>,
}

/// The cloneable handle the stack shares: a metrics registry, a span
/// factory and a flight recorder behind one `Arc`. See the crate docs.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// A bundle with the given config.
    pub fn new(cfg: TelemetryConfig) -> Self {
        if cfg.enabled {
            // Calibrate the span clock now so the first traced batch
            // doesn't absorb the one-time cost.
            clock::warm_up();
        }
        let metrics = MetricsRegistry::new(cfg.enabled);
        // Probe order = rough per-batch frequency (per-pattern phases
        // first), so the linear `find` in `finish_batch` usually hits in
        // one or two steps.
        const HOT_ORDER: &[&str] = &[
            "refresh",
            "condense_incremental",
            "plan",
            "prepare",
            "extract",
            "tarjan",
            "bitsets",
            "apply",
            "replay",
            "ingest",
            "notify",
            "log_save",
        ];
        debug_assert_eq!(
            {
                let mut a = HOT_ORDER.to_vec();
                a.sort_unstable();
                a
            },
            {
                let mut b = names::PHASES.to_vec();
                b.sort_unstable();
                b
            },
            "hot order covers exactly the canonical phases"
        );
        let phase_hists = HOT_ORDER
            .iter()
            .map(|&p| (p, metrics.histogram_with(names::PHASE_SECONDS, &[("phase", p)])))
            .collect();
        Telemetry {
            inner: Arc::new(TelemetryInner {
                metrics,
                recorder: FlightRecorder::new(cfg.recorder),
                trace_sample: cfg.trace_sample.max(1),
                batches_started: std::sync::atomic::AtomicU64::new(0),
                phase_hists,
            }),
        }
    }

    /// Tracing + histograms on, default bounds.
    pub fn on() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }

    /// Tracing + histograms off; counters and gauges still record, so
    /// `*Stats` snapshots stay correct. This is the default for layers
    /// used standalone (e.g. a bare `PatternRegistry`).
    pub fn off() -> Self {
        Telemetry::new(TelemetryConfig::disabled())
    }

    /// Whether histograms and tracing record.
    pub fn enabled(&self) -> bool {
        self.inner.metrics.enabled()
    }

    /// Flips histograms and tracing at runtime (spans already open keep
    /// recording until finished; new batches observe the change).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.metrics.set_enabled(enabled);
    }

    /// The metric registry (resolve handles once, record forever).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Opens the root span of one batch (`"ingest"`), or a free no-op
    /// span when disabled.
    pub fn start_batch(&self) -> Span {
        self.root_span("ingest")
    }

    /// Opens a root span with an explicit name — for layers that trace
    /// outside a serving batch (a standalone `PatternRegistry::apply`
    /// roots at `"apply"`).
    pub fn root_span(&self, name: &'static str) -> Span {
        // Recorder off ⇒ no trace will ever be wanted, so spans skip the
        // collector and the deferred histogram fold entirely — the whole
        // batch of opens/closes degrades to free no-ops.
        if !(self.enabled() && self.inner.recorder.is_enabled()) {
            return Span::disabled();
        }
        let n = self.inner.trace_sample;
        if n > 1 {
            use std::sync::atomic::Ordering;
            let i = self.inner.batches_started.fetch_add(1, Ordering::Relaxed);
            if !i.is_multiple_of(n as u64) {
                // Sampled out: a timing-only root — children are free
                // no-ops, the root latency still reaches its histogram
                // and the slow-batch skeleton capture in finish_batch.
                return Span::timed_root(name);
            }
        }
        Span::root(name)
    }

    /// Closes a batch: finishes the root span, folds every span's
    /// duration into `gpm_phase_seconds{phase=<name>}` and every span
    /// event into `gpm_events_total{event=…}`, and files the trace with
    /// the flight recorder. Returns the retained trace (`None` when
    /// disabled and when the recorder is off — spans then never recorded
    /// anything to fold). A sampled-out batch (timing-only root, see
    /// [`TelemetryConfig::trace_sample`]) folds only its root duration;
    /// if that crossed the slow threshold, a root-only skeleton trace is
    /// filed in the recorder's slow list (not the ring) and returned.
    pub fn finish_batch(&self, root: Span, seq: u64) -> Option<Arc<BatchTrace>> {
        if let Some((name, duration_ns)) = root.timed_elapsed() {
            match self.inner.phase_hists.iter().find(|(n, _)| *n == name) {
                Some((_, h)) => h.record_ns(duration_ns),
                None => self
                    .inner
                    .metrics
                    .histogram_with(names::PHASE_SECONDS, &[("phase", name)])
                    .record_ns(duration_ns),
            }
            let threshold = self.inner.recorder.config().slow_threshold;
            if Duration::from_nanos(duration_ns) >= threshold {
                let skeleton = BatchTrace {
                    seq,
                    total_ns: duration_ns,
                    spans: vec![SpanRecord {
                        parent: None,
                        name,
                        start_ns: 0,
                        duration_ns,
                        events: Vec::new(),
                        detail: "sampled-out skeleton".to_string(),
                    }],
                };
                return Some(self.inner.recorder.record_slow(skeleton));
            }
            return None;
        }
        let trace = root.into_trace(seq)?;
        for span in &trace.spans {
            match self.inner.phase_hists.iter().find(|(n, _)| *n == span.name) {
                Some((_, h)) => h.record_ns(span.duration_ns),
                None => self
                    .inner
                    .metrics
                    .histogram_with(names::PHASE_SECONDS, &[("phase", span.name)])
                    .record_ns(span.duration_ns),
            }
            for (_, ev) in &span.events {
                self.inner.metrics.counter_with(names::EVENTS_TOTAL, &[("event", ev)]).inc();
            }
        }
        Some(self.inner.recorder.record(trace))
    }

    /// Prometheus-style text exposition of every metric.
    pub fn render(&self) -> String {
        self.inner.metrics.render()
    }

    /// One JSON object holding the metrics snapshot and the flight
    /// recorder contents:
    /// `{"metrics":…,"flight_recorder":…}` — the payload
    /// `AnswerService::with()` dumps.
    pub fn dump_json(&self) -> String {
        format!(
            "{{\"metrics\":{},\"flight_recorder\":{}}}",
            self.inner.metrics.to_json(),
            self.inner.recorder.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_batch_derives_phase_histograms_and_event_counters() {
        let t = Telemetry::on();
        let root = t.start_batch();
        {
            let apply = root.child("apply");
            let prep = apply.child("prepare");
            prep.event("budget-bail-early");
        }
        root.child("notify").finish();
        let trace = t.finish_batch(root, 3).expect("enabled");
        assert_eq!(trace.seq, 3);
        let snap = t.metrics().snapshot();
        for phase in ["ingest", "apply", "prepare", "notify"] {
            let h = snap.histogram(&names::phase(phase));
            assert_eq!(h.map(|h| h.count), Some(1), "one sample for {phase}");
        }
        assert_eq!(snap.counter(&names::event("budget-bail-early")), Some(1));
        assert_eq!(t.recorder().recent().len(), 1);
        // The combined dump carries both halves.
        let dump = t.dump_json();
        assert!(dump.contains("\"metrics\":{"));
        assert!(dump.contains("\"flight_recorder\":{"));
        assert!(dump.contains("\"recent\":["));
    }

    #[test]
    fn disabled_bundle_skips_tracing_but_not_counters() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        let root = t.start_batch();
        assert!(!root.is_enabled());
        assert!(t.finish_batch(root, 1).is_none());
        assert!(t.recorder().recent().is_empty());
        let c = t.metrics().counter(names::SERVING_BATCHES);
        c.inc();
        assert_eq!(c.get(), 1, "counters record regardless");
        // Runtime flip turns tracing on for the next batch.
        t.set_enabled(true);
        let root = t.start_batch();
        assert!(root.is_enabled());
        assert!(t.finish_batch(root, 2).is_some());
    }

    #[test]
    fn recorder_off_spans_are_free_noops_but_metrics_still_record() {
        let t = Telemetry::new(TelemetryConfig::default().recorder_off());
        assert!(t.enabled());
        assert!(!t.recorder().is_enabled());
        let root = t.start_batch();
        assert!(!root.is_enabled(), "spans skip the fold and push entirely");
        {
            let refresh = root.child("refresh");
            refresh.event("budget-bail-early");
        }
        assert!(t.finish_batch(root, 1).is_none(), "no trace is built");
        assert!(t.recorder().recent().is_empty());
        assert!(t.recorder().slowest().is_none());
        let snap = t.metrics().snapshot();
        for phase in ["ingest", "refresh"] {
            let h = snap.histogram(&names::phase(phase));
            assert_eq!(h.map(|h| h.count), Some(0), "{phase} records nothing via spans");
        }
        // Counters and directly-recorded histograms keep working — the
        // mode only turns the span machinery off.
        t.metrics().counter(names::SERVING_BATCHES).inc();
        t.metrics().histogram(names::LOG_FSYNC_SECONDS).record_ns(42);
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter(names::SERVING_BATCHES), Some(1));
        assert_eq!(snap.histogram(names::LOG_FSYNC_SECONDS).map(|h| h.count), Some(1));
    }

    #[test]
    fn trace_sampling_keeps_histograms_and_slow_capture() {
        let t = Telemetry::new(
            TelemetryConfig::default().sampled(4).slow_threshold(Duration::from_millis(1)),
        );
        let r0 = t.start_batch();
        assert!(r0.is_enabled(), "batch 0 collects a full tree");
        t.finish_batch(r0, 0);
        for seq in 1..4u64 {
            let r = t.start_batch();
            assert!(!r.is_enabled(), "batch {seq} is sampled out");
            if seq == 2 {
                std::thread::sleep(Duration::from_millis(2));
            }
            let rec = t.finish_batch(r, seq);
            assert_eq!(rec.is_some(), seq == 2, "only the slow batch files a skeleton");
        }
        let r4 = t.start_batch();
        assert!(r4.is_enabled(), "1-in-4: batch 4 collects again");
        t.finish_batch(r4, 4);
        let recent: Vec<u64> = t.recorder().recent().iter().map(|tr| tr.seq).collect();
        assert_eq!(recent, vec![0, 4], "the ring holds only fully traced batches");
        let slow = t.recorder().slow();
        assert_eq!(slow.len(), 1, "the slow sampled-out batch was still captured");
        assert_eq!(slow[0].seq, 2);
        assert_eq!(slow[0].spans.len(), 1, "root-only skeleton");
        assert_eq!(slow[0].spans[0].detail, "sampled-out skeleton");
        let snap = t.metrics().snapshot();
        assert_eq!(
            snap.histogram(&names::phase("ingest")).map(|h| h.count),
            Some(5),
            "every batch's root latency reached the histogram"
        );
    }

    /// Not an assertion — a microbench for the per-span open/close cost
    /// in each mode, run by hand when tuning the hot path:
    /// `cargo test --release -p gpm-telemetry -- --ignored --nocapture span_cost`.
    #[test]
    #[ignore = "manual microbench"]
    fn span_cost_microbench() {
        for (label, t) in [
            ("full tracing", Telemetry::on()),
            ("recorder off", Telemetry::new(TelemetryConfig::default().recorder_off())),
            ("disabled", Telemetry::off()),
        ] {
            const BATCHES: usize = 20_000;
            const CHILDREN: usize = 16;
            let t0 = std::time::Instant::now();
            for seq in 0..BATCHES {
                let root = t.start_batch();
                for _ in 0..CHILDREN {
                    root.child("refresh").finish();
                }
                t.finish_batch(root, seq as u64);
            }
            let per_span = t0.elapsed().as_nanos() as f64 / (BATCHES * (CHILDREN + 1)) as f64;
            println!("{label:>15}: {per_span:6.1} ns/span");
        }
    }

    #[test]
    fn mandatory_names_are_well_formed() {
        let m = names::mandatory_histograms();
        assert!(m.contains(&"gpm_phase_seconds{phase=\"ingest\"}".to_string()));
        assert!(m.contains(&names::LOG_FSYNC_SECONDS.to_string()));
        assert!(names::PHASES.contains(&"tarjan"));
    }
}
