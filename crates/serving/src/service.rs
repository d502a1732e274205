//! [`AnswerService`]: the long-lived loop that owns a [`PatternRegistry`],
//! ingests delta batches into a [`DeltaLog`], and fans material answer
//! changes out to subscriptions.
//!
//! One `ingest` is one consistency point: the batch is applied to the
//! shared graph exactly once, appended to the log under the next sequence
//! number, and every subscription whose view of its pattern's answer
//! materially changed receives **one** [`AnswerUpdate`] carrying that
//! sequence number. Per-pattern answer **versions** advance only on
//! material change, and the retained history of versioned answers serves
//! [`AnswerService::query_at`] — the pull-side view of the same timeline
//! the push side streams.

use std::collections::{HashMap, VecDeque};

use gpm_core::result::{AnswerDiff, RankedMatch};
use gpm_graph::{DiGraph, GraphDelta, GraphError};
use gpm_incremental::{IncrementalConfig, PatternId, PatternRegistry, RegistryStats};
use gpm_pattern::Pattern;
use gpm_telemetry::{names, Counter, Gauge, Span, Telemetry, TelemetryConfig};

use crate::answer::{AnswerUpdate, VersionedAnswer};
use crate::health::{ComponentHealth, HealthConfig, HealthReport, HealthStatus};
use crate::log::DeltaLog;
use crate::slo::{SloConfig, SloTracker};
use crate::subscription::{NotifyMode, SubShared, Subscription, SubscriptionId};

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServingError {
    /// The graph layer rejected a delta or a serialized record.
    Graph(GraphError),
    /// The requested offset was compacted away (or predates the pattern).
    OffsetCompacted {
        /// The requested offset.
        seq: u64,
        /// The oldest still-servable offset.
        retained_from: u64,
    },
    /// The requested offset has not been ingested yet.
    OffsetInFuture {
        /// The requested offset.
        seq: u64,
        /// The current head offset.
        head: u64,
    },
    /// No such pattern is registered with the service.
    UnknownPattern(PatternId),
    /// A handed-off baseline answer does not match this service's graph
    /// (stale snapshot, or the wrong pattern's answer). The registration
    /// was rolled back.
    BaselineMismatch(PatternId),
    /// A serialized log was malformed.
    Corrupt(String),
}

impl ServingError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        ServingError::Corrupt(msg.into())
    }
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Graph(e) => write!(f, "{e}"),
            ServingError::OffsetCompacted { seq, retained_from } => {
                write!(f, "offset {seq} compacted away (retained from {retained_from})")
            }
            ServingError::OffsetInFuture { seq, head } => {
                write!(f, "offset {seq} not ingested yet (head is {head})")
            }
            ServingError::UnknownPattern(id) => write!(f, "unknown {id}"),
            ServingError::BaselineMismatch(id) => {
                write!(f, "baseline answer does not match the current graph for {id}")
            }
            ServingError::Corrupt(msg) => write!(f, "corrupt delta log: {msg}"),
        }
    }
}

impl std::error::Error for ServingError {}

/// Tuning knobs of an [`AnswerService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Per-subscription queue bound; overflow coalesces newest-wins.
    pub queue_capacity: usize,
    /// Versioned answers retained per pattern for [`AnswerService::query_at`]
    /// (change points, not batches — an unchanged answer spans any number
    /// of offsets for free).
    pub retain_answers: usize,
    /// Ignored: a batch runs on the service's thread. It stays only
    /// because the frozen `benchmark/` package sets it
    /// (`benchmark/src/workloads/stream.rs`); the next `benchmark` PR
    /// removes it.
    pub threads: usize,
    /// Observability bounds and switches. Enabled by default: the
    /// serving layer is where batch traces, phase histograms and the
    /// flight recorder earn their keep. [`TelemetryConfig::disabled`]
    /// keeps counters (and thus [`ServiceStats`]) while dropping
    /// histograms and tracing to a few relaxed atomic loads.
    pub telemetry: TelemetryConfig,
    /// Per-pattern notify-latency objective, burn-rate window and error
    /// budget (`gpm_slo_*` metrics and the `slo` health component).
    pub slo: SloConfig,
    /// Thresholds of the `/healthz` probes.
    pub health: HealthConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            retain_answers: 1024,
            threads: 1,
            telemetry: TelemetryConfig::default(),
            slo: SloConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

/// Service-level counters — a point-in-time snapshot assembled from the
/// service's telemetry counters by [`AnswerService::stats`] (the
/// counters are the single source of truth; this struct is the
/// ergonomic read).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Batches ingested (appended to the log and applied).
    pub batches: u64,
    /// Updates pushed into subscription queues.
    pub updates_pushed: u64,
    /// Updates merged away by queue-overflow coalescing.
    pub updates_coalesced: u64,
    /// Queued updates evicted by coalescing, summed over every
    /// subscription (per-subscription counts via
    /// [`Subscription::dropped`](crate::Subscription::dropped)).
    pub updates_dropped: u64,
    /// Diffs rebased onto an earlier baseline during coalescing, summed
    /// over every subscription (per-subscription counts via
    /// [`Subscription::rebased`](crate::Subscription::rebased)).
    pub diffs_rebased: u64,
    /// Notifications withheld because a touched pattern's answer did not
    /// materially change for that subscription ("no spurious wakeups").
    pub suppressed: u64,
    /// Ingests rejected (invalid deltas) — state and log unchanged.
    pub ingest_errors: u64,
}

/// Resolved handles of every serving-level metric; counters keep
/// recording whether or not histograms/tracing are enabled, so
/// [`ServiceStats`] stays correct either way.
#[derive(Debug)]
struct ServiceCounters {
    batches: Counter,
    updates_pushed: Counter,
    updates_coalesced: Counter,
    updates_dropped: Counter,
    diffs_rebased: Counter,
    suppressed: Counter,
    ingest_errors: Counter,
    subscriptions: Gauge,
    max_queue_depth: Gauge,
}

impl ServiceCounters {
    fn resolve(t: &Telemetry) -> Self {
        let m = t.metrics();
        ServiceCounters {
            batches: m.counter(names::SERVING_BATCHES),
            updates_pushed: m.counter(names::SERVING_UPDATES_PUSHED),
            updates_coalesced: m.counter(names::SERVING_UPDATES_COALESCED),
            updates_dropped: m.counter(names::SERVING_UPDATES_DROPPED),
            diffs_rebased: m.counter(names::SERVING_DIFFS_REBASED),
            suppressed: m.counter(names::SERVING_SUPPRESSED),
            ingest_errors: m.counter(names::SERVING_INGEST_ERRORS),
            subscriptions: m.gauge(names::SERVING_SUBSCRIPTIONS),
            max_queue_depth: m.gauge(names::SERVING_MAX_QUEUE_DEPTH),
        }
    }
}

/// What one [`AnswerService::ingest`] did.
#[derive(Debug, Clone, Copy)]
pub struct IngestReport {
    /// The sequence number assigned to the batch.
    pub seq: u64,
    /// Patterns the batch touched (replayed into).
    pub touched: usize,
    /// Updates pushed to subscriptions.
    pub notified: usize,
}

struct PatternEntry {
    /// Latest per-pattern answer version (1 at registration; +1 per
    /// material change of the relevance-ranked answer).
    version: u64,
    /// Retained change points, ascending by `seq`.
    history: VecDeque<VersionedAnswer>,
}

struct SubEntry {
    id: SubscriptionId,
    mode: NotifyMode,
    /// Version of the last update pushed to this subscription.
    version: u64,
    /// Diversified mode: the answer last pushed, the per-sub diff
    /// baseline. Relevance subscriptions ride the registry's served
    /// baseline instead (their diff is the registry's own change set), so
    /// for them this stays at the attach-time answer and is never read.
    last: Vec<RankedMatch>,
    shared: std::sync::Arc<SubShared>,
}

/// The streaming answer service. See the crate docs for the model and
/// `tests/service_differential.rs` for the push ≡ pull proof.
pub struct AnswerService {
    registry: PatternRegistry,
    log: DeltaLog,
    /// Versioned answer history, by pattern.
    patterns: HashMap<PatternId, PatternEntry>,
    /// Subscriptions grouped by pattern, in attach order — fan-out work is
    /// proportional to the subscribers of the patterns a batch touched,
    /// not to the total subscriber population.
    subs: HashMap<PatternId, Vec<SubEntry>>,
    next_sub: u64,
    cfg: ServiceConfig,
    telemetry: Telemetry,
    counters: ServiceCounters,
    /// Per-pattern SLO trackers, keyed like [`Self::patterns`].
    slos: HashMap<PatternId, SloTracker>,
    /// Round-robin cursor of the sampled production auditor.
    audit_cursor: usize,
    /// The last unresolved audit violation — set by [`Self::audit_sample`]
    /// on a failed audit, cleared when the same pattern audits clean (or
    /// is deregistered). While set, `/healthz` reports **unready**: a
    /// proven-wrong maintained answer outranks every latency concern.
    audit_latch: Option<(PatternId, String)>,
    audit_runs: Counter,
    audit_violations: Counter,
    /// Snapshot-time gauges refreshed by [`Self::sample_gauges`].
    log_bytes: Gauge,
    fsync_age: Gauge,
    uptime: Gauge,
    started: std::time::Instant,
}

impl AnswerService {
    /// A service over `g`, with the delta log anchored at offset 0.
    pub fn new(g: &DiGraph, cfg: ServiceConfig) -> Self {
        Self::at_offset(g, 0, cfg)
    }

    /// A service anchored mid-stream: `g` is the graph state at offset
    /// `seq` — the late-joiner / crash-recovery constructor. Re-subscribe,
    /// then [`Self::catch_up`] against the source log.
    pub fn at_offset(g: &DiGraph, seq: u64, cfg: ServiceConfig) -> Self {
        let telemetry = Telemetry::new(cfg.telemetry.clone());
        let counters = ServiceCounters::resolve(&telemetry);
        let mut registry = PatternRegistry::new(g);
        registry.set_telemetry(telemetry.clone());
        let mut log = DeltaLog::at_offset(g, seq);
        log.set_fsync_histogram(telemetry.metrics().histogram(names::LOG_FSYNC_SECONDS));
        let m = telemetry.metrics();
        // Constant 1 with the version as a label — the Prometheus idiom
        // for joining build metadata onto every other series.
        m.gauge_with(names::BUILD_INFO, &[("version", env!("CARGO_PKG_VERSION"))]).set(1);
        let (log_bytes, fsync_age, uptime) = (
            m.gauge(names::DELTA_LOG_BYTES),
            m.gauge(names::DELTA_LOG_FSYNC_AGE),
            m.gauge(names::UPTIME_SECONDS),
        );
        let (audit_runs, audit_violations) =
            (m.counter(names::AUDIT_RUNS), m.counter(names::AUDIT_VIOLATIONS));
        AnswerService {
            registry,
            log,
            patterns: HashMap::new(),
            subs: HashMap::new(),
            next_sub: 0,
            cfg,
            telemetry,
            counters,
            slos: HashMap::new(),
            audit_cursor: 0,
            audit_latch: None,
            audit_runs,
            audit_violations,
            log_bytes,
            fsync_age,
            uptime,
            started: std::time::Instant::now(),
        }
    }

    /// The observability bundle the whole stack under this service
    /// records into — metrics, batch traces and the flight recorder.
    /// `handle.with(|svc| svc.telemetry().dump_json())` is the
    /// control-plane dump of a live service.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The sequence number of the newest ingested batch.
    pub fn seq(&self) -> u64 {
        self.log.head_seq()
    }

    /// The owned registry (read-only; mutate through [`Self::ingest`]).
    pub fn registry(&self) -> &PatternRegistry {
        &self.registry
    }

    /// The owned delta log.
    pub fn log(&self) -> &DeltaLog {
        &self.log
    }

    /// Service-level counters (a snapshot of the telemetry counters).
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            batches: c.batches.get(),
            updates_pushed: c.updates_pushed.get(),
            updates_coalesced: c.updates_coalesced.get(),
            updates_dropped: c.updates_dropped.get(),
            diffs_rebased: c.diffs_rebased.get(),
            suppressed: c.suppressed.get(),
            ingest_errors: c.ingest_errors.get(),
        }
    }

    /// The owned registry's counters (shared-index skip rate & co).
    pub fn registry_stats(&self) -> RegistryStats {
        self.registry.stats()
    }

    /// Number of live subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.subs.values().map(Vec::len).sum()
    }

    /// Registers `q` and attaches a subscription to it. The subscription's
    /// queue starts with one update carrying the **consistent initial
    /// answer** at the current offset (diff: everything `entered`), so a
    /// consumer needs no separate bootstrap read.
    pub fn subscribe(
        &mut self,
        q: Pattern,
        cfg: IncrementalConfig,
        mode: NotifyMode,
    ) -> Result<Subscription, ServingError> {
        let Ok(id) = self.registry.register(q, cfg);
        let initial = self.registry.top_k(id).expect("just registered").matches;
        self.patterns.insert(
            id,
            PatternEntry {
                version: 1,
                history: VecDeque::from([VersionedAnswer {
                    seq: self.seq(),
                    version: 1,
                    matches: initial,
                }]),
            },
        );
        self.track_slo(id);
        self.attach(id, mode)
    }

    /// Registers `q` anchored to a **handed-off baseline** — the
    /// late-joiner / follower path. A fresh [`Self::subscribe`] on a
    /// mid-stream service records the pattern's first change point at the
    /// join offset, even though the answer last changed earlier — a
    /// from-zero service and the joiner would then disagree on the `seq`
    /// and `version` bookkeeping of [`Self::query_at`] (never on the
    /// answers). Passing the live service's [`Self::current`] answer here
    /// seeds the history with the **true** change point, anchored to the
    /// shared [`DeltaLog`] sequence numbers: `query_at` agrees exactly —
    /// matches, `seq` and `version` — between the two services, for every
    /// offset from the baseline's seq on.
    ///
    /// The baseline must describe this service's graph: its matches are
    /// validated against a fresh ranking of the registered pattern, and a
    /// mismatch rolls the registration back with
    /// [`ServingError::BaselineMismatch`].
    pub fn subscribe_with_baseline(
        &mut self,
        q: Pattern,
        cfg: IncrementalConfig,
        mode: NotifyMode,
        baseline: VersionedAnswer,
    ) -> Result<Subscription, ServingError> {
        if baseline.seq > self.seq() {
            return Err(ServingError::OffsetInFuture { seq: baseline.seq, head: self.seq() });
        }
        let Ok(id) = self.registry.register(q, cfg);
        let fresh = self.registry.top_k(id).expect("just registered").matches;
        if fresh != baseline.matches {
            self.registry.deregister(id);
            return Err(ServingError::BaselineMismatch(id));
        }
        self.patterns.insert(
            id,
            PatternEntry { version: baseline.version, history: VecDeque::from([baseline]) },
        );
        self.track_slo(id);
        self.attach(id, mode)
    }

    /// Starts SLO tracking for a freshly registered pattern.
    fn track_slo(&mut self, id: PatternId) {
        let tracker = SloTracker::new(&self.telemetry, &id.to_string(), self.cfg.slo.clone());
        self.slos.insert(id, tracker);
    }

    /// Attaches one more subscription to an already-registered pattern
    /// (many consumers, one maintained state).
    pub fn attach(
        &mut self,
        pattern: PatternId,
        mode: NotifyMode,
    ) -> Result<Subscription, ServingError> {
        let entry = self.patterns.get(&pattern).ok_or(ServingError::UnknownPattern(pattern))?;
        let (version, initial): (u64, Vec<RankedMatch>) = match mode {
            // The newest history entry *is* the current relevance answer —
            // no need to re-rank what the registry already served.
            NotifyMode::Relevance => {
                (entry.version, entry.history.back().expect("history never empty").matches.clone())
            }
            NotifyMode::Diversified => (
                1,
                self.registry
                    .top_k_diversified(pattern)
                    .ok_or(ServingError::UnknownPattern(pattern))?
                    .matches,
            ),
        };
        let id = SubscriptionId(self.next_sub);
        self.next_sub += 1;
        let shared = SubShared::new(self.cfg.queue_capacity);
        shared.push(AnswerUpdate {
            pattern,
            version,
            seq: self.seq(),
            topk: initial.clone(),
            diff: AnswerDiff::between(&[], &initial),
        });
        self.counters.updates_pushed.inc();
        self.subs.entry(pattern).or_default().push(SubEntry {
            id,
            mode,
            version,
            last: initial,
            shared: shared.clone(),
        });
        self.counters.subscriptions.set(self.subscriptions() as i64);
        Ok(Subscription { id, pattern, mode, shared })
    }

    /// Drops a subscription: its queue is closed (pending updates remain
    /// readable) and, when this was the pattern's last subscriber, the
    /// pattern is deregistered and its answer history released. Returns
    /// `false` for unknown (already-dropped) subscriptions.
    pub fn unsubscribe(&mut self, sub: &Subscription) -> bool {
        let pattern = sub.pattern();
        let Some(list) = self.subs.get_mut(&pattern) else {
            return false;
        };
        let Some(i) = list.iter().position(|s| s.id == sub.id()) else {
            return false;
        };
        let entry = list.remove(i);
        entry.shared.close();
        if list.is_empty() {
            self.subs.remove(&pattern);
            self.patterns.remove(&pattern);
            self.slos.remove(&pattern);
            self.registry.deregister(pattern);
            // A latched audit violation of a now-gone pattern is resolved:
            // the corrupt state was dropped with the slot.
            if self.audit_latch.as_ref().is_some_and(|(id, _)| *id == pattern) {
                self.audit_latch = None;
            }
        }
        self.counters.subscriptions.set(self.subscriptions() as i64);
        true
    }

    /// Ingests one batch: applies it to the shared graph, appends it to
    /// the log under the next sequence number, advances per-pattern
    /// versions/histories, and pushes one [`AnswerUpdate`] to every
    /// subscription whose view materially changed. On error the graph,
    /// the log and every queue are unchanged.
    pub fn ingest(&mut self, delta: &GraphDelta) -> Result<IngestReport, ServingError> {
        // One batch = one trace: the "ingest" root spans the registry
        // apply (and its replay/refresh/prepare/extract subtree) plus
        // the notify fan-out; finish_batch folds every span into the
        // phase histograms and files the tree with the flight recorder.
        let root = self.telemetry.start_batch();
        let out = self.ingest_traced(delta, &root);
        self.telemetry.finish_batch(root, self.log.head_seq());
        out
    }

    fn ingest_traced(
        &mut self,
        delta: &GraphDelta,
        root: &Span,
    ) -> Result<IngestReport, ServingError> {
        let t0 = std::time::Instant::now();
        let changes = {
            let apply = root.child("apply");
            match self.registry.apply_traced(delta, &apply) {
                Ok(changes) => changes,
                Err(e) => {
                    self.counters.ingest_errors.inc();
                    apply.event("ingest-rejected");
                    return Err(e.into());
                }
            }
        };
        let seq = self.log.append(delta.clone());
        self.counters.batches.inc();
        let mut report = IngestReport { seq, touched: changes.len(), notified: 0 };

        let notify = root.child("notify");
        let mut max_depth = 0usize;
        for change in &changes {
            // Per-pattern versioned history: advance only on material
            // change of the relevance answer (the registry's diff).
            if change.changed() {
                if let Some(entry) = self.patterns.get_mut(&change.id) {
                    entry.version += 1;
                    entry.history.push_back(VersionedAnswer {
                        seq,
                        version: entry.version,
                        matches: change.top.matches.clone(),
                    });
                    while entry.history.len() > self.cfg.retain_answers.max(1) {
                        entry.history.pop_front();
                    }
                }
            }

            // Subscriber fan-out. The diversified answer is computed at
            // most once per touched pattern, and only if someone wants it:
            // a touched pattern's diversified selection can move even when
            // its relevance top-k survived (off-list relevances feed the
            // greedy objective), so it is re-derived whenever touched.
            let wants_div = self
                .subs
                .get(&change.id)
                .is_some_and(|l| l.iter().any(|s| s.mode == NotifyMode::Diversified));
            let div: Option<Vec<RankedMatch>> = wants_div
                .then(|| self.registry.top_k_diversified(change.id).expect("registered").matches);
            for sub in self.subs.get_mut(&change.id).map(Vec::as_mut_slice).unwrap_or_default() {
                // Relevance subscriptions share the served baseline the
                // registry already diffed against (attach seeds `last`
                // from the same answer and both advance on the same
                // material-change events), so the registry's diff is
                // reused; only diversified views need a per-sub diff.
                let (fresh, diff): (&[RankedMatch], AnswerDiff) = match sub.mode {
                    NotifyMode::Relevance => {
                        if !change.changed() {
                            self.counters.suppressed.inc();
                            continue;
                        }
                        (&change.top.matches, change.diff.clone())
                    }
                    NotifyMode::Diversified => {
                        let fresh: &[RankedMatch] = div.as_deref().expect("computed above");
                        let diff = AnswerDiff::between(&sub.last, fresh);
                        if diff.is_empty() {
                            self.counters.suppressed.inc();
                            continue;
                        }
                        sub.last = fresh.to_vec();
                        (fresh, diff)
                    }
                };
                sub.version += 1;
                let outcome = sub.shared.push(AnswerUpdate {
                    pattern: change.id,
                    version: sub.version,
                    seq,
                    topk: fresh.to_vec(),
                    diff,
                });
                max_depth = max_depth.max(outcome.depth);
                self.counters.updates_pushed.inc();
                if outcome.coalesced {
                    self.counters.updates_coalesced.inc();
                    self.counters.updates_dropped.inc();
                    self.counters.diffs_rebased.inc();
                }
                report.notified += 1;
            }
        }
        self.counters.max_queue_depth.set(max_depth as i64);
        if notify.is_enabled() {
            notify.detail(format!("touched={} notified={}", report.touched, report.notified));
        }
        // One SLO event per touched pattern: its subscribers were told (or
        // provably did not need telling) within this latency.
        let latency = t0.elapsed();
        for change in &changes {
            if let Some(slo) = self.slos.get_mut(&change.id) {
                slo.record(latency);
            }
        }
        Ok(report)
    }

    /// Replays every entry of `source` this service has not ingested yet
    /// (entries with `seq >` [`Self::seq`]), in order. The late-joiner /
    /// recovery path: a service anchored at `source`'s base (or any
    /// mid-stream snapshot) converges on the exact same versioned answers
    /// a service that lived through the whole stream holds. Returns the
    /// number of batches replayed.
    pub fn catch_up(&mut self, source: &DeltaLog) -> Result<u64, ServingError> {
        let mut replayed = 0u64;
        for entry in source.entries_after(self.seq())? {
            debug_assert_eq!(entry.seq, self.seq() + 1, "logs are contiguous");
            self.ingest(&entry.delta)?;
            replayed += 1;
        }
        Ok(replayed)
    }

    /// The versioned answer `pattern` served at offset `seq` — the newest
    /// retained change point at or below `seq`. Consistent with the push
    /// stream: between two updates, `query_at` returns the earlier one's
    /// answer for every offset in the gap.
    pub fn query_at(&self, pattern: PatternId, seq: u64) -> Result<VersionedAnswer, ServingError> {
        let entry = self.patterns.get(&pattern).ok_or(ServingError::UnknownPattern(pattern))?;
        if seq > self.seq() {
            return Err(ServingError::OffsetInFuture { seq, head: self.seq() });
        }
        match entry.history.iter().rev().find(|a| a.seq <= seq) {
            Some(a) => Ok(a.clone()),
            None => Err(ServingError::OffsetCompacted {
                seq,
                retained_from: entry.history.front().map_or(self.seq(), |a| a.seq),
            }),
        }
    }

    /// The current versioned answer of `pattern`.
    pub fn current(&self, pattern: PatternId) -> Result<VersionedAnswer, ServingError> {
        self.query_at(pattern, self.seq())
    }

    /// Compacts the owned log up to `upto` (see [`DeltaLog::compact_to`]).
    pub fn compact_log(&mut self, upto: u64) -> Result<(), ServingError> {
        self.log.compact_to(upto)
    }

    /// Persists the owned log to `path` via [`DeltaLog::save`] — the
    /// checkpoint call a long-lived service makes between ingests. The
    /// log's persistence cursor lives with the service, so repeated saves
    /// to the same path append only the batches ingested since the last
    /// one (wholesale rewrite only after [`Self::compact_log`]).
    pub fn save_log(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), ServingError> {
        let t0 = std::time::Instant::now();
        let out = self.log.save(path);
        // Whole-save wall time lands in the phase family next to the
        // per-fsync latency the log itself records.
        self.telemetry
            .metrics()
            .histogram_with(names::PHASE_SECONDS, &[("phase", "log_save")])
            .record(t0.elapsed());
        out
    }

    /// Refreshes the snapshot-time gauges (log bytes, fsync age, uptime).
    /// The admin plane calls this right before rendering `/metrics`, so
    /// scraped values describe scrape time rather than the last batch.
    pub fn sample_gauges(&self) {
        self.log_bytes.set(self.log.persisted_bytes().min(i64::MAX as u64) as i64);
        let age = self.log.fsync_age().map_or(0, |d| d.as_secs().min(i64::MAX as u64) as i64);
        self.fsync_age.set(age);
        self.uptime.set(self.started.elapsed().as_secs().min(i64::MAX as u64) as i64);
    }

    /// Subscription queues currently sitting at capacity, over the total:
    /// `(saturated, total)`.
    fn queue_saturation(&self) -> (usize, usize) {
        let mut saturated = 0usize;
        let mut total = 0usize;
        for sub in self.subs.values().flatten() {
            let (depth, capacity) = sub.shared.saturation();
            total += 1;
            if depth >= capacity {
                saturated += 1;
            }
        }
        (saturated, total)
    }

    /// Evaluates every health probe at this consistency point. See
    /// [`HealthReport`] for the levels and `/healthz` for the wire form.
    pub fn health(&self) -> HealthReport {
        let mut components = Vec::new();

        components.push(ComponentHealth {
            name: "loop",
            status: HealthStatus::Ready,
            detail: format!(
                "serving; uptime {}s, seq {}",
                self.started.elapsed().as_secs(),
                self.seq()
            ),
        });

        let unpersisted = self.log.unpersisted_entries();
        let (log_status, log_detail) = match self.log.fsync_age() {
            Some(age) if unpersisted > 0 && age > self.cfg.health.max_fsync_age => (
                HealthStatus::Degraded,
                format!(
                    "{unpersisted} unpersisted entries, last fsync {:.1}s ago (max {:.1}s)",
                    age.as_secs_f64(),
                    self.cfg.health.max_fsync_age.as_secs_f64()
                ),
            ),
            Some(age) => (
                HealthStatus::Ready,
                format!(
                    "{} bytes persisted, {unpersisted} unpersisted, last fsync {:.1}s ago",
                    self.log.persisted_bytes(),
                    age.as_secs_f64()
                ),
            ),
            None => {
                (HealthStatus::Ready, format!("not persisting ({unpersisted} entries in memory)"))
            }
        };
        components.push(ComponentHealth {
            name: "delta_log",
            status: log_status,
            detail: log_detail,
        });

        let (saturated, total) = self.queue_saturation();
        let frac = if total == 0 { 0.0 } else { saturated as f64 / total as f64 };
        components.push(ComponentHealth {
            name: "subscriptions",
            status: if frac > self.cfg.health.max_saturated_fraction {
                HealthStatus::Degraded
            } else {
                HealthStatus::Ready
            },
            detail: format!("{saturated}/{total} queues at capacity"),
        });

        let burning: Vec<String> = self
            .slos
            .iter()
            .filter(|(_, s)| s.burning())
            .map(|(id, s)| format!("{id} at {}‰", s.burn_permille()))
            .collect();
        components.push(ComponentHealth {
            name: "slo",
            status: if burning.is_empty() { HealthStatus::Ready } else { HealthStatus::Degraded },
            detail: if burning.is_empty() {
                format!("{} patterns within budget", self.slos.len())
            } else {
                format!("burning error budget: {}", burning.join(", "))
            },
        });

        components.push(match &self.audit_latch {
            Some((id, msg)) => ComponentHealth {
                name: "audit",
                status: HealthStatus::Unready,
                detail: format!("{id}: {msg}"),
            },
            None => ComponentHealth {
                name: "audit",
                status: HealthStatus::Ready,
                detail: format!(
                    "runs={} violations={}",
                    self.audit_runs.get(),
                    self.audit_violations.get()
                ),
            },
        });

        // Reach-mode census: informational — "engine" is a legitimate
        // budget decision and "readopt-pending" clears on the next calm
        // batch, but both belong on the operator's screen.
        let infos = self.registry.pattern_infos();
        let count = |mode: &str| infos.iter().filter(|i| i.reach_mode == mode).count();
        components.push(ComponentHealth {
            name: "reach",
            status: HealthStatus::Ready,
            detail: format!(
                "maintained={} engine={} readopt-pending={}",
                count("maintained"),
                count("engine"),
                count("readopt-pending")
            ),
        });

        HealthReport::aggregate(components)
    }

    /// One tick of the sampled production auditor: audits the next
    /// registered pattern round-robin (`gpm_audit_runs_total`), latching
    /// any violation into the health report (`gpm_audit_violations_total`,
    /// `/healthz` → unready) and clearing the latch when the same pattern
    /// later audits clean. Returns what was audited, `None` on an empty
    /// registry. Runs on the service loop between batches — sample it
    /// every N batches, not per batch (it re-derives full state).
    pub fn audit_sample(&mut self) -> Option<(PatternId, Result<(), String>)> {
        let ids = self.registry.pattern_ids();
        // A latched pattern that is no longer registered cannot re-audit
        // clean; its corrupt state died with the slot.
        if let Some((latched, _)) = &self.audit_latch {
            if !ids.contains(latched) {
                self.audit_latch = None;
            }
        }
        if ids.is_empty() {
            return None;
        }
        self.audit_cursor %= ids.len();
        let id = ids[self.audit_cursor];
        self.audit_cursor += 1;
        let result = self.registry.audit_pattern(id).expect("id from pattern_ids");
        self.audit_runs.inc();
        match &result {
            Ok(()) => {
                if self.audit_latch.as_ref().is_some_and(|(l, _)| *l == id) {
                    self.audit_latch = None;
                }
            }
            Err(msg) => {
                self.audit_violations.inc();
                self.audit_latch = Some((id, msg.clone()));
            }
        }
        Some((id, result))
    }

    /// The latched audit violation, if any (`/healthz` detail).
    pub fn audit_violation(&self) -> Option<(PatternId, String)> {
        self.audit_latch.clone()
    }

    /// Test harnesses inject production corruption through this: see
    /// [`PatternRegistry::corrupt_maintained_for_test`].
    #[doc(hidden)]
    pub fn corrupt_maintained_for_test(&mut self, pattern: PatternId) -> bool {
        self.registry.corrupt_maintained_for_test(pattern)
    }
}

impl Drop for AnswerService {
    /// Closes every subscription queue so blocked consumers observe the
    /// end of the stream (pending updates stay readable).
    fn drop(&mut self) {
        for sub in self.subs.values().flatten() {
            sub.shared.close();
        }
    }
}

impl From<GraphError> for ServingError {
    fn from(e: GraphError) -> Self {
        ServingError::Graph(e)
    }
}
