//! [`MetricsRegistry`]: named counters, gauges and fixed-bucket latency
//! histograms with a lock-free hot path.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved **once**
//! by name and stored by the instrumented layer; recording is then a
//! couple of relaxed atomic operations on the metric's one set of cells —
//! no lock, no allocation, no syscall. [`MetricsRegistry::snapshot`] reads
//! them for both the JSON form and the Prometheus-style text exposition
//! ([`MetricsRegistry::render`]).
//!
//! Two rules keep the semantics predictable across the stack:
//!
//! * **counters and gauges always count**, even on a disabled registry —
//!   they are the single source of truth behind the `*Stats` structs
//!   (`RegistryStats`, `ServiceStats`), which must keep working whether
//!   or not anyone looks at telemetry;
//! * **histograms honor the enabled flag** — latency measurement is the
//!   part that costs clock reads on hot paths, so
//!   [`MetricsRegistry::set_enabled`]`(false)` turns it (and, at the
//!   [`Telemetry`](crate::Telemetry) level, tracing) off wholesale.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Histogram bucket upper bounds: powers of two in nanoseconds, from
/// `2^10` ns (~1 µs) doubling up to `2^37` ns (~137 s), plus a +Inf
/// overflow bucket — 29 buckets total, fixed for every histogram so
/// snapshots from different processes line up.
pub const BUCKET_COUNT: usize = 29;
const FIRST_BUCKET_LOG2: u32 = 10;

/// The inclusive upper bound of bucket `i` in nanoseconds (`u64::MAX`
/// for the overflow bucket).
pub fn bucket_le_ns(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        1u64 << (FIRST_BUCKET_LOG2 + i as u32)
    }
}

/// The bucket a sample of `ns` nanoseconds lands in.
pub fn bucket_index(ns: u64) -> usize {
    if ns <= (1 << FIRST_BUCKET_LOG2) {
        return 0;
    }
    // ceil(log2(ns)) for ns ≥ 2: position of the highest set bit of ns-1,
    // plus one.
    let ceil_log2 = 64 - (ns - 1).leading_zeros();
    ((ceil_log2 - FIRST_BUCKET_LOG2) as usize).min(BUCKET_COUNT - 1)
}

/// A monotonically increasing counter. Cloning shares the underlying
/// cell.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter { inner: Arc::new(AtomicU64::new(0)) }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A last-write-wins signed gauge (queue depths, per-batch "last_*"
/// values, occupancy permilles).
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge { inner: Arc::new(AtomicI64::new(0)) }
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    /// Adds to the value (negative deltas allowed).
    pub fn add(&self, d: i64) {
        self.inner.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

// No separate sample counter: the total is the sum of the bucket
// counts, computed at snapshot time — one fewer RMW per record on the
// span-close hot path.
struct HistogramInner {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    enabled: Arc<AtomicBool>,
}

/// A fixed-bucket latency histogram (see [`bucket_le_ns`] for the
/// boundaries). Recording is lock-free; quantiles are estimated at
/// snapshot time as the bucket upper bound clamped to the exact observed
/// maximum. Disabled registries drop samples.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
                enabled,
            }),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let h = &self.inner;
        h.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        h.sum_ns.fetch_add(ns, Ordering::Relaxed);
        h.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples so far (the sum of all bucket counts).
    pub fn count(&self) -> u64 {
        self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Whether samples currently record (the registry's shared flag).
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The snapshot (bucket counts + count/sum/max).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.inner;
        let buckets: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum_ns: h.sum_ns.load(Ordering::Relaxed),
            max_ns: h.max_ns.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).finish_non_exhaustive()
    }
}

/// A point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (boundaries from [`bucket_le_ns`]).
    pub buckets: [u64; BUCKET_COUNT],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Exact maximum sample in nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile in nanoseconds: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q · count)`, clamped
    /// to the exact observed maximum (so an estimate never exceeds a
    /// sample that was actually seen). 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_le_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// p50 in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// p90 in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// p99 in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A metric's identity: base name plus optional `{key="value"}` labels.
/// [`MetricKey::full_name`] is the canonical string form used as the map
/// key, in JSON snapshots and (reshaped) in the text exposition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricKey {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    fn full_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }

    /// Label set with one extra pair appended — how histogram `_bucket`
    /// lines get their `le` label next to the metric's own labels. Label
    /// *values* are escaped per the Prometheus exposition format (`\\`,
    /// `\"`, `\n`); the internal [`Self::full_name`] identity stays raw.
    fn labels_with(&self, extra: Option<(&str, String)>) -> String {
        let mut parts: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{}\"", escape_label_value(&v)));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Prometheus exposition escaping for label values: backslash, double
/// quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus exposition escaping for `# HELP` text: backslash and
/// newline (quotes stay raw there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The registry of named metrics. One per [`Telemetry`](crate::Telemetry)
/// instance; every layer of the stack resolves its handles here so there
/// is exactly one source of truth per process for each counter.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, (MetricKey, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry; `enabled` gates histogram recording (counters
    /// and gauges always record — see the module docs).
    pub fn new(enabled: bool) -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether histogram recording (and, at the bundle level, tracing) is
    /// on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips histogram recording at runtime. Already-resolved handles
    /// observe the change (they share the flag).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, (MetricKey, Metric)>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, created on first use. Resolving the same
    /// name twice returns handles over the same cells; resolving a name
    /// already registered as a different metric type panics (a
    /// programming error, not an operational condition).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// As [`Self::counter`] with `{key="value"}` labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut m = self.lock();
        match m.entry(key.full_name()).or_insert_with(|| (key, Metric::Counter(Counter::new()))) {
            (_, Metric::Counter(c)) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// As [`Self::gauge`] with `{key="value"}` labels (per-pattern SLO
    /// burn rates, `gpm_build_info{version="…"}`).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut m = self.lock();
        match m.entry(key.full_name()).or_insert_with(|| (key, Metric::Gauge(Gauge::new()))) {
            (_, Metric::Gauge(g)) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// As [`Self::histogram`] with `{key="value"}` labels (the per-phase
    /// latency family `gpm_phase_seconds{phase="…"}`).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut m = self.lock();
        match m
            .entry(key.full_name())
            .or_insert_with(|| (key, Metric::Histogram(Histogram::new(self.enabled.clone()))))
        {
            (_, Metric::Histogram(h)) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A point-in-time view of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.lock();
        let mut snap = MetricsSnapshot::default();
        for (full, (key, metric)) in m.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((full.clone(), key.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((full.clone(), key.clone(), g.get())),
                Metric::Histogram(h) => {
                    snap.histograms.push((full.clone(), key.clone(), h.snapshot()))
                }
            }
        }
        snap
    }

    /// Prometheus-style text exposition of [`Self::snapshot`] — no
    /// network dependency, callers decide where the bytes go.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }

    /// JSON object of [`Self::snapshot`] (hand-rolled: this crate is
    /// std-only).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// The values of every metric at one instant.
#[derive(Default)]
pub struct MetricsSnapshot {
    /// `(full name, key, value)`, sorted by full name.
    counters: Vec<(String, MetricKey, u64)>,
    /// `(full name, key, value)`, sorted by full name.
    gauges: Vec<(String, MetricKey, i64)>,
    /// `(full name, key, histogram snapshot)`, sorted by full name.
    histograms: Vec<(String, MetricKey, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The histogram under `full_name` (label form included, e.g.
    /// `gpm_phase_seconds{phase="prepare"}`).
    pub fn histogram(&self, full_name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _, _)| n == full_name).map(|(_, _, h)| h)
    }

    /// The value of counter `full_name`.
    pub fn counter(&self, full_name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _, _)| n == full_name).map(|&(_, _, v)| v)
    }

    /// The value of gauge `full_name`.
    pub fn gauge(&self, full_name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _, _)| n == full_name).map(|&(_, _, v)| v)
    }

    /// Every counter as `(full name, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, _, v)| (n.as_str(), *v))
    }

    /// Every gauge as `(full name, value)`.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(n, _, v)| (n.as_str(), *v))
    }

    /// Every histogram as `(full name, snapshot)`.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(n, _, h)| (n.as_str(), h))
    }

    /// Prometheus text exposition (format 0.0.4): metrics grouped into
    /// families by base name, each family announced by one `# HELP` +
    /// `# TYPE` pair, label values escaped, histograms as cumulative
    /// `_bucket{le=…}` series (with `+Inf`) plus `_sum` / `_count`. A
    /// histogram's exact observed maximum — which the native format has
    /// no slot for — is exposed as a sibling gauge family
    /// `<base>_max_seconds`. Validated by
    /// [`exposition::parse`](crate::exposition::parse) in tests and the
    /// CI smoke scrape.
    pub fn render(&self) -> String {
        // Family body text keyed by base name; BTreeMap keeps families
        // contiguous even when an unlabeled sample of one family would
        // otherwise sort between another family's labeled samples.
        let mut fams: BTreeMap<String, (&'static str, String)> = BTreeMap::new();
        for (_, key, v) in &self.counters {
            let (_, body) =
                fams.entry(key.name.clone()).or_insert_with(|| ("counter", String::new()));
            body.push_str(&format!("{}{} {v}\n", key.name, key.labels_with(None)));
        }
        for (_, key, v) in &self.gauges {
            let (_, body) =
                fams.entry(key.name.clone()).or_insert_with(|| ("gauge", String::new()));
            body.push_str(&format!("{}{} {v}\n", key.name, key.labels_with(None)));
        }
        for (_, key, h) in &self.histograms {
            let base = &key.name;
            let (_, body) =
                fams.entry(base.clone()).or_insert_with(|| ("histogram", String::new()));
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cum += b;
                let le = if i + 1 == BUCKET_COUNT {
                    "+Inf".to_string()
                } else {
                    format_seconds(bucket_le_ns(i))
                };
                let labels = key.labels_with(Some(("le", le)));
                body.push_str(&format!("{base}_bucket{labels} {cum}\n"));
            }
            let labels = key.labels_with(None);
            body.push_str(&format!("{base}_sum{labels} {}\n", format_seconds(h.sum_ns)));
            body.push_str(&format!("{base}_count{labels} {}\n", h.count));
            let (_, max_body) = fams
                .entry(format!("{base}_max_seconds"))
                .or_insert_with(|| ("gauge", String::new()));
            max_body
                .push_str(&format!("{base}_max_seconds{labels} {}\n", format_seconds(h.max_ns)));
        }
        let mut out = String::new();
        for (base, (kind, body)) in &fams {
            out.push_str(&format!(
                "# HELP {base} {}\n# TYPE {base} {kind}\n",
                escape_help(crate::names::help(base))
            ));
            out.push_str(body);
        }
        out
    }

    /// The snapshot as one JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum_seconds,
    /// max_seconds,p50_seconds,p90_seconds,p99_seconds,buckets:[[le,n],…]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_pairs(&mut out, self.counters.iter().map(|(n, _, v)| (n.clone(), v.to_string())));
        out.push_str("},\"gauges\":{");
        push_pairs(&mut out, self.gauges.iter().map(|(n, _, v)| (n.clone(), v.to_string())));
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, _, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum_seconds\":{},\"max_seconds\":{},\
                 \"p50_seconds\":{},\"p90_seconds\":{},\"p99_seconds\":{},\"buckets\":[",
                json_string(name),
                h.count,
                format_seconds(h.sum_ns),
                format_seconds(h.max_ns),
                format_seconds(h.p50_ns()),
                format_seconds(h.p90_ns()),
                format_seconds(h.p99_ns()),
            ));
            let mut bfirst = true;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue; // sparse: most of the 29 buckets are empty
                }
                if !bfirst {
                    out.push(',');
                }
                bfirst = false;
                let le = if i + 1 == BUCKET_COUNT {
                    "\"+Inf\"".to_string()
                } else {
                    format_seconds(bucket_le_ns(i))
                };
                out.push_str(&format!("[{le},{b}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

fn push_pairs(out: &mut String, pairs: impl Iterator<Item = (String, String)>) {
    let mut first = true;
    for (k, v) in pairs {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_string(&k));
        out.push(':');
        out.push_str(&v);
    }
}

/// Nanoseconds rendered as decimal seconds without float formatting
/// surprises (exact: ns / 1e9 printed with 9 fractional digits, trailing
/// zeros trimmed).
pub(crate) fn format_seconds(ns: u64) -> String {
    let secs = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    if frac == 0 {
        return format!("{secs}");
    }
    let mut s = format!("{secs}.{frac:09}");
    while s.ends_with('0') {
        s.pop();
    }
    s
}

/// Minimal JSON string escaping (metric and span names are plain
/// identifiers, but details/events may carry arbitrary text).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // ≤ 1024 ns is bucket 0; each boundary is inclusive; one past a
        // boundary moves up a bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1024), 0);
        assert_eq!(bucket_index(1025), 1);
        assert_eq!(bucket_index(2048), 1);
        assert_eq!(bucket_index(2049), 2);
        for i in 0..BUCKET_COUNT - 1 {
            let le = bucket_le_ns(i);
            assert_eq!(bucket_index(le), i, "le of bucket {i} lands in it");
            assert_eq!(bucket_index(le + 1), (i + 1).min(BUCKET_COUNT - 1));
        }
        // Far past the last finite boundary: overflow bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_le_ns(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn percentiles_clamp_to_observed_max() {
        let r = MetricsRegistry::new(true);
        let h = r.histogram("t_seconds");
        // A single 5 µs sample: its bucket's upper bound is 8.192 µs, but
        // the estimate must not exceed the exact max.
        h.record_ns(5_000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_ns, 5_000);
        assert_eq!(s.p50_ns(), 5_000);
        assert_eq!(s.p99_ns(), 5_000);
        assert_eq!(s.mean_ns(), 5_000);
    }

    #[test]
    fn percentile_math_over_known_distribution() {
        let r = MetricsRegistry::new(true);
        let h = r.histogram("t_seconds");
        // 90 samples at ~2 µs (bucket le 2048), 10 at ~1 ms (bucket le
        // 2^20 ns = 1.048576 ms).
        for _ in 0..90 {
            h.record_ns(2_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns(), 2_048);
        assert_eq!(s.p90_ns(), 2_048); // rank 90 is still in the 2 µs bucket
                                       // Their bucket's upper bound is 2^20 ns = 1.048576 ms, but the
                                       // estimate clamps to the exact observed maximum.
        assert_eq!(s.quantile_ns(0.91), 1_000_000);
        assert_eq!(s.p99_ns(), 1_000_000);
        assert_eq!(s.max_ns, 1_000_000);
        // Empty histograms report zeros.
        let empty = r.histogram("t2_seconds").snapshot();
        assert_eq!(empty.p50_ns(), 0);
        assert_eq!(empty.mean_ns(), 0);
    }

    #[test]
    fn counters_count_even_when_disabled_histograms_do_not() {
        let r = MetricsRegistry::new(false);
        let c = r.counter("ops_total");
        let h = r.histogram("lat_seconds");
        c.add(3);
        h.record(Duration::from_micros(10));
        assert_eq!(c.get(), 3, "counters are the stats source of truth");
        assert_eq!(h.count(), 0, "disabled registries drop samples");
        r.set_enabled(true);
        h.record(Duration::from_micros(10));
        assert_eq!(h.count(), 1, "already-resolved handles observe enable");
    }

    #[test]
    fn same_name_resolves_same_cells_and_labels_are_distinct() {
        let r = MetricsRegistry::new(true);
        r.counter("a_total").inc();
        r.counter("a_total").inc();
        assert_eq!(r.counter("a_total").get(), 2);
        let l1 = r.counter_with("b_total", &[("phase", "prepare")]);
        let l2 = r.counter_with("b_total", &[("phase", "extract")]);
        l1.add(5);
        l2.add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("b_total{phase=\"prepare\"}"), Some(5));
        assert_eq!(snap.counter("b_total{phase=\"extract\"}"), Some(7));
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let r = MetricsRegistry::new(true);
        r.counter("gpm_ops_total").add(2);
        r.gauge("gpm_depth").set(-3);
        let h = r.histogram_with("gpm_phase_seconds", &[("phase", "prepare")]);
        h.record_ns(2_000);
        let text = r.render();
        assert!(text.contains("# TYPE gpm_ops_total counter\ngpm_ops_total 2\n"));
        assert!(text.contains("# TYPE gpm_depth gauge\ngpm_depth -3\n"));
        assert!(text.contains("# TYPE gpm_phase_seconds histogram"));
        assert!(text.contains("gpm_phase_seconds_bucket{phase=\"prepare\",le=\"0.000002048\"} 1"));
        assert!(text.contains("gpm_phase_seconds_bucket{phase=\"prepare\",le=\"+Inf\"} 1"));
        assert!(text.contains("gpm_phase_seconds_count{phase=\"prepare\"} 1"));
        // Cumulative: every later bucket also reports 1.
        assert!(text.contains("gpm_phase_seconds_sum{phase=\"prepare\"} 0.000002"));
        // JSON form carries the same numbers.
        let json = r.to_json();
        assert!(json.contains("\"gpm_ops_total\":2"));
        assert!(json.contains("\"gpm_phase_seconds{phase=\\\"prepare\\\"}\""));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn render_groups_families_and_declares_them_once() {
        let r = MetricsRegistry::new(true);
        r.counter_with("gpm_events_total", &[("event", "a")]).inc();
        r.counter_with("gpm_events_total", &[("event", "b")]).add(2);
        // A name that would sort *between* the family's unlabeled and
        // labeled spellings if render walked raw full names.
        r.counter("gpm_events_total").inc();
        r.counter("gpm_events_totalx_total").inc();
        let text = r.render();
        assert_eq!(text.matches("# TYPE gpm_events_total counter").count(), 1);
        assert_eq!(text.matches("# HELP gpm_events_total ").count(), 1);
        let fam_start = text.find("# TYPE gpm_events_total counter").unwrap();
        let fam = &text[fam_start..];
        let fam_end = fam[1..].find('#').map(|i| i + 1).unwrap_or(fam.len());
        let fam = &fam[..fam_end];
        for line in [
            "gpm_events_total 1\n",
            "gpm_events_total{event=\"a\"} 1\n",
            "gpm_events_total{event=\"b\"} 2\n",
        ] {
            assert!(fam.contains(line), "{line:?} inside the contiguous family block");
        }
        // Every TYPE is preceded by a HELP for the same family.
        for (i, line) in text.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let base = rest.split(' ').next().unwrap();
                let prev = text.lines().nth(i - 1).unwrap();
                assert!(
                    prev.starts_with(&format!("# HELP {base} ")),
                    "HELP precedes TYPE for {base}"
                );
            }
        }
    }

    #[test]
    fn render_escapes_label_values() {
        let r = MetricsRegistry::new(true);
        r.counter_with("gpm_events_total", &[("event", "say \"hi\"\\now\n!")]).inc();
        let text = r.render();
        assert!(
            text.contains("gpm_events_total{event=\"say \\\"hi\\\"\\\\now\\n!\"} 1\n"),
            "escaped label value in: {text}"
        );
    }

    #[test]
    fn histogram_max_is_its_own_gauge_family() {
        let r = MetricsRegistry::new(true);
        r.histogram_with("gpm_phase_seconds", &[("phase", "plan")]).record_ns(2_000);
        let text = r.render();
        assert!(text.contains("# TYPE gpm_phase_seconds histogram"));
        assert!(text.contains("# TYPE gpm_phase_seconds_max_seconds gauge"));
        assert!(text.contains("gpm_phase_seconds_max_seconds{phase=\"plan\"} 0.000002\n"));
    }

    #[test]
    fn format_seconds_is_exact() {
        assert_eq!(format_seconds(0), "0");
        assert_eq!(format_seconds(1_000_000_000), "1");
        assert_eq!(format_seconds(1_500_000_000), "1.5");
        assert_eq!(format_seconds(2_048), "0.000002048");
        assert_eq!(format_seconds(1), "0.000000001");
    }
}
