//! [`FlightRecorder`]: a bounded ring of recent batch traces plus a
//! separate capture list for batches that crossed a latency threshold.
//!
//! The ring answers "what has the service been doing lately"; the slow
//! list answers "why was batch 4817 slow" hours later, after the ring
//! has long evicted it. Both are bounded, and the single slowest batch
//! ever seen is always retained, so a post-hoc dump has the worst case
//! in hand no matter how the thresholds were tuned.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::trace::BatchTrace;

/// Bounds and thresholds for a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Whether traces are collected at all. With the recorder off (and
    /// telemetry otherwise enabled) spans fold their durations straight
    /// into the phase histograms at close — no record collection, no
    /// per-batch trace, no retention — which is the cheapest way to keep
    /// latency histograms on a microbatch hot path.
    pub enabled: bool,
    /// How many recent batch traces the ring retains.
    pub ring_capacity: usize,
    /// How many over-threshold traces are retained (oldest evicted).
    pub slow_capacity: usize,
    /// Batches at or above this duration are captured in the slow list.
    pub slow_threshold: Duration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            enabled: true,
            ring_capacity: 32,
            slow_capacity: 16,
            slow_threshold: Duration::from_millis(50),
        }
    }
}

impl RecorderConfig {
    /// Recorder off: histograms and counters keep recording, traces are
    /// never built or retained.
    pub fn disabled() -> Self {
        RecorderConfig { enabled: false, ..RecorderConfig::default() }
    }
}

#[derive(Debug, Default)]
struct RecorderState {
    ring: VecDeque<Arc<BatchTrace>>,
    slow: VecDeque<Arc<BatchTrace>>,
    slowest: Option<Arc<BatchTrace>>,
}

/// See the module docs. Recording happens once per batch (not on the
/// span hot path), so a plain mutex is fine here.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// An empty recorder with the given bounds.
    pub fn new(cfg: RecorderConfig) -> Self {
        FlightRecorder { cfg, state: Mutex::new(RecorderState::default()) }
    }

    /// The configured bounds.
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    /// Whether this recorder retains traces (see [`RecorderConfig::enabled`]).
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores one finished trace, returning the shared handle it is
    /// retained under.
    pub fn record(&self, trace: BatchTrace) -> Arc<BatchTrace> {
        let trace = Arc::new(trace);
        if !self.cfg.enabled {
            return trace;
        }
        let mut s = self.lock();
        if self.cfg.ring_capacity > 0 {
            if s.ring.len() == self.cfg.ring_capacity {
                s.ring.pop_front();
            }
            s.ring.push_back(trace.clone());
        }
        let threshold = self.cfg.slow_threshold.as_nanos().min(u64::MAX as u128) as u64;
        if self.cfg.slow_capacity > 0 && trace.total_ns >= threshold {
            if s.slow.len() == self.cfg.slow_capacity {
                s.slow.pop_front();
            }
            s.slow.push_back(trace.clone());
        }
        if s.slowest.as_ref().is_none_or(|t| trace.total_ns > t.total_ns) {
            s.slowest = Some(trace.clone());
        }
        trace
    }

    /// Stores a trace in the slow list / slowest slot only, skipping the
    /// ring — for the root-only skeleton traces synthesized from
    /// sampled-out batches that crossed the slow threshold. The ring
    /// stays a ring of *full* span trees; slow capture still never
    /// misses a batch, sampled or not.
    pub fn record_slow(&self, trace: BatchTrace) -> Arc<BatchTrace> {
        let trace = Arc::new(trace);
        if !self.cfg.enabled {
            return trace;
        }
        let mut s = self.lock();
        if self.cfg.slow_capacity > 0 {
            if s.slow.len() == self.cfg.slow_capacity {
                s.slow.pop_front();
            }
            s.slow.push_back(trace.clone());
        }
        if s.slowest.as_ref().is_none_or(|t| trace.total_ns > t.total_ns) {
            s.slowest = Some(trace.clone());
        }
        trace
    }

    /// The retained recent traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<BatchTrace>> {
        self.lock().ring.iter().cloned().collect()
    }

    /// The retained over-threshold traces, oldest first.
    pub fn slow(&self) -> Vec<Arc<BatchTrace>> {
        self.lock().slow.iter().cloned().collect()
    }

    /// The single slowest batch ever recorded.
    pub fn slowest(&self) -> Option<Arc<BatchTrace>> {
        self.lock().slowest.clone()
    }

    /// Everything the recorder holds as one JSON object:
    /// `{"recent":[…],"slow":[…],"slowest":…}`.
    pub fn to_json(&self) -> String {
        let (recent, slow, slowest) = {
            let s = self.lock();
            (
                s.ring.iter().cloned().collect::<Vec<_>>(),
                s.slow.iter().cloned().collect::<Vec<_>>(),
                s.slowest.clone(),
            )
        };
        let mut out = String::from("{\"recent\":[");
        for (i, t) in recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"slow\":[");
        for (i, t) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"slowest\":");
        match slowest {
            Some(t) => out.push_str(&t.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRecord;

    fn trace(seq: u64, total_ns: u64) -> BatchTrace {
        BatchTrace {
            seq,
            total_ns,
            spans: vec![SpanRecord {
                parent: None,
                name: "ingest",
                start_ns: 0,
                duration_ns: total_ns,
                events: Vec::new(),
                detail: String::new(),
            }],
        }
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let r = FlightRecorder::new(RecorderConfig {
            enabled: true,
            ring_capacity: 3,
            slow_capacity: 2,
            slow_threshold: Duration::from_secs(1),
        });
        for seq in 0..5 {
            r.record(trace(seq, 10));
        }
        let recent: Vec<u64> = r.recent().iter().map(|t| t.seq).collect();
        assert_eq!(recent, vec![2, 3, 4], "oldest two evicted");
        assert!(r.slow().is_empty(), "nothing crossed the threshold");
    }

    #[test]
    fn threshold_capture_outlives_ring_eviction() {
        let r = FlightRecorder::new(RecorderConfig {
            enabled: true,
            ring_capacity: 2,
            slow_capacity: 2,
            slow_threshold: Duration::from_micros(1),
        });
        r.record(trace(1, 5_000)); // 5 µs: slow
        for seq in 2..6 {
            r.record(trace(seq, 10)); // fast; pushes 1 out of the ring
        }
        assert!(r.recent().iter().all(|t| t.seq != 1), "evicted from ring");
        let slow: Vec<u64> = r.slow().iter().map(|t| t.seq).collect();
        assert_eq!(slow, vec![1], "still captured as slow");
        // The slow list is itself bounded.
        r.record(trace(7, 6_000));
        r.record(trace(8, 7_000));
        let slow: Vec<u64> = r.slow().iter().map(|t| t.seq).collect();
        assert_eq!(slow, vec![7, 8], "oldest slow trace evicted at capacity");
    }

    #[test]
    fn slowest_is_retained_forever() {
        let r = FlightRecorder::new(RecorderConfig {
            enabled: true,
            ring_capacity: 1,
            slow_capacity: 1,
            slow_threshold: Duration::from_secs(10),
        });
        r.record(trace(1, 9_000));
        for seq in 2..10 {
            r.record(trace(seq, 100));
        }
        assert_eq!(r.slowest().expect("recorded").seq, 1);
        r.record(trace(42, 10_000));
        assert_eq!(r.slowest().expect("recorded").seq, 42, "new maximum replaces it");
        let json = r.to_json();
        assert!(json.contains("\"slowest\":{\"seq\":42"));
    }
}
