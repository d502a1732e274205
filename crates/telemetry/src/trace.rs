//! Structured phase tracing: [`Span`]s collected into a per-batch
//! [`BatchTrace`] tree.
//!
//! A span is cheap to create and `Sync`, so a parent span can be shared
//! by reference into pool-worker closures and each worker opens its own
//! children — the finished trace then shows *which* thread ran each
//! phase (`thread`, the dense ordinal from
//! [`thread_ordinal`](crate::thread_ordinal)). Timestamps are monotonic
//! nanoseconds relative to the batch root, so a trace is self-contained
//! and diffable.
//!
//! When tracing is disabled the whole API degrades to no-ops that never
//! read the clock: [`Span::disabled`] (and children of a disabled span)
//! carry no allocation and no clock read, which is what keeps the
//! disabled-telemetry overhead near zero. Enabled spans read the fast
//! tick clock ([`crate::clock`]) exactly twice, at open and at close.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock;
use crate::metrics::{format_seconds, json_string, thread_ordinal};

/// One finished (or still-open) node of a trace tree, in the flat
/// parent-indexed form the collector stores.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Index of the parent span in the trace's `spans` vec; `None` for
    /// the root.
    pub parent: Option<u32>,
    /// Phase name (`"ingest"`, `"prepare"`, `"extract"`, …).
    pub name: &'static str,
    /// Start offset from the trace root start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 until the span closes).
    pub duration_ns: u64,
    /// Dense ordinal of the thread that *opened* the span.
    pub thread: u32,
    /// Point events recorded on this span (`(offset ns, text)`), e.g.
    /// budget-fallback decisions.
    pub events: Vec<(u64, String)>,
    /// Free-form detail attached at close (`pattern=3 outputs=120`).
    pub detail: String,
}

/// Preallocated record slots per batch — sized past the deepest traces
/// the stack produces (a registry batch over a dozen touched patterns
/// opens a few dozen spans); later spans spill to the overflow mutex.
const RECORD_SLOTS: usize = 64;

/// One preallocated record cell. Exactly one span ever writes it (the
/// span that claimed its index from the collector's counter), exactly
/// once (guarded by `SpanInner::finished`), publishing with a `Release`
/// store of `ready`; readers check `ready` with `Acquire` before
/// touching `rec`. That single-writer discipline is what `Sync` asserts.
#[derive(Default)]
struct Slot {
    ready: AtomicBool,
    rec: UnsafeCell<Option<SpanRecord>>,
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `rec` is only readable through the `ready` protocol; the flag
        // alone is the debuggable surface.
        f.debug_struct("Slot").field("ready", &self.ready).finish_non_exhaustive()
    }
}

// SAFETY: see the `Slot` docs — per-slot single writer, single write,
// Release/Acquire publication through `ready`.
unsafe impl Sync for Slot {}

/// Shared collector for one trace-collecting batch. Opening a span only
/// claims an index from `next` (no lock); the span's finished record
/// lands in its own preallocated slot at close — only spans past
/// [`RECORD_SLOTS`] touch the overflow mutex, so a whole batch of
/// closes coalesces into the single lock acquisition
/// [`Span::into_trace`] makes to drain the overflow.
#[derive(Debug)]
struct Collector {
    epoch_ticks: u64,
    slots: Box<[Slot]>,
    overflow: Mutex<Vec<(u32, SpanRecord)>>,
    next: AtomicU32,
}

impl Collector {
    fn now_ns(&self) -> u64 {
        clock::ticks_to_ns(clock::now_ticks().saturating_sub(self.epoch_ticks))
    }
}

/// Rarely-used span attachments, kept out of the hot open/close path:
/// the per-span mutex is only locked when `event`/`detail` were actually
/// called (tracked by `SpanInner::has_extra`).
#[derive(Debug, Default)]
struct Extra {
    detail: String,
    events: Vec<(u64, String)>,
}

/// An enabled span: claims a record index at open and files a full
/// [`SpanRecord`] into its collector slot at close.
#[derive(Debug)]
struct SpanInner {
    collector: Arc<Collector>,
    index: u32,
    parent: Option<u32>,
    name: &'static str,
    thread: u32,
    start_ticks: u64,
    start_ns: u64,
    /// Set once on close; guards against double-finish from Drop.
    finished: AtomicU64,
    has_extra: AtomicU32,
    extra: Mutex<Extra>,
}

/// A handle on one open phase of a batch. Create children with
/// [`Span::child`], attach point events with [`Span::event`], and close
/// with [`Span::finish`] (or implicitly on drop). Disabled spans
/// ([`Span::disabled`]) are free: no allocation, no clock reads. The
/// inner state lives inline (no per-span `Arc`): a span is shared by
/// `&Span` into worker closures, never cloned, and an enabled span
/// allocates nothing of its own — its record moves into the collector
/// table when it closes.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
    /// Set on sampled-out batch roots: no collector, no children, just
    /// the two clock reads needed to keep the root latency histogram
    /// honest (see [`Span::timed_root`]).
    timed: Option<TimedRoot>,
}

/// The timing-only root of a sampled-out batch: name + start tick.
#[derive(Debug)]
struct TimedRoot {
    name: &'static str,
    start_ticks: u64,
}

impl Span {
    /// The no-op span: children are no-ops, events vanish, finish is
    /// free. Instrumented code paths take `&Span` unconditionally and
    /// callers pass this when tracing is off.
    pub fn disabled() -> Span {
        Span { inner: None, timed: None }
    }

    /// A timing-only root for a sampled-out batch: children and events
    /// are no-ops (so the whole span tree under it costs nothing), but
    /// the root duration is still measured — folded into the phase
    /// histogram at [`finish_batch`], and grounds for a skeleton
    /// slow-batch capture when it crosses the recorder threshold.
    ///
    /// [`finish_batch`]: crate::Telemetry::finish_batch
    pub(crate) fn timed_root(name: &'static str) -> Span {
        Span { inner: None, timed: Some(TimedRoot { name, start_ticks: clock::now_ticks() }) }
    }

    /// For a timing-only root: its name and elapsed nanoseconds (read
    /// now). `None` for every other span kind.
    pub(crate) fn timed_elapsed(&self) -> Option<(&'static str, u64)> {
        let t = self.timed.as_ref()?;
        Some((t.name, clock::ticks_to_ns(clock::now_ticks().saturating_sub(t.start_ticks))))
    }

    /// `true` when this span records (the gate hot paths use to skip
    /// building detail strings).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a fresh trace-collecting root span — one per batch.
    pub(crate) fn root(name: &'static str) -> Span {
        let epoch_ticks = clock::now_ticks();
        let collector = Arc::new(Collector {
            epoch_ticks,
            slots: (0..RECORD_SLOTS).map(|_| Slot::default()).collect(),
            overflow: Mutex::new(Vec::new()),
            next: AtomicU32::new(1),
        });
        Span {
            inner: Some(SpanInner {
                collector,
                index: 0,
                parent: None,
                name,
                thread: thread_ordinal(),
                start_ticks: epoch_ticks,
                start_ns: 0,
                finished: AtomicU64::new(0),
                has_extra: AtomicU32::new(0),
                extra: Mutex::new(Extra::default()),
            }),
            timed: None,
        }
    }

    /// Opens a child phase. May be called from any thread holding a
    /// reference to `self`; the child records the opening thread's
    /// ordinal, which is how WorkerPool attribution becomes visible.
    /// Opening takes no lock — the span claims an index and defers its
    /// record to close.
    pub fn child(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span::disabled();
        };
        let collector = inner.collector.clone();
        let index = collector.next.fetch_add(1, Ordering::Relaxed);
        // One clock read: the span's offset in the trace is derived from
        // the shared epoch (the subtraction saturates to zero, so a
        // child can never start "before" its root).
        let start_ticks = clock::now_ticks();
        let start_ns = clock::ticks_to_ns(start_ticks.saturating_sub(collector.epoch_ticks));
        Span {
            inner: Some(SpanInner {
                collector,
                index,
                parent: Some(inner.index),
                name,
                thread: thread_ordinal(),
                start_ticks,
                start_ns,
                finished: AtomicU64::new(0),
                has_extra: AtomicU32::new(0),
                extra: Mutex::new(Extra::default()),
            }),
            timed: None,
        }
    }

    /// Records a point event (`"budget-bail"`, `"bfs-fallback"`, …) at
    /// the current offset.
    pub fn event(&self, text: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let at = inner.collector.now_ns();
        let mut extra = inner.extra.lock().unwrap_or_else(|e| e.into_inner());
        extra.events.push((at, text.into()));
        inner.has_extra.store(1, Ordering::Relaxed);
    }

    /// Attaches free-form detail shown in the dumped trace (overwrites
    /// earlier detail). Gate expensive string building with
    /// [`Span::is_enabled`].
    pub fn detail(&self, text: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let mut extra = inner.extra.lock().unwrap_or_else(|e| e.into_inner());
        extra.detail = text.into();
        inner.has_extra.store(1, Ordering::Relaxed);
    }

    /// Closes the span, recording its duration. Dropping an unfinished
    /// span closes it too; calling `finish` first just makes the close
    /// point explicit.
    pub fn finish(self) {
        // Drop runs the close.
    }

    fn close(&self) {
        let Some(inner) = &self.inner else { return };
        if inner.finished.swap(1, Ordering::Relaxed) != 0 {
            return;
        }
        let d = clock::ticks_to_ns(clock::now_ticks().saturating_sub(inner.start_ticks));
        let Extra { detail, events } = if inner.has_extra.load(Ordering::Relaxed) != 0 {
            std::mem::take(&mut *inner.extra.lock().unwrap_or_else(|e| e.into_inner()))
        } else {
            Extra::default()
        };
        let rec = SpanRecord {
            parent: inner.parent,
            name: inner.name,
            start_ns: inner.start_ns,
            duration_ns: d,
            thread: inner.thread,
            events,
            detail,
        };
        match inner.collector.slots.get(inner.index as usize) {
            Some(slot) => {
                // SAFETY: this span is the sole claimant of its index and
                // `finished` made this the one write; readers wait for
                // the `ready` publication.
                unsafe { *slot.rec.get() = Some(rec) };
                slot.ready.store(true, Ordering::Release);
            }
            None => {
                let mut ov = inner.collector.overflow.lock().unwrap_or_else(|e| e.into_inner());
                ov.push((inner.index, rec));
            }
        }
    }

    /// Consumes a **root** span and returns the finished trace. Returns
    /// `None` for disabled spans.
    pub(crate) fn into_trace(self, seq: u64) -> Option<BatchTrace> {
        self.close();
        let t = self.inner.as_ref()?;
        debug_assert_eq!(t.index, 0, "into_trace is for root spans");
        let (slots, overflow) = (&t.collector.slots, &t.collector.overflow);
        // Re-assemble in creation (index) order. A child still open when
        // the root finished has no record yet — it gets an `(open)`
        // placeholder, and its eventual close lands in a slot (or the
        // drained overflow) nobody reads again, harmlessly discarded
        // with the collector.
        let n = t.collector.next.load(Ordering::Relaxed) as usize;
        let mut spans: Vec<SpanRecord> = (0..n)
            .map(|_| SpanRecord {
                parent: None,
                name: "(open)",
                start_ns: 0,
                duration_ns: 0,
                thread: 0,
                events: Vec::new(),
                detail: String::new(),
            })
            .collect();
        for (i, slot) in slots.iter().enumerate().take(n) {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: `ready` pairs with the closing span's Release
                // store, and a published slot is never written again.
                if let Some(rec) = unsafe { (*slot.rec.get()).take() } {
                    spans[i] = rec;
                }
            }
        }
        let overflowed = {
            let mut ov = overflow.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *ov)
        };
        for (i, rec) in overflowed {
            // A straggler-opened span may postdate the `next` load above;
            // its record has no placeholder and is dropped like any
            // other post-finish close.
            if let Some(s) = spans.get_mut(i as usize) {
                *s = rec;
            }
        }
        Some(BatchTrace { seq, total_ns: spans[0].duration_ns, spans })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// The finished trace of one batch: a flat, parent-indexed span table
/// (index 0 is the root) ordered by creation.
#[derive(Debug, Clone)]
pub struct BatchTrace {
    /// The batch's log sequence number.
    pub seq: u64,
    /// Root duration in nanoseconds.
    pub total_ns: u64,
    /// All spans; `spans[0]` is the root.
    pub spans: Vec<SpanRecord>,
}

impl BatchTrace {
    /// All spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The trace as an indented text tree (for terminals and examples).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(0, 0, &mut out);
        out
    }

    fn render_node(&self, index: usize, depth: usize, out: &mut String) {
        let s = &self.spans[index];
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} [t{}] +{}s {}s",
            s.name,
            s.thread,
            format_seconds(s.start_ns),
            format_seconds(s.duration_ns),
        ));
        if !s.detail.is_empty() {
            out.push_str(&format!(" ({})", s.detail));
        }
        out.push('\n');
        for (at, ev) in &s.events {
            out.push_str(&format!("{indent}  ! +{}s {ev}\n", format_seconds(*at)));
        }
        for (i, child) in self.spans.iter().enumerate() {
            if child.parent == Some(index as u32) {
                self.render_node(i, depth + 1, out);
            }
        }
    }

    /// The trace as one JSON object (hand-rolled; the crate is
    /// std-only): `{"seq":…,"total_seconds":…,"spans":[{…}]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"total_seconds\":{},\"spans\":[",
            self.seq,
            format_seconds(self.total_ns)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"parent\":{},\"thread\":{},\"start_seconds\":{},\
                 \"duration_seconds\":{}",
                json_string(s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.thread,
                format_seconds(s.start_ns),
                format_seconds(s.duration_ns),
            ));
            if !s.detail.is_empty() {
                out.push_str(&format!(",\"detail\":{}", json_string(&s.detail)));
            }
            if !s.events.is_empty() {
                out.push_str(",\"events\":[");
                for (j, (at, ev)) in s.events.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", format_seconds(*at), json_string(ev)));
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nests_and_records_durations() {
        let root = Span::root("batch");
        {
            let a = root.child("apply");
            let _a1 = a.child("prepare");
            std::thread::sleep(std::time::Duration::from_millis(2));
            a.event("budget-bail");
            a.detail("pattern=0");
        }
        root.child("notify").finish();
        let trace = root.into_trace(7).expect("enabled root");
        assert_eq!(trace.seq, 7);
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[0].name, "batch");
        assert_eq!(trace.spans[0].parent, None);
        let apply = trace.spans_named("apply").next().expect("apply span");
        assert_eq!(apply.parent, Some(0));
        assert!(apply.duration_ns >= 2_000_000, "sleep is visible");
        assert_eq!(apply.events.len(), 1);
        assert_eq!(apply.events[0].1, "budget-bail");
        assert_eq!(apply.detail, "pattern=0");
        let prep = trace.spans_named("prepare").next().expect("prepare span");
        assert_eq!(
            trace.spans.iter().position(|s| std::ptr::eq(s, apply)),
            prep.parent.map(|p| p as usize),
            "prepare nests under apply"
        );
        assert!(trace.total_ns >= apply.duration_ns);
        // Render and JSON both mention every phase.
        let text = trace.render();
        for n in ["batch", "apply", "prepare", "notify", "budget-bail"] {
            assert!(text.contains(n), "{n} in render");
        }
        let json = trace.to_json();
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"name\":\"prepare\""));
        assert!(json.contains("budget-bail"));
    }

    #[test]
    fn spans_opened_on_other_threads_record_their_ordinals() {
        let root = Span::root("batch");
        let here = thread_ordinal();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let root = &root;
                s.spawn(move || {
                    let c = root.child("extract");
                    c.detail("chunk");
                });
            }
        });
        let trace = root.into_trace(0).expect("enabled root");
        let threads: Vec<u32> = trace.spans_named("extract").map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2);
        assert!(threads.iter().all(|&t| t != here), "workers, not the opener");
        assert_ne!(threads[0], threads[1], "one ordinal per thread");
    }

    #[test]
    fn child_still_open_at_root_finish_becomes_a_placeholder() {
        let root = Span::root("batch");
        let straggler = root.child("extract");
        let trace = root.into_trace(9).expect("enabled root");
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].name, "(open)");
        // The straggler's eventual close lands in the drained collector
        // and must not panic or corrupt the finished trace.
        straggler.finish();
        assert_eq!(trace.spans[1].name, "(open)");
    }

    #[test]
    fn spans_past_slot_capacity_spill_to_overflow_and_still_trace() {
        let root = Span::root("batch");
        std::thread::scope(|s| {
            for _ in 0..2 {
                let root = &root;
                s.spawn(move || {
                    for _ in 0..RECORD_SLOTS {
                        root.child("extract").finish();
                    }
                });
            }
        });
        let trace = root.into_trace(5).expect("enabled root");
        assert_eq!(trace.spans.len(), 2 * RECORD_SLOTS + 1);
        assert_eq!(trace.spans_named("extract").count(), 2 * RECORD_SLOTS);
        assert!(trace.spans.iter().skip(1).all(|s| s.parent == Some(0)));
        assert!(trace.spans_named("(open)").next().is_none(), "every close was kept");
    }

    #[test]
    fn timed_root_measures_without_collecting() {
        let root = Span::timed_root("ingest");
        assert!(!root.is_enabled(), "children and events are no-ops");
        let c = root.child("refresh");
        assert!(!c.is_enabled());
        c.event("dropped");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (name, ns) = root.timed_elapsed().expect("timed root");
        assert_eq!(name, "ingest");
        assert!(ns >= 1_000_000, "the sleep is visible: {ns}ns");
        assert!(root.into_trace(1).is_none(), "no span tree to assemble");
    }

    #[test]
    fn disabled_spans_are_free_and_produce_no_trace() {
        let s = Span::disabled();
        assert!(!s.is_enabled());
        let c = s.child("anything");
        assert!(!c.is_enabled());
        c.event("dropped");
        c.finish();
        assert!(s.into_trace(1).is_none());
    }
}
