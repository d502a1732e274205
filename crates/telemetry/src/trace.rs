//! Structured phase tracing: [`Span`]s collected into a per-batch
//! [`BatchTrace`] tree.
//!
//! A batch is traced on the one thread that runs it: a span shares its
//! batch's record table through an `Rc`, so [`Span`] is neither `Send`
//! nor `Sync` and the compiler keeps every span of a batch on the thread
//! that opened its root. Timestamps are monotonic nanoseconds relative to
//! the batch root, so a trace is self-contained and diffable.
//!
//! When tracing is disabled the whole API degrades to no-ops that never
//! read the clock: [`Span::disabled`] (and children of a disabled span)
//! carry no allocation and no clock read, which is what keeps the
//! disabled-telemetry overhead near zero. Enabled spans read the fast
//! tick clock ([`crate::clock`]) exactly twice, at open and at close.

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock;
use crate::metrics::{format_seconds, json_string};

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
    /// Point events recorded on this span (`(offset ns, text)`), e.g.
    /// budget-fallback decisions.
    pub events: Vec<(u64, String)>,
    /// Free-form detail attached at close (`pattern=3 outputs=120`).
    pub detail: String,
}

/// Record slots preallocated per batch — sized past the deepest traces
/// the stack produces (a registry batch over a dozen touched patterns
/// opens a few dozen spans); a batch that opens more grows the table.
const RECORD_SLOTS: usize = 64;

/// The record table of one trace-collecting batch: opening a span
/// reserves the next slot, closing it fills the slot in.
#[derive(Debug)]
struct Collector {
    epoch_ticks: u64,
    /// By span index; `None` while the span is open.
    records: RefCell<Vec<Option<SpanRecord>>>,
}

impl Collector {
    fn now_ns(&self) -> u64 {
        clock::ticks_to_ns(clock::now_ticks().saturating_sub(self.epoch_ticks))
    }
}

/// Attachments made through `&Span` before it closes.
#[derive(Debug, Default)]
struct Extra {
    detail: String,
    events: Vec<(u64, String)>,
}

/// An enabled span: reserves a record slot at open and files a full
/// [`SpanRecord`] into it at close.
#[derive(Debug)]
struct SpanInner {
    collector: Rc<Collector>,
    index: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ticks: u64,
    start_ns: u64,
    extra: RefCell<Extra>,
}

impl SpanInner {
    /// Reserves the next record slot for a span that started at
    /// `start_ticks`. Its offset in the trace is derived from the shared
    /// epoch (the subtraction saturates to zero, so a child can never
    /// start "before" its root).
    fn open(
        collector: Rc<Collector>,
        parent: Option<u32>,
        name: &'static str,
        start_ticks: u64,
    ) -> SpanInner {
        let index = {
            let mut records = collector.records.borrow_mut();
            records.push(None);
            (records.len() - 1) as u32
        };
        let start_ns = clock::ticks_to_ns(start_ticks.saturating_sub(collector.epoch_ticks));
        SpanInner {
            collector,
            index,
            parent,
            name,
            start_ticks,
            start_ns,
            extra: RefCell::new(Extra::default()),
        }
    }

    fn close(self) {
        let d = clock::ticks_to_ns(clock::now_ticks().saturating_sub(self.start_ticks));
        let Extra { detail, events } = self.extra.into_inner();
        let rec = SpanRecord {
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            duration_ns: d,
            events,
            detail,
        };
        // A span closed after its root was assembled finds the table
        // drained and is discarded.
        if let Some(slot) = self.collector.records.borrow_mut().get_mut(self.index as usize) {
            *slot = Some(rec);
        }
    }
}

/// A handle on one open phase of a batch. Create children with
/// [`Span::child`], attach point events with [`Span::event`], and close
/// with [`Span::finish`] (or implicitly on drop). Disabled spans
/// ([`Span::disabled`]) are free: no allocation, no clock reads. An
/// enabled child allocates nothing of its own either — its record moves
/// into the batch's preallocated table when it closes.
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
        let collector = Rc::new(Collector {
            epoch_ticks,
            records: RefCell::new(Vec::with_capacity(RECORD_SLOTS)),
        });
        Span { inner: Some(SpanInner::open(collector, None, name, epoch_ticks)), timed: None }
    }

    /// Opens a child phase.
    pub fn child(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span::disabled();
        };
        let collector = Rc::clone(&inner.collector);
        // One clock read: the span's start.
        let start_ticks = clock::now_ticks();
        Span {
            inner: Some(SpanInner::open(collector, Some(inner.index), name, start_ticks)),
            timed: None,
        }
    }

    /// Records a point event (`"budget-bail"`, `"bfs-fallback"`, …) at
    /// the current offset.
    pub fn event(&self, text: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let at = inner.collector.now_ns();
        inner.extra.borrow_mut().events.push((at, text.into()));
    }

    /// Attaches free-form detail shown in the dumped trace (overwrites
    /// earlier detail). Gate expensive string building with
    /// [`Span::is_enabled`].
    pub fn detail(&self, text: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        inner.extra.borrow_mut().detail = text.into();
    }

    /// Closes the span, recording its duration. Dropping an unfinished
    /// span closes it too; calling `finish` first just makes the close
    /// point explicit.
    pub fn finish(self) {
        // Drop runs the close.
    }

    /// Consumes a **root** span and returns the finished trace. Returns
    /// `None` for disabled spans.
    pub(crate) fn into_trace(mut self, seq: u64) -> Option<BatchTrace> {
        let inner = self.inner.take()?;
        debug_assert_eq!(inner.index, 0, "into_trace is for root spans");
        let collector = Rc::clone(&inner.collector);
        inner.close();
        // In creation (index) order. A child still open when the root
        // finished has no record yet — it gets an `(open)` placeholder.
        let records = std::mem::take(&mut *collector.records.borrow_mut());
        let spans: Vec<SpanRecord> = records
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| SpanRecord {
                    parent: None,
                    name: "(open)",
                    start_ns: 0,
                    duration_ns: 0,
                    events: Vec::new(),
                    detail: String::new(),
                })
            })
            .collect();
        Some(BatchTrace { seq, total_ns: spans[0].duration_ns, spans })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.close();
        }
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
            "{indent}{} +{}s {}s",
            s.name,
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
                "{{\"name\":{},\"parent\":{},\"start_seconds\":{},\"duration_seconds\":{}",
                json_string(s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
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
        assert_eq!(trace.spans[0].start_ns, 0, "the root is the trace's epoch");
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
    fn spans_past_the_preallocated_slots_still_trace() {
        let root = Span::root("batch");
        for _ in 0..2 * RECORD_SLOTS {
            root.child("extract").finish();
        }
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
