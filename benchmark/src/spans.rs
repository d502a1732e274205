//! The traced run's span log.
//!
//! Spans are recorded **from the benchmark's own files**, around public
//! calls into each layer — name, layer, start, end, parent, op id — kept
//! in memory and written out as JSON-lines when the run ends. A span's
//! self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its log.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The op (position in the fixed sequence) this span belongs to;
    /// spans of one op share it.
    pub op: u32,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with one clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        op: u32,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec { name, layer, start_ns, end_ns: start_ns, parent, op });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, layer, parent, op);
        let out = f();
        (out, self.close(id))
    }

    /// Records a span measured elsewhere (the service's own trace), placed
    /// `offset_ns` after the start of `parent`.
    pub fn adopt(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        offset_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        let p = &self.spans[parent as usize];
        let (start_ns, op) = (p.start_ns + offset_ns, p.op);
        self.spans.push(SpanRec {
            name,
            layer,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus its direct
    /// children's, summed by name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
        }
        out
    }

    /// Prints the self-time table: where the traced run's time went, by
    /// span name, largest first.
    pub fn print_self_times(&self) {
        let mut rows: Vec<(&'static str, u64)> = self.self_ns_by_name().into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        println!("# self time by span (span minus children):");
        for (name, ns) in rows {
            let layer = self.spans.iter().find(|s| s.name == name).map_or("", |s| s.layer);
            println!("#   {:<36} {:<12} {:>12.3} ms", name, layer, ns as f64 / 1e6);
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> SpanRec {
        SpanRec { name, layer: "t", start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let log = SpanLog {
            origin: Instant::now(),
            spans: vec![
                rec("op", 0, 100, None),
                rec("ingest", 10, 70, Some(0)),
                rec("apply", 20, 50, Some(1)),
                rec("drain", 70, 90, Some(0)),
                rec("op", 100, 130, None),
            ],
        };
        let by = log.self_ns_by_name();
        assert_eq!(by["op"], (100 - 60 - 20) + 30);
        assert_eq!(by["ingest"], 60 - 30);
        assert_eq!(by["apply"], 30);
        assert_eq!(by["drain"], 20);
        // Self times add back up to the roots.
        assert_eq!(by.values().sum::<u64>(), 130);
    }

    #[test]
    fn spans_nest_and_share_the_op_id() {
        let mut log = SpanLog::new();
        let root = log.open("op", "bench", None, 7);
        let ((), inner) = log.time("ingest", "serving", Some(root), 7, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        let adopted = log.adopt("apply", "incremental", 1, 0, inner / 2);
        let outer = log.close(root);
        assert!(outer >= inner);
        assert_eq!(log.spans()[1].parent, Some(root));
        assert_eq!(log.spans()[adopted as usize].op, 7);
        assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::new();
        let root = log.open("op", "bench", None, 0);
        log.time("ingest", "serving", Some(root), 0, || ());
        log.close(root);
        // Inside the package's own (ignored) output directory.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-test-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"name\":\"op\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"layer\":\"serving\""));
        for l in lines {
            serde_json::from_str(l).expect("each line parses as JSON");
        }
    }
}
