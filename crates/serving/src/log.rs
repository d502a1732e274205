//! [`DeltaLog`]: the replayable update history behind the answer service.
//!
//! Every ingested batch is appended with a monotone **sequence number**;
//! offset `base_seq` carries a full graph snapshot (labels, edges,
//! attributes). That pair is the whole recovery story:
//!
//! * **replay from 0** — build the base graph, apply every entry in order:
//!   a fresh service lands on byte-identical versioned answers;
//! * **late join at `s`** — materialize [`DeltaLog::graph_at`]`(s)` (or
//!   receive a snapshot from a live service), then consume entries with
//!   `seq > s`;
//! * **compaction** — once every consumer has passed offset `s`,
//!   [`DeltaLog::compact_to`]`(s)` folds the prefix into the base
//!   snapshot, bounding retention without ever tearing an answer.
//!
//! Persistence is JSON-lines through the workspace serde stubs
//! ([`gpm_graph::json`]): a header line holding the base snapshot and its
//! offset, then one line per batch — append-friendly, diffable, and
//! attribute-complete (the binary snapshot format drops attribute tables,
//! which replay cannot afford).

use gpm_graph::json::{delta_from_value, graph_from_value, graph_to_value};
use gpm_graph::{DiGraph, DynGraph, GraphDelta};
use gpm_telemetry::Histogram;
use serde::{Serialize, Value};

use crate::service::ServingError;

/// One appended batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Sequence number (the graph state *after* this batch).
    pub seq: u64,
    /// The batch itself.
    pub delta: GraphDelta,
}

/// Where the last [`DeltaLog::save`] wrote, so the next save can append
/// just the new suffix instead of rewriting the file wholesale.
#[derive(Debug)]
struct SaveCursor {
    path: std::path::PathBuf,
    /// The log's base offset when the file was (re)written — a changed
    /// base (compaction) invalidates the file's prefix.
    base_seq: u64,
    /// Newest sequence number the file holds.
    head_seq: u64,
}

/// An append-only, replayable sequence of [`GraphDelta`] batches anchored
/// to a base graph snapshot. See the module docs.
#[derive(Debug)]
pub struct DeltaLog {
    base: DiGraph,
    base_seq: u64,
    entries: Vec<LogEntry>,
    /// Persistence cursor of the last [`Self::save`] (`None` until the
    /// first save, and reset by [`Self::compact_to`]).
    saved: Option<SaveCursor>,
    /// When attached, every fsynced write (append or wholesale) records
    /// its wall time here — `gpm_log_fsync_seconds` in the serving
    /// stack's telemetry. Bare logs carry `None` and pay nothing.
    fsync_hist: Option<Histogram>,
    /// Cumulative bytes fsynced to disk across every save of this log —
    /// the `gpm_delta_log_bytes` gauge.
    persisted_bytes: u64,
    /// When the last successful fsync finished — the freshness input of
    /// the health model's persistence staleness check.
    last_fsync: Option<std::time::Instant>,
}

impl Clone for DeltaLog {
    /// A clone does **not** inherit the persistence cursor: two logical
    /// writers appending to one file would interleave duplicate suffixes
    /// (each believing it owns the tail). The clone's first save rewrites
    /// its target wholesale and owns the file from there.
    fn clone(&self) -> Self {
        DeltaLog {
            base: self.base.clone(),
            base_seq: self.base_seq,
            entries: self.entries.clone(),
            saved: None,
            fsync_hist: self.fsync_hist.clone(),
            persisted_bytes: 0,
            last_fsync: None,
        }
    }
}

impl DeltaLog {
    /// A log whose offset 0 is `base`.
    pub fn new(base: &DiGraph) -> Self {
        Self::at_offset(base, 0)
    }

    /// A log anchored mid-stream: `base` is the graph state at `base_seq`
    /// (a late joiner's starting snapshot).
    pub fn at_offset(base: &DiGraph, base_seq: u64) -> Self {
        DeltaLog {
            base: base.clone(),
            base_seq,
            entries: Vec::new(),
            saved: None,
            fsync_hist: None,
            persisted_bytes: 0,
            last_fsync: None,
        }
    }

    /// Attaches the histogram every fsynced write records into (the
    /// serving layer passes its `gpm_log_fsync_seconds` handle).
    pub fn set_fsync_histogram(&mut self, h: Histogram) {
        self.fsync_hist = Some(h);
    }

    /// Cumulative bytes fsynced to disk by [`Self::save`] over this log's
    /// lifetime (0 for a never-persisted log).
    pub fn persisted_bytes(&self) -> u64 {
        self.persisted_bytes
    }

    /// Time since the last **successful** fsync, `None` for a log that
    /// has never persisted — the staleness signal health checks read.
    pub fn fsync_age(&self) -> Option<std::time::Duration> {
        self.last_fsync.map(|t| t.elapsed())
    }

    /// Entries appended since the last save — 0 for a clean log; equal to
    /// [`Self::len`] for a never-persisted one. Staleness only matters
    /// while this is nonzero (a quiet service has nothing to lose).
    pub fn unpersisted_entries(&self) -> usize {
        match &self.saved {
            Some(s) => (self.head_seq() - s.head_seq) as usize,
            None => self.entries.len(),
        }
    }

    /// The anchored snapshot (graph state at [`Self::base_seq`]).
    pub fn base(&self) -> &DiGraph {
        &self.base
    }

    /// Offset of the anchored snapshot.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Sequence number of the newest appended batch (== `base_seq` while
    /// empty).
    pub fn head_seq(&self) -> u64 {
        self.base_seq + self.entries.len() as u64
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends one batch, returning its sequence number.
    pub fn append(&mut self, delta: GraphDelta) -> u64 {
        let seq = self.head_seq() + 1;
        self.entries.push(LogEntry { seq, delta });
        seq
    }

    /// All retained entries, ascending by `seq`.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Retained entries with `seq > after` — what a consumer that has
    /// processed offset `after` still needs. Errors if the log no longer
    /// retains that suffix (`after` below the base offset) or has never
    /// reached it (`after` beyond the head — a caught-up consumer passes
    /// exactly `head_seq` and gets an empty slice, but anything further
    /// means the consumer and this log disagree about history).
    pub fn entries_after(&self, after: u64) -> Result<&[LogEntry], ServingError> {
        if after < self.base_seq {
            return Err(ServingError::OffsetCompacted { seq: after, retained_from: self.base_seq });
        }
        if after > self.head_seq() {
            return Err(ServingError::OffsetInFuture { seq: after, head: self.head_seq() });
        }
        Ok(&self.entries[(after - self.base_seq) as usize..])
    }

    /// Materializes the graph state at offset `seq` by replaying the
    /// retained prefix onto the base snapshot.
    pub fn graph_at(&self, seq: u64) -> Result<DiGraph, ServingError> {
        if seq < self.base_seq {
            return Err(ServingError::OffsetCompacted { seq, retained_from: self.base_seq });
        }
        if seq > self.head_seq() {
            return Err(ServingError::OffsetInFuture { seq, head: self.head_seq() });
        }
        if seq == self.base_seq {
            return Ok(self.base.clone());
        }
        let mut g = DynGraph::from_digraph(&self.base);
        for entry in &self.entries[..(seq - self.base_seq) as usize] {
            g.apply(&entry.delta).map_err(ServingError::Graph)?;
        }
        Ok(g.snapshot())
    }

    /// Folds every entry with `seq <= upto` into the base snapshot and
    /// drops it — retention bookkeeping for long-lived services. Offsets
    /// below `upto` become unservable ([`ServingError::OffsetCompacted`]).
    pub fn compact_to(&mut self, upto: u64) -> Result<(), ServingError> {
        let upto = upto.min(self.head_seq());
        if upto <= self.base_seq {
            return Ok(()); // nothing retained below upto anyway
        }
        self.base = self.graph_at(upto)?;
        self.entries.drain(..(upto - self.base_seq) as usize);
        self.base_seq = upto;
        // Entries carry absolute seqs, so the suffix needs no re-numbering.
        debug_assert!(self.entries.first().is_none_or(|e| e.seq == self.base_seq + 1));
        // A persisted file's header and prefix are now stale: the next
        // save must rewrite wholesale.
        self.saved = None;
        Ok(())
    }

    // ------------------------------------------------------- persistence

    /// Serializes the whole log as JSON-lines: a header line with the
    /// base snapshot, then one line per entry.
    pub fn to_json_lines(&self) -> String {
        let header = Value::Object(vec![
            ("gpm_delta_log".into(), 1u32.to_value()),
            ("base_seq".into(), self.base_seq.to_value()),
            ("base".into(), graph_to_value(&self.base)),
        ]);
        let mut out = serde_json::to_string(&header).expect("stub never fails");
        out.push('\n');
        for entry in &self.entries {
            out.push_str(&entry_line(entry));
            out.push('\n');
        }
        out
    }

    /// Parses a log serialized by [`Self::to_json_lines`]. Sequence
    /// numbers must be contiguous from the header's `base_seq`.
    pub fn from_json_lines(text: &str) -> Result<Self, ServingError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| ServingError::corrupt("empty log"))?;
        let header: Value =
            serde_json::from_str(header).map_err(|e| ServingError::corrupt(e.to_string()))?;
        if header.get("gpm_delta_log").and_then(Value::as_u64) != Some(1) {
            return Err(ServingError::corrupt("missing/unsupported log header"));
        }
        let base_seq = header
            .get("base_seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| ServingError::corrupt("bad base_seq"))?;
        let base = graph_from_value(
            header.get("base").ok_or_else(|| ServingError::corrupt("missing base snapshot"))?,
        )
        .map_err(ServingError::Graph)?;
        let mut log = DeltaLog::at_offset(&base, base_seq);
        for line in lines {
            let v: Value =
                serde_json::from_str(line).map_err(|e| ServingError::corrupt(e.to_string()))?;
            let seq = v
                .get("seq")
                .and_then(Value::as_u64)
                .ok_or_else(|| ServingError::corrupt("bad seq"))?;
            let delta = delta_from_value(&v).map_err(ServingError::Graph)?;
            let assigned = log.append(delta);
            if assigned != seq {
                return Err(ServingError::corrupt(format!(
                    "non-contiguous log: expected seq {assigned}, found {seq}"
                )));
            }
        }
        Ok(log)
    }

    /// Persists the log to a file — **appending** when it can.
    ///
    /// The first save of a path (and any save after [`Self::compact_to`],
    /// a different path, or an externally deleted file) writes the full
    /// JSON-lines form. Every later save appends only the entries past
    /// the last persisted sequence number and fsyncs them — the persist
    /// cost of a long-lived service is proportional to what changed, not
    /// to the whole retained history. The file contents are identical to
    /// a wholesale [`Self::to_json_lines`] either way.
    pub fn save(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), ServingError> {
        let path = path.as_ref();
        let head = self.head_seq();
        let appendable = self.saved.as_ref().is_some_and(|s| {
            s.path == path && s.base_seq == self.base_seq && s.head_seq <= head && path.exists()
        });
        if appendable {
            let from = self.saved.as_ref().expect("checked above").head_seq;
            let mut suffix = String::new();
            for entry in &self.entries[(from - self.base_seq) as usize..] {
                suffix.push_str(&entry_line(entry));
                suffix.push('\n');
            }
            if !suffix.is_empty() {
                if let Err(e) = self.timed_fsync(|| append_synced(path, suffix.as_bytes())) {
                    // The file may hold a torn suffix now: drop the cursor
                    // so a retried save rewrites wholesale instead of
                    // appending the same entries after the partial ones.
                    self.saved = None;
                    return Err(ServingError::corrupt(format!("append log: {e}")));
                }
                self.persisted_bytes += suffix.len() as u64;
            }
            self.last_fsync = Some(std::time::Instant::now());
            self.saved.as_mut().expect("checked above").head_seq = head;
            return Ok(());
        }
        let full = self.to_json_lines();
        self.timed_fsync(|| write_synced(path, full.as_bytes()))
            .map_err(|e| ServingError::corrupt(format!("write log: {e}")))?;
        self.persisted_bytes += full.len() as u64;
        self.last_fsync = Some(std::time::Instant::now());
        self.saved =
            Some(SaveCursor { path: path.to_path_buf(), base_seq: self.base_seq, head_seq: head });
        Ok(())
    }

    /// Runs one fsynced write, recording its wall time when a histogram
    /// is attached. Failed writes record too — a stalling disk is
    /// exactly what the latency histogram exists to surface.
    fn timed_fsync(&self, write: impl FnOnce() -> std::io::Result<()>) -> std::io::Result<()> {
        let Some(h) = &self.fsync_hist else {
            return write();
        };
        let t0 = std::time::Instant::now();
        let out = write();
        h.record(t0.elapsed());
        out
    }

    /// Reads a log back from a file. Every line [`Self::save`] writes ends
    /// in `\n`, so bytes after the last `\n` that do not parse are an
    /// append torn by a crash: they are dropped, and the log loads as of
    /// the previous save. A torn header, or a corrupt line that does end
    /// in `\n`, is still rejected.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ServingError> {
        let bytes =
            std::fs::read(path).map_err(|e| ServingError::corrupt(format!("read log: {e}")))?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let tail = &bytes[complete..];
        let torn = complete > 0
            && !tail.is_empty()
            && !std::str::from_utf8(tail).is_ok_and(|t| serde_json::from_str(t).is_ok());
        let kept = if torn { &bytes[..complete] } else { &bytes[..] };
        let text = std::str::from_utf8(kept)
            .map_err(|e| ServingError::corrupt(format!("read log: {e}")))?;
        Self::from_json_lines(text)
    }
}

fn append_synced(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Full rewrite, fsynced like the append path — the base the appends
/// build on must be no less durable than the appends themselves.
fn write_synced(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// One entry's JSON line (no trailing newline) — shared by the wholesale
/// serialization and the appending save so the two always emit identical
/// bytes.
fn entry_line(entry: &LogEntry) -> String {
    let line = Value::Object(vec![
        ("seq".into(), entry.seq.to_value()),
        ("ops".into(), entry.delta.ops.to_value()),
    ]);
    serde_json::to_string(&line).expect("stub never fails")
}
