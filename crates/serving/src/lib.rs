//! # gpm-serving
//!
//! A streaming **answer service** over the incremental matching stack: the
//! layer that turns "call [`PatternRegistry::apply`] and read the result"
//! into "millions of long-lived subscribers are told exactly when their
//! diversified top-k moved".
//!
//! The paper's incremental story (and this repository's `gpm-incremental`
//! machinery) is *pull*: someone must ask after every delta. A serving
//! tier needs *push* — and push changes the contract in three ways this
//! crate owns:
//!
//! * **[`DeltaLog`]** — every ingested [`GraphDelta`] batch is appended to
//!   a replayable log with a monotone **sequence number**. Late joiners
//!   and crash recovery replay from an offset and land on byte-identical
//!   answers; the log persists as JSON-lines (via the workspace serde
//!   stubs) and can be compacted once every consumer has passed an offset.
//! * **Subscriptions** — [`AnswerService::subscribe`] registers a pattern
//!   and returns a [`Subscription`] handle that receives an
//!   [`AnswerUpdate`]`{ version, seq, topk, diff }` **only** when that
//!   pattern's answer materially changed (some match entered, left or
//!   moved — computed from the registry's per-pattern change sets). Each
//!   subscription owns a **bounded queue with newest-wins coalescing**:
//!   a slow consumer loses intermediate answers, never consistency — the
//!   queued update always carries a complete answer plus a diff rebased
//!   onto whatever the consumer last saw, and `version` gaps reveal how
//!   much was skipped. Each coalesce is counted once, per subscription
//!   ([`Subscription::coalesced`]) and stack-wide
//!   ([`ServiceStats::updates_coalesced`]).
//! * **Versioned, monotonic answers** — every update carries the log
//!   sequence it reflects; [`AnswerService::query_at`] serves the answer
//!   that was current at any retained offset, so pollers and push
//!   consumers can be reconciled against the same timeline.
//!
//! The service keeps one record per served pattern — its version, answer
//! history, subscriptions and SLO tracker — created by the first
//! subscription and dropped with the last. A [`ServiceHandle`] runs the
//! service on its own loop and reaches it through the same
//! [`ServiceController`] channel the [`AdminServer`] uses, whose JSON
//! bodies come from the log's writer, the `serde_json` stub.
//!
//! The push path is differentially tested against the pull path: for
//! generated streams, the sequence of subscription updates equals the
//! sequence of static-recompute top-k changes per pattern (see
//! `tests/service_differential.rs`).
//!
//! ```
//! use gpm_graph::{builder::graph_from_parts, GraphDelta};
//! use gpm_incremental::IncrementalConfig;
//! use gpm_pattern::builder::label_pattern;
//! use gpm_serving::{AnswerService, NotifyMode, ServiceConfig};
//!
//! let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 2), (1, 3)]).unwrap();
//! let mut svc = AnswerService::new(&g, ServiceConfig::default());
//! let sub = svc
//!     .subscribe(
//!         label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(),
//!         IncrementalConfig::new(2),
//!         NotifyMode::Relevance,
//!     )
//!     .unwrap();
//! let initial = sub.try_recv().unwrap(); // the consistent starting answer
//! assert_eq!(initial.seq, 0);
//! assert_eq!(initial.topk_nodes(), vec![1, 0]);
//!
//! // A batch that flips the ranking: exactly one notification.
//! svc.ingest(&GraphDelta::new().add_node(1).add_edge(0, 4)).unwrap();
//! let update = sub.try_recv().unwrap();
//! assert_eq!(update.seq, 1);
//! assert_eq!(update.topk_nodes(), vec![0, 1]);
//! assert_eq!(update.diff.reordered, vec![0, 1]);
//!
//! // A batch its top-k survives: no spurious wakeup.
//! svc.ingest(&GraphDelta::new().add_node(3)).unwrap();
//! assert!(sub.try_recv().is_none());
//! ```

#![forbid(unsafe_code)]

mod admin;
mod answer;
mod audit;
mod health;
mod http;
mod log;
mod runtime;
mod service;
mod slo;
mod subscription;

pub use admin::AdminServer;
pub use answer::{AnswerUpdate, VersionedAnswer};
pub use audit::{Auditor, AuditorConfig};
pub use health::{ComponentHealth, HealthConfig, HealthReport, HealthStatus};
pub use log::{DeltaLog, LogEntry};
pub use runtime::{LoopGone, ServiceController, ServiceHandle};
pub use service::{AnswerService, IngestReport, ServiceConfig, ServiceStats, ServingError};
pub use slo::SloConfig;
pub use subscription::{NotifyMode, Subscription, SubscriptionId};

// The observability vocabulary of [`ServiceConfig::telemetry`] and
// [`AnswerService::telemetry`], re-exported so serving consumers need no
// direct gpm-telemetry dependency.
pub use gpm_telemetry::{names, BatchTrace, Telemetry, TelemetryConfig};

// Doc-link convenience.
#[allow(unused_imports)]
use gpm_graph::GraphDelta;
#[allow(unused_imports)]
use gpm_incremental::PatternRegistry;
