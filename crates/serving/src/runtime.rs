//! [`ServiceHandle`]: the long-lived service **loop** as an owned thread.
//!
//! [`AnswerService`] itself is synchronous and deterministic — ideal for
//! tests and embedding. Production ingestion instead runs the service on
//! its own thread: producers submit batches over a channel and move on,
//! subscribers block on their queues from any number of consumer threads,
//! and control-plane calls (subscribe, query, stats) are serialized
//! through the same loop so they always observe a consistency point —
//! never a half-applied batch.

use std::sync::mpsc;
use std::thread::JoinHandle;

use gpm_graph::GraphDelta;

use crate::service::{AnswerService, IngestReport, ServingError};

enum Cmd {
    Ingest(GraphDelta),
    With(Box<dyn FnOnce(&mut AnswerService) + Send>),
    Shutdown,
}

/// The service loop is gone: the handle was shut down (or its thread
/// died) while a controller still held a sender. Control-plane callers
/// treat this as "unready", not as a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopGone;

impl std::fmt::Display for LoopGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service loop is gone")
    }
}

impl std::error::Error for LoopGone {}

/// A cloneable, fallible control-plane handle onto a running service
/// loop — what the admin server and the background auditor hold. Unlike
/// [`ServiceHandle`] it owns nothing: when the loop shuts down, calls
/// return [`LoopGone`] instead of panicking, which doubles as the
/// liveness probe behind `/healthz` (a dead loop is an unready service).
#[derive(Clone)]
pub struct ServiceController {
    tx: mpsc::Sender<Cmd>,
}

impl ServiceController {
    /// Runs `f` on the loop thread between batches and returns its
    /// result, or [`LoopGone`] if the loop has shut down.
    pub fn with<T, F>(&self, f: F) -> Result<T, LoopGone>
    where
        F: FnOnce(&mut AnswerService) -> T + Send + 'static,
        T: Send + 'static,
    {
        let (rtx, rrx) = mpsc::sync_channel(1);
        self.tx
            .send(Cmd::With(Box::new(move |svc| {
                let _ = rtx.send(f(svc));
            })))
            .map_err(|_| LoopGone)?;
        rrx.recv().map_err(|_| LoopGone)
    }

    /// Fire-and-forget ingestion, like [`ServiceHandle::submit`];
    /// reports [`LoopGone`] instead of silently dropping the batch.
    pub fn submit(&self, delta: GraphDelta) -> Result<(), LoopGone> {
        self.tx.send(Cmd::Ingest(delta)).map_err(|_| LoopGone)
    }

    /// `true` while the loop is alive and answering (a round-trip probe,
    /// not just a channel check).
    pub fn is_alive(&self) -> bool {
        self.with(|_| ()).is_ok()
    }
}

/// A handle to a service running on its own thread. Dropping the handle
/// shuts the loop down (joining it); [`Self::shutdown`] does the same and
/// hands the service back for inspection.
pub struct ServiceHandle {
    controller: ServiceController,
    join: Option<JoinHandle<AnswerService>>,
}

impl ServiceHandle {
    /// Moves `service` onto a dedicated loop thread.
    pub fn spawn(mut service: AnswerService) -> Self {
        let (tx, rx) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name("gpm-serving".into())
            .spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        Cmd::Ingest(delta) => {
                            // Rejected batches leave all state (and the log)
                            // unchanged; `ingest` counts them in stats.
                            let _ = service.ingest(&delta);
                        }
                        Cmd::With(f) => f(&mut service),
                        Cmd::Shutdown => break,
                    }
                }
                service
            })
            .expect("spawn serving loop");
        ServiceHandle { controller: ServiceController { tx }, join: Some(join) }
    }

    /// Fire-and-forget ingestion: enqueues the batch and returns
    /// immediately (the producer path of the latency bench). Invalid
    /// batches are counted in [`crate::ServiceStats::ingest_errors`].
    pub fn submit(&self, delta: GraphDelta) {
        let _ = self.controller.submit(delta);
    }

    /// A cloneable, fallible control-plane handle onto this loop — hand
    /// these to the admin server and the auditor; they outlive nothing
    /// (calls after shutdown return [`LoopGone`]).
    pub fn controller(&self) -> ServiceController {
        self.controller.clone()
    }

    /// Synchronous ingestion: blocks until the batch is applied and fanned
    /// out, returning its report.
    pub fn ingest(&self, delta: GraphDelta) -> Result<IngestReport, ServingError> {
        self.with(move |svc| svc.ingest(&delta))
    }

    /// Runs `f` on the loop thread against the service, between batches,
    /// and returns its result — the control plane for subscribe /
    /// unsubscribe / query_at / stats on a live service.
    pub fn with<T, F>(&self, f: F) -> T
    where
        F: FnOnce(&mut AnswerService) -> T + Send + 'static,
        T: Send + 'static,
    {
        self.controller.with(f).expect("serving loop alive")
    }

    /// Current head sequence number.
    pub fn seq(&self) -> u64 {
        self.with(|svc| svc.seq())
    }

    /// One JSON object holding the live service's metrics snapshot and
    /// flight-recorder contents (`{"metrics":…,"flight_recorder":…}`) —
    /// taken on the loop thread, between batches, so it always reflects
    /// a consistency point.
    pub fn telemetry_dump(&self) -> String {
        self.with(|svc| svc.telemetry().dump_json())
    }

    /// Stops the loop (after draining already-queued commands) and returns
    /// the service.
    pub fn shutdown(mut self) -> AnswerService {
        let _ = self.controller.tx.send(Cmd::Shutdown);
        self.join.take().expect("not yet joined").join().expect("serving loop panicked")
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.controller.tx.send(Cmd::Shutdown);
            let _ = join.join();
        }
    }
}
