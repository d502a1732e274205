//! [`AdminServer`]: the operator plane on a TCP port.
//!
//! A std-only HTTP/1.1 listener (see [`crate::http`]) serving the live
//! service's observability surfaces. Every request is answered from a
//! **consistency point**: handlers run their read on the service loop via
//! a [`ServiceController`], between batches — a scrape never observes a
//! half-applied batch, and a dead loop turns every endpoint into `503`
//! (the controller doubles as the liveness probe).
//!
//! | Endpoint | Body |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition (gauges sampled at scrape time) |
//! | `GET /healthz` | aggregated [`HealthReport`] JSON; `503` when unready |
//! | `GET /readyz` | `ready`/`degraded` (200) or `unready` (503) |
//! | `GET /traces/recent` | flight-recorder ring as a JSON array |
//! | `GET /traces/slow` | over-threshold captures as a JSON array |
//! | `GET /traces/slowest` | the slowest batch ever, or `null` |
//! | `GET /patterns` | per-pattern introspection array |
//! | `GET /patterns/<n>` | one pattern (`404` for unknown ids) |

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gpm_incremental::PatternInfo;
use serde::{Serialize, Value};

use crate::health::HealthReport;
use crate::http::{read_request, write_response, Request};
use crate::runtime::{LoopGone, ServiceController};

const JSON: &str = "application/json";
/// The content type Prometheus' text scraper expects.
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The admin plane's listener. Binding spawns an accept loop thread;
/// each connection is answered on its own short-lived thread (admin
/// traffic is a scraper and an operator, not a fleet).
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (use port 0 for an ephemeral port — tests and
    /// examples read it back via [`Self::local_addr`]) and starts
    /// serving against `controller`'s loop.
    pub fn bind(
        addr: impl ToSocketAddrs,
        controller: ServiceController,
    ) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("gpm-admin".into())
            .spawn(move || accept_loop(&listener, &controller, &stop2))?;
        Ok(AdminServer { addr, stop, join: Some(join) })
    }

    /// Where the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. In-flight connection
    /// threads finish on their own.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, controller: &ServiceController, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let controller = controller.clone();
                let _ = std::thread::Builder::new()
                    .name("gpm-admin-conn".into())
                    .spawn(move || handle(stream, &controller));
            }
            // Nonblocking accept: poll the stop flag at a human-invisible
            // cadence instead of parking forever on a blocking accept (a
            // clean shutdown must not need a wake-up connection).
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle(mut stream: TcpStream, controller: &ServiceController) {
    let Some(Request { method, path }) = read_request(&mut stream) else {
        return; // malformed: just drop the connection
    };
    if method != "GET" {
        write_response(&mut stream, 405, JSON, "{\"error\":\"method not allowed\"}");
        return;
    }
    let (status, content_type, body) = route(&path, controller);
    write_response(&mut stream, status, content_type, &body);
}

/// Dispatches one request, folding a dead service loop into `503`.
fn route(path: &str, controller: &ServiceController) -> (u16, &'static str, String) {
    let ready = |report: &HealthReport| if report.is_ready() { 200 } else { 503 };
    let array = |items: Vec<String>| format!("[{}]", items.join(","));
    let reply = match path {
        "/metrics" => controller.with(|svc| {
            svc.sample_gauges();
            (200, PROM, svc.telemetry().render())
        }),
        "/healthz" => controller.with(move |svc| {
            let report = svc.health();
            (ready(&report), JSON, report.to_json())
        }),
        "/readyz" => controller.with(move |svc| {
            let report = svc.health();
            (ready(&report), JSON, format!("{{\"status\":\"{}\"}}", report.status.as_str()))
        }),
        "/traces/recent" => controller.with(move |svc| {
            let recorder = svc.telemetry().recorder();
            (200, JSON, array(recorder.recent().iter().map(|t| t.to_json()).collect()))
        }),
        "/traces/slow" => controller.with(move |svc| {
            let recorder = svc.telemetry().recorder();
            (200, JSON, array(recorder.slow().iter().map(|t| t.to_json()).collect()))
        }),
        "/traces/slowest" => controller.with(|svc| {
            let slowest = svc.telemetry().recorder().slowest();
            (200, JSON, slowest.map_or("null".to_string(), |t| t.to_json()))
        }),
        "/patterns" => controller.with(|svc| {
            let infos: Vec<Value> = svc.registry().pattern_infos().iter().map(pattern).collect();
            (200, JSON, serde_json::to_string(&infos).expect("stub never fails"))
        }),
        _ => match path.strip_prefix("/patterns/").map(str::to_string) {
            Some(seg) => controller.with(move |svc| {
                let infos = svc.registry().pattern_infos();
                match infos.iter().find(|i| i.id.to_string() == format!("pattern#{seg}")) {
                    Some(info) => (
                        200,
                        JSON,
                        serde_json::to_string(&pattern(info)).expect("stub never fails"),
                    ),
                    None => (404, JSON, "{\"error\":\"unknown pattern\"}".to_string()),
                }
            }),
            None => Ok((404, JSON, "{\"error\":\"not found\"}".to_string())),
        },
    };
    reply.unwrap_or_else(|LoopGone| {
        (503, JSON, "{\"status\":\"unready\",\"error\":\"service loop gone\"}".to_string())
    })
}

/// One pattern's introspection object.
fn pattern(info: &PatternInfo) -> Value {
    let s = &info.stats;
    let stats = Value::Object(vec![
        ("applies".into(), s.applies.to_value()),
        ("incremental_applies".into(), s.incremental_applies.to_value()),
        ("full_rank_refreshes".into(), s.full_rank_refreshes.to_value()),
        ("sets_recomputed".into(), s.sets_recomputed.to_value()),
        ("cond_incremental".into(), s.cond_incremental.to_value()),
        ("cond_rebuilds".into(), s.cond_rebuilds.to_value()),
        ("pruned_outputs".into(), s.pruned_outputs.to_value()),
        ("bound_rebuilds".into(), s.bound_rebuilds.to_value()),
        ("last_pruned_outputs".into(), s.last_pruned_outputs.to_value()),
        ("last_swept_pairs".into(), s.last_swept_pairs.to_value()),
        ("last_dirty_outputs".into(), s.last_dirty_outputs.to_value()),
        ("last_refresh_ns".into(), s.last_refresh_ns.to_value()),
    ]);
    Value::Object(vec![
        ("id".into(), info.id.to_string().to_value()),
        ("nodes".into(), info.nodes.to_value()),
        ("edges".into(), info.edges.to_value()),
        ("k".into(), info.k.to_value()),
        ("lambda".into(), info.lambda.to_value()),
        ("reach_mode".into(), info.reach_mode.to_value()),
        ("bound_mode".into(), info.bound_mode.to_value()),
        ("maintained_bytes".into(), info.maintained_bytes.to_value()),
        ("distance_bytes".into(), info.distance_bytes.to_value()),
        ("cache_bytes".into(), info.cache_bytes.to_value()),
        ("stats".into(), stats),
    ])
}
