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

use crate::http::{read_request, write_response, Request};
use crate::runtime::ServiceController;

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
    const LOOP_GONE: &str = "{\"status\":\"unready\",\"error\":\"service loop gone\"}";
    let gone = |_| (503u16, JSON, LOOP_GONE.to_string());
    match path {
        "/metrics" => controller
            .with(|svc| {
                svc.sample_gauges();
                svc.telemetry().render()
            })
            .map(|body| (200, PROM, body))
            .unwrap_or_else(gone),
        "/healthz" => controller
            .with(|svc| svc.health())
            .map(|report| {
                let status = if report.is_ready() { 200 } else { 503 };
                (status, JSON, report.to_json())
            })
            .unwrap_or_else(gone),
        "/readyz" => controller
            .with(|svc| svc.health())
            .map(|report| {
                let status = if report.is_ready() { 200 } else { 503 };
                (status, JSON, format!("{{\"status\":\"{}\"}}", report.status.as_str()))
            })
            .unwrap_or_else(gone),
        "/traces/recent" => traces(controller, |svc| {
            svc.telemetry().recorder().recent().iter().map(|t| t.to_json()).collect()
        }),
        "/traces/slow" => traces(controller, |svc| {
            svc.telemetry().recorder().slow().iter().map(|t| t.to_json()).collect()
        }),
        "/traces/slowest" => controller
            .with(|svc| {
                svc.telemetry().recorder().slowest().map_or("null".to_string(), |t| t.to_json())
            })
            .map(|body| (200, JSON, body))
            .unwrap_or_else(gone),
        "/patterns" => controller
            .with(|svc| {
                let items: Vec<String> =
                    svc.registry().pattern_infos().iter().map(pattern_json).collect();
                format!("[{}]", items.join(","))
            })
            .map(|body| (200, JSON, body))
            .unwrap_or_else(gone),
        _ => match path.strip_prefix("/patterns/").map(str::to_string) {
            Some(seg) => controller
                .with(move |svc| {
                    svc.registry()
                        .pattern_infos()
                        .iter()
                        .find(|i| i.id.to_string() == format!("pattern#{seg}"))
                        .map(pattern_json)
                })
                .map(|found| match found {
                    Some(body) => (200, JSON, body),
                    None => (404, JSON, "{\"error\":\"unknown pattern\"}".to_string()),
                })
                .unwrap_or_else(gone),
            None => (404, JSON, "{\"error\":\"not found\"}".to_string()),
        },
    }
}

/// Shared shape of the two trace-list endpoints.
fn traces(
    controller: &ServiceController,
    f: impl FnOnce(&mut crate::AnswerService) -> Vec<String> + Send + 'static,
) -> (u16, &'static str, String) {
    controller
        .with(|svc| f(svc))
        .map(|items| (200, JSON, format!("[{}]", items.join(","))))
        .unwrap_or_else(|_| {
            (503, JSON, "{\"status\":\"unready\",\"error\":\"service loop gone\"}".to_string())
        })
}

/// One pattern's introspection JSON (numbers and fixed vocabulary only —
/// nothing here needs escaping).
fn pattern_json(info: &PatternInfo) -> String {
    let s = &info.stats;
    format!(
        concat!(
            "{{\"id\":\"{}\",\"nodes\":{},\"edges\":{},\"k\":{},\"lambda\":{},",
            "\"reach_mode\":\"{}\",\"bound_mode\":\"{}\",\"maintained_bytes\":{},",
            "\"distance_bytes\":{},\"cache_bytes\":{},\"stats\":{{",
            "\"applies\":{},\"incremental_applies\":{},",
            "\"full_rank_refreshes\":{},\"sets_recomputed\":{},\"cond_incremental\":{},",
            "\"cond_rebuilds\":{},\"pruned_outputs\":{},",
            "\"bound_rebuilds\":{},\"last_pruned_outputs\":{},",
            "\"last_swept_pairs\":{},\"last_dirty_outputs\":{},",
            "\"last_refresh_ns\":{}}}}}"
        ),
        info.id,
        info.nodes,
        info.edges,
        info.k,
        info.lambda,
        info.reach_mode,
        info.bound_mode,
        info.maintained_bytes,
        info.distance_bytes,
        info.cache_bytes,
        s.applies,
        s.incremental_applies,
        s.full_rank_refreshes,
        s.sets_recomputed,
        s.cond_incremental,
        s.cond_rebuilds,
        s.pruned_outputs,
        s.bound_rebuilds,
        s.last_pruned_outputs,
        s.last_swept_pairs,
        s.last_dirty_outputs,
        s.last_refresh_ns,
    )
}
