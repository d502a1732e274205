//! The ISSUE 9 acceptance tests: the operator plane over real TCP.
//!
//! A live [`AnswerService`] behind a [`ServiceHandle`] loop, scraped
//! through an [`AdminServer`] with nothing but `std::net::TcpStream` —
//! `/metrics` must round-trip through the strict exposition parser,
//! `/healthz` must walk ready → degraded → unready → ready as real
//! faults are injected and repaired, and the background [`Auditor`]
//! must catch a deliberately corrupted maintained condensation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gpm_graph::builder::graph_from_parts;
use gpm_graph::GraphDelta;
use gpm_incremental::IncrementalConfig;
use gpm_pattern::builder::label_pattern;
use gpm_serving::{
    AdminServer, AnswerService, Auditor, AuditorConfig, HealthConfig, NotifyMode, ServiceConfig,
    ServiceHandle,
};
use gpm_telemetry::exposition::{self, family};
use gpm_telemetry::names;

/// One raw HTTP/1.1 request over a fresh connection: returns
/// `(status, headers, body)`.
fn request(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin port");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = request(addr, "GET", path);
    (status, body)
}

/// Overall status field of a `/healthz` or `/readyz` body.
fn wire_status(body: &str) -> &'static str {
    for s in ["\"status\":\"unready\"", "\"status\":\"degraded\"", "\"status\":\"ready\""] {
        if body.starts_with(&format!("{{{s}")) {
            return match s {
                "\"status\":\"unready\"" => "unready",
                "\"status\":\"degraded\"" => "degraded",
                _ => "ready",
            };
        }
    }
    panic!("no status field in {body:?}");
}

#[test]
fn live_service_scrapes_clean_over_tcp() {
    let g = graph_from_parts(&[0, 0, 1, 1, 1], &[(0, 2), (1, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();
    sub.try_recv().expect("initial answer");

    let handle = ServiceHandle::spawn(svc);
    let admin = AdminServer::bind("127.0.0.1:0", handle.controller()).unwrap();
    let addr = admin.local_addr();

    // A mixed update stream: adds, removals, node churn.
    let batches = [
        GraphDelta::new().add_edge(1, 3),
        GraphDelta::new().add_edge(0, 3).remove_edge(1, 2),
        GraphDelta::new().add_node(1).add_edge(1, 5),
        GraphDelta::new().remove_node(3),
    ];
    for delta in batches {
        handle.ingest(delta).unwrap();
    }

    // /metrics: correct content type, strict-parses, and carries the
    // serving counters, the build info, and the per-pattern SLO families.
    let (status, head, body) = request(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "prometheus content type: {head}");
    let families = exposition::parse(&body).expect("exposition parses strictly");
    let batches_total = family(&families, names::SERVING_BATCHES)
        .and_then(|f| f.sample_with(&[]))
        .expect("batch counter scraped");
    assert_eq!(batches_total.value, 4.0);
    let build = family(&families, names::BUILD_INFO)
        .and_then(|f| f.sample_with(&[]))
        .expect("build info gauge");
    assert_eq!(build.value, 1.0);
    assert!(build.label("version").is_some_and(|v| !v.is_empty()));
    let slo_events = ["pattern#0"].iter().all(|p| {
        let with = |name| {
            family(&families, name)
                .and_then(|f| f.sample_with(&[("pattern", p)]))
                .map_or(0.0, |s| s.value)
        };
        with(names::SLO_GOOD) + with(names::SLO_BAD) > 0.0
    });
    assert!(slo_events, "every touched pattern records SLO events");
    for gauge in [names::DELTA_LOG_BYTES, names::UPTIME_SECONDS] {
        assert!(family(&families, gauge).is_some(), "{gauge} exported");
    }

    // /healthz and /readyz agree the service is healthy.
    let (status, body) = scrape(addr, "/healthz");
    assert_eq!((status, wire_status(&body)), (200, "ready"), "{body}");
    for component in ["loop", "delta_log", "subscriptions", "slo", "audit", "reach"] {
        assert!(body.contains(&format!("\"name\":\"{component}\"")), "{component} probed");
    }
    let (status, body) = scrape(addr, "/readyz");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ready\"}"));

    // Traces: the recent ring holds the ingests (default config traces
    // every batch), as JSON arrays the flight recorder emitted.
    let (status, body) = scrape(addr, "/traces/recent");
    assert_eq!(status, 200);
    assert!(body.starts_with('[') && body.ends_with(']'));
    assert!(body.contains("\"seq\":4"), "newest batch traced: {body}");
    let (status, _) = scrape(addr, "/traces/slow");
    assert_eq!(status, 200);
    let (status, body) = scrape(addr, "/traces/slowest");
    assert_eq!(status, 200);
    assert!(body == "null" || body.starts_with('{'));

    // Pattern introspection, including the maintained-reach mode and the
    // last refresh latency.
    let (status, body) = scrape(addr, "/patterns");
    assert_eq!(status, 200);
    assert!(body.contains("\"id\":\"pattern#0\""), "{body}");
    assert!(body.contains("\"reach_mode\":\"maintained\""), "{body}");
    assert!(body.contains("\"bound_mode\":\"per-component\""), "{body}");
    assert!(body.contains("\"maintained_bytes\":"), "{body}");
    // A Relevance subscription never asks for a diversified answer, so it
    // keeps no distance table.
    assert!(body.contains("\"distance_bytes\":0,"), "{body}");
    assert!(body.contains("\"pruned_outputs\":"), "{body}");
    assert!(body.contains("\"bound_rebuilds\":"), "{body}");
    assert!(body.contains("\"last_refresh_ns\":"), "{body}");
    let (status, one) = scrape(addr, "/patterns/0");
    assert_eq!(status, 200);
    assert!(one.contains("\"id\":\"pattern#0\""));
    assert!(one.contains("\"bound_mode\":"), "{one}");
    assert_eq!(scrape(addr, "/patterns/99").0, 404);
    assert_eq!(scrape(addr, "/nope").0, 404);
    assert_eq!(request(addr, "POST", "/metrics").0, 405);

    // Kill the loop while the admin plane lives on: every endpoint turns
    // into 503 — the controller is the liveness probe.
    drop(handle);
    let (status, body) = scrape(addr, "/healthz");
    assert_eq!(status, 503);
    assert!(body.contains("service loop gone"), "{body}");
    assert_eq!(scrape(addr, "/metrics").0, 503);
    admin.shutdown();
}

#[test]
fn health_walks_ready_degraded_unready_and_back() {
    let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 2), (1, 3)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let cfg = ServiceConfig {
        queue_capacity: 1,
        health: HealthConfig { max_fsync_age: Duration::from_millis(20), ..Default::default() },
        ..Default::default()
    };
    let mut svc = AnswerService::new(&g, cfg);
    let sub = svc.subscribe(q, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    sub.try_recv().expect("initial answer");
    let id = sub.pattern();

    let handle = ServiceHandle::spawn(svc);
    let admin = AdminServer::bind("127.0.0.1:0", handle.controller()).unwrap();
    let addr = admin.local_addr();
    let health = |note: &str| {
        let (status, body) = scrape(addr, "/healthz");
        (status, wire_status(&body), format!("{note}: {body}"))
    };

    let (status, state, ctx) = health("fresh service");
    assert_eq!((status, state), (200, "ready"), "{ctx}");

    // Degraded #1 — a saturated subscription queue (capacity 1, consumer
    // stalled): the next push coalesces, so consumers are losing history.
    handle.ingest(GraphDelta::new().add_node(1).add_edge(0, 4)).unwrap();
    let (status, state, ctx) = health("stalled consumer");
    assert_eq!((status, state), (200, "degraded"), "{ctx}");
    assert!(ctx.contains("1/1 queues at capacity"), "{ctx}");
    sub.drain();
    let (status, state, ctx) = health("consumer caught up");
    assert_eq!((status, state), (200, "ready"), "{ctx}");

    // Degraded #2 — stale durability: once a save opts into persistence,
    // unpersisted entries older than max_fsync_age breach the promise.
    let dir = std::env::temp_dir().join("gpm_operator_plane_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("log_{}.jsonl", std::process::id()));
    let save_to = path.clone();
    handle.with(move |svc| svc.save_log(&save_to)).unwrap();
    handle.ingest(GraphDelta::new().add_node(0).add_edge(5, 2)).unwrap();
    sub.drain();
    std::thread::sleep(Duration::from_millis(40));
    let (status, state, ctx) = health("stale fsync");
    assert_eq!((status, state), (200, "degraded"), "{ctx}");
    assert!(ctx.contains("unpersisted"), "{ctx}");
    let save_to = path.clone();
    handle.with(move |svc| svc.save_log(&save_to)).unwrap();
    let (status, state, ctx) = health("checkpoint taken");
    assert_eq!((status, state), (200, "ready"), "{ctx}");

    // Unready — the sampled auditor proves the maintained condensation
    // wrong (a deliberately desynchronized pair edge). Correctness
    // outranks latency: /healthz and /readyz both refuse with 503.
    let corrupted = handle.with(move |svc| svc.corrupt_maintained_for_test(id));
    assert!(corrupted, "small graph keeps maintained mode, so there is state to corrupt");
    let audited = handle.with(|svc| svc.audit_sample());
    let (audited_id, verdict) = audited.expect("one registered pattern");
    assert_eq!(audited_id, id);
    assert!(verdict.is_err(), "audit detects the injected corruption");
    let (status, state, ctx) = health("corrupt condensation");
    assert_eq!((status, state), (503, "unready"), "{ctx}");
    assert!(ctx.contains("\"name\":\"audit\",\"status\":\"unready\""), "{ctx}");
    let (status, body) = scrape(addr, "/readyz");
    assert_eq!((status, body.as_str()), (503, "{\"status\":\"unready\"}"));

    // And back: deregistering the corrupted pattern retires its state, so
    // the next audit pass clears the stale latch.
    let removed = handle.with(move |svc| svc.unsubscribe(&sub));
    assert!(removed);
    handle.with(|svc| svc.audit_sample());
    let (status, state, ctx) = health("corrupted pattern retired");
    assert_eq!((status, state), (200, "ready"), "{ctx}");

    std::fs::remove_file(&path).ok();
    admin.shutdown();
    drop(handle);
}

#[test]
fn background_auditor_catches_corruption_unprompted() {
    let g = graph_from_parts(&[0, 0, 1, 1], &[(0, 2), (1, 2), (1, 3)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc.subscribe(q, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    sub.try_recv().expect("initial answer");
    let id = sub.pattern();

    let handle = ServiceHandle::spawn(svc);
    let auditor = Auditor::spawn(
        handle.controller(),
        AuditorConfig { every_batches: 0, interval: Duration::from_millis(5) },
    );

    // Let at least one clean audit land, then corrupt and wait for the
    // auditor — nobody calls audit_sample by hand here.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let runs = handle.with(|svc| svc.telemetry().metrics().counter(names::AUDIT_RUNS).get());
        if runs > 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "auditor never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.with(move |svc| svc.corrupt_maintained_for_test(id)));
    loop {
        let (violations, latched) = handle.with(|svc| {
            (
                svc.telemetry().metrics().counter(names::AUDIT_VIOLATIONS).get(),
                svc.audit_violation(),
            )
        });
        if violations >= 1 {
            let (latched_id, msg) = latched.expect("violation latches health");
            assert_eq!(latched_id, id);
            assert!(!msg.is_empty());
            break;
        }
        assert!(std::time::Instant::now() < deadline, "auditor never caught the corruption");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!handle.with(|svc| svc.health()).is_ready(), "latched violation is unready");

    auditor.stop();
    drop(handle);
}
