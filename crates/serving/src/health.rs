//! The serving health model: one [`HealthReport`] aggregated from
//! component probes, rendered on `/healthz` and summarized by `/readyz`.
//!
//! Three levels, chosen for what an orchestrator should do about them:
//!
//! * **Ready** — serve traffic.
//! * **Degraded** — keep serving, page someone: answers are still
//!   correct but a promise is slipping (stale durability, saturated
//!   subscriber queues, an SLO burning its budget).
//! * **Unready** — stop routing here: the service loop is gone, or the
//!   production auditor proved a maintained answer wrong — a correctness
//!   violation outranks every latency concern.
//!
//! Aggregation is worst-wins: any failed component makes the service
//! unready, else any degraded component makes it degraded.

use std::time::Duration;

use serde::{Serialize, Value};

/// Overall (and per-component) health level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Serving normally.
    Ready,
    /// Serving, but a promise is slipping — keep traffic, alert.
    Degraded,
    /// Do not route traffic here.
    Unready,
}

impl HealthStatus {
    /// The wire spelling (`"ready"` / `"degraded"` / `"unready"`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ready => "ready",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unready => "unready",
        }
    }
}

/// One probe's verdict.
#[derive(Debug, Clone)]
pub struct ComponentHealth {
    /// Stable component name (`"loop"`, `"delta_log"`, `"subscriptions"`,
    /// `"slo"`, `"audit"`, `"reach"`).
    pub name: &'static str,
    /// This component's level.
    pub status: HealthStatus,
    /// Human-readable evidence for the level.
    pub detail: String,
}

/// Thresholds of the health probes.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// A log with unpersisted entries whose last fsync is older than this
    /// is a degraded durability promise. Never-persisted logs are exempt
    /// (persistence is optional until the first save opts in).
    pub max_fsync_age: Duration,
    /// Degraded when more than this fraction of subscription queues sit
    /// at capacity (the next push coalesces — consumers are losing
    /// history).
    pub max_saturated_fraction: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig { max_fsync_age: Duration::from_secs(30), max_saturated_fraction: 0.5 }
    }
}

/// The aggregated health of a service at one consistency point.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst-wins aggregate of the components.
    pub status: HealthStatus,
    /// Every probe's verdict, in a stable order.
    pub components: Vec<ComponentHealth>,
}

impl HealthReport {
    /// Aggregates `components` worst-wins.
    pub fn aggregate(components: Vec<ComponentHealth>) -> Self {
        let status = components.iter().map(|c| c.status).max().unwrap_or(HealthStatus::Ready);
        HealthReport { status, components }
    }

    /// `true` unless the report is unready — what `/readyz` keys on.
    pub fn is_ready(&self) -> bool {
        self.status != HealthStatus::Unready
    }

    /// The `/healthz` body:
    /// `{"status":"…","components":[{"name":"…","status":"…","detail":"…"},…]}`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stub never fails")
    }
}

impl Serialize for HealthReport {
    fn to_value(&self) -> Value {
        let component = |c: &ComponentHealth| {
            Value::Object(vec![
                ("name".into(), c.name.to_value()),
                ("status".into(), c.status.as_str().to_value()),
                ("detail".into(), c.detail.to_value()),
            ])
        };
        Value::Object(vec![
            ("status".into(), self.status.as_str().to_value()),
            ("components".into(), Value::Array(self.components.iter().map(component).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(name: &'static str, status: HealthStatus) -> ComponentHealth {
        ComponentHealth { name, status, detail: String::new() }
    }

    #[test]
    fn aggregation_is_worst_wins() {
        let r = HealthReport::aggregate(vec![]);
        assert_eq!(r.status, HealthStatus::Ready);
        let r = HealthReport::aggregate(vec![
            comp("a", HealthStatus::Ready),
            comp("b", HealthStatus::Degraded),
        ]);
        assert_eq!(r.status, HealthStatus::Degraded);
        assert!(r.is_ready(), "degraded still serves");
        let r = HealthReport::aggregate(vec![
            comp("a", HealthStatus::Degraded),
            comp("b", HealthStatus::Unready),
        ]);
        assert_eq!(r.status, HealthStatus::Unready);
        assert!(!r.is_ready());
    }

    #[test]
    fn details_round_trip_through_the_json_writer() {
        let detail = "diverged: \"got\" \\ want\n\u{1}";
        let r = HealthReport::aggregate(vec![ComponentHealth {
            name: "audit",
            status: HealthStatus::Unready,
            detail: detail.into(),
        }]);
        let json = r.to_json();
        assert!(json.starts_with("{\"status\":\"unready\""), "{json}");
        let parsed = serde_json::from_str(&json).expect("the body is JSON");
        let component = &parsed.get("components").and_then(Value::as_array).unwrap()[0];
        assert_eq!(component.get("detail").and_then(Value::as_str), Some(detail));
    }
}
