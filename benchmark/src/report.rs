//! Metric names, units and the contract line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the catalog `BENCHMARK.json`
//! mirrors: every untraced run prints exactly the first, every traced run
//! exactly the second. A per-layer metric that does not apply to a
//! workload (the static algorithms have no `serving.*` numbers) reads 0.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("dh_f_ratio", "ratio"),
];

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.dyn_from_digraph_ms", "ms"),
    ("graph.dyn_apply_ms_mean", "ms"),
    ("graph.dyn_apply_ms_p99", "ms"),
    ("graph.snapshot_ms", "ms"),
    ("simulation.compute_ms_sum", "ms"),
    ("simulation.match_graph_ms_sum", "ms"),
    ("simulation.candidate_pairs", "count"),
    ("simulation.match_pairs", "count"),
    ("ranking.relevant_sets_ms_sum", "ms"),
    ("ranking.bounds_ms_sum", "ms"),
    ("ranking.distance_ms_sum", "ms"),
    ("core.match_ms_sum", "ms"),
    ("core.topk_ms_sum", "ms"),
    ("core.topknopt_ms_sum", "ms"),
    ("core.topkdiv_ms_sum", "ms"),
    ("core.topkdh_ms_sum", "ms"),
    ("core.topk_over_match", "ratio"),
    ("core.topkdh_over_topkdiv", "ratio"),
    ("core.match_ratio", "ratio"),
    ("core.match_ratio_nopt", "ratio"),
    ("core.early_terminated_share", "ratio"),
    ("core.rank_top_k_ms_sum", "ms"),
    ("core.greedy_div_ms_sum", "ms"),
    ("core.match_unattributed_ms", "ms"),
    ("incremental.register_ms_sum", "ms"),
    ("incremental.apply_ms_mean", "ms"),
    ("incremental.apply_ms_p99", "ms"),
    ("incremental.diversified_ms_mean", "ms"),
    ("incremental.dirty02_apply_ms_p50", "ms"),
    ("incremental.dirty25_apply_ms_p50", "ms"),
    ("incremental.dirty100_apply_ms_p50", "ms"),
    ("incremental.settle_apply_ms_p50", "ms"),
    ("incremental.dirty25_apply_ms_p50_threads2", "ms"),
    ("incremental.scratch_ms_mean", "ms"),
    ("incremental.speedup_vs_scratch", "ratio"),
    ("incremental.shared_index_hit_rate", "ratio"),
    ("incremental.sets_recomputed_per_batch", "count"),
    ("incremental.full_rebuilds", "count"),
    ("incremental.full_rank_refreshes", "count"),
    ("incremental.cond_incremental", "count"),
    ("incremental.cond_rebuilds", "count"),
    ("incremental.bound_rebuilds", "count"),
    ("incremental.pruned_outputs", "count"),
    ("incremental.intra_pattern_splits", "count"),
    ("serving.new_ms", "ms"),
    ("serving.subscribe_ms_sum", "ms"),
    ("serving.ingest_ms_p50", "ms"),
    ("serving.ingest_ms_p99", "ms"),
    ("serving.drain_us_mean", "us"),
    ("serving.self_ms_mean", "ms"),
    ("serving.top1pct_time_share", "ratio"),
    ("serving.notified_batch_share", "ratio"),
    ("serving.updates_delivered", "count"),
    ("serving.suppressed", "count"),
    ("serving.coalesced", "count"),
    ("serving.query_at_us_p50", "us"),
    ("serving.log_save_ms_mean", "ms"),
    ("serving.log_bytes_per_op", "B"),
    ("serving.recover_s", "s"),
    ("serving.log_load_ms", "ms"),
    ("serving.catch_up_ms", "ms"),
    ("serving.runtime_hop_ms_p50", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.phase_ms_sum.apply", "ms"),
    ("telemetry.phase_ms_sum.replay", "ms"),
    ("telemetry.phase_ms_sum.condense_incremental", "ms"),
    ("telemetry.phase_ms_sum.bound_refold", "ms"),
    ("telemetry.phase_ms_sum.plan", "ms"),
    ("telemetry.phase_ms_sum.prepare", "ms"),
    ("telemetry.phase_ms_sum.extract", "ms"),
    ("telemetry.phase_ms_sum.notify", "ms"),
    ("telemetry.phase_ms_sum.log_fsync", "ms"),
    ("telemetry.unattributed_ms_mean", "ms"),
    ("datagen.graph_gen_s", "s"),
    ("datagen.pattern_gen_s", "s"),
    ("datagen.stream_gen_s", "s"),
    ("host.index", "ratio"),
    ("host.index.cpu", "ratio"),
    ("host.index.cache", "ratio"),
    ("host.index.dram", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.pass_spread", "ratio"),
    ("host.setup_cold_s", "s"),
    ("host.trace_overhead_pct", "%"),
    ("host.wall_s", "s"),
];

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, keyed by catalog name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `name`. Panics on a name outside the catalog — a typo must
    /// not silently drop a metric from the contract line.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name:?} is not in the catalog"
        );
        // JSON has no NaN/inf; a ratio over an empty base reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// Every metric of `catalog` in catalog order; absent ones read 0.
    pub fn in_catalog(&self, catalog: &[(&'static str, &'static str)]) -> Vec<Row> {
        catalog
            .iter()
            .map(|&(name, unit)| {
                let m = self.get(name).unwrap_or(Measured { value: 0.0, samples: 0 });
                Row { name, unit, value: m.value, samples: m.samples }
            })
            .collect()
    }
}

/// One printable metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The contract line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`, values printed with all their
    /// digits.
    pub fn contract_line(&self, traced: bool) -> String {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = self
            .metrics
            .in_catalog(catalog)
            .iter()
            .map(|r| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", r.name, r.value, r.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = v
                .get(key)
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(serde_json::Value::as_str).unwrap();
                    assert!(["lower", "higher"].contains(&field("better")));
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalog, "{key} of BENCHMARK.json drifted from the catalog");
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(serde_json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(serde_json::Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::Workload::ALL.map(|w| w.name()));
        assert_eq!(
            v.get("run_seconds").and_then(serde_json::Value::as_u64),
            Some(crate::args::NOMINAL_SECONDS)
        );
    }

    #[test]
    fn contract_line_is_json_with_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        metrics.set("setup_s", 0.331_234_567_891, 8);
        metrics.set("ops_per_s", f64::NAN, 0);
        let out = Outcome { attempted: 1260, failed: 0, metrics };
        let v = serde_json::from_str(&out.contract_line(false)).unwrap();
        let serde_json::Value::Object(fields) = &v else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&serde_json::Value::Bool(true)));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1260));
        let m = v.get("metrics").unwrap();
        let serde_json::Value::Object(ms) = m else { panic!("metrics not an object") };
        assert_eq!(ms.len(), END_TO_END.len());
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.331_234_567_891));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("ops_per_s").unwrap().get("value").unwrap().as_f64(), Some(0.0));

        let traced = serde_json::from_str(&out.contract_line(true)).unwrap();
        let serde_json::Value::Object(ms) = traced.get("metrics").unwrap() else { panic!() };
        assert_eq!(ms.len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_names_are_rejected() {
        Metrics::new().set("serving.typo_ms", 1.0, 1);
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let out = Outcome { attempted: 10, failed: 1, metrics: Metrics::new() };
        assert!(out.contract_line(false).starts_with("{\"correct\": false"));
    }
}
