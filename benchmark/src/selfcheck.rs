//! `all` and `selfcheck`: the benchmark run the way the driver runs it —
//! one child process per run, so every run starts from a fresh address
//! space and `peak_rss_mb` means the same thing it means to the driver.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::args::SuiteArgs;
use crate::workloads::Workload;

/// Per-layer values that are counts of what the program did, not timings:
/// two runs of one seed must report them identically.
const EXACT_PER_LAYER: &[&str] = &[
    "core.match_ratio",
    "core.match_ratio_nopt",
    "core.early_terminated_share",
    "simulation.candidate_pairs",
    "simulation.match_pairs",
    "incremental.shared_index_hit_rate",
    "incremental.sets_recomputed_per_batch",
    "incremental.full_rebuilds",
    "incremental.full_rank_refreshes",
    "incremental.cond_incremental",
    "incremental.cond_rebuilds",
    "incremental.bound_rebuilds",
    "incremental.pruned_outputs",
    "incremental.intra_pattern_splits",
    "serving.updates_delivered",
    "serving.suppressed",
    "serving.coalesced",
    "serving.notified_batch_share",
];

/// End-to-end values that must agree exactly, not merely within a bound.
const EXACT_END_TO_END: &[&str] = &["dh_f_ratio"];

/// One child run, parsed.
struct Run {
    correct: bool,
    input_digest: String,
    metrics: BTreeMap<String, f64>,
}

fn run_child(w: Workload, suite: SuiteArgs, trace: bool, echo: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &suite.seed.to_string()])
        .args(["--seconds", &suite.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--dataset", &suite.dataset.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("{} trace={trace} exited with {}", w.name(), out.status));
    }
    let input_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# input_digest="))
        .and_then(|l| l.split_whitespace().next())
        .ok_or("no input_digest line")?
        .to_string();
    let last = stdout.lines().last().ok_or("no output")?;
    let v = serde_json::from_str(last).map_err(|e| format!("contract line: {e}"))?;
    let correct = v.get("correct") == Some(&Value::Bool(true));
    let Some(Value::Object(fields)) = v.get("metrics") else {
        return Err("contract line has no metrics object".into());
    };
    let metrics =
        fields.iter().filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?))).collect();
    Ok(Run { correct, input_digest, metrics })
}

/// `gpm-benchmark all`: every workload, untraced then traced; each child
/// prints every metric by name with unit, sample count and frozen sizes.
pub fn all(suite: SuiteArgs) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            match run_child(w, suite, trace, true) {
                Ok(run) => ok &= run.correct,
                Err(e) => {
                    eprintln!("all: {e}");
                    ok = false;
                }
            }
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The regression bounds of `BENCHMARK.json`, by end-to-end metric name.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Relative disagreement of two readings of one metric.
fn disagreement(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

/// `gpm-benchmark selfcheck`: every workload twice, the second round in
/// reverse order; fails unless inputs and exact counts are identical and
/// every end-to-end metric agrees within its bound.
pub fn selfcheck(suite: SuiteArgs) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rounds: Vec<BTreeMap<(&'static str, bool), Run>> = Vec::new();
    let mut failures = 0usize;
    for round in 0..2 {
        let mut order = Workload::ALL.to_vec();
        if round == 1 {
            order.reverse();
        }
        let mut runs = BTreeMap::new();
        for w in order {
            for trace in [false, true] {
                eprintln!("selfcheck: round {} {} trace={}", round + 1, w.name(), u8::from(trace));
                match run_child(w, suite, trace, false) {
                    Ok(run) => {
                        if !run.correct {
                            println!("FAIL {} trace={trace}: run reported incorrect", w.name());
                            failures += 1;
                        }
                        runs.insert((w.name(), trace), run);
                    }
                    Err(e) => {
                        println!("FAIL {e}");
                        failures += 1;
                    }
                }
            }
        }
        rounds.push(runs);
    }
    let (first, second) = (&rounds[0], &rounds[1]);
    for (key @ (name, trace), a) in first {
        let Some(b) = second.get(key) else { continue };
        if a.input_digest != b.input_digest {
            println!(
                "FAIL {name} trace={trace}: input_digest {} vs {}",
                a.input_digest, b.input_digest
            );
            failures += 1;
        }
        for (metric, &x) in &a.metrics {
            let Some(&y) = b.metrics.get(metric) else { continue };
            let exact = EXACT_END_TO_END.contains(&metric.as_str())
                || EXACT_PER_LAYER.contains(&metric.as_str());
            let bound = if exact { Some(0.0) } else { bounds.get(metric).copied() };
            let Some(bound) = bound.filter(|_| exact || !trace) else { continue };
            if x == 0.0 && y == 0.0 {
                continue; // a per-layer metric this workload does not have
            }
            let d = disagreement(x, y);
            let verdict = if d <= bound { "ok  " } else { "FAIL" };
            println!(
                "{verdict} {name:<18} {metric:<40} {x:>16.6} {y:>16.6} differ {:>7.3}% (bound {:.1}%)",
                100.0 * d,
                100.0 * bound
            );
            failures += usize::from(d > bound);
        }
    }
    if failures == 0 {
        println!("selfcheck: all runs agree");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {failures} disagreement(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_symmetric_and_relative() {
        assert_eq!(disagreement(100.0, 110.0), disagreement(110.0, 100.0));
        assert!((disagreement(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(disagreement(0.0, 0.0), 0.0);
        assert_eq!(disagreement(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn exact_metrics_are_in_the_catalog() {
        for name in EXACT_PER_LAYER {
            assert!(crate::report::PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
        for name in EXACT_END_TO_END {
            assert!(crate::report::END_TO_END.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
