//! The measurement loop every run goes through: one discarded warm-up pass
//! on a cold build, then P timed passes over the identical op sequence,
//! each on a freshly built system, one system alive at a time, with the
//! host probe sampled between ops.

use std::time::Instant;

use crate::estimator::{summarize, tail_percentile, PassTimes};
use crate::host::{self, HostIndex, HostProbe};
use crate::report::Metrics;
use crate::workloads::Workload;

/// Probe samples a pass takes between its ops.
const SAMPLES_PER_PASS: usize = 24;

/// Hands the host probe to a pass. A sample follows every `interval`-th
/// op, at an offset that moves with the pass: the op after a sample runs
/// on the caches the probe left behind, and this way it does so in at most
/// one pass, which the per-op minimum then drops.
pub struct Ticker<'a> {
    probe: &'a mut HostProbe,
    interval: usize,
    offset: usize,
}

/// `(interval, offset)` of the samples pass `pass` out of `passes` takes.
fn sample_slots(n_ops: usize, pass: usize, passes: usize) -> (usize, usize) {
    let interval = (n_ops / SAMPLES_PER_PASS).max(1);
    (interval, pass * interval / passes.max(1))
}

impl<'a> Ticker<'a> {
    /// The ticker of pass `pass` out of `passes` over `n_ops` ops.
    pub fn new(probe: &'a mut HostProbe, n_ops: usize, pass: usize, passes: usize) -> Self {
        let (interval, offset) = sample_slots(n_ops, pass, passes);
        Ticker { probe, interval, offset }
    }

    /// Call after op `i`, outside its timed region.
    pub fn after_op(&mut self, i: usize) {
        if i % self.interval == self.offset {
            self.probe.sample();
        }
    }
}

/// What the loop measured, plus the last pass's system and output for the
/// oracle.
pub struct Measured<S, O> {
    pub times: PassTimes,
    /// Minimum over every warm build, as timed.
    pub setup_s: f64,
    /// Builds behind `setup_s`.
    pub builds: usize,
    /// The discarded first build.
    pub setup_cold_s: f64,
    /// `VmHWM` after the last timed pass, before any correctness check,
    /// less the probe's own buffers.
    pub peak_rss_mb: f64,
    /// How fast the host ran while the passes were timed.
    pub host: HostIndex,
    pub system: S,
    pub out: O,
}

/// Runs the loop: `passes` timed passes and, before them, `extra_builds`
/// builds that are timed and dropped (a 20 ms set-up needs more than P
/// samples for a steady minimum). `pass` returns the per-op nanoseconds of
/// one pass over `n_ops` ops and whatever the oracle needs from it.
pub fn measure<S, O>(
    workload: Workload,
    (passes, extra_builds): (usize, usize),
    n_ops: usize,
    mut build: impl FnMut() -> S,
    mut pass: impl FnMut(&mut S, &mut Ticker) -> (Vec<u64>, O),
) -> Measured<S, O> {
    assert_eq!(
        tail_percentile(n_ops),
        Some(workload.tail_pct()),
        "frozen tail percentile fits the op count"
    );
    let mut probe = HostProbe::new();
    let t = Instant::now();
    let mut cold = build();
    let setup_cold_s = t.elapsed().as_secs_f64();
    pass(&mut cold, &mut Ticker::new(&mut probe, n_ops, 0, passes));
    drop(cold);
    probe.clear();

    let mut setup_s = f64::INFINITY;
    let mut timed_build = |probe: &mut HostProbe| {
        probe.sample();
        let t = Instant::now();
        let system = build();
        setup_s = setup_s.min(t.elapsed().as_secs_f64());
        system
    };
    for _ in 0..extra_builds {
        drop(timed_build(&mut probe));
    }
    let mut times = PassTimes::new(n_ops);
    let mut last = None;
    for p in 0..passes {
        drop(last.take()); // one system at a time
        let mut system = timed_build(&mut probe);
        let (ns, out) = pass(&mut system, &mut Ticker::new(&mut probe, n_ops, p, passes));
        times.push(ns);
        last = Some((system, out));
    }
    let peak_rss_mb = host::peak_rss_mb() - probe.rss_mb;
    let (system, out) = last.expect("at least one timed pass");
    Measured {
        times,
        setup_s,
        builds: passes + extra_builds,
        setup_cold_s,
        peak_rss_mb,
        host: probe.index(),
        system,
        out,
    }
}

impl<S, O> Measured<S, O> {
    /// Ops attempted across the timed passes.
    pub fn ops_attempted(&self) -> u64 {
        (self.times.passes() * self.times.ops()) as u64
    }

    /// Prints the pass header and returns the end-to-end metrics: every
    /// timing as measured divided by the run's host index (throughput
    /// multiplied). `dh_f_ratio` comes with the number of patterns behind
    /// it.
    pub fn end_to_end(&self, tail_pct: f64, dh_f_ratio: (f64, usize), rss_reset: bool) -> Metrics {
        let n_ops = self.times.ops();
        let summary = summarize(&self.times.minima(), tail_pct);
        let host = self.host.value;
        println!(
            "# passes=1+{} ops/pass={n_ops} tail=p{tail_pct} ({} ops beyond) builds={} \
             pass_spread={:.4} rss_reset={rss_reset}",
            self.times.passes(),
            summary.tail_beyond,
            self.builds,
            self.times.pass_spread(),
        );
        println!("# {}", self.host.line());
        println!(
            "# as timed (before ÷ host_index): setup_s={:.6} op_ms_p50={:.6} op_ms_tail={:.6} \
             ops_per_s={:.4}",
            self.setup_s, summary.p50_ms, summary.tail_ms, summary.ops_per_s
        );
        let mut metrics = Metrics::new();
        metrics.set("setup_s", self.setup_s / host, self.builds);
        metrics.set("peak_rss_mb", self.peak_rss_mb, 1);
        metrics.set("op_ms_p50", summary.p50_ms / host, n_ops);
        metrics.set("op_ms_tail", summary.tail_ms / host, n_ops);
        metrics.set("ops_per_s", summary.ops_per_s * host, n_ops);
        metrics.set("dh_f_ratio", dh_f_ratio.0, dh_f_ratio.1);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_op_follows_a_probe_sample_in_two_passes() {
        // (ops, timed passes) of the four workloads at the nominal length.
        for (n_ops, passes) in [(135, 5), (1000, 7), (600, 6), (1260, 7)] {
            let mut sampled_after = vec![0; n_ops];
            for pass in 0..passes {
                let (interval, offset) = sample_slots(n_ops, pass, passes);
                let taken = (0..n_ops).filter(|i| i % interval == offset).count();
                assert!(taken >= SAMPLES_PER_PASS, "{n_ops} ops: {taken} samples");
                for slot in sampled_after.iter_mut().skip(offset).step_by(interval) {
                    *slot += 1;
                }
            }
            assert!(sampled_after.iter().all(|&n| n <= 1), "{n_ops} ops, {passes} passes");
        }
    }
}
