//! The estimator every end-to-end timing goes through.
//!
//! A run replays one fixed op sequence `P` times. For each op the
//! **minimum across passes** is kept — the minimum is the noise filter
//! (a pre-empted or page-faulting pass can only make an op slower, never
//! faster) — and the percentile is then the statistic **across ops** of
//! those minima. Throughput is ops divided by the sum of the minima, so it
//! is time-weighted and follows the heavy ops a median ignores.

/// Per-op wall times of every timed pass over one fixed op sequence.
#[derive(Debug, Clone)]
pub struct PassTimes {
    ops: usize,
    /// One row per timed pass, `ops` nanosecond samples each.
    passes: Vec<Vec<u64>>,
}

impl PassTimes {
    /// An empty record for a sequence of `ops` operations.
    pub fn new(ops: usize) -> Self {
        PassTimes { ops, passes: Vec::new() }
    }

    /// Adds one timed pass. Panics when the pass did not run the same
    /// number of ops — passes over different work cannot be merged.
    pub fn push(&mut self, pass_ns: Vec<u64>) {
        assert_eq!(pass_ns.len(), self.ops, "every pass replays the identical op sequence");
        self.passes.push(pass_ns);
    }

    /// Timed passes recorded so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Ops per pass.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// The per-op minimum across passes, in nanoseconds.
    pub fn minima(&self) -> Vec<u64> {
        (0..self.ops)
            .map(|i| self.passes.iter().map(|p| p[i]).min().expect("at least one timed pass"))
            .collect()
    }

    /// Median over ops of (median across passes ÷ minimum across passes):
    /// how far a typical pass sat above the floor. Near 1.0 on a quiet
    /// host; a slow *host* raises it, a slow *program* does not.
    pub fn pass_spread(&self) -> f64 {
        let mut ratios: Vec<f64> = (0..self.ops)
            .map(|i| {
                let mut col: Vec<f64> = self.passes.iter().map(|p| p[i] as f64).collect();
                col.sort_by(f64::total_cmp);
                let min = col[0].max(1.0);
                median_sorted(&col) / min
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        median_sorted(&ratios)
    }
}

/// The summary of one set of per-op minima.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSummary {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Ops strictly beyond the tail percentile.
    pub tail_beyond: usize,
    pub ops_per_s: f64,
}

/// Summarizes per-op minima (nanoseconds) at a given tail percentile.
pub fn summarize(minima_ns: &[u64], tail_pct: f64) -> OpSummary {
    let mut ms: Vec<f64> = minima_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    OpSummary {
        p50_ms: percentile_sorted(&ms, 50.0),
        tail_ms: percentile_sorted(&ms, tail_pct),
        tail_beyond: beyond(ms.len(), tail_pct),
        ops_per_s: throughput(minima_ns),
    }
}

/// Ops per second implied by the summed per-op minima.
pub fn throughput(minima_ns: &[u64]) -> f64 {
    let total_ns: u64 = minima_ns.iter().sum();
    if total_ns == 0 {
        return 0.0;
    }
    minima_ns.len() as f64 / (total_ns as f64 / 1e9)
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the lowest rung has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0.0 when empty).
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Nearest-rank percentile of unsorted nanosecond samples, in milliseconds.
pub fn percentile_ms(samples_ns: &[u64], pct: f64) -> f64 {
    let mut ms: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    percentile_sorted(&ms, pct)
}

/// Mean of nanosecond samples, in milliseconds (0.0 when empty).
pub fn mean_ms(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.iter().sum::<u64>() as f64 / 1e6 / samples_ns.len() as f64
}

/// Median of an ascending slice (mean of the middle two when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Timed passes for a run of `seconds`: the workload's nominal count
/// scaled linearly, never below the four the estimator needs.
pub fn timed_passes(nominal: usize, seconds: u64, nominal_seconds: u64) -> usize {
    let scaled = (nominal as f64 * seconds as f64 / nominal_seconds as f64).round() as usize;
    scaled.max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_minimum_merges_across_passes() {
        let mut t = PassTimes::new(3);
        t.push(vec![10, 50, 30]);
        t.push(vec![12, 20, 35]);
        t.push(vec![11, 25, 28]);
        assert_eq!(t.passes(), 3);
        assert_eq!(t.minima(), vec![10, 20, 28]);
    }

    #[test]
    #[should_panic(expected = "identical op sequence")]
    fn passes_over_different_work_do_not_merge() {
        let mut t = PassTimes::new(3);
        t.push(vec![1, 2]);
    }

    #[test]
    fn pass_spread_is_one_when_passes_agree() {
        let mut t = PassTimes::new(2);
        t.push(vec![100, 200]);
        t.push(vec![100, 200]);
        t.push(vec![100, 200]);
        assert_eq!(t.pass_spread(), 1.0);
        let mut noisy = PassTimes::new(1);
        noisy.push(vec![100]);
        noisy.push(vec![150]);
        noisy.push(vec![300]);
        assert_eq!(noisy.pass_spread(), 1.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1260 ops: p99 leaves 12 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(1260), Some(99.0));
        assert_eq!(beyond(1260, 99.0), 12);
        // 900 ops: p99 leaves 9 — one short — so p95 it is.
        assert_eq!(tail_percentile(900), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(300), Some(95.0));
        // 90 ops: p90 leaves 9, p85 leaves 13.
        assert_eq!(tail_percentile(90), Some(85.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(100_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.9), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median_sorted(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn throughput_is_ops_over_summed_minima() {
        // Four ops whose minima sum to 2 ms: 2000 ops/s, whatever the mix.
        assert_eq!(throughput(&[500_000, 500_000, 500_000, 500_000]), 2000.0);
        assert_eq!(throughput(&[100_000, 100_000, 100_000, 1_700_000]), 2000.0);
        assert_eq!(throughput(&[]), 0.0);
        let s = summarize(&[1_000_000, 2_000_000, 3_000_000, 4_000_000], 75.0);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.tail_ms, 3.0);
        assert_eq!(s.tail_beyond, 1);
        assert_eq!(s.ops_per_s, 400.0);
    }

    #[test]
    fn seconds_scale_passes_only_and_never_below_four() {
        assert_eq!(timed_passes(8, 20, 20), 8);
        assert_eq!(timed_passes(8, 40, 20), 16);
        assert_eq!(timed_passes(8, 10, 20), 4);
        assert_eq!(timed_passes(8, 1, 20), 4);
    }
}
