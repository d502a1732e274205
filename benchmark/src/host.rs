//! What the host contributes to a number: the machine stamp printed with
//! every output, the probe whose index every end-to-end timing is divided
//! by, a fixed integer kernel timed at start and end, and the process's
//! peak resident set.

use std::time::Instant;

use crate::report::Metrics;

/// Machine, toolchain and commit, stamped into every output.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub machine: String,
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl Stamp {
    /// Reads the stamp from `/proc`, the build and (when the checkout is a
    /// git repository) `git`.
    pub fn read() -> Self {
        let machine = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Stamp {
            machine,
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit,
        }
    }

    /// One line for the human-readable header.
    pub fn line(&self) -> String {
        format!(
            "machine={} cpu={:?} nproc={} rustc={:?} commit={}",
            self.machine, self.cpu, self.nproc, self.rustc, self.commit
        )
    }
}

/// Times a fixed integer kernel (a 64-bit xorshift chain, no memory
/// traffic) and returns milliseconds. The same code on the same inputs in
/// every run: when this moves, the host moved.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's peak-RSS watermark to the current resident set, so
/// `peak_rss_mb` afterwards describes what follows (the system under test)
/// instead of input generation's transients. Returns whether the kernel
/// allowed it; when it does not, the peak simply covers generation too.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the last CPU it may run on (the first one
/// takes the guest's interrupts), so the scheduler cannot move the
/// measuring thread between passes. Returns the CPU, or `None` when the
/// kernel refused and the thread stays where the scheduler puts it.
pub fn pin_measuring_thread() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: the kernel writes at most `size` bytes, the length of `mask`.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
            return None;
        }
        let word = mask.iter().rposition(|&w| w != 0)?;
        let cpu = word * 64 + 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes, the length of `one`.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Tells glibc's allocator to keep freed memory instead of handing it back
/// to the kernel: no `mmap` per large block, no heap trimming, and the heap
/// grown 256 MB at a time. On the 80 k-node suite every op otherwise maps,
/// faults in and unmaps its scratch vectors (820 k page faults a run against
/// 56 k with this), and a fault is the operation a microVM's host makes
/// slow and unsteady. Returns whether the allocator took all three settings.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only stores the values; 32 MB is the largest
        // mmap threshold glibc accepts.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
                && mallopt(M_TOP_PAD, 256 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// Current resident set (`VmRSS`) of this process, in MB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quiet-host time of each probe kernel in ms: the 10th percentile of the
/// 12 000 samples of the noise study (`NOISE.md`). Frozen, so an index of
/// 1.10 means "the host ran the probe 10 % slower than the study's quiet
/// host", on any day.
const PROBE_REF_MS: [f64; 3] = [1.026, 2.603, 3.122];

/// How much a workload of this system slows per unit of each kernel's
/// slow-down, as exponents of the index: a least-squares fit over the 294
/// runs of the noise study (`NOISE.md`), rounded. The workloads track the
/// cache kernel, and more than one for one; the xorshift chain barely
/// moves with the host's phases and is reported only.
const SENSITIVITY: [f64; 3] = [0.0, 1.25, 0.25];

/// Share of a run's probe samples kept, fastest first: the slowest fifth
/// are pre-emptions of the probe itself (up to 16x), not the host's speed.
const PROBE_KEEP: f64 = 0.8;

/// How fast the host ran this run's probe, relative to the quiet host.
#[derive(Debug, Clone, Copy)]
pub struct HostIndex {
    /// Product of `kernels`, each raised to its [`SENSITIVITY`]; 1.0 when
    /// no sample was taken.
    pub value: f64,
    /// Per kernel (cpu, cache, dram): trimmed mean over the samples of its
    /// time, over its quiet-host time.
    pub kernels: [f64; 3],
    pub samples: usize,
}

impl HostIndex {
    /// One line for the human-readable header.
    pub fn line(&self) -> String {
        let [cpu, cache, dram] = self.kernels;
        format!(
            "host_index={:.4} (cpu {cpu:.4} cache {cache:.4} dram {dram:.4}; {} samples)",
            self.value, self.samples
        )
    }

    /// The traced run's per-layer view of the index.
    pub fn record(&self, metrics: &mut Metrics) {
        metrics.set("host.index", self.value, self.samples);
        for (name, k) in
            ["host.index.cpu", "host.index.cache", "host.index.dram"].iter().zip(self.kernels)
        {
            metrics.set(name, k, self.samples);
        }
    }
}

/// Three fixed kernels timed between ops, next to the work they calibrate:
/// a 64-bit xorshift dependency chain (clock and a busy hyperthread
/// sibling), a pointer chase over 512 KB (the core's caches, shared with
/// that sibling) and a pointer chase over 64 MB (memory latency, which on
/// this kind of host moves 20-40 % with what the neighbours do). The noise
/// study found the host, not the program, behind shifts of up to 21 %
/// between ten-run medians of the same code; dividing a run's timings by
/// its index leaves 6 %.
pub struct HostProbe {
    big: Vec<u32>,
    small: Vec<u32>,
    at_big: u32,
    at_small: u32,
    samples: Vec<[f64; 3]>,
    /// What the probe's buffers added to the resident set.
    pub rss_mb: f64,
}

/// A random permutation of `0..n` that is one single cycle (Sattolo), so a
/// chase visits every entry before it repeats.
fn single_cycle(n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.swap(i, (x % i as u64) as usize);
    }
    v
}

impl HostProbe {
    pub fn new() -> Self {
        let before = rss_mb();
        let big = single_cycle(16 << 20);
        let small = single_cycle(128 << 10);
        let rss_mb = (rss_mb() - before).max(0.0);
        HostProbe { big, small, at_big: 0, at_small: 0, samples: Vec::new(), rss_mb }
    }

    /// Times the three kernels once (~7 ms).
    pub fn sample(&mut self) {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..500_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let cpu = ms(t);
        let t = Instant::now();
        for _ in 0..300_000u32 {
            self.at_small = self.small[self.at_small as usize];
        }
        let cache = ms(t);
        let t = Instant::now();
        for _ in 0..20_000u32 {
            self.at_big = self.big[self.at_big as usize];
        }
        let dram = ms(t);
        self.samples.push([cpu, cache, dram]);
    }

    /// Forgets the samples taken so far (the warm-up pass's).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    pub fn index(&self) -> HostIndex {
        let mut kernels = [1.0; 3];
        let keep = ((self.samples.len() as f64 * PROBE_KEEP).ceil() as usize).max(1);
        for (k, slot) in kernels.iter_mut().enumerate() {
            let mut ms: Vec<f64> = self.samples.iter().map(|s| s[k]).collect();
            if ms.is_empty() {
                continue;
            }
            ms.sort_by(f64::total_cmp);
            ms.truncate(keep);
            *slot = ms.iter().sum::<f64>() / ms.len() as f64 / PROBE_REF_MS[k];
        }
        HostIndex {
            value: kernels.iter().zip(SENSITIVITY).map(|(k, s)| k.powf(s)).product(),
            kernels,
            samples: self.samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_trimmed_mean_over_the_quiet_host() {
        let mut probe = HostProbe {
            big: vec![0],
            small: vec![0],
            at_big: 0,
            at_small: 0,
            samples: vec![],
            rss_mb: 0.0,
        };
        assert_eq!(probe.index().value, 1.0, "no samples, no correction");
        // Four samples at 1.1x the quiet host and one pre-empted (16x):
        // the slowest fifth is dropped.
        let quiet = PROBE_REF_MS;
        for factor in [1.1, 1.1, 16.0, 1.1, 1.1] {
            probe.samples.push([quiet[0] * factor, quiet[1] * factor, quiet[2] * factor]);
        }
        let index = probe.index();
        assert_eq!(index.samples, 5);
        assert!(index.kernels.iter().all(|k| (k - 1.1).abs() < 1e-12), "{index:?}");
        let total: f64 = SENSITIVITY.iter().sum();
        assert!((index.value - 1.1f64.powf(total)).abs() < 1e-12, "{index:?}");
        probe.clear();
        assert_eq!(probe.index().samples, 0);
    }

    #[test]
    fn the_chase_permutation_is_one_cycle() {
        let v = single_cycle(1000);
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = v[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 1000);
    }
}
