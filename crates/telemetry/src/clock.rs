//! The span clock: RDTSC fast path with an [`Instant`] fallback.
//!
//! Phase tracing reads the clock twice per span (open + close). Through
//! `Instant::now` that is ~20–50 ns per read depending on how the
//! kernel exposes `clock_gettime`, and at serving batch rates the clock
//! becomes the single largest telemetry cost. On x86_64 the invariant
//! TSC is a ~5–10 ns register read; ticks are converted to nanoseconds
//! with a once-per-process calibration against the real clock
//! (fixed-point, `ns·2³² / tick`). Span timestamps only ever feed
//! *relative* durations inside one batch trace, so sub-percent
//! calibration error shifts reported latencies slightly and affects
//! nothing else. Other architectures keep `Instant` (ticks *are*
//! nanoseconds there and conversion is the identity).
//!
//! Calibration reads the TSC and `Instant` at each end of its window. Two
//! back-to-back reads can still be split by a preemption, which would
//! charge the whole pause to one clock and mis-scale every span the
//! process records. So each `Instant` read is bracketed by two TSC reads,
//! and a bracket wider than a preemption-free pair is read again.

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// `ns per tick × 2³²`, calibrated once per process over a ~200 µs
    /// window (error well under 1%). TSC rates of 1–5 GHz put the scale
    /// near 2³⁰–2³²; the u128 multiply in [`ticks_to_ns`] has headroom
    /// for spans years long.
    fn scale() -> u64 {
        static SCALE: OnceLock<u64> = OnceLock::new();
        *SCALE.get_or_init(|| {
            let (c0, t0) = paired_read();
            while t0.elapsed().as_nanos() < 200_000 {
                std::hint::spin_loop();
            }
            let (c1, t1) = paired_read();
            let ns = t1.duration_since(t0).as_nanos().min(u64::MAX as u128) as u64;
            let dc = c1.saturating_sub(c0).max(1);
            (((ns as u128) << 32) / dc as u128).max(1) as u64
        })
    }

    /// A bracket at most this many ticks wide holds no preemption: one
    /// `Instant` read costs well under a microsecond, a scheduler pause
    /// tens of them.
    const MAX_BRACKET_TICKS: u64 = 4_096;

    /// `(tick, instant)` read at one moment: `Instant::now` between two
    /// TSC reads, with the tick at the bracket's midpoint. A bracket wider
    /// than [`MAX_BRACKET_TICKS`] is read again, up to 64 times, keeping
    /// the narrowest.
    pub fn paired_read() -> (u64, Instant) {
        let mut best: Option<(u64, u64, Instant)> = None;
        for _ in 0..64 {
            let a = now_ticks();
            let t = Instant::now();
            let width = now_ticks().saturating_sub(a);
            if best.is_none_or(|(w, _, _)| width < w) {
                best = Some((width, a + width / 2, t));
            }
            if width <= MAX_BRACKET_TICKS {
                break;
            }
        }
        let (_, tick, t) = best.expect("at least one read");
        (tick, t)
    }

    // The crate's one `unsafe`: everything else is safe code.
    #[allow(unsafe_code)]
    pub fn now_ticks() -> u64 {
        // SAFETY: RDTSC is unprivileged and side-effect-free; baseline
        // on every x86_64 target Rust supports.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    pub fn ticks_to_ns(dt: u64) -> u64 {
        (((dt as u128) * scale() as u128) >> 32).min(u64::MAX as u128) as u64
    }

    pub fn init() {
        let _ = scale();
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    pub fn now_ticks() -> u64 {
        epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    pub fn ticks_to_ns(dt: u64) -> u64 {
        dt
    }

    /// `(tick, instant)` read at one moment; here both are `Instant`.
    #[cfg(test)]
    pub fn paired_read() -> (u64, Instant) {
        let t = Instant::now();
        (t.duration_since(epoch()).as_nanos().min(u64::MAX as u128) as u64, t)
    }

    pub fn init() {
        let _ = epoch();
    }
}

pub(crate) use imp::{now_ticks, ticks_to_ns};

/// Pays the one-time calibration (x86_64) / epoch pin (fallback) up
/// front so the first traced batch doesn't absorb it.
pub(crate) fn warm_up() {
    imp::init();
}

/// Smoke check that the calibrated clock tracks wall time: spins for at
/// least `d` and returns `(clock ns, wall ns)` over one window whose ends
/// are bracketed reads, so a pause anywhere in it lengthens both.
#[cfg(test)]
pub(crate) fn measure(d: std::time::Duration) -> (u64, u64) {
    let (c0, t0) = imp::paired_read();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
    let (c1, t1) = imp::paired_read();
    let wall = t1.duration_since(t0).as_nanos().min(u64::MAX as u128) as u64;
    (ticks_to_ns(c1.saturating_sub(c0)), wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn calibrated_clock_tracks_wall_time_within_ten_percent() {
        warm_up();
        let (ns, wall) = measure(Duration::from_millis(5));
        assert!(wall >= 5_000_000, "the spin ran {wall}ns");
        let (lo, hi) = (wall / 10 * 9, wall / 10 * 11);
        assert!(
            (lo..=hi).contains(&ns),
            "{wall}ns of wall time measured as {ns}ns — calibration off"
        );
    }
}
