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
            let t0 = Instant::now();
            let c0 = now_ticks();
            let ns = loop {
                let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                if ns >= 200_000 {
                    break ns;
                }
                std::hint::spin_loop();
            };
            let dc = now_ticks().saturating_sub(c0).max(1);
            (((ns as u128) << 32) / dc as u128).max(1) as u64
        })
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

/// Smoke check that the calibrated clock tracks wall time: used by unit
/// tests, and cheap enough to assert the scale is sane anywhere.
#[cfg(test)]
pub(crate) fn measure(d: std::time::Duration) -> u64 {
    let c0 = now_ticks();
    let t0 = std::time::Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
    ticks_to_ns(now_ticks().saturating_sub(c0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn calibrated_clock_tracks_wall_time_within_ten_percent() {
        warm_up();
        let ns = measure(Duration::from_millis(5));
        assert!((4_500_000..=5_600_000).contains(&ns), "5ms measured as {ns}ns — calibration off");
    }
}
