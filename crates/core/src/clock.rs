//! Deterministic time and randomness sources for decision paths.
//!
//! The online scheduler must never read ambient wall-clock time or
//! entropy inside a decision path: every input that can change a
//! scheduling outcome has to flow through the journal so `corun replay`
//! can re-execute a recorded run bit-identically (see
//! `docs/REPLAY.md`). This module provides the two sanctioned sources:
//!
//! - [`Clock`] — monotonic seconds since an origin. [`WallClock`] reads
//!   the OS monotonic clock and is constructed once at the I/O edge
//!   (daemon startup); [`ManualClock`] is a hand-advanced clock for
//!   tests and replay harnesses.
//! - [`DetRng`] — a seeded splitmix64 stream, the same finalizer used
//!   by `RetryPolicy::backoff_s` and the fleet placement ring, so
//!   every draw is a pure function of the seed.
//! - [`jittered_backoff_s`] — the one capped exponential backoff every
//!   retry loop computes, from a jitter unit its caller draws.
//!
//! The `SRV011` source lint (`corun lint --wall-clock`) enforces that
//! `Instant::now`/`SystemTime::now`/`thread_rng` appear only on lines
//! carrying an explicit `corun-lint: allow(wall-clock)` marker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic time source measured in seconds since an arbitrary
/// origin. Decision paths receive a `&dyn Clock` (or an
/// `Arc<dyn Clock>`) instead of calling `Instant::now()` directly, so
/// tests and replay can substitute a deterministic clock.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Seconds elapsed since this clock's origin. Must be monotonic
    /// non-decreasing.
    fn now_s(&self) -> f64;
}

/// The production clock: anchored to an [`Instant`] captured at
/// construction time (the I/O edge), after which `now_s` is a pure
/// elapsed-seconds read.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Capture the origin now. Construct this once, at startup.
    #[must_use]
    pub fn new() -> Self {
        // corun-lint: allow(wall-clock) — this is the one sanctioned wall-clock read.
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_s(&self) -> f64 {
        // corun-lint: allow(wall-clock) — elapsed read against the captured origin.
        self.origin.elapsed().as_secs_f64()
    }
}

/// A hand-advanced clock for tests and deterministic harnesses. Shared
/// clones observe the same time; `advance`/`set` move it forward.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    // f64 seconds stored as IEEE-754 bits so the clock is lock-free
    // and clonable across threads.
    bits: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock starting at `t = 0 s`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `dt_s` seconds (negative deltas are ignored:
    /// the clock never moves backwards).
    pub fn advance(&self, dt_s: f64) {
        if dt_s > 0.0 {
            self.set(self.now_s() + dt_s);
        }
    }

    /// Jump the clock to `t_s` seconds (only forward; earlier times are
    /// ignored to preserve monotonicity).
    pub fn set(&self, t_s: f64) {
        if t_s > self.now_s() {
            self.bits.store(t_s.to_bits(), Ordering::SeqCst);
        }
    }
}

impl Clock for ManualClock {
    fn now_s(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::SeqCst))
    }
}

/// Deterministic splitmix64 random stream. Every value is a pure
/// function of the seed and draw index, so a seed recorded in a spec or
/// journal reproduces the exact sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Seed the stream. Equal seeds yield equal sequences forever.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next draw mapped to `[0, 1)` with 53 bits of precision.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Derive an independent child stream (one per shard, one per
    /// retry loop, ...). The child's sequence is a pure function of the
    /// parent's seed and draw position, so fan-out stays deterministic
    /// without the consumers contending over one stream.
    pub fn split(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }
}

/// Capped exponential backoff with jitter: `base_s * 2^doublings`
/// (`doublings` clamped at 20), raised to at least `floor_s`, stretched by
/// `1 + unit / 2` for a jitter `unit` in `[0, 1)` the caller draws, and
/// capped at `max_s`. The daemon's requeue backoff, the client's
/// `queue_full` retry and the fleet's RPC reconnect all use it.
pub fn jittered_backoff_s(base_s: f64, doublings: u32, floor_s: f64, unit: f64, max_s: f64) -> f64 {
    let exp = (base_s * 2f64.powi(doublings.min(20) as i32)).max(floor_s);
    (exp * (1.0 + 0.5 * unit)).min(max_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_s();
        let b = c.now_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_and_never_rewinds() {
        let c = ManualClock::new();
        assert_eq!(c.now_s(), 0.0);
        c.advance(2.5);
        assert_eq!(c.now_s(), 2.5);
        c.advance(-1.0);
        assert_eq!(c.now_s(), 2.5);
        c.set(1.0); // backwards jump ignored
        assert_eq!(c.now_s(), 2.5);
        c.set(10.0);
        assert_eq!(c.now_s(), 10.0);
        let shared = c.clone();
        shared.advance(1.0);
        assert_eq!(c.now_s(), 11.0);
    }

    #[test]
    fn det_rng_is_reproducible_and_seed_sensitive() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let mut c = DetRng::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            let u = r.next_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
