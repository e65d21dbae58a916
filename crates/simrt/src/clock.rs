//! Virtual time.
//!
//! Each simulated agent (an MPI rank, a workflow process) owns a
//! [`VirtualClock`]. I/O substrates charge modeled durations to the clock of
//! whichever agent issued the operation; BSP collectives synchronize a set of
//! clocks to their maximum, which is exactly how wall-clock time behaves at a
//! barrier on a real machine.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration((s * 1e9) as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a.saturating_add(b))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

/// A shareable, thread-safe virtual clock.
///
/// Cloning a `VirtualClock` yields a handle to the *same* clock (it is an
/// `Arc` internally): the file system charges I/O time to the clock of the
/// calling process, which is the same clock the workflow driver reads at the
/// end of the run.
#[derive(Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    pub fn new() -> Self {
        VirtualClock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Current virtual time on this clock.
    pub fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Acquire))
    }

    /// Charge `d` of virtual time to this clock.
    pub fn advance(&self, d: SimDuration) {
        if d.0 != 0 {
            self.nanos.fetch_add(d.0, Ordering::AcqRel);
        }
    }

    /// Advance this clock to at least `t` (barrier semantics). Returns the
    /// time the clock ended up at.
    pub fn sync_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.nanos.load(Ordering::Acquire);
        while cur < t.0 {
            match self.nanos.compare_exchange_weak(
                cur,
                t.0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime(cur)
    }

    /// Reset to zero. Only used between experiment repetitions.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Release);
    }
}

impl fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("VirtualClock").field(&self.now()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_millis(5));
        c.advance(SimDuration::from_micros(250));
        assert_eq!(c.now().as_nanos(), 5_000_000 + 250_000);
    }

    #[test]
    fn clone_shares_state() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        c2.advance(SimDuration::from_secs(1));
        assert_eq!(c.now().as_nanos(), 1_000_000_000);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_secs(10));
        let t = c.sync_to(SimTime(5_000_000_000));
        assert_eq!(t.as_nanos(), 10_000_000_000, "must not move backwards");
        c.sync_to(SimTime(20_000_000_000));
        assert_eq!(c.now().as_nanos(), 20_000_000_000);
    }

    #[test]
    fn sync_under_contention() {
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for i in 1..=8u64 {
                let c = c.clone();
                s.spawn(move || {
                    c.sync_to(SimTime(i * 1000));
                });
            }
        });
        assert_eq!(c.now().as_nanos(), 8000);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_secs(4).to_string(), "4.000s");
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_millis(500);
        assert_eq!((a + b).as_nanos(), 1_500_000_000);
        assert_eq!((b - a).as_nanos(), 0, "sub saturates");
        let total: SimDuration = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_nanos(), 2_000_000_000);
    }

    #[test]
    fn time_elapsed_since() {
        let t0 = SimTime(100);
        let t1 = SimTime(350);
        assert_eq!(t1.elapsed_since(t0).as_nanos(), 250);
        assert_eq!(t0.elapsed_since(t1).as_nanos(), 0);
    }

    #[test]
    fn from_secs_f64_rounds_down() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_nanos(), 0);
    }
}
