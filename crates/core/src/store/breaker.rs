//! The circuit breaker over the flush path.

use provio_simrt::{SimDuration, SimTime};

/// Externally visible circuit-breaker state (surfaced via
/// `ProvenanceStore::stats` and `TrackSummary`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Flushes flow normally.
    Closed,
    /// Tripped: periodic flushes are skipped until the backoff elapses.
    Open,
    /// Backoff elapsed: the next flush is a probe — success closes the
    /// breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where the breaker stands: `Open` remembers when the backoff elapses on
/// the virtual clock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    #[default]
    Closed,
    Open {
        until: SimTime,
    },
    HalfOpen,
}

/// Stops a store from hammering a persistently failing backend: after
/// `threshold` consecutive flush failures it opens and periodic flushes are
/// skipped; after `backoff_ns` on the virtual clock it half-opens and lets
/// one probe through. `threshold == 0` disables it (the default for bare
/// stores).
#[derive(Default)]
pub(super) struct Breaker {
    phase: Phase,
    pub(super) threshold: u32,
    pub(super) backoff_ns: u64,
    consecutive_failures: u32,
    /// Times the breaker tripped open (including failed half-open probes).
    pub(super) trips: u64,
    /// Periodic flushes skipped while open.
    pub(super) skipped: u64,
}

impl Breaker {
    /// Record a successful commit: any state collapses to closed.
    pub(super) fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.phase = Phase::Closed;
    }

    /// Record a terminally failed commit, tripping or re-arming the breaker.
    pub(super) fn note_failure(&mut self, now: SimTime) {
        if self.threshold == 0 {
            return;
        }
        self.consecutive_failures += 1;
        let reopen = Phase::Open {
            until: now + SimDuration::from_nanos(self.backoff_ns),
        };
        match self.phase {
            Phase::Closed => {
                if self.consecutive_failures >= self.threshold {
                    self.phase = reopen;
                    self.trips += 1;
                }
            }
            // A failed half-open probe re-opens for another backoff.
            Phase::HalfOpen => {
                self.phase = reopen;
                self.trips += 1;
            }
            // A bypassing flush (finish) failed while open: push the
            // reopen horizon out, but that's not a new trip.
            Phase::Open { .. } => self.phase = reopen,
        }
    }

    /// Gate for periodic flushes. An open breaker whose backoff has not
    /// elapsed rejects the flush (and counts the skip); one whose backoff
    /// has elapsed half-opens and admits it as the probe.
    pub(super) fn allows(&mut self, now: SimTime) -> bool {
        match self.phase {
            Phase::Open { until } if now < until => {
                self.skipped += 1;
                false
            }
            Phase::Open { .. } => {
                self.phase = Phase::HalfOpen;
                true
            }
            _ => true,
        }
    }

    pub(super) fn state(&self) -> BreakerState {
        match self.phase {
            Phase::Closed => BreakerState::Closed,
            Phase::Open { .. } => BreakerState::Open,
            Phase::HalfOpen => BreakerState::HalfOpen,
        }
    }
}
