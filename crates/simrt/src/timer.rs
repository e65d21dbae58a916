//! Charging real CPU time to a virtual clock.
//!
//! The provenance tracker is real code doing real work (building RDF terms,
//! inserting triples, serializing Turtle). Its cost on the workflow is
//! therefore *measured*, not modeled: a [`ChargeGuard`] measures the wall
//! time of a tracking section and adds it to the issuing agent's virtual
//! clock, so "completion time with PROV-IO enabled" = modeled workflow time
//! + real tracking time, mirroring how the paper's overhead numbers compose.

use crate::clock::{SimDuration, VirtualClock};
use std::time::Instant;

/// RAII guard: charges the enclosed real elapsed time to `clock` on drop.
pub struct ChargeGuard<'a> {
    clock: &'a VirtualClock,
    start: Instant,
}

impl<'a> ChargeGuard<'a> {
    pub fn new(clock: &'a VirtualClock) -> Self {
        ChargeGuard {
            clock,
            start: Instant::now(),
        }
    }
}

impl Drop for ChargeGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        self.clock.advance(SimDuration::from_nanos(elapsed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_charges_positive_time() {
        let c = VirtualClock::new();
        {
            let _g = ChargeGuard::new(&c);
            // Do a little real work.
            let mut x = 0u64;
            for i in 0..10_000 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        }
        assert!(c.now().as_nanos() > 0);
    }
}
