//! The rank executor.

use crate::collectives::CommModel;
use provio_simrt::{catch_quiet, SimDuration, SimTime, VirtualClock};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// What happened to one rank during a superstep.
///
/// A rank "crashes" when its closure panics — an injected `ESIMCRASH` from
/// the fault plan surfacing through `FsSession`, a poisoned input, a bug.
/// The crash is contained to the rank: the other ranks keep running to the
/// barrier, and the caller gets the full picture indexed by rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankOutcome<T> {
    /// The rank's closure ran to completion and returned a value.
    Completed(T),
    /// The rank died mid-superstep.
    Crashed {
        /// Which rank died.
        rank: u32,
        /// Label of the superstep it died in (from
        /// [`MpiWorld::superstep_named`], or `step-N` for unnamed steps).
        phase: String,
        /// The panic payload, rendered as a string (an `ESIMCRASH` fault
        /// surfaces its errno name here).
        cause: String,
    },
}

impl<T> RankOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            RankOutcome::Crashed { .. } => None,
        }
    }

    /// Borrowing variant of [`completed`](Self::completed).
    pub fn as_completed(&self) -> Option<&T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            RankOutcome::Crashed { .. } => None,
        }
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, RankOutcome::Completed(_))
    }

    pub fn is_crashed(&self) -> bool {
        matches!(self, RankOutcome::Crashed { .. })
    }
}

/// Per-rank context handed to superstep closures.
pub struct RankCtx<'a> {
    pub rank: u32,
    pub size: u32,
    clock: &'a VirtualClock,
}

impl RankCtx<'_> {
    /// This rank's virtual clock (hand it to the rank's `FsSession`).
    pub fn clock(&self) -> &VirtualClock {
        self.clock
    }

    /// Charge local compute time.
    pub fn compute(&self, d: SimDuration) {
        self.clock.advance(d);
    }
}

/// A world of `size` virtual ranks, each with a private virtual clock.
pub struct MpiWorld {
    clocks: Vec<VirtualClock>,
    comm: CommModel,
    steps: AtomicU64,
}

impl MpiWorld {
    pub fn new(size: u32) -> Self {
        Self::with_comm(size, CommModel::default())
    }

    pub fn with_comm(size: u32, comm: CommModel) -> Self {
        assert!(size >= 1, "world needs at least one rank");
        MpiWorld {
            clocks: (0..size).map(|_| VirtualClock::new()).collect(),
            comm,
            steps: AtomicU64::new(0),
        }
    }

    pub fn size(&self) -> u32 {
        self.clocks.len() as u32
    }

    pub fn clock(&self, rank: u32) -> &VirtualClock {
        &self.clocks[rank as usize]
    }

    /// Run `f` once per rank, in parallel, then barrier. Outcomes are
    /// returned indexed by rank.
    ///
    /// Ranks are multiplexed over the host's cores by rayon; each rank's
    /// modeled time accrues on its own clock, so any number of virtual ranks
    /// (the paper uses up to 4096) runs on a laptop.
    ///
    /// A panic inside `f` kills only that rank — it is reported as
    /// [`RankOutcome::Crashed`] while the surviving ranks keep running and
    /// still synchronize at the barrier (real MPI would deadlock or abort
    /// here; we model the fault-tolerant runtime the paper's workflows
    /// assume). The step is auto-labeled `step-N`; use
    /// [`superstep_named`](Self::superstep_named) to label phases.
    pub fn superstep<T: Send>(&self, f: impl Fn(RankCtx<'_>) -> T + Sync) -> Vec<RankOutcome<T>> {
        let n = self.steps.load(Ordering::Relaxed);
        self.superstep_named(&format!("step-{n}"), f)
    }

    /// [`superstep`](Self::superstep) with an explicit phase label, recorded
    /// in any [`RankOutcome::Crashed`] this step produces.
    pub fn superstep_named<T: Send>(
        &self,
        phase: &str,
        f: impl Fn(RankCtx<'_>) -> T + Sync,
    ) -> Vec<RankOutcome<T>> {
        let out = self.run_ranks(phase, f);
        self.barrier();
        out
    }

    /// Like [`superstep`](Self::superstep) but without the trailing barrier
    /// (for workloads whose phases end asynchronously).
    pub fn superstep_nobarrier<T: Send>(
        &self,
        f: impl Fn(RankCtx<'_>) -> T + Sync,
    ) -> Vec<RankOutcome<T>> {
        let n = self.steps.load(Ordering::Relaxed);
        self.run_ranks(&format!("step-{n}"), f)
    }

    fn run_ranks<T: Send>(
        &self,
        phase: &str,
        f: impl Fn(RankCtx<'_>) -> T + Sync,
    ) -> Vec<RankOutcome<T>> {
        self.steps.fetch_add(1, Ordering::Relaxed);
        let size = self.size();
        self.clocks
            .par_iter()
            .enumerate()
            .map(|(rank, clock)| {
                let rank = rank as u32;
                match catch_quiet(|| f(RankCtx { rank, size, clock })) {
                    Ok(v) => RankOutcome::Completed(v),
                    Err(cause) => RankOutcome::Crashed {
                        rank,
                        phase: phase.to_string(),
                        cause,
                    },
                }
            })
            .collect()
    }

    /// MPI_Barrier: every clock advances to the slowest rank plus the
    /// collective's modeled cost. Returns the synchronized time.
    pub fn barrier(&self) -> SimTime {
        let cost = self.comm.barrier(self.size());
        let max = self
            .clocks
            .iter()
            .map(VirtualClock::now)
            .max()
            .unwrap_or(SimTime::ZERO);
        let target = max + cost;
        for c in &self.clocks {
            c.sync_to(target);
        }
        target
    }

    /// Completion time of the world so far = the slowest rank's clock.
    pub fn elapsed(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.clocks
                .iter()
                .map(|c| c.now().as_nanos())
                .max()
                .unwrap_or(0),
        )
    }

    /// Reset all clocks (between experiment repetitions).
    pub fn reset(&self) {
        for c in &self.clocks {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superstep_runs_every_rank() {
        let w = MpiWorld::new(64);
        let out = w.superstep(|ctx| ctx.rank * 2);
        assert_eq!(out.len(), 64);
        for (i, v) in out.into_iter().enumerate() {
            assert_eq!(v, RankOutcome::Completed(i as u32 * 2));
        }
    }

    #[test]
    fn crashed_rank_does_not_abort_the_world() {
        let w = MpiWorld::new(16);
        let out = w.superstep_named("convert", |ctx| {
            if ctx.rank == 5 {
                panic!("ESIMCRASH: injected crash on rank {}", ctx.rank);
            }
            ctx.compute(SimDuration::from_millis(1));
            ctx.rank
        });
        assert_eq!(out.len(), 16);
        let crashed: Vec<&RankOutcome<u32>> = out.iter().filter(|o| o.is_crashed()).collect();
        assert_eq!(crashed.len(), 1);
        match crashed[0] {
            RankOutcome::Crashed { rank, phase, cause } => {
                assert_eq!(*rank, 5);
                assert_eq!(phase, "convert");
                assert!(cause.contains("ESIMCRASH"), "cause = {cause}");
            }
            RankOutcome::Completed(_) => unreachable!(),
        }
        // Survivors completed with their values, in rank order.
        for (i, o) in out.iter().enumerate() {
            if i != 5 {
                assert_eq!(o.as_completed(), Some(&(i as u32)));
            }
        }
        // The barrier still ran: all clocks (including the dead rank's)
        // are synchronized.
        let t = w.clock(0).now();
        assert!((0..16).all(|r| w.clock(r).now() == t));
    }

    #[test]
    fn unnamed_steps_get_sequential_phase_labels() {
        let w = MpiWorld::new(2);
        let first = w.superstep(|ctx| {
            if ctx.rank == 0 {
                panic!("die");
            }
        });
        let second = w.superstep(|ctx| {
            if ctx.rank == 0 {
                panic!("die");
            }
        });
        let phase_of = |out: &[RankOutcome<()>]| match &out[0] {
            RankOutcome::Crashed { phase, .. } => phase.clone(),
            RankOutcome::Completed(_) => unreachable!(),
        };
        assert_eq!(phase_of(&first), "step-0");
        assert_eq!(phase_of(&second), "step-1");
    }

    #[test]
    fn barrier_syncs_to_slowest() {
        let w = MpiWorld::new(4);
        w.superstep_nobarrier(|ctx| {
            ctx.compute(SimDuration::from_secs(ctx.rank as u64));
        });
        w.barrier();
        let t0 = w.clock(0).now();
        for r in 1..4 {
            assert_eq!(w.clock(r).now(), t0, "rank {r} not synced");
        }
        // Slowest rank computed 3 s.
        assert!(t0.as_nanos() >= 3_000_000_000);
    }

    #[test]
    fn superstep_has_implicit_barrier() {
        let w = MpiWorld::new(8);
        w.superstep(|ctx| ctx.compute(SimDuration::from_millis(ctx.rank as u64)));
        let t = w.clock(0).now();
        assert!((0..8).all(|r| w.clock(r).now() == t));
    }

    #[test]
    fn elapsed_is_max_clock() {
        let w = MpiWorld::new(3);
        w.clock(1).advance(SimDuration::from_secs(5));
        assert_eq!(w.elapsed().as_nanos(), 5_000_000_000);
    }

    #[test]
    fn thousands_of_virtual_ranks() {
        let w = MpiWorld::new(4096);
        let out = w.superstep(|ctx| {
            ctx.compute(SimDuration::from_micros(1));
            ctx.size
        });
        assert_eq!(out.len(), 4096);
        assert!(out.iter().all(|o| o.as_completed() == Some(&4096)));
    }

    #[test]
    fn reset_zeroes_clocks() {
        let w = MpiWorld::new(2);
        w.superstep(|ctx| ctx.compute(SimDuration::from_secs(1)));
        w.reset();
        assert_eq!(w.elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let w = MpiWorld::new(32);
            w.superstep(|ctx| ctx.compute(SimDuration::from_micros(ctx.rank as u64 + 1)));
            w.superstep(|ctx| ctx.compute(SimDuration::from_micros(100 - ctx.rank as u64)));
            w.elapsed().as_nanos()
        };
        assert_eq!(run(), run(), "virtual time must not depend on scheduling");
    }
}
