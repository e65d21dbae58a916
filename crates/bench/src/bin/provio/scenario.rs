//! The tracked multi-rank run `verify`, `scrub` and `collect` audit: every
//! rank creates and closes a few HDF5 files per phase on the simulated
//! cluster, then the run is finished — optionally after one rank is killed.

use crate::opts::Outcome;
use provio::{ProvIoConfig, TrackSummary};
use provio_mpi::MpiWorld;
use provio_workflows::Cluster;

pub struct Scenario<'a> {
    /// The tracked configuration, as ini text.
    pub ini: String,
    /// Rank `r` runs as pid `pid_base + r`, so each subcommand's store
    /// files carry their own names.
    pub pid_base: u32,
    pub user: &'a str,
    pub program: &'a str,
    /// One superstep per phase label.
    pub phases: &'a [&'a str],
    pub files_per_phase: usize,
    /// A rank killed before the run is finished: its tracker is dropped
    /// unflushed, so what it committed mid-run is all that survives.
    pub kill: Option<u32>,
}

impl Scenario<'_> {
    /// Run every phase on `ranks` ranks of `cluster`, calling `after_phase`
    /// between supersteps, then finish the run. An ini the configuration
    /// refuses is a usage error: the text carries values off the command
    /// line.
    pub fn run(
        &self,
        cluster: &Cluster,
        ranks: u32,
        mut after_phase: impl FnMut(usize),
    ) -> Result<Vec<(u32, TrackSummary)>, Outcome> {
        let cfg = ProvIoConfig::from_ini(&self.ini)
            .map_err(|e| Outcome::Usage(format!("configuration refused: {e}")))?
            .shared();
        let world = MpiWorld::new(ranks);
        for (pi, phase) in self.phases.iter().enumerate() {
            world.superstep_named(phase, |ctx| {
                let (_session, h5) = cluster.process(
                    self.pid_base + ctx.rank,
                    self.user,
                    self.program,
                    ctx.clock().clone(),
                    Some(&cfg),
                );
                // A one-phase run has no phase to tell its files apart by.
                let phase_tag = if self.phases.len() > 1 { format!("p{pi}_") } else { String::new() };
                for i in 0..self.files_per_phase {
                    let path = format!("/run_r{}_{phase_tag}{i}.h5", ctx.rank);
                    let file = h5.create_file(&path).expect("a fresh path on a fault-free fs");
                    h5.close_file(file).expect("the file was just opened");
                }
            });
            after_phase(pi);
        }
        if let Some(tracker) = self.kill.and_then(|r| cluster.registry.unregister(self.pid_base + r)) {
            std::mem::forget(tracker);
        }
        Ok(cluster.registry.finish_all())
    }
}
