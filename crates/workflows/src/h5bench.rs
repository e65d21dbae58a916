//! The H5bench-based workflow (paper §3.3, §6.2): vpic-style particle I/O
//! on one shared HDF5 file from many MPI ranks.
//!
//! Reproduces the paper's setup: a combination of write / overwrite /
//! append / read workloads under three I/O patterns (write+read,
//! write+overwrite+read, write+append+read), a "relatively modest
//! computation time of 25 seconds per step", eight particle variables per
//! timestep (x, y, z, px, py, pz, id1, id2 — the vpic schema), and rank
//! counts from 128 to 4096 (2 to 64 for the append pattern, which
//! "can easily overwhelm the memory buffer" at scale).

use crate::cluster::Cluster;
use crate::metrics::{ProvMode, RunMetrics};
use provio_hdf5::{Data, Dataspace, Datatype, Hyperslab, H5};
use provio_mpi::MpiWorld;
use provio_simrt::{SimDuration, VirtualClock};

/// The vpic particle variables.
pub const VPIC_VARS: [&str; 8] = ["x", "y", "z", "px", "py", "pz", "id1", "id2"];

/// The three evaluated I/O patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPattern {
    WriteRead,
    WriteOverwriteRead,
    WriteAppendRead,
}

impl IoPattern {
    pub const ALL: [IoPattern; 3] = [
        IoPattern::WriteRead,
        IoPattern::WriteOverwriteRead,
        IoPattern::WriteAppendRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IoPattern::WriteRead => "write+read",
            IoPattern::WriteOverwriteRead => "write+overwrite+read",
            IoPattern::WriteAppendRead => "write+append+read",
        }
    }
}

/// Run parameters.
#[derive(Clone)]
pub struct H5benchParams {
    pub ranks: u32,
    pub pattern: IoPattern,
    /// Timesteps.
    pub steps: u32,
    /// Particles per rank per timestep (each particle is 8 vars × 8 bytes).
    pub particles_per_rank: u64,
    /// H5Dwrite/H5Dread calls per dataset per rank (request blocking).
    pub blocks: u32,
    /// Modeled compute per step (paper: 25 s).
    pub compute_per_step: SimDuration,
    pub seed: u64,
    pub mode: ProvMode,
}

impl Default for H5benchParams {
    fn default() -> Self {
        H5benchParams {
            ranks: 128,
            pattern: IoPattern::WriteRead,
            steps: 3,
            particles_per_rank: 1 << 17, // 128 Ki particles → 8 MiB/var/rank… ×8 vars
            blocks: 4,
            compute_per_step: SimDuration::from_secs(25),
            seed: 5,
            mode: ProvMode::Off,
        }
    }
}

/// Run outcome.
#[derive(Debug, Clone)]
pub struct H5benchOutcome {
    pub metrics: RunMetrics,
    /// Total bytes moved through dataset writes+reads (all ranks).
    pub data_bytes: u64,
    pub prov_dir: String,
}

const FILE: &str = "/h5bench/vpic.h5";

fn step_group(step: u32) -> String {
    format!("Timestep_{step}")
}

fn rank_process(
    cluster: &Cluster,
    p: &H5benchParams,
    prov_dir: &str,
    rank: u32,
    clock: VirtualClock,
) -> (std::sync::Arc<provio_hpcfs::FsSession>, H5) {
    let cfg = match &p.mode {
        ProvMode::ProvIo(c) => {
            let mut c = (**c).clone();
            c.store_dir = prov_dir.to_string();
            c.workflow_type = Some("Synthetic".to_string());
            Some(c.shared())
        }
        _ => None,
    };
    cluster.process(5_000 + rank, "Bob", "vpicio_uni_h5", clock, cfg.as_ref())
}

/// Write (or overwrite) each variable's slab for `step`.
fn write_slabs(h5: &H5, p: &H5benchParams, rank: u32, step: u32, extended_base: u64) {
    let f = h5.open_file(FILE, true).expect("open shared file");
    let per_rank = p.particles_per_rank;
    for var in VPIC_VARS {
        let d = h5
            .open_dataset(f, &format!("{}/{var}", step_group(step)))
            .expect("dataset exists");
        let start = extended_base + rank as u64 * per_rank;
        let block = (per_rank / p.blocks as u64).max(1);
        let mut off = 0;
        while off < per_rank {
            let n = block.min(per_rank - off);
            h5.write(
                d,
                &Hyperslab::new(&[start + off], &[n]),
                &Data::synthetic(n * 8),
            )
            .expect("slab write");
            off += n;
        }
        h5.close_dataset(d).unwrap();
    }
    h5.close_file(f).unwrap();
}

/// Read back each variable's slab for `step`.
fn read_slabs(h5: &H5, p: &H5benchParams, rank: u32, step: u32) {
    let f = h5.open_file(FILE, false).expect("open shared file");
    let per_rank = p.particles_per_rank;
    for var in VPIC_VARS {
        let d = h5
            .open_dataset(f, &format!("{}/{var}", step_group(step)))
            .expect("dataset exists");
        let start = rank as u64 * per_rank;
        let block = (per_rank / p.blocks as u64).max(1);
        let mut off = 0;
        while off < per_rank {
            let n = block.min(per_rank - off);
            h5.read(d, &Hyperslab::new(&[start + off], &[n])).expect("slab read");
            off += n;
        }
        h5.close_dataset(d).unwrap();
    }
    h5.close_file(f).unwrap();
}

/// Run the workflow once.
pub fn run(cluster: &Cluster, p: &H5benchParams) -> H5benchOutcome {
    assert!(p.ranks >= 1);
    let prov_dir = "/h5bench/provio".to_string();
    let world = MpiWorld::new(p.ranks);

    // Boot: rank 0 creates the shared file and all step datasets
    // (extendable along dim 0 for the append pattern).
    world.superstep_named("boot", |ctx| {
        if ctx.rank != 0 {
            return;
        }
        let (s, h5) = rank_process(cluster, p, &prov_dir, 0, ctx.clock().clone());
        s.fs().mkdir_all("/h5bench", "Bob", ctx.clock().now()).unwrap();
        let f = h5.create_file(FILE).expect("create shared file");
        let total = p.ranks as u64 * p.particles_per_rank;
        for step in 0..p.steps {
            let g = h5.create_group(f, &step_group(step)).expect("group");
            for var in VPIC_VARS {
                let space = Dataspace::with_max(&[total], &[None]).expect("space");
                let d = h5
                    .create_dataset(g, var, Datatype::Float64, space)
                    .expect("dataset");
                h5.close_dataset(d).unwrap();
            }
            h5.close_group(g).unwrap();
        }
        h5.flush(f).unwrap();
        h5.close_file(f).unwrap();
    });

    // The per-step phases. Each rank is a tracked process for the whole
    // run; per-rank H5 handles are recreated per superstep (cheap) while
    // the tracker persists in the registry keyed by pid.
    for step in 0..p.steps {
        // Write phase.
        world.superstep_named("write", |ctx| {
            let (_s, h5) = rank_process(cluster, p, &prov_dir, ctx.rank, ctx.clock().clone());
            ctx.compute(p.compute_per_step);
            write_slabs(&h5, p, ctx.rank, step, 0);
        });

        match p.pattern {
            IoPattern::WriteRead => {}
            IoPattern::WriteOverwriteRead => {
                // Overwrite: a second full write pass over the same slabs
                // (a new version of the dataset).
                world.superstep_named("overwrite", |ctx| {
                    let (_s, h5) =
                        rank_process(cluster, p, &prov_dir, ctx.rank, ctx.clock().clone());
                    ctx.compute(p.compute_per_step);
                    write_slabs(&h5, p, ctx.rank, step, 0);
                });
            }
            IoPattern::WriteAppendRead => {
                // Append: extend every dataset by one more rank-slab region
                // and write into the new region. Determining the append
                // offset and memory range costs extra computation (§6.2).
                world.superstep_named("append-extend", |ctx| {
                    let (_s, h5) =
                        rank_process(cluster, p, &prov_dir, ctx.rank, ctx.clock().clone());
                    ctx.compute(p.compute_per_step);
                    ctx.compute(SimDuration::from_secs_f64(
                        p.compute_per_step.as_secs_f64(),
                    ));
                    let total = p.ranks as u64 * p.particles_per_rank;
                    if ctx.rank == 0 {
                        let f = h5.open_file(FILE, true).unwrap();
                        for var in VPIC_VARS {
                            let d = h5
                                .open_dataset(f, &format!("{}/{var}", step_group(step)))
                                .unwrap();
                            h5.extend_dataset(d, &[2 * total]).unwrap();
                            h5.close_dataset(d).unwrap();
                        }
                        h5.close_file(f).unwrap();
                    }
                });
                world.superstep_named("append-write", |ctx| {
                    let (_s, h5) =
                        rank_process(cluster, p, &prov_dir, ctx.rank, ctx.clock().clone());
                    let total = p.ranks as u64 * p.particles_per_rank;
                    write_slabs(&h5, p, ctx.rank, step, total);
                });
            }
        }

        // Read phase.
        world.superstep_named("read", |ctx| {
            let (_s, h5) = rank_process(cluster, p, &prov_dir, ctx.rank, ctx.clock().clone());
            read_slabs(&h5, p, ctx.rank, step);
        });
    }

    // Flush the shared file once at the end (rank 0).
    world.superstep_named("final-flush", |ctx| {
        if ctx.rank != 0 {
            return;
        }
        let (_s, h5) = rank_process(cluster, p, &prov_dir, 0, ctx.clock().clone());
        let f = h5.open_file(FILE, true).unwrap();
        h5.flush(f).unwrap();
        h5.close_file(f).unwrap();
    });

    let (prov_bytes, prov_files, tracked_events) = if p.mode.is_off() {
        (0, 0, 0)
    } else {
        cluster.finish_provenance(&prov_dir)
    };

    let writes_per_step: u64 = match p.pattern {
        IoPattern::WriteRead => 1,
        IoPattern::WriteOverwriteRead | IoPattern::WriteAppendRead => 2,
    };
    let data_bytes = p.ranks as u64
        * p.particles_per_rank
        * 8
        * VPIC_VARS.len() as u64
        * p.steps as u64
        * (writes_per_step + 1); // + read pass

    H5benchOutcome {
        metrics: RunMetrics {
            completion: world.elapsed(),
            prov_bytes,
            prov_files,
            tracked_events,
        },
        data_bytes,
        prov_dir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio::ProvIoConfig;
    use provio_model::ClassSelector;

    fn small(ranks: u32, pattern: IoPattern, mode: ProvMode) -> (Cluster, H5benchOutcome) {
        let cluster = Cluster::new();
        let out = run(
            &cluster,
            &H5benchParams {
                ranks,
                pattern,
                steps: 2,
                particles_per_rank: 1 << 12,
                blocks: 2,
                compute_per_step: SimDuration::from_secs(25),
                seed: 1,
                mode,
            },
        );
        (cluster, out)
    }

    #[test]
    fn baseline_runs_all_patterns() {
        for pattern in IoPattern::ALL {
            let (cluster, out) = small(4, pattern, ProvMode::Off);
            assert!(out.metrics.completion.as_secs_f64() >= 50.0, "{pattern:?}");
            assert!(cluster.fs.exists(FILE));
            assert_eq!(out.metrics.prov_bytes, 0);
        }
    }

    #[test]
    fn patterns_order_baseline_time() {
        let (_, wr) = small(4, IoPattern::WriteRead, ProvMode::Off);
        let (_, wor) = small(4, IoPattern::WriteOverwriteRead, ProvMode::Off);
        let (_, war) = small(4, IoPattern::WriteAppendRead, ProvMode::Off);
        assert!(wor.metrics.completion > wr.metrics.completion);
        assert!(war.metrics.completion > wor.metrics.completion, "append has extra compute");
    }

    #[test]
    fn scenarios_track_and_overheads_are_modest() {
        let (_, base) = small(4, IoPattern::WriteRead, ProvMode::Off);
        let mut overheads = Vec::new();
        for sel in [
            ClassSelector::h5bench_scenario1(),
            ClassSelector::h5bench_scenario2(),
            ClassSelector::h5bench_scenario3(),
        ] {
            let (_, o) = small(
                4,
                IoPattern::WriteRead,
                ProvMode::provio(ProvIoConfig::default().with_selector(sel)),
            );
            assert!(o.metrics.tracked_events > 0);
            assert!(o.metrics.prov_bytes > 0);
            let oh = o.metrics.overhead_vs(&base.metrics);
            assert!(oh > 0.0 && oh < 0.10, "overhead {oh}");
            overheads.push(oh);
        }
        // Scenario 3 (file-level only) tracks fewer events than 1/2.
        assert!(overheads[2] <= overheads[0] + 1e-9);
    }

    #[test]
    fn append_pattern_has_lowest_relative_overhead() {
        let mode = || {
            ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario2()),
            )
        };
        let (_, wr_base) = small(2, IoPattern::WriteRead, ProvMode::Off);
        let (_, wr) = small(2, IoPattern::WriteRead, mode());
        let (_, war_base) = small(2, IoPattern::WriteAppendRead, ProvMode::Off);
        let (_, war) = small(2, IoPattern::WriteAppendRead, mode());
        let oh_wr = wr.metrics.overhead_vs(&wr_base.metrics);
        let oh_war = war.metrics.overhead_vs(&war_base.metrics);
        assert!(
            oh_war < oh_wr,
            "append {oh_war} should be below write+read {oh_wr}"
        );
    }

    #[test]
    fn per_rank_subgraphs() {
        let (_, out) = small(
            4,
            IoPattern::WriteRead,
            ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario3()),
            ),
        );
        assert_eq!(out.metrics.prov_files, 4);
    }

    #[test]
    fn storage_scales_with_ranks() {
        let mode = || {
            ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::h5bench_scenario2()),
            )
        };
        let (_, r2) = small(2, IoPattern::WriteRead, mode());
        let (_, r8) = small(8, IoPattern::WriteRead, mode());
        assert!(r8.metrics.prov_bytes > 3 * r2.metrics.prov_bytes);
    }

    #[test]
    fn streamed_run_converges_to_post_hoc_merge() {
        use std::sync::Arc;
        let cluster = Cluster::new();
        // A hostile fabric: 25% loss/dup/reorder on every link. At-least-once
        // delivery plus (rank, seq) dedup must still converge the live graph
        // to exactly the post-hoc merge of the rank files.
        let collector = provio::Collector::new(
            Arc::clone(&cluster.fs),
            "/h5bench/provio",
            provio_simrt::NetPlan::hostile(11, 0.25),
        );
        cluster.stream_to(Arc::clone(&collector));
        let out = run(
            &cluster,
            &H5benchParams {
                ranks: 2,
                pattern: IoPattern::WriteRead,
                steps: 2,
                particles_per_rank: 1 << 10,
                blocks: 2,
                compute_per_step: SimDuration::from_secs(25),
                seed: 1,
                mode: ProvMode::provio(
                    ProvIoConfig::default()
                        .with_selector(ClassSelector::h5bench_scenario2())
                        .with_wal(true, 16)
                        .with_net(true, 1_000_000),
                ),
            },
        );
        assert!(out.metrics.tracked_events > 0);
        let report = collector.report();
        assert!(report.received_batches > 0, "stream actually flowed");
        let (ground, _) = provio::merge_directory(&cluster.fs, "/h5bench/provio");
        assert_eq!(
            provio_rdf::ntriples::sorted_graph_lines(&collector.graph()),
            provio_rdf::ntriples::sorted_graph_lines(&ground),
            "lossy fabric must not change the converged graph"
        );
    }

    #[test]
    fn shared_file_data_is_complete_after_run() {
        let (cluster, _) = small(4, IoPattern::WriteRead, ProvMode::Off);
        // All timestep datasets exist with the full extent.
        let (s, h5) = cluster.process(999, "check", "verify", VirtualClock::new(), None);
        let f = h5.open_file(FILE, false).unwrap();
        let d = h5.open_dataset(f, "Timestep_0/x").unwrap();
        let info = h5.object_info(d).unwrap();
        assert_eq!(info.dims, Some(vec![4 * (1 << 12)]));
        drop(s);
    }
}
