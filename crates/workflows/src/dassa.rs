//! The DASSA workflow (paper §1.1, §3.2, Figure 1): parallel analysis of
//! distributed acoustic sensing data.
//!
//! Pipeline reproduced from the paper: geophysical `.tdms` inputs are
//! converted to HDF5 by `tdms2h5`, then analysis programs (`decimate`,
//! `xcorr_stack`) produce data products. Multi-program, multi-file, mixed
//! POSIX + HDF5 I/O, and heavily attribute-dependent — "to access an
//! attribute, the program first needs to open the file and the dataset
//! containing it, which incurs more I/O operations to track" (§6.2); the
//! decimate phase reproduces exactly that access pattern.
//!
//! Files are processed in parallel on `nodes` virtual nodes (the paper uses
//! 32), one conversion/analysis *process* per node per phase, so per-node
//! provenance lands in per-process sub-graphs like on a real deployment.

use crate::cluster::Cluster;
use crate::metrics::{ProvMode, RunMetrics};
use provio_hdf5::{Data, Dataspace, Datatype, Handle, Hyperslab, H5};
use provio_hpcfs::{FsSession, OpenFlags};
use provio_mpi::{MpiWorld, RankOutcome};
use provio_simrt::{SimDuration, VirtualClock};
use std::sync::Arc;

/// Run parameters.
#[derive(Clone)]
pub struct DassaParams {
    /// Number of `.tdms` input files (128..2048 in Figure 6(b)/7(b)).
    pub n_files: usize,
    /// Virtual compute nodes (the paper uses 32).
    pub nodes: u32,
    /// Size of each input file in MiB (the paper's 2048 files total
    /// 1.35 TB ≈ 675 MiB each).
    pub file_mib: u64,
    /// DAS channels per file — each channel contributes one HDF5 attribute
    /// (DASSA is attribute-heavy).
    pub channels: usize,
    /// Datasets per converted file.
    pub datasets: usize,
    pub seed: u64,
    pub mode: ProvMode,
}

impl Default for DassaParams {
    fn default() -> Self {
        DassaParams {
            n_files: 128,
            nodes: 32,
            file_mib: 675,
            channels: 96,
            datasets: 4,
            seed: 11,
            mode: ProvMode::Off,
        }
    }
}

/// Run outcome.
#[derive(Debug, Clone)]
pub struct DassaOutcome {
    pub metrics: RunMetrics,
    /// Final data products (one xcorr stack per node).
    pub products: Vec<String>,
    pub prov_dir: String,
}

/// Modeled analysis compute per file and phase (DAS signal processing of
/// hundreds of MB per file costs seconds of CPU).
fn convert_compute(p: &DassaParams) -> SimDuration {
    SimDuration::from_secs_f64(3.0 * p.file_mib as f64 / 675.0)
}

fn decimate_compute(p: &DassaParams) -> SimDuration {
    SimDuration::from_secs_f64(4.0 * p.file_mib as f64 / 675.0)
}

fn xcorr_compute(p: &DassaParams) -> SimDuration {
    SimDuration::from_secs_f64(2.0 * p.file_mib as f64 / 675.0)
}

fn tdms_path(i: usize) -> String {
    format!("/dassa/raw/WestSac_{i:04}.tdms")
}

fn h5_path(i: usize) -> String {
    format!("/dassa/convert/WestSac_{i:04}.h5")
}

fn decimate_path(i: usize) -> String {
    format!("/dassa/products/decimate_{i:04}.h5")
}

fn stack_path(node: u32) -> String {
    format!("/dassa/products/xcorr_stack_n{node:02}.h5")
}

/// Generate the raw sensor inputs (not part of the tracked workflow — the
/// interrogator wrote these).
fn generate_inputs(fs: &Arc<provio_hpcfs::FileSystem>, p: &DassaParams) {
    let boot = FsSession::new(
        Arc::clone(fs),
        1,
        "das-interrogator",
        "sensor",
        VirtualClock::new(),
        provio_hpcfs::Dispatcher::new(),
    );
    boot.fs().mkdir_all("/dassa/raw", "das", boot.clock().now()).unwrap();
    boot.fs()
        .mkdir_all("/dassa/convert", "das", boot.clock().now())
        .unwrap();
    boot.fs()
        .mkdir_all("/dassa/products", "das", boot.clock().now())
        .unwrap();
    for i in 0..p.n_files {
        let path = tdms_path(i);
        let fd = boot
            .open(&path, OpenFlags::wronly().with_create().with_truncate())
            .unwrap();
        boot.write_synthetic(fd, p.file_mib << 20).unwrap();
        boot.close(fd).unwrap();
        boot.setxattr(&path, "user.sample_rate_hz", b"500").unwrap();
        boot.setxattr(&path, "user.gauge_length_m", b"10").unwrap();
    }
}

/// One process slot: session + HDF5 handle, tracked per `mode`.
fn process_for(
    cluster: &Cluster,
    p: &DassaParams,
    prov_dir: &str,
    pid: u32,
    program: &str,
    clock: VirtualClock,
) -> (Arc<FsSession>, H5) {
    let cfg = match &p.mode {
        ProvMode::ProvIo(c) => {
            let mut c = (**c).clone();
            c.store_dir = prov_dir.to_string();
            c.workflow_type = Some("Acoustic Sensing".to_string());
            Some(c.shared())
        }
        _ => None,
    };
    cluster.process(pid, "UserA", program, clock, cfg.as_ref())
}

/// Phase 1 — tdms2h5: read each `.tdms` (POSIX), write a `.h5` with
/// groups, datasets and per-channel attributes.
fn tdms2h5(s: &FsSession, h5: &H5, p: &DassaParams, i: usize) {
    // POSIX read of the raw file in 64 MiB requests.
    let raw = tdms_path(i);
    let fd = s.open(&raw, OpenFlags::rdonly()).unwrap();
    let size = s.fs().stat(&raw).unwrap().size;
    let mut off = 0;
    while off < size {
        let n = (size - off).min(64 << 20);
        s.pread(fd, off, n).unwrap();
        off += n;
    }
    s.getxattr(&raw, "user.sample_rate_hz").unwrap();
    s.getxattr(&raw, "user.gauge_length_m").unwrap();
    s.close(fd).unwrap();

    s.compute(convert_compute(p));

    // HDF5 output: /dast group, `datasets` datasets, one attribute per
    // channel spread round-robin over the datasets.
    let f = h5.create_file(&h5_path(i)).unwrap();
    let g = h5.create_group(f, "dast").unwrap();
    let per_dataset = (p.file_mib << 20) / p.datasets as u64;
    let mut dsets: Vec<Handle> = Vec::with_capacity(p.datasets);
    for d in 0..p.datasets {
        let n_elems = per_dataset / 8;
        let dset = h5
            .create_dataset(
                g,
                &format!("channel_block_{d}"),
                Datatype::Float64,
                Dataspace::fixed(&[n_elems]),
            )
            .unwrap();
        h5.write(
            dset,
            &Hyperslab::new(&[0], &[n_elems]),
            &Data::synthetic(per_dataset),
        )
        .unwrap();
        dsets.push(dset);
    }
    for c in 0..p.channels {
        let dset = dsets[c % p.datasets.max(1)];
        h5.create_attr(
            dset,
            &format!("channel_{c:03}_meta"),
            Datatype::FixedString(32),
            format!("pos={};sr=500", c * 10).as_bytes(),
        )
        .unwrap();
    }
    for d in dsets {
        h5.close_dataset(d).unwrap();
    }
    h5.close_group(g).unwrap();
    h5.flush(f).unwrap();
    h5.close_file(f).unwrap();
}

/// Phase 2 — decimate: the attribute-heavy consumer. For every channel
/// attribute it re-opens the file and the containing dataset (the paper's
/// observation about attribute access), then reads and decimates the data.
fn decimate(s: &FsSession, h5: &H5, p: &DassaParams, i: usize) {
    let src = h5_path(i);
    // Attribute sweep: file → dataset → attribute per channel.
    for c in 0..p.channels {
        let f = h5.open_file(&src, false).unwrap();
        let dset = h5
            .open_dataset(f, &format!("dast/channel_block_{}", c % p.datasets.max(1)))
            .unwrap();
        let a = h5.open_attr(dset, &format!("channel_{c:03}_meta")).unwrap();
        h5.read_attr(a).unwrap();
        h5.close_attr(a).unwrap();
        h5.close_dataset(dset).unwrap();
        h5.close_file(f).unwrap();
    }

    // Bulk read + decimate (1:8) + write product.
    let f = h5.open_file(&src, false).unwrap();
    let out = h5.create_file(&decimate_path(i)).unwrap();
    let og = h5.create_group(out, "decimated").unwrap();
    for d in 0..p.datasets {
        let dset = h5.open_dataset(f, &format!("dast/channel_block_{d}")).unwrap();
        let info = h5.object_info(dset).unwrap();
        let n = info.dims.unwrap()[0];
        h5.read(dset, &Hyperslab::new(&[0], &[n])).unwrap();
        h5.close_dataset(dset).unwrap();

        let dn = (n / 8).max(1);
        let od = h5
            .create_dataset(
                og,
                &format!("channel_block_{d}"),
                Datatype::Float64,
                Dataspace::fixed(&[dn]),
            )
            .unwrap();
        h5.write(od, &Hyperslab::new(&[0], &[dn]), &Data::synthetic(dn * 8))
            .unwrap();
        h5.close_dataset(od).unwrap();
    }
    s.compute(decimate_compute(p));
    h5.create_attr(
        out,
        "source_file",
        Datatype::VarString,
        src.as_bytes(),
    )
    .unwrap();
    h5.close_group(og).unwrap();
    h5.flush(out).unwrap();
    h5.close_file(out).unwrap();
    h5.close_file(f).unwrap();
}

/// Phase 3 — xcorr_stack: each node stacks its decimated files into one
/// product.
fn xcorr_stack(s: &FsSession, h5: &H5, p: &DassaParams, node: u32, files: &[usize]) {
    let out = h5.create_file(&stack_path(node)).unwrap();
    let total: u64 = 1 << 20; // stacked correlation function, 1 MiB
    let od = h5
        .create_dataset(out, "xcorr", Datatype::Float64, Dataspace::fixed(&[total / 8]))
        .unwrap();
    for &i in files {
        let f = h5.open_file(&decimate_path(i), false).unwrap();
        for d in 0..p.datasets {
            let dset = h5
                .open_dataset(f, &format!("decimated/channel_block_{d}"))
                .unwrap();
            let info = h5.object_info(dset).unwrap();
            let n = info.dims.unwrap()[0];
            h5.read(dset, &Hyperslab::new(&[0], &[n])).unwrap();
            h5.close_dataset(dset).unwrap();
        }
        h5.close_file(f).unwrap();
        s.compute(xcorr_compute(p));
    }
    h5.write(
        od,
        &Hyperslab::new(&[0], &[total / 8]),
        &Data::synthetic(total),
    )
    .unwrap();
    h5.close_dataset(od).unwrap();
    h5.flush(out).unwrap();
    h5.close_file(out).unwrap();
}

/// Run DASSA once.
pub fn run(cluster: &Cluster, p: &DassaParams) -> DassaOutcome {
    let prov_dir = "/dassa/provio".to_string();
    generate_inputs(&cluster.fs, p);

    let world = MpiWorld::new(p.nodes);
    let files_of = |rank: u32| -> Vec<usize> {
        (0..p.n_files)
            .filter(|i| (i % p.nodes as usize) as u32 == rank)
            .collect()
    };

    // Phase 1: conversion, one tdms2h5 process per node.
    world.superstep_named("tdms2h5", |ctx| {
        let pid = 2_000 + ctx.rank;
        let (s, h5) = process_for(cluster, p, &prov_dir, pid, "tdms2h5", ctx.clock().clone());
        for i in files_of(ctx.rank) {
            tdms2h5(&s, &h5, p, i);
        }
    });

    // Phase 2: decimation.
    world.superstep_named("decimate", |ctx| {
        let pid = 3_000 + ctx.rank;
        let (s, h5) = process_for(cluster, p, &prov_dir, pid, "decimate", ctx.clock().clone());
        for i in files_of(ctx.rank) {
            decimate(&s, &h5, p, i);
        }
    });

    // Phase 3: cross-correlation stacking.
    let products: Vec<String> = world
        .superstep_named("xcorr_stack", |ctx| {
            let pid = 4_000 + ctx.rank;
            let (s, h5) =
                process_for(cluster, p, &prov_dir, pid, "xcorr_stack", ctx.clock().clone());
            let files = files_of(ctx.rank);
            if files.is_empty() {
                return None;
            }
            xcorr_stack(&s, &h5, p, ctx.rank, &files);
            Some(stack_path(ctx.rank))
        })
        .into_iter()
        .filter_map(RankOutcome::completed)
        .flatten()
        .collect();

    // Finish provenance for all phase processes.
    let (prov_bytes, prov_files, tracked_events) = if p.mode.is_off() {
        (0, 0, 0)
    } else {
        cluster.finish_provenance(&prov_dir)
    };

    DassaOutcome {
        metrics: RunMetrics {
            completion: world.elapsed(),
            prov_bytes,
            prov_files,
            tracked_events,
        },
        products,
        prov_dir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio::ProvIoConfig;
    use provio_model::ClassSelector;

    fn small(mode: ProvMode) -> (Cluster, DassaOutcome) {
        let cluster = Cluster::new();
        let out = run(
            &cluster,
            &DassaParams {
                n_files: 8,
                nodes: 4,
                // Paper-scale file size: the bytes are synthetic (metadata
                // only), so the test stays fast while the compute/track
                // cost ratio matches the real deployment.
                file_mib: 675,
                channels: 24,
                datasets: 2,
                seed: 1,
                mode,
            },
        );
        (cluster, out)
    }

    #[test]
    fn baseline_produces_products() {
        let (cluster, out) = small(ProvMode::Off);
        assert_eq!(out.products.len(), 4);
        for prod in &out.products {
            assert!(cluster.fs.exists(prod), "{prod} missing");
        }
        assert!(out.metrics.completion.as_secs_f64() > 1.0);
        assert_eq!(out.metrics.prov_bytes, 0);
    }

    #[test]
    fn deterministic_baseline() {
        let (_, a) = small(ProvMode::Off);
        let (_, b) = small(ProvMode::Off);
        assert_eq!(a.metrics.completion, b.metrics.completion);
    }

    #[test]
    fn lineage_granularity_orders_overhead_and_events() {
        let (_, base) = small(ProvMode::Off);
        let run_with = |sel: ClassSelector| {
            let (_, o) = small(ProvMode::provio(
                ProvIoConfig::default().with_selector(sel),
            ));
            o
        };
        let file = run_with(ClassSelector::dassa_file_lineage());
        let dataset = run_with(ClassSelector::dassa_dataset_lineage());
        let attr = run_with(ClassSelector::dassa_attribute_lineage());

        assert!(file.metrics.tracked_events < dataset.metrics.tracked_events);
        assert!(dataset.metrics.tracked_events < attr.metrics.tracked_events);

        let oh_file = file.metrics.overhead_vs(&base.metrics);
        let oh_dataset = dataset.metrics.overhead_vs(&base.metrics);
        let oh_attr = attr.metrics.overhead_vs(&base.metrics);
        assert!(oh_file > 0.0);
        assert!(oh_file < oh_dataset, "{oh_file} vs {oh_dataset}");
        assert!(oh_dataset < oh_attr, "{oh_dataset} vs {oh_attr}");
        // The paper's range: ~1.8%–11%.
        assert!(oh_attr < 0.25, "attribute overhead sane: {oh_attr}");
        assert!(oh_file < 0.08, "file overhead sane: {oh_file}");
    }

    #[test]
    fn provenance_files_per_process() {
        let (_, out) = small(ProvMode::provio(
            ProvIoConfig::default().with_selector(ClassSelector::dassa_file_lineage()),
        ));
        // 3 phases × 4 nodes = 12 tracked processes.
        assert_eq!(out.metrics.prov_files, 12);
        assert!(out.metrics.prov_bytes > 0);
    }

    #[test]
    fn backward_lineage_recoverable_from_provenance() {
        let (cluster, out) = small(ProvMode::provio(
            ProvIoConfig::default().with_selector(ClassSelector::dassa_file_lineage()),
        ));
        let (graph, report) = provio::merge_directory(&cluster.fs, &out.prov_dir);
        assert!(report.corrupt.is_empty());
        let mut eng = provio::ProvQueryEngine::new(graph);
        eng.derive_lineage();
        // The decimate product derives (transitively) from the raw .tdms.
        let product = eng
            .entity_by_label("/dassa/products/decimate_0000.h5")
            .expect("product tracked");
        let lineage = eng.backward_lineage(&product);
        let labels: Vec<String> = lineage
            .iter()
            .filter_map(|g| eng.label_of(g))
            .collect();
        assert!(
            labels.iter().any(|l| l.contains("WestSac_0000.tdms")),
            "lineage {labels:?}"
        );
    }
}
