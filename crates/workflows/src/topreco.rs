//! The Top Reco workflow (paper §3.1, Figure 3): GNN-based top-quark
//! reconstruction.
//!
//! Structure reproduced from the paper: the workflow reads an input-event
//! `.root` file and an `.ini` configuration, generates `.tfrecord`
//! training/test datasets, trains a GNN for E epochs, emits edge/node
//! scores, and reconstructs top quarks from the highest scores. Single
//! process, pure POSIX I/O.
//!
//! Training itself is simulated: each epoch charges modeled compute time
//! and produces a *deterministic* accuracy that depends on the
//! hyperparameter set and the epoch (a saturating learning curve), so the
//! config→accuracy mapping the provenance queries answer is meaningful and
//! reproducible.
//!
//! Instrumentation points match §6.4 exactly for both tools: the
//! configuration is recorded once at workflow start; training accuracy is
//! recorded at the end of every epoch.

use crate::cluster::Cluster;
use crate::metrics::{ProvMode, RunMetrics};
use provio::ProvIoApi;
use provio_hpcfs::{FsSession, OpenFlags};
use provio_provlake::ProvLakeTracker;
use provio_simrt::{DetRng, SimDuration, VirtualClock};
use std::fmt::Write as _;
use std::sync::Arc;

/// Run parameters.
#[derive(Clone)]
pub struct TopRecoParams {
    /// Training epochs (the x-axis of Figures 6(a)/7(a)).
    pub epochs: u32,
    /// Number of configuration fields (20/40/80 in Figure 8).
    pub n_configs: usize,
    /// Input physics events.
    pub n_events: u64,
    /// Modeled compute per epoch.
    pub epoch_compute: SimDuration,
    pub seed: u64,
    pub mode: ProvMode,
    /// Distinguishes concurrent runs on one cluster (paths, pids).
    pub run_id: u32,
}

impl Default for TopRecoParams {
    fn default() -> Self {
        TopRecoParams {
            epochs: 20,
            n_configs: 20,
            n_events: 100_000,
            epoch_compute: SimDuration::from_secs(60),
            seed: 7,
            mode: ProvMode::Off,
            run_id: 0,
        }
    }
}

/// Run outcome.
#[derive(Debug, Clone)]
pub struct TopRecoOutcome {
    pub metrics: RunMetrics,
    pub accuracy_curve: Vec<f64>,
    pub final_accuracy: f64,
    /// Where provenance was stored (for the query/visualization steps).
    pub prov_dir: String,
}

/// Deterministic hyperparameter set for a seed.
pub(crate) fn hyperparameters(seed: u64, n: usize) -> Vec<(String, String)> {
    let mut rng = DetRng::with_stream(seed, 0xC0FF);
    let mut out = Vec::with_capacity(n);
    let base = [
        ("learning_rate", vec!["0.01", "0.001", "0.0001"]),
        ("batch_size", vec!["32", "64", "128"]),
        ("hidden_dim", vec!["64", "128", "256"]),
        ("n_layers", vec!["2", "3", "4"]),
        ("dropout", vec!["0.0", "0.1", "0.3"]),
        ("preselection_pt_min", vec!["20", "25", "30"]),
        ("preselection_eta_max", vec!["2.1", "2.4", "2.7"]),
        ("optimizer", vec!["adam", "sgd"]),
    ];
    for i in 0..n {
        let (name, choices) = &base[i % base.len()];
        let suffix = if i < base.len() {
            String::new()
        } else {
            format!("_{}", i / base.len())
        };
        let v = choices[rng.below(choices.len() as u64) as usize];
        out.push((format!("{name}{suffix}"), v.to_string()));
    }
    out
}

/// The deterministic learning curve: a saturating exponential whose ceiling
/// and rate depend on the hyperparameters.
fn accuracy_at(seed: u64, hyper: &[(String, String)], epoch: u32) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for (k, v) in hyper {
        for b in k.bytes().chain(v.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    let ceiling = 0.86 + (h % 1000) as f64 / 1000.0 * 0.12; // 0.86..0.98
    let tau = 6.0 + ((h >> 16) % 1000) as f64 / 1000.0 * 18.0; // 6..24 epochs
    let wobble = (((h >> 32) ^ (epoch as u64).wrapping_mul(0x9E37_79B9)) % 1000) as f64
        / 1000.0
        * 0.004;
    ceiling * (1.0 - (-((epoch + 1) as f64) / tau).exp()) + wobble
}

fn ini_text(hyper: &[(String, String)]) -> String {
    let mut s = String::from("[gnn]\n");
    for (k, v) in hyper {
        let _ = writeln!(s, "{k} = {v}");
    }
    s
}

/// Minimal INI reader (the workflow's own config parsing).
pub(crate) fn parse_ini(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            if l.is_empty() || l.starts_with('[') || l.starts_with('#') {
                return None;
            }
            let (k, v) = l.split_once('=')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

const EVENT_BYTES: u64 = 64;

fn write_synthetic_file(s: &FsSession, path: &str, bytes: u64) {
    let fd = s
        .open(path, OpenFlags::wronly().with_create().with_truncate())
        .expect("create synthetic file");
    // 8 MB I/O requests, the tfrecord writer's buffer size.
    let chunk = 8 << 20;
    let mut left = bytes;
    while left > 0 {
        let n = left.min(chunk);
        s.write_synthetic(fd, n).expect("write");
        left -= n;
    }
    s.close(fd).expect("close");
}

fn read_synthetic_file(s: &FsSession, path: &str) {
    let fd = s.open(path, OpenFlags::rdonly()).expect("open");
    let size = s.fs().stat(path).map(|m| m.size).unwrap_or(0);
    let chunk = 8 << 20;
    let mut off = 0;
    while off < size {
        let n = (size - off).min(chunk);
        s.pread(fd, off, n).expect("read");
        off += n;
    }
    s.close(fd).expect("close");
}

/// Run Top Reco once.
pub fn run(cluster: &Cluster, p: &TopRecoParams) -> TopRecoOutcome {
    let clock = VirtualClock::new();
    let pid = 1_000 + p.run_id;
    let root = format!("/topreco/run{}", p.run_id);
    let prov_dir = format!("{root}/provio");

    // Per-mode instrumentation handles.
    let provio_cfg = match &p.mode {
        ProvMode::ProvIo(cfg) => {
            let mut c = (**cfg).clone();
            c.store_dir = prov_dir.clone();
            c.workflow_type = Some("Machine Learning".to_string());
            Some(c.shared())
        }
        _ => None,
    };
    let (session, _h5) = cluster.process(pid, "alice", "topreco", clock.clone(), provio_cfg.as_ref());
    let api = provio_cfg.map(|_| {
        // `attach` already ran inside `process`; get the tracker back.
        ProvIoApi::new(cluster.registry.get(pid).expect("registered"))
    });
    let provlake = match &p.mode {
        ProvMode::ProvLake => Some(ProvLakeTracker::new(
            Arc::clone(&cluster.fs),
            format!("{root}/provlake/topreco.jsonl"),
            "topreco",
            p.run_id as u64,
            clock.clone(),
        )),
        _ => None,
    };

    session.fs().mkdir_all(&root, "alice", clock.now()).expect("mkdir");

    // 1. Configuration + input events.
    let hyper = hyperparameters(p.seed, p.n_configs);
    session
        .write_file(&format!("{root}/config.ini"), ini_text(&hyper).as_bytes())
        .expect("write config");
    write_synthetic_file(&session, &format!("{root}/events.root"), p.n_events * EVENT_BYTES);

    // Read the configuration back (what the real workflow does at start).
    let cfg_text = String::from_utf8(session.read_file(&format!("{root}/config.ini")).unwrap())
        .expect("utf8 config");
    let parsed = parse_ini(&cfg_text);
    debug_assert_eq!(parsed.len(), hyper.len());

    // Instrument: configuration recorded once at workflow start (§6.4).
    if let Some(api) = &api {
        for (k, v) in &parsed {
            api.track_configuration(k, v);
        }
    }
    if let Some(pl) = &provlake {
        for (k, v) in &parsed {
            pl.set_workflow_attribute(k, v);
        }
    }

    // 2. Generate the training and test datasets.
    read_synthetic_file(&session, &format!("{root}/events.root"));
    session.compute(SimDuration::from_secs_f64(
        p.n_events as f64 * 50e-9, // 50 ns/event preprocessing
    ));
    let train_bytes = p.n_events * EVENT_BYTES * 8 / 10;
    let test_bytes = p.n_events * EVENT_BYTES * 2 / 10;
    write_synthetic_file(&session, &format!("{root}/train.tfrecord"), train_bytes);
    write_synthetic_file(&session, &format!("{root}/test.tfrecord"), test_bytes);

    // 3. The training loop, instrumented at the end of every epoch.
    let mut curve = Vec::with_capacity(p.epochs as usize);
    for epoch in 0..p.epochs {
        read_synthetic_file(&session, &format!("{root}/train.tfrecord"));
        session.compute(p.epoch_compute);
        let acc = accuracy_at(p.seed, &hyper, epoch);
        curve.push(acc);
        if let Some(api) = &api {
            api.track_metric("training_accuracy", acc);
        }
        if let Some(pl) = &provlake {
            let t = pl.begin_task("train_epoch", epoch as u64);
            pl.task_output(t, "training_accuracy", &format!("{acc:.6}"));
            pl.end_task(t);
        }
    }

    // 4. Test + scores.
    read_synthetic_file(&session, &format!("{root}/test.tfrecord"));
    session.compute(SimDuration::from_secs_f64(
        p.epoch_compute.as_secs_f64() * 0.2,
    ));
    let mut scores = String::from("edge_id,score\n");
    let mut rng = DetRng::with_stream(p.seed, 0x5C0E);
    for i in 0..64 {
        let _ = writeln!(scores, "{i},{:.4}", rng.f64());
    }
    session
        .write_file(&format!("{root}/scores.csv"), scores.as_bytes())
        .expect("write scores");

    // 5. Reconstruction from the highest scores.
    let _ = session.read_file(&format!("{root}/scores.csv")).unwrap();
    session.compute(SimDuration::from_secs(2));
    write_synthetic_file(&session, &format!("{root}/reco.root"), 4 << 20);

    // Finish provenance.
    let (prov_bytes, prov_files, tracked_events) = match &p.mode {
        ProvMode::Off => (0, 0, 0),
        ProvMode::ProvIo(_) => {
            let tracker = cluster.registry.unregister(pid).expect("tracker");
            let summary = tracker.finish();
            let (bytes, files) = cluster.prov_usage(&prov_dir);
            debug_assert_eq!(bytes, summary.store_bytes);
            (bytes, files, summary.events)
        }
        ProvMode::ProvLake => {
            let pl = provlake.as_ref().expect("provlake mode");
            let bytes = pl.finish();
            (bytes, 1, pl.record_count())
        }
    };

    TopRecoOutcome {
        metrics: RunMetrics {
            completion: SimDuration::from_nanos(clock.now().as_nanos()),
            prov_bytes,
            prov_files,
            tracked_events,
        },
        final_accuracy: *curve.last().unwrap_or(&0.0),
        accuracy_curve: curve,
        prov_dir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio::ProvIoConfig;
    use provio_model::ClassSelector;

    fn quick(mode: ProvMode, run_id: u32) -> TopRecoOutcome {
        let cluster = Cluster::new();
        run(
            &cluster,
            &TopRecoParams {
                epochs: 5,
                n_configs: 8,
                n_events: 10_000,
                epoch_compute: SimDuration::from_secs(10),
                seed: 3,
                mode,
                run_id,
            },
        )
    }

    #[test]
    fn baseline_runs_and_is_deterministic() {
        let a = quick(ProvMode::Off, 0);
        let b = quick(ProvMode::Off, 0);
        assert_eq!(a.metrics.completion, b.metrics.completion);
        assert_eq!(a.accuracy_curve, b.accuracy_curve);
        assert!(a.metrics.completion.as_secs_f64() > 50.0);
        assert_eq!(a.metrics.prov_bytes, 0);
    }

    #[test]
    fn accuracy_curve_saturates_upward() {
        let o = quick(ProvMode::Off, 0);
        assert_eq!(o.accuracy_curve.len(), 5);
        assert!(o.final_accuracy > o.accuracy_curve[0]);
        assert!(o.final_accuracy < 1.0);
    }

    #[test]
    fn provio_overhead_is_small_and_positive() {
        let base = quick(ProvMode::Off, 0);
        let tracked = quick(
            ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::topreco()),
            ),
            0,
        );
        let overhead = tracked.metrics.overhead_vs(&base.metrics);
        assert!(overhead > 0.0, "tracking costs something: {overhead}");
        assert!(overhead < 0.02, "but stays tiny: {overhead}");
        assert!(tracked.metrics.prov_bytes > 0);
        assert_eq!(tracked.metrics.prov_files, 1);
        // 8 configs + 5 accuracies tracked... as extensible records (not IoEvents).
        assert_eq!(tracked.accuracy_curve, base.accuracy_curve, "tracking must not perturb results");
    }

    #[test]
    fn provlake_tracks_same_points() {
        let pl = quick(ProvMode::ProvLake, 1);
        assert_eq!(pl.metrics.tracked_events, 5, "one step record per epoch");
        assert!(pl.metrics.prov_bytes > 0);
    }

    #[test]
    fn provlake_storage_exceeds_provio_for_same_workload() {
        // Figure 8(d-f): ProvLake stores more because every step record
        // duplicates the workflow context. Paper-scale parameters (20
        // configs, 20 epochs).
        let run_with = |mode: ProvMode, run_id| {
            let cluster = Cluster::new();
            run(
                &cluster,
                &TopRecoParams {
                    epochs: 20,
                    n_configs: 20,
                    n_events: 10_000,
                    epoch_compute: SimDuration::from_secs(10),
                    seed: 3,
                    mode,
                    run_id,
                },
            )
        };
        let pio = run_with(
            ProvMode::provio(
                ProvIoConfig::default().with_selector(ClassSelector::topreco()),
            ),
            2,
        );
        let pl = run_with(ProvMode::ProvLake, 3);
        assert!(
            pl.metrics.prov_bytes > pio.metrics.prov_bytes,
            "provlake {} <= provio {}",
            pl.metrics.prov_bytes,
            pio.metrics.prov_bytes
        );
    }

    #[test]
    fn hyperparameters_deterministic_and_sized() {
        let a = hyperparameters(5, 40);
        let b = hyperparameters(5, 40);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        // Distinct names.
        let names: std::collections::HashSet<&String> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names.len(), 40);
    }

    #[test]
    fn ini_round_trip() {
        let h = hyperparameters(1, 10);
        let parsed = parse_ini(&ini_text(&h));
        assert_eq!(parsed, h);
    }
}
