//! The four workloads. The benchmark contract wants every end-to-end
//! metric from every workload, so each covers both sides of the pipeline —
//! capture (track, finish) and read (merge, query, recover) — but they
//! differ in configuration, in scale and in where a repetition's time goes
//! (see `why`): the capture workloads and `workflows` capture afresh in
//! every repetition and read the result back once; `posthoc` captures its
//! larger directory in set-up and its repetitions only read.

use crate::calib;
use crate::gen::{self, Expected, Stream};
use crate::pipeline::{self, Checks, ReadPlan, ReadSide};
use crate::stats;
use crate::trace::Tracer;
use provio::{ProvIoConfig, ProvenanceStore};
use provio_hpcfs::{FileSystem, LustreConfig};
use provio_model::ClassSelector;
use provio_simrt::SimDuration;
use provio_workflows::{dassa, h5bench, topreco, Cluster, ProvMode, RunMetrics};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CaptureMem,
    CaptureDurable,
    Workflows,
    Posthoc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CaptureMem,
        Workload::CaptureDurable,
        Workload::Workflows,
        Workload::Posthoc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CaptureMem => "capture-mem",
            Workload::CaptureDurable => "capture-durable",
            Workload::Workflows => "workflows",
            Workload::Posthoc => "posthoc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Event and repetition counts of one workload. Fixed per workload; only
/// `--smoke` divides them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub ranks: u32,
    pub events_per_rank: usize,
    /// Passes of the query mix per repetition.
    pub passes: usize,
    /// posthoc's crashed writer: events flushed to segments, then events
    /// left only in its journal.
    pub crash_flushed: usize,
    pub crash_journal: usize,
    /// workflows: H5bench ranks, DASSA files, nodes and channels, Top Reco
    /// runs (`ranks` × `events_per_rank` is the preset replay).
    pub h5_ranks: u32,
    pub dassa_files: usize,
    pub dassa_nodes: u32,
    pub dassa_channels: usize,
    pub topreco_runs: u32,
}

/// Events per rank of the capture workloads.
const CAPTURE_EVENTS: usize = 5_000;

impl Sizes {
    pub fn of(w: Workload, divisor: usize) -> Sizes {
        let d = divisor.max(1);
        let zero = Sizes {
            ranks: 4,
            events_per_rank: 0,
            passes: 1,
            crash_flushed: 0,
            crash_journal: 0,
            h5_ranks: 0,
            dassa_files: 0,
            dassa_nodes: 0,
            dassa_channels: 0,
            topreco_runs: 0,
        };
        match w {
            // The two capture workloads run the same streams.
            Workload::CaptureMem | Workload::CaptureDurable => Sizes {
                events_per_rank: CAPTURE_EVENTS / d,
                ..zero
            },
            Workload::Posthoc => Sizes {
                events_per_rank: 7_500 / d,
                passes: 3,
                crash_flushed: 2_000 / d,
                crash_journal: 500 / d,
                ..zero
            },
            Workload::Workflows => Sizes {
                ranks: 3,
                events_per_rank: 10_000 / d,
                passes: 3,
                h5_ranks: (256 / d as u32).max(2),
                dassa_files: (16 / d).max(4),
                dassa_nodes: (8 / d as u32).max(2),
                dassa_channels: 24,
                topreco_runs: (100 / d as u32).max(2),
                ..zero
            },
        }
    }
}

/// Everything set-up produces: the generated inputs, what a correct run
/// must report for them, and (posthoc) the directory the repetitions read.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    /// One stream per tracked rank (workflows: per replayed preset).
    pub streams: Vec<Stream>,
    /// posthoc's crashed writer stream.
    pub crash: Option<Stream>,
    pub replayed: u64,
    /// Expectations over the tracked streams, and over everything that
    /// reaches the merged graph (tracked + crashed writer).
    pub tracked: Expected,
    pub merged: Expected,
    pub stream_digest: String,
    /// posthoc: the durable directory, captured here and only read by the
    /// repetitions, with the output checks of its capture.
    pub built: Option<(Built, Checks)>,
}

/// A store directory a capture stage produced, and what capturing it took.
pub struct Built {
    pub fs: Arc<FileSystem>,
    pub capture: CaptureSide,
    /// posthoc's crashed writer, kept alive so it is never finished.
    _crashed: Option<ProvenanceStore>,
}

/// Capture the synthetic streams of `inp` into a fresh file system: the
/// crashed writer first (posthoc; it dies before the run is sealed), then
/// the trackers from their first `track_io` to `finish_all`'s return.
fn build(inp: &Inputs, tr: &mut Tracer, checks: &mut Checks) -> Built {
    let cfg = match inp.workload {
        Workload::CaptureMem => pipeline::mem_config(),
        _ => pipeline::durable_config(),
    }
    .shared();
    let fs = FileSystem::new(LustreConfig::default());
    let crashed = inp
        .crash
        .as_ref()
        .map(|s| pipeline::crashed_writer(&fs, s, inp.sizes.crash_flushed));
    let captured = pipeline::capture(&fs, &cfg, &inp.streams, tr);
    pipeline::check_summaries(
        &captured.summaries,
        inp.tracked.events,
        Some(inp.tracked.emitted_triples),
        checks,
    );
    let (prov_bytes, _) = pipeline::directory_digest(&fs, pipeline::STORE_DIR);
    let (p50, tail_us) = call_stats(&captured.latencies_ns, cfg.async_store);
    Built {
        fs,
        capture: CaptureSide {
            events: captured.events,
            tracked_s: captured.capture_s,
            untracked_s: 0.0,
            event_p50_ns: p50,
            event_tail_us: tail_us,
            finish_s: captured.finish_s,
            prov_bytes,
        },
        _crashed: crashed,
    }
}

pub fn setup(w: Workload, seed: u64, divisor: usize) -> Inputs {
    let sizes = Sizes::of(w, divisor);
    let streams = gen::generate(seed, sizes.ranks, sizes.events_per_rank);
    let tracked = gen::expected(&streams);
    let stream_digest = gen::digest(&streams);
    let crash = (w == Workload::Posthoc)
        .then(|| gen::stream(seed, sizes.ranks, sizes.crash_flushed + sizes.crash_journal));
    let (replayed, merged) = match &crash {
        Some(c) => {
            let all: Vec<&Stream> = streams.iter().chain([c]).collect();
            (
                pipeline::crashed_writer_replayed(c, sizes.crash_flushed),
                gen::expected(&all),
            )
        }
        None => (0, tracked.clone()),
    };
    let mut inputs = Inputs {
        workload: w,
        seed,
        sizes,
        streams,
        crash,
        replayed,
        tracked,
        merged,
        stream_digest,
        built: None,
    };
    if w == Workload::Posthoc {
        let mut checks = Checks::default();
        let built = build(&inputs, &mut Tracer::new(w.name(), false), &mut checks);
        inputs.built = Some((built, checks));
    }
    inputs
}

/// What one capture stage measured, as the clock read it.
#[derive(Debug, Clone, Default)]
pub struct CaptureSide {
    /// Tracked operations: `track_io` events, plus Top Reco's explicit
    /// Configuration/Metrics calls on workflows.
    pub events: u64,
    /// Wall of the tracked side: the first `track_io` to `finish_all`'s
    /// return; on workflows, Σ tracked driver runs.
    pub tracked_s: f64,
    /// The same work with no tracker behind it: Σ untracked driver runs on
    /// workflows; nothing for a generated stream, which does no work of its
    /// own — all of its tracked wall is overhead.
    pub untracked_s: f64,
    pub event_p50_ns: f64,
    pub event_tail_us: f64,
    pub finish_s: f64,
    pub prov_bytes: u64,
}

impl CaptureSide {
    /// The value of a capture-side end-to-end metric, if `name` is one.
    pub fn metric(&self, name: &str) -> Option<f64> {
        let events = self.events.max(1) as f64;
        Some(match name {
            "capture_events_per_s" => events / self.tracked_s,
            "capture_event_p50_ns" => self.event_p50_ns,
            "capture_event_tail_us" => self.event_tail_us,
            "finish_s" => self.finish_s,
            "track_overhead_ns_per_event" => (self.tracked_s - self.untracked_s) * 1e9 / events,
            "prov_bytes_per_event" => self.prov_bytes as f64 / events,
            _ => return None,
        })
    }
}

/// What one repetition measured, as the clock read it.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// `None` on posthoc, whose directory was captured in set-up.
    pub capture: Option<CaptureSide>,
    /// Timed stages counted in `wall_s` only (workflows' preset replay).
    pub other_s: f64,
    pub read: ReadSide,
    /// workflows only.
    pub drivers: Vec<DriverRun>,
    /// Host-speed factor of this repetition (see `calib`): multiply a time
    /// by it, divide a rate by it, to get the value at nominal host speed.
    pub host_factor: f64,
}

impl Rep {
    /// The value of a read-side or whole-repetition metric, as clocked.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "wall_s" => {
                let capture = self.capture.as_ref();
                capture.map_or(0.0, |c| c.tracked_s + c.untracked_s)
                    + self.other_s
                    + self.read.wall_s()
            }
            "merge_triples_per_s" => self.read.merged_triples as f64 / self.read.merge_s,
            "query_mix_s" => self.read.mix_s(),
            "query_ms_p90" => self.read.query_ms_p90(),
            "recover_s" => self.read.recover_s,
            other => unreachable!("{other} is not a per-repetition metric"),
        }
    }
}

/// One paper driver, untracked and tracked.
#[derive(Debug, Clone, Default)]
pub struct DriverRun {
    pub name: &'static str,
    pub wall_off_s: f64,
    pub wall_on_s: f64,
    /// Operations the tracker recorded.
    pub events: u64,
    /// Virtual completion time of each side (the paper's Fig. 6 quantity).
    pub completion_off_s: f64,
    pub completion_on_s: f64,
    pub prov_bytes: u64,
}

/// p50 (ns) and tail (µs) of one capture stage's `track_io` calls.
///
/// With a synchronous store the tail is p99.9 (the highest percentile with
/// ten samples beyond it, which 10 000 calls give): it is the flush stall.
/// With the asynchronous store it is p99. Beyond that the distribution is
/// the host scheduler, not the program: p99.9 reads 0.45–0.55 ms when the
/// tracking thread and the store's writer thread sit on different cores
/// and 2.5–2.9 ms — one scheduler time slice — when they share one, and
/// identical invocations on a 2-core host land on either.
pub fn call_stats(latencies_ns: &[u32], async_store: bool) -> (f64, f64) {
    let mut v: Vec<u64> = latencies_ns.iter().map(|&x| u64::from(x)).collect();
    let p50 = stats::percentile(&mut v, 500) as f64;
    let tail = stats::supported_tail(v.len()).min(if async_store { 990 } else { 999 });
    (p50, stats::percentile(&mut v, tail) as f64 / 1e3)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// What varies between repetitions of one run.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    pub rep: u32,
    /// Take the merged graph's SHA-256 in this repetition.
    pub sha256: bool,
}

/// One repetition of a synthetic-stream workload: capture (unless set-up
/// did), then the read side over the directory.
fn synthetic_rep(inp: &Inputs, opts: RepOpts, tr: &mut Tracer, checks: &mut Checks) -> Rep {
    let fresh;
    let built = match &inp.built {
        Some((built, _)) => built,
        None => {
            fresh = build(inp, tr, checks);
            // `finish_all` has returned: the stores owe nothing.
            tr.reference();
            &fresh
        }
    };
    let durable = inp.workload != Workload::CaptureMem;
    let read = pipeline::read_side(
        &built.fs,
        &ReadPlan {
            dir: pipeline::STORE_DIR,
            passes: inp.sizes.passes,
            expected: Some(&inp.merged),
            replayed: inp.replayed,
            rot: durable.then_some(u64::from(opts.rep)),
            seed: inp.seed,
            sha256: opts.sha256,
        },
        tr,
        checks,
    );
    Rep {
        capture: inp.built.is_none().then(|| built.capture.clone()),
        other_s: 0.0,
        read,
        drivers: Vec::new(),
        host_factor: 1.0,
    }
}

fn paper_mode(on: bool, selector: ClassSelector) -> ProvMode {
    if on {
        ProvMode::provio(
            ProvIoConfig::default()
                .with_selector(selector)
                .with_record_latency_ns(0),
        )
    } else {
        ProvMode::Off
    }
}

/// Run one driver untracked and tracked (order given by `on_first`), each
/// on a fresh cluster; the tracked cluster is returned for the read side.
fn driver_pair(
    name: &'static str,
    on_first: bool,
    tr: &mut Tracer,
    mut run: impl FnMut(&Cluster, bool) -> RunMetrics,
) -> (DriverRun, Cluster) {
    let mut out = DriverRun {
        name,
        ..DriverRun::default()
    };
    let mut tracked_cluster = None;
    for on in [on_first, !on_first] {
        let cluster = Cluster::new();
        let open = tr.begin("workflows", if on { name } else { "untracked" }, None);
        let m = run(&cluster, on);
        let wall = tr.end(open).as_secs_f64();
        if on {
            out.wall_on_s = wall;
            out.events = m.tracked_events;
            out.completion_on_s = m.completion.as_secs_f64();
            out.prov_bytes = m.prov_bytes;
            tracked_cluster = Some(cluster);
        } else {
            out.wall_off_s = wall;
            out.completion_off_s = m.completion.as_secs_f64();
        }
    }
    (out, tracked_cluster.expect("the tracked side ran"))
}

/// Top Reco parameters of the paper preset: 100 epochs, 80 configurations.
const TOPRECO_EPOCHS: u32 = 100;
const TOPRECO_CONFIGS: usize = 80;

/// The three paper drivers, each untracked and tracked on fresh clusters.
/// `selector` replaces each driver's paper preset when given (the layer
/// rows use `all()` to count what the presets filter).
pub fn run_drivers(
    inp: &Inputs,
    on_first: bool,
    selector: Option<ClassSelector>,
    tr: &mut Tracer,
) -> [(DriverRun, Cluster); 3] {
    let z = inp.sizes;
    let pick = |preset: ClassSelector| selector.clone().unwrap_or(preset);
    let h5 = driver_pair("h5bench", on_first, tr, |cluster, on| {
        let p = h5bench::H5benchParams {
            ranks: z.h5_ranks,
            pattern: h5bench::IoPattern::WriteRead,
            seed: inp.seed,
            mode: paper_mode(on, pick(ClassSelector::h5bench_scenario3())),
            ..h5bench::H5benchParams::default()
        };
        h5bench::run(cluster, &p).metrics
    });
    let da = driver_pair("dassa", on_first, tr, |cluster, on| {
        let p = dassa::DassaParams {
            n_files: z.dassa_files,
            nodes: z.dassa_nodes,
            channels: z.dassa_channels,
            seed: inp.seed,
            mode: paper_mode(on, pick(ClassSelector::dassa_attribute_lineage())),
            ..dassa::DassaParams::default()
        };
        dassa::run(cluster, &p).metrics
    });
    // Top Reco: `topreco_runs` run ids on one cluster per side. Its
    // provenance is all explicit Configuration/Metrics calls, which
    // `tracked_events` does not count, so they are counted here.
    let tp = driver_pair("topreco", on_first, tr, |cluster, on| {
        let mut total = RunMetrics {
            completion: SimDuration::from_nanos(0),
            prov_bytes: 0,
            prov_files: 0,
            tracked_events: 0,
        };
        for run_id in 0..z.topreco_runs {
            let p = topreco::TopRecoParams {
                epochs: TOPRECO_EPOCHS,
                n_configs: TOPRECO_CONFIGS,
                seed: inp.seed,
                mode: paper_mode(on, pick(ClassSelector::topreco())),
                run_id,
                ..topreco::TopRecoParams::default()
            };
            let m = topreco::run(cluster, &p).metrics;
            total.completion = total.completion.saturating_add(m.completion);
            total.prov_bytes += m.prov_bytes;
            total.prov_files += m.prov_files;
            if on {
                total.tracked_events +=
                    m.tracked_events + TOPRECO_CONFIGS as u64 + u64::from(TOPRECO_EPOCHS);
            }
        }
        total
    });
    [h5, da, tp]
}

/// One repetition of the workflows workload: the three paper drivers
/// untracked and tracked, a replay of the seed's streams under the three
/// paper selectors (the per-call latencies and the finish the drivers
/// hide), then the read side over the DASSA and H5bench directories.
fn workflows_rep(inp: &Inputs, opts: RepOpts, tr: &mut Tracer, checks: &mut Checks) -> Rep {
    let z = inp.sizes;
    // Alternate which side runs first, so drift hits both sides alike.
    let [(h5, h5_cluster), (da, dassa_cluster), (tp, _)] =
        run_drivers(inp, opts.rep % 2 == 1, None, tr);
    let drivers = vec![h5, da, tp];
    tr.reference();

    // Preset replay: one stream per paper selector.
    let presets = [
        ClassSelector::h5bench_scenario3(),
        ClassSelector::dassa_attribute_lineage(),
        ClassSelector::topreco(),
    ];
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let (mut finish_s, mut replay_s) = (0.0, 0.0);
    for (stream, selector) in inp.streams.iter().zip(presets) {
        let fs = FileSystem::new(LustreConfig::default());
        let cfg = pipeline::mem_config().with_selector(selector).shared();
        let captured = pipeline::capture(&fs, &cfg, std::slice::from_ref(stream), tr);
        let kept: u64 = captured.summaries.iter().map(|(_, s)| s.events).sum();
        pipeline::check_summaries(&captured.summaries, kept, None, checks);
        let (p50, tail_us) = call_stats(&captured.latencies_ns, cfg.async_store);
        p50s.push(p50);
        tails.push(tail_us);
        finish_s += captured.finish_s;
        replay_s += captured.capture_s;
    }
    tr.reference();

    // Read side over the two directories whose graphs carry activities.
    let [mut read, h5_read] = [
        (&dassa_cluster, "/dassa/provio"),
        (&h5_cluster, "/h5bench/provio"),
    ]
    .map(|(cluster, dir)| {
        let plan = ReadPlan {
            dir,
            passes: z.passes,
            expected: None,
            replayed: 0,
            rot: None,
            seed: inp.seed,
            sha256: false,
        };
        pipeline::read_side(&cluster.fs, &plan, tr, checks)
    });
    read.add(h5_read);

    let events: u64 = drivers.iter().map(|d| d.events).sum();
    checks.check(events > 0, || "the drivers tracked nothing".to_string());
    Rep {
        capture: Some(CaptureSide {
            events,
            tracked_s: drivers.iter().map(|d| d.wall_on_s).sum(),
            untracked_s: drivers.iter().map(|d| d.wall_off_s).sum(),
            event_p50_ns: mean(&p50s),
            event_tail_us: mean(&tails),
            finish_s,
            prov_bytes: drivers.iter().map(|d| d.prov_bytes).sum(),
        }),
        other_s: replay_s,
        read,
        drivers,
        host_factor: 1.0,
    }
}

pub fn repetition(inp: &Inputs, opts: RepOpts, tr: &mut Tracer, checks: &mut Checks) -> Rep {
    tr.set_rep(opts.rep);
    tr.reference();
    let open = tr.begin("benchmark", "repetition", None);
    let mut out = match inp.workload {
        Workload::Workflows => workflows_rep(inp, opts, tr, checks),
        _ => synthetic_rep(inp, opts, tr, checks),
    };
    tr.end(open);
    tr.reference();
    out.host_factor = calib::factor(tr.references_s());
    out
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time one set-up: (inputs, raw seconds, host-speed factor).
pub fn timed_setup(w: Workload, seed: u64, divisor: usize) -> (Inputs, f64, f64) {
    let before = calib::reference_s();
    let t = Instant::now();
    let inputs = setup(w, seed, divisor);
    let raw = t.elapsed().as_secs_f64();
    (inputs, raw, calib::factor(&[before, calib::reference_s()]))
}
