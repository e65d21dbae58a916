//! One run of one workload: a warm-up repetition, timed set-ups, timed
//! repetitions until the measuring time is used up, the output checks
//! across repetitions, and the end-to-end metrics.

use crate::calib;
use crate::pipeline::Checks;
use crate::report::{Measured, END_TO_END};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, CaptureSide, Inputs, Rep, RepOpts, Workload};
use std::time::Instant;

/// Timed set-ups per run, `setup_s` being their median: at least
/// `SETUPS.0`, then more while they have taken under a second, up to
/// `SETUPS.1` (a posthoc set-up captures a directory; the others only
/// generate streams and are over in milliseconds).
pub const SETUPS: (usize, usize) = (5, 15);
/// Fewest timed repetitions a run reports on, however short `--seconds`.
pub const MIN_REPS: usize = 3;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// 1 for real runs; `smoke` divides every size by 20.
    pub divisor: usize,
    /// Stop after this many timed repetitions even if time is left.
    pub max_reps: Option<usize>,
    /// Run one untimed repetition first (skipped by smoke, and by the
    /// traced half of a traced run, whose process is already warm).
    pub warmup: bool,
    /// Fewest and most timed set-ups ([`SETUPS`]; one for smoke and the
    /// traced run).
    pub setups: (usize, usize),
    pub trace: bool,
}

pub struct RunResult {
    pub inputs: Inputs,
    pub reps: Vec<Rep>,
    /// The run's last capture stage (its counts are the same in all).
    pub last_capture: CaptureSide,
    pub checks: Checks,
    /// End-to-end metrics at nominal host speed (what is gated), and the
    /// same as the clock read them.
    pub metrics: Vec<Measured>,
    pub as_clocked: Vec<Measured>,
    /// Median host-speed factor of the timed repetitions.
    pub host_factor: f64,
    pub tracer: Tracer,
    pub graph_sha256: Option<String>,
    pub measured_s: f64,
}

/// Same inputs must give the same outputs every time: merged graph
/// (fingerprint) and query row counts in every repetition; tracked
/// operations and — where no measured time is stored in the provenance —
/// the bytes on disk in every capture.
fn check_determinism(w: Workload, reps: &[Rep], captures: &[&CaptureSide], checks: &mut Checks) {
    for (i, r) in reps.iter().enumerate().skip(1) {
        checks.equal(
            &format!("rep {i}: query rows"),
            &r.read.rows,
            &reps[0].read.rows,
        );
        if w != Workload::Workflows {
            // The drivers store measured durations, so their bytes and
            // literals differ between repetitions; the streams' do not.
            checks.equal(
                &format!("rep {i}: merged graph fingerprint"),
                r.read.graph_fingerprint,
                reps[0].read.graph_fingerprint,
            );
        }
    }
    for (i, c) in captures.iter().enumerate().skip(1) {
        checks.equal(
            &format!("capture {i}: tracked operations"),
            c.events,
            captures[0].events,
        );
        if w != Workload::Workflows {
            checks.equal(
                &format!("capture {i}: provenance bytes"),
                c.prov_bytes,
                captures[0].prov_bytes,
            );
        }
    }
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let w = cfg.workload;
    let (mut inputs, _, _) = workloads::timed_setup(w, cfg.seed, cfg.divisor);

    let mut tracer = Tracer::new(w.name(), cfg.trace);
    let mut checks = Checks::default();
    if let Some((_, built)) = &mut inputs.built {
        checks.absorb(std::mem::take(built));
    }
    // Warm-up: fault in code paths, fill allocator pools.
    if cfg.warmup {
        let mut off = Tracer::new(w.name(), false);
        let opts = RepOpts {
            rep: 0,
            sha256: false,
        };
        workloads::repetition(&inputs, opts, &mut off, &mut checks);
    }
    // Set-up is timed after the warm-up, in a process that has reached its
    // working state, like the repetitions it is compared with. On posthoc a
    // set-up captures the directory, so it is also a capture sample.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut setup_captures: Vec<(CaptureSide, f64)> = Vec::new();
    let setting_up = Instant::now();
    while setups.len() < cfg.setups.0
        || (setups.len() < cfg.setups.1 && setting_up.elapsed().as_secs_f64() < 1.0)
    {
        let (again, raw, factor) = workloads::timed_setup(w, cfg.seed, cfg.divisor);
        setups.push((raw, factor));
        if let Some((built, built_checks)) = again.built {
            checks.absorb(built_checks);
            setup_captures.push((built.capture, factor));
        }
    }

    let min_reps = cfg.max_reps.map_or(MIN_REPS, |m| m.min(MIN_REPS));
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        // The first timed repetition also takes the merged graph's SHA-256
        // (outside the timed stages).
        let opts = RepOpts {
            rep: reps.len() as u32 + 1,
            sha256: reps.is_empty(),
        };
        reps.push(workloads::repetition(
            &inputs,
            opts,
            &mut tracer,
            &mut checks,
        ));
        let out_of_time = started.elapsed().as_secs_f64() >= cfg.seconds;
        let capped = cfg.max_reps.is_some_and(|m| reps.len() >= m);
        if reps.len() >= min_reps && (out_of_time || capped) {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let graph_sha256 = reps[0].read.graph_sha256.clone();

    // The capture samples: each repetition's own, or (posthoc) the timed
    // set-ups'.
    let mut captures: Vec<(&CaptureSide, f64)> = reps
        .iter()
        .filter_map(|r| r.capture.as_ref().map(|c| (c, r.host_factor)))
        .collect();
    captures.extend(setup_captures.iter().map(|(c, k)| (c, *k)));
    let sides: Vec<&CaptureSide> = captures.iter().map(|(c, _)| *c).collect();
    check_determinism(w, &reps, &sides, &mut checks);

    let host_factor = stats::median(&reps.iter().map(|r| r.host_factor).collect::<Vec<_>>());
    let mut metrics = Vec::new();
    let mut as_clocked = Vec::new();
    for m in &END_TO_END {
        // (value as clocked, host-speed factor) per sample.
        let samples: Vec<(f64, f64)> = match m.name {
            "setup_s" => setups.clone(),
            "peak_rss_mb" => vec![(workloads::peak_rss_mb(), 1.0)],
            "passed_ops_pct" => vec![(checks.passed_pct(), 1.0)],
            name => match captures[0].0.metric(name) {
                Some(_) => captures
                    .iter()
                    .map(|(c, k)| (c.metric(name).expect("a capture metric"), *k))
                    .collect(),
                None => reps
                    .iter()
                    .map(|r| (r.metric(name), r.host_factor))
                    .collect(),
            },
        };
        let raw: Vec<f64> = samples.iter().map(|(v, _)| *v).collect();
        let nominal: Vec<f64> = samples
            .iter()
            .map(|(v, k)| calib::at_nominal_speed(m.unit, *v, *k))
            .collect();
        metrics.push(Measured::new(m.name, m.unit, stats::summarize(&nominal)));
        as_clocked.push(Measured::new(m.name, m.unit, stats::summarize(&raw)));
    }
    let last_capture = sides.last().copied().cloned().expect("a capture ran");
    RunResult {
        inputs,
        reps,
        last_capture,
        checks,
        metrics,
        as_clocked,
        host_factor,
        tracer,
        graph_sha256,
        measured_s,
    }
}
