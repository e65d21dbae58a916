//! The PROV-IO pipeline benchmark.
//!
//! ```text
//! benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! benchmark aa    [--seconds S]        two sets on seed 42, one on seed 43
//! benchmark smoke                      every workload at 1/20 scale, ≤ 30 s
//! benchmark manifest                   print BENCHMARK.json (regenerates it)
//! ```
//!
//! `run --workload W` is the contract entry point: it prints every metric
//! by name and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod aa;
mod calib;
mod gen;
mod host;
mod json;
mod ladder;
mod layers;
mod manifest;
mod model;
mod pipeline;
mod queries;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use json::Json;
use report::Measured;
use run::{RunConfig, RunResult};
use std::process::ExitCode;
use workloads::Workload;

/// Seed used while the benchmark was sized, and the held-out one.
pub const SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 43;
/// Measuring time when `--seconds` is not given (`run_seconds`).
pub const RUN_SECONDS: u32 = 20;
/// Size divisor of `smoke`.
const SMOKE_DIVISOR: usize = 20;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

pub fn write_out(name: &str, json: &Json) {
    let path = out_dir().join(name);
    if let Err(e) = std::fs::write(&path, json.pretty()) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn checks_json(r: &RunResult) -> Json {
    Json::obj(vec![
        ("attempted", Json::num(r.checks.attempted as f64)),
        ("failed", Json::num(r.checks.failed as f64)),
        (
            "failed_ops_pct",
            Json::num(r.checks.failed as f64 * 100.0 / r.checks.attempted.max(1) as f64),
        ),
        (
            "notes",
            Json::Arr(r.checks.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// Per driver of the workflows workload, medians over the repetitions (as
/// clocked): wall untracked and tracked, tracked operations, real overhead
/// per operation, and the overhead in virtual completion time.
fn drivers_json(r: &RunResult) -> Json {
    let drivers = r.reps[0].drivers.len();
    Json::Arr(
        (0..drivers)
            .map(|d| {
                let med = |f: fn(&workloads::DriverRun) -> f64| {
                    stats::median(
                        &r.reps
                            .iter()
                            .map(|rep| f(&rep.drivers[d]))
                            .collect::<Vec<_>>(),
                    )
                };
                Json::obj(vec![
                    ("driver", Json::str(r.reps[0].drivers[d].name)),
                    ("wall_off_s", Json::num(med(|x| x.wall_off_s))),
                    ("wall_on_s", Json::num(med(|x| x.wall_on_s))),
                    ("tracked_operations", Json::num(med(|x| x.events as f64))),
                    (
                        "overhead_ns_per_operation",
                        Json::num(med(|x| {
                            (x.wall_on_s - x.wall_off_s) * 1e9 / x.events.max(1) as f64
                        })),
                    ),
                    (
                        "virtual_overhead_pct",
                        Json::num(med(|x| {
                            (x.completion_on_s / x.completion_off_s - 1.0) * 100.0
                        })),
                    ),
                ])
            })
            .collect(),
    )
}

/// Everything one untraced run found, for `results-<workload>.json`.
pub fn result_json(args: &Args, r: &RunResult) -> Json {
    let last = r.reps.last().expect("at least one repetition");
    let capture = &r.last_capture;
    Json::obj(vec![
        ("workload", Json::str(r.inputs.workload.name())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("measured_s", Json::num(r.measured_s)),
        ("repetitions", Json::num(r.reps.len() as f64)),
        ("host", host::facts()),
        ("stream_sha256", Json::str(&r.inputs.stream_digest)),
        (
            "merged_graph_sha256",
            r.graph_sha256.as_ref().map_or(Json::Null, Json::str),
        ),
        ("tracked_operations", Json::num(capture.events as f64)),
        ("provenance_bytes", Json::num(capture.prov_bytes as f64)),
        ("merged_triples", Json::num(last.read.merged_triples as f64)),
        (
            "query_rows",
            Json::Arr(
                last.read
                    .rows
                    .iter()
                    .map(|n| Json::num(*n as f64))
                    .collect(),
            ),
        ),
        ("checks", checks_json(r)),
        ("drivers", drivers_json(r)),
        ("host_speed_factor", Json::num(r.host_factor)),
        (
            "repetitions_as_clocked",
            Json::Arr(
                r.reps
                    .iter()
                    .map(|rep| {
                        Json::obj(vec![
                            ("host_speed_factor", Json::num(rep.host_factor)),
                            ("wall_s", Json::num(rep.metric("wall_s"))),
                            (
                                "capture_s",
                                rep.capture
                                    .as_ref()
                                    .map_or(Json::Null, |c| Json::num(c.tracked_s)),
                            ),
                            ("merge_s", Json::num(rep.read.merge_s)),
                            ("recover_s", Json::num(rep.read.recover_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", report::metrics_detail_json(&r.metrics)),
        (
            "metrics_as_clocked",
            report::metrics_detail_json(&r.as_clocked),
        ),
    ])
}

fn print_failures(r: &RunResult) {
    let pct = r.checks.failed as f64 * 100.0 / r.checks.attempted.max(1) as f64;
    println!(
        "  output checks: {} of {} operations failed (failed_ops_pct = {pct})",
        r.checks.failed, r.checks.attempted
    );
    for note in &r.checks.notes {
        println!("    FAILED {note}");
    }
}

/// One workload, untraced: the end-to-end metrics.
fn run_one(args: &Args, w: Workload) -> (bool, String) {
    let r = run::run(&RunConfig {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        divisor: 1,
        max_reps: None,
        warmup: true,
        setups: run::SETUPS,
        trace: false,
    });
    report::print_table(
        &format!(
            "{} — seed {}, {} timed repetitions in {:.1} s (+1 warm-up)",
            w.name(),
            args.seed,
            r.reps.len(),
            r.measured_s
        ),
        &r.metrics,
    );
    println!(
        "  host speed factor {:.3} (reference kernel {:.1} ms, nominal {:.1} ms)",
        r.host_factor,
        calib::NOMINAL_S / r.host_factor * 1e3,
        calib::NOMINAL_S * 1e3
    );
    print_failures(&r);
    write_out(
        &format!("results-{}.json", w.name()),
        &result_json(args, &r),
    );
    (
        r.checks.failed == 0,
        report::result_line(r.checks.attempted, r.checks.failed, &r.metrics),
    )
}

/// `run` without `--workload`: one child process per workload (so
/// `peak_rss_mb` is each workload's own), results folded into one file.
fn run_all(args: &Args) -> bool {
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        match aa::child(w, args.seed, args.seconds, args.trace, true) {
            Ok(line) => {
                all_ok &= line.correct;
                results.push((w.name(), line.json));
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                all_ok = false;
            }
        }
    }
    let name = if args.trace {
        "layers-all.json"
    } else {
        "results.json"
    };
    write_out(
        name,
        &Json::obj(vec![
            ("seed", Json::num(args.seed as f64)),
            ("host", host::facts()),
            ("workloads", Json::obj(results)),
        ]),
    );
    println!("wrote {}", out_dir().join(name).display());
    all_ok
}

fn smoke() -> bool {
    let started = std::time::Instant::now();
    let mut ok = true;
    for w in Workload::ALL {
        let r = run::run(&RunConfig {
            workload: w,
            seed: SEED,
            seconds: 0.0,
            divisor: SMOKE_DIVISOR,
            max_reps: Some(1),
            warmup: false,
            setups: (1, 1),
            trace: false,
        });
        println!(
            "smoke {}: {} of {} checked operations failed",
            w.name(),
            r.checks.failed,
            r.checks.attempted
        );
        for note in &r.checks.notes {
            println!("  FAILED {note}");
        }
        ok &= r.checks.failed == 0;
    }
    let mut checks = pipeline::Checks::default();
    let replay = layers::replay(SEED, SMOKE_DIVISOR, ladder::MIN_ROUNDS, &mut checks);
    let rows: Vec<Measured> = traced::finish_rows(replay.rows, None);
    println!(
        "smoke staged replay: {} layer metrics, {} of {} checks failed",
        rows.len(),
        checks.failed,
        checks.attempted
    );
    for note in &checks.notes {
        println!("  FAILED {note}");
    }
    ok &= checks.failed == 0;
    println!(
        "smoke: {} in {:.1} s",
        if ok { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), &argv[1..]),
        _ => ("run".to_string(), &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark [run|aa|smoke|manifest] [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let ok = match command.as_str() {
        "run" => {
            match args.workload {
                None => run_all(&args),
                Some(w) => {
                    let (ok, line) = if args.trace {
                        traced::run_one(&args, w)
                    } else {
                        run_one(&args, w)
                    };
                    // The result object is the last line of standard output.
                    println!("{line}");
                    ok
                }
            }
        }
        "aa" => aa::run(&args),
        "smoke" => smoke(),
        "manifest" => {
            print!("{}", manifest::benchmark_json().pretty());
            true
        }
        other => {
            eprintln!("unknown command {other}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
