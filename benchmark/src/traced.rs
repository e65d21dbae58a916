//! The traced run: the workload repeated with span recording on (and off,
//! for the tracing overhead), then the staged replay and the plane ladder.
//! End-to-end metrics are never taken from here.

use crate::json::Json;
use crate::ladder::{self, Outcome};
use crate::layers::{self, Rows, SPAN_LAYERS};
use crate::pipeline::Checks;
use crate::report::{self, Measured};
use crate::run::{self, RunConfig};
use crate::trace::{self, Tracer};
use crate::workloads::Workload;
use crate::{host, write_out, Args};

/// Timed repetitions of each of the untraced and the traced side.
const TRACE_REPS: usize = 2;

/// Add the workload-specific rows (span self time per layer and repetition,
/// tracing overhead) and close the table. Without a trace (smoke) they
/// read zero.
pub fn finish_rows(mut rows: Rows, traced: Option<(&Tracer, usize, f64)>) -> Vec<Measured> {
    let self_ns = traced.map(|(t, _, _)| trace::self_times(&t.spans));
    for layer in SPAN_LAYERS {
        let per_rep = match (&traced, &self_ns) {
            (Some((t, reps, _)), Some(own)) => {
                let total: u64 = t
                    .spans
                    .iter()
                    .zip(own)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(_, ns)| *ns)
                    .sum();
                total as f64 / 1e9 / (*reps).max(1) as f64
            }
            _ => 0.0,
        };
        rows.add(&format!("span.{layer}.self_s"), per_rep);
    }
    rows.add("trace_overhead_pct", traced.map_or(0.0, |(_, _, pct)| pct));
    rows.finish()
}

fn ladder_json(o: &Outcome) -> Json {
    Json::obj(vec![
        ("events", Json::num(o.events as f64)),
        ("rounds", Json::num(o.rounds as f64)),
        ("aa_floor_pct", Json::num(o.floor_pct)),
        (
            "planes",
            Json::Arr(
                o.planes
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::str(p.name)),
                            ("bar_pct", Json::num(p.bar_pct)),
                            ("overhead_pct_median", Json::num(p.summary.median)),
                            ("overhead_pct_q1", Json::num(p.summary.q1)),
                            ("overhead_pct_q3", Json::num(p.summary.q3)),
                            ("verdict", Json::str(p.verdict.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_ladder(o: &Outcome) {
    println!(
        "plane contract ladder — 1 rank x {} events, {} interleaved rounds, A/A floor {:.2}%",
        o.events, o.rounds, o.floor_pct
    );
    for p in &o.planes {
        println!(
            "  plane.{}_overhead_pct {:>8.2}%  [q1 {:.2}, q3 {:.2}]  bar {:>4.1}%  verdict {}",
            p.name,
            p.summary.median,
            p.summary.q1,
            p.summary.q3,
            p.bar_pct,
            p.verdict.as_str()
        );
    }
}

/// How many ladder rounds fit: the minimum within the default measuring
/// time, one more per three seconds beyond it.
fn ladder_rounds(seconds: f64) -> usize {
    let extra = ((seconds - f64::from(crate::RUN_SECONDS)) / 3.0).max(0.0) as usize;
    (ladder::MIN_ROUNDS + extra).min(25)
}

pub fn run_one(args: &Args, w: Workload) -> (bool, String) {
    let cfg = |trace: bool| RunConfig {
        workload: w,
        seed: args.seed,
        seconds: 0.0,
        divisor: 1,
        max_reps: Some(TRACE_REPS),
        warmup: !trace,
        setups: (1, 1),
        trace,
    };
    let plain = run::run(&cfg(false));
    let traced = run::run(&cfg(true));
    let wall = |r: &run::RunResult| {
        let m = r.metrics.iter().find(|m| m.name == "wall_s");
        m.expect("wall_s is an end-to-end metric").value()
    };
    let overhead_pct = (wall(&traced) / wall(&plain) - 1.0) * 100.0;

    let mut checks = Checks::default();
    checks.absorb(plain.checks.clone());
    checks.absorb(traced.checks.clone());
    let replay = layers::replay(args.seed, 1, ladder_rounds(args.seconds), &mut checks);
    let rows = finish_rows(
        replay.rows,
        Some((&traced.tracer, traced.reps.len(), overhead_pct)),
    );

    report::print_table(
        &format!(
            "{} — seed {}, per-layer metrics (staged replay + {} traced repetitions)",
            w.name(),
            args.seed,
            traced.reps.len()
        ),
        &rows,
    );
    print_ladder(&replay.ladder);
    println!(
        "  trace_overhead_pct {overhead_pct:.2} (traced wall_s {:.4} vs untraced {:.4})",
        wall(&traced),
        wall(&plain)
    );
    println!(
        "  output checks: {} of {} operations failed",
        checks.failed, checks.attempted
    );
    for note in &checks.notes {
        println!("    FAILED {note}");
    }

    write_out(
        &format!("trace-{}.json", w.name()),
        &traced.tracer.to_json(),
    );
    let moves: Vec<(String, Json)> = layers::table()
        .into_iter()
        .map(|m| (m.name, Json::str(m.moves)))
        .collect();
    write_out(
        "layers.json",
        &Json::obj(vec![
            ("workload", Json::str(w.name())),
            ("seed", Json::num(args.seed as f64)),
            ("host", host::facts()),
            ("metrics", report::metrics_detail_json(&rows)),
            ("should_move", Json::Obj(moves)),
            ("ladder", ladder_json(&replay.ladder)),
            (
                "checks",
                Json::obj(vec![
                    ("attempted", Json::num(checks.attempted as f64)),
                    ("failed", Json::num(checks.failed as f64)),
                ]),
            ),
        ]),
    );
    (
        checks.failed == 0,
        report::result_line(checks.attempted, checks.failed, &rows),
    )
}
