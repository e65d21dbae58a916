//! `aa`: the measured noise floor. Two complete sets of runs of the same
//! code on the sizing seed, every end-to-end median compared pairwise
//! against the metric's bound; then one set on the held-out seed to show the
//! output checks hold on inputs never used while sizing.
//!
//! Every run is its own process (as the driver's runs are), so the gap
//! includes what differs between processes: layout, allocator state,
//! neighbours on the host.

use crate::json::Json;
use crate::report::{self, END_TO_END};
use crate::stats;
use crate::workloads::Workload;
use crate::{host, write_out, Args, HELD_OUT_SEED, SEED};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs per set and workload; a set's value is their median.
const RUNS_PER_SET: usize = 3;

/// The parsed last line of a child run.
pub struct ResultLine {
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub json: Json,
}

fn to_json(v: &serde_json::Value) -> Json {
    use serde_json::Value;
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Number(n) => Json::Num(*n),
        Value::String(s) => Json::Str(s.clone()),
        Value::Array(a) => Json::Arr(a.iter().map(to_json).collect()),
        Value::Object(o) => Json::Obj(o.iter().map(|(k, v)| (k.clone(), to_json(v))).collect()),
    }
}

/// Run one workload in a child process of this same executable and parse
/// its result line. The child has ended when this returns.
pub fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    if echo {
        for l in &lines {
            println!("{l}");
        }
    }
    let v = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let serde_json::Value::Object(m) = &v["metrics"] {
        for (name, entry) in m {
            metrics.insert(name.clone(), entry["value"].as_f64().unwrap_or(f64::NAN));
        }
    }
    Ok(ResultLine {
        correct: v["correct"] == true && out.status.success(),
        metrics,
        json: to_json(&v),
    })
}

pub fn run(args: &Args) -> bool {
    let mut ok = true;
    let mut noise = Vec::new();
    println!(
        "A/A on seed {SEED}: two sets of {RUNS_PER_SET} runs per workload of the same code, {} s each",
        args.seconds
    );
    println!(
        "  {:<18} {:<30} {:>14} {:>14} {:>9} {:>8}",
        "workload", "metric", "set A", "set B", "gap %", "bound %"
    );
    for w in Workload::ALL {
        // A and B alternate, so both sets see the same stretch of host.
        let runs: Vec<ResultLine> = match (0..2 * RUNS_PER_SET)
            .map(|_| child(w, SEED, args.seconds, false, false))
            .collect::<Result<_, _>>()
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        ok &= runs.iter().all(|s| s.correct);
        let set_median = |set: usize, name: &str| {
            let values: Vec<f64> = runs
                .iter()
                .skip(set)
                .step_by(2)
                .map(|r| r.metrics[name])
                .collect();
            stats::median(&values)
        };
        let mut per_metric = Vec::new();
        for m in &END_TO_END {
            let (a, b) = (set_median(0, m.name), set_median(1, m.name));
            // Same code on both sides: the gap has no direction.
            let gap = report::relative_gap(m.better, a, b).abs();
            let over = gap > m.bound;
            // `passed_ops_pct` is bound to a millionth; the rest to percents.
            let digits = if m.bound < 0.001 { 4 } else { 1 };
            println!(
                "  {:<18} {:<30} {:>14.4} {:>14.4} {:>9.2} {:>8.digits$}{}",
                w.name(),
                m.name,
                a,
                b,
                gap * 100.0,
                m.bound * 100.0,
                if over { "  OVER BOUND" } else { "" }
            );
            ok &= !over;
            per_metric.push((m.name, Json::num(gap * 100.0)));
        }
        noise.push((w.name(), Json::obj(per_metric)));
    }

    println!("held-out seed {HELD_OUT_SEED}: one set, output checks only");
    for w in Workload::ALL {
        match child(w, HELD_OUT_SEED, args.seconds, false, false) {
            Ok(r) => {
                println!("  {:<18} correct = {}", w.name(), r.correct);
                ok &= r.correct;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
            }
        }
    }

    let floor = Json::obj(vec![
        ("seed", Json::num(SEED as f64)),
        ("held_out_seed", Json::num(HELD_OUT_SEED as f64)),
        ("seconds", Json::num(args.seconds)),
        ("runs_per_set", Json::num(RUNS_PER_SET as f64)),
        ("host", host::facts()),
        ("within_bounds", Json::Bool(ok)),
        ("noise_pct", Json::obj(noise)),
    ]);
    write_out("aa.json", &floor);
    // The committed copy: the noise floor measured when the bounds were set.
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("noise_floor.json");
    if let Err(e) = std::fs::write(&committed, floor.pretty()) {
        eprintln!("could not write {}: {e}", committed.display());
    }
    println!(
        "aa: {}",
        if ok {
            "every gap within its bound"
        } else {
            "FAILED"
        }
    );
    ok
}
