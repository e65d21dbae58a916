//! The experiment harness: regenerates every table and figure of the
//! PROV-IO paper's evaluation (§6).
//!
//! ```text
//! experiments [--scale quick|paper] [--out DIR] [ids…|all]
//!
//! ids: fig6a fig6b fig6c fig6d fig6e fig7a fig7b fig7c fig7d fig7e
//!      fig8 fig9 tables dags all
//! ```
//!
//! Results print as aligned tables and save as JSON (+ DOT/SPARQL
//! attachments) under `--out` (default `results/`). Exit codes: 0 ran,
//! 2 bad arguments — an option without its value or an unknown id, found
//! before anything runs.

use provio_bench::experiments::{runner, ALL_IDS};
use provio_bench::{parse, Scale};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut scale = Scale::Quick;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (quick|paper)");
                    std::process::exit(2);
                });
            }
            "--out" => out_dir = parse(&mut args, "--out"),
            "--help" | "-h" => {
                println!(
                    "experiments [--scale quick|paper] [--out DIR] [ids…|all]\nids: {} all dags",
                    ALL_IDS.join(" ")
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
        ids.push("dags".to_string());
    }
    let runs: Vec<_> = ids
        .iter()
        .map(|id| {
            let run = runner(id).unwrap_or_else(|| {
                eprintln!("unknown experiment id '{id}' (try --help)");
                std::process::exit(2);
            });
            (id, run)
        })
        .collect();

    println!("PROV-IO experiment harness — scale: {}\n", scale.name());
    let mut seen_reports: BTreeSet<String> = BTreeSet::new();
    let started = Instant::now();
    for (id, run) in runs {
        let t0 = Instant::now();
        for r in run(scale) {
            // Paired runners (fig6a ⇒ fig6a+fig7a) may repeat across ids.
            if !seen_reports.insert(r.id.clone()) {
                continue;
            }
            println!("{}", r.render());
            if let Err(e) = r.save(&out_dir) {
                eprintln!("failed to save {}: {e}", r.id);
            }
        }
        println!("  [{id} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    println!(
        "done: {} report(s) in {:.1}s → {}",
        seen_reports.len(),
        started.elapsed().as_secs_f64(),
        out_dir.display()
    );
}
