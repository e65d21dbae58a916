//! `provio experiments` — regenerates every table and figure of the
//! PROV-IO paper's evaluation (§6).
//!
//! Results print as aligned tables and save as JSON (+ DOT/SPARQL
//! attachments) under `--out`. An unknown id is refused before anything
//! runs, so a typo cannot pass by running nothing.

use crate::opts::{parse, Opt, Outcome, Slot};
use provio_bench::experiments::{runner, ALL_IDS};
use provio_bench::Scale;
use std::collections::BTreeSet;
use std::time::Instant;

const SCALES: [(&str, Scale); 2] = [("quick", Scale::Quick), ("paper", Scale::Paper)];

pub fn main(argv: Vec<String>) -> Outcome {
    let (mut scale, mut out_dir, mut ids) = (SCALES[0], "results".to_string(), Vec::new());
    let table = &mut [
        Opt("--scale", "sweep extents: the paper's axes at 1/4, or in full", Slot::Choice(&SCALES, &mut scale)),
        Opt("--out", "directory the reports are saved under", Slot::Text("DIR", &mut out_dir)),
    ];
    let about = "regenerate the paper's figures and tables (ids: fig6a-e fig7a-e fig8 fig9 tables dags)";
    if let Some(over) = parse("experiments", about, table, Some(("ids…|all", &mut ids)), argv) {
        return over;
    }
    let ((_, scale), out_dir) = (scale, std::path::PathBuf::from(out_dir));
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
        ids.push("dags".to_string());
    }
    let mut runs = Vec::new();
    for id in &ids {
        match runner(id) {
            Some(run) => runs.push((id, run)),
            None => {
                return Outcome::Usage(format!(
                    "unknown experiment id '{id}' (ids: {} dags all)",
                    ALL_IDS.join(" ")
                ))
            }
        }
    }

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
    Outcome::Pass
}
