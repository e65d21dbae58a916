//! `provio crashcheck` — enumerate post-crash disk states of the full
//! commit protocol and machine-check the recovery invariants.
//!
//! ```text
//! crashcheck [--ranks N] [--pushes N] [--flush-every N] [--wal-group N]
//!            [--parity-group N] [--compact-every N] [--key KEY | --no-key]
//!            [--budget N] [--max-dropped N] [--seed N] [--repro FILE]
//! ```
//!
//! Records the workload's complete syscall trace, reconstructs every
//! operation-prefix crash state (plus torn-tail and barrier-free reorder
//! variants), and runs the full recovery pipeline over each. `--budget`
//! stride-caps the explored states so CI stays bounded; `--repro FILE`
//! writes the minimized failing state's deterministic repro (trace
//! window + fault plan) when an invariant breaks.
//!
//! Exit status: 0 when every checked state satisfies every invariant,
//! 1 on a violation, 2 on bad arguments — so CI can gate on the
//! contract and archive the repro artifact on failure.

use provio::crashcheck::{crashcheck, repro_text, CrashcheckConfig};
use provio_bench::parse;

fn main() {
    let mut cfg = CrashcheckConfig::default();
    let mut repro_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => cfg.ranks = parse(&mut args, "--ranks"),
            "--pushes" => cfg.pushes = parse(&mut args, "--pushes"),
            "--flush-every" => cfg.flush_every = parse(&mut args, "--flush-every"),
            "--wal-group" => cfg.wal_group = parse(&mut args, "--wal-group"),
            "--parity-group" => cfg.parity_group = parse(&mut args, "--parity-group"),
            "--compact-every" => cfg.compact_every = parse(&mut args, "--compact-every"),
            "--key" => cfg.manifest_key = Some(parse(&mut args, "--key")),
            "--no-key" => cfg.manifest_key = None,
            "--budget" => cfg.max_states = parse(&mut args, "--budget"),
            "--max-dropped" => cfg.max_dropped = parse(&mut args, "--max-dropped"),
            "--seed" => cfg.seed = parse(&mut args, "--seed"),
            "--repro" => repro_path = Some(parse(&mut args, "--repro")),
            "--help" | "-h" => {
                println!(
                    "crashcheck [--ranks N] [--pushes N] [--flush-every N] [--wal-group N]\n\
                     \x20          [--parity-group N] [--compact-every N] [--key KEY | --no-key]\n\
                     \x20          [--budget N] [--max-dropped N] [--seed N] [--repro FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    let (workload, report) = crashcheck(&cfg);
    println!("{report}");

    if report.ok() {
        println!("all recovery invariants hold over the explored state space");
        return;
    }

    for v in &report.violations {
        println!("  {v}");
    }
    if let Some(min) = report.minimized() {
        let repro = repro_text(&workload, min);
        println!("\nminimized failing state:\n{repro}");
        if let Some(path) = repro_path {
            if let Err(e) = std::fs::write(&path, &repro) {
                eprintln!("could not write repro to {path}: {e}");
            } else {
                println!("repro written to {path}");
            }
        }
    }
    std::process::exit(1);
}
