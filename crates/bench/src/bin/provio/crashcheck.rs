//! `provio crashcheck` — enumerate post-crash disk states of the full
//! commit protocol and machine-check the recovery invariants.
//!
//! Records the workload's complete syscall trace, reconstructs every
//! operation-prefix crash state (plus torn-tail and barrier-free reorder
//! variants), and runs the full recovery pipeline over each. `--budget`
//! stride-caps the explored states. When an invariant breaks, the
//! minimized failing state's deterministic repro (trace window + fault
//! plan) goes to stdout; keep it with `provio crashcheck … > out.txt`.
//!
//! Passes when every checked state satisfies every invariant, fails on a
//! violation.

use crate::opts::{parse, Opt, Outcome, Slot};
use provio_crashcheck::{crashcheck, repro_text, CrashcheckConfig};

pub fn main(argv: Vec<String>) -> Outcome {
    let mut cfg = CrashcheckConfig::default();
    let mut no_key = false;
    let table = &mut [
        Opt("--ranks", "simulated ranks, each with its own store", Slot::U32(1, &mut cfg.ranks)),
        Opt("--pushes", "pushes per rank, one record each", Slot::Usize(&mut cfg.pushes)),
        Opt("--flush-every", "force a flush every N pushes per rank (0 = never)", Slot::Usize(&mut cfg.flush_every)),
        Opt("--wal-group", "records per WAL group commit", Slot::U32(0, &mut cfg.wal_group)),
        Opt("--parity-group", "committed artifacts per parity group", Slot::U32(0, &mut cfg.parity_group)),
        Opt("--compact-every", "delta appends between compactions (0 = never)", Slot::U32(0, &mut cfg.compact_every)),
        Opt("--key", "campaign key; arms sealing and the verify stage", Slot::MaybeText("KEY", &mut cfg.manifest_key)),
        Opt("--no-key", "the unsigned ablation: no manifest, no ledger", Slot::Switch(&mut no_key)),
        Opt("--budget", "cap on explored states, kept at an even stride (0 = all)", Slot::Usize(&mut cfg.max_states)),
        Opt("--max-dropped", "budget for reorder (dropped-write) variants", Slot::Usize(&mut cfg.max_dropped)),
    ];
    let about = "explore every crash state of the commit protocol, check recovery";
    if let Some(over) = parse::<()>("crashcheck", about, table, None, argv) {
        return over;
    }
    if no_key {
        cfg.manifest_key = None;
    }

    let (workload, report) = crashcheck(&cfg);
    println!("{report}");

    if report.ok() {
        println!("all recovery invariants hold over the explored state space");
        return Outcome::Pass;
    }

    for v in &report.violations {
        println!("  {v}");
    }
    if let Some(min) = report.minimized() {
        println!("\nminimized failing state:\n{}", repro_text(&workload, min));
    }
    Outcome::Fail
}
