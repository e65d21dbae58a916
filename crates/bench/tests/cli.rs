//! The exit contract of the `provio` binary — 0 pass, 1 fail, 2 bad
//! arguments — over one table of command lines: both directions of every
//! subcommand's verdict, a refusal of each kind the option table makes,
//! and the inputs that used to escape the contract by panicking (exit 101)
//! or by passing without checking anything.

use std::process::Command;

const ROWS: &[(&str, i32)] = &[
    // No subcommand, an unknown one, help.
    ("", 2),
    ("bogus", 2),
    ("--help", 0),
    ("verify --help", 0),
    // Trust: a clean sealed run verifies, a CRC-patched forgery and a wrong
    // key do not; a malformed value is refused, never defaulted.
    ("verify --ranks 4", 0),
    ("verify --ranks 4 --tamper crc", 1),
    ("verify --ranks 4 --wrong-key", 1),
    ("verify --ranks four", 2),
    ("verify --ranks 0", 2),
    ("verify --tamper shred", 2),
    // Self-healing: every in-tolerance loss repairs and re-verifies; an
    // option missing its value is refused.
    ("scrub --damage none --verify", 0),
    ("scrub --damage corrupt --verify", 0),
    ("scrub --damage delete --verify", 0),
    ("scrub --damage parity --verify", 0),
    ("scrub --group", 2),
    ("scrub --ranks 0", 2),
    ("scrub --group 0", 2),
    ("scrub --damage corrupt --ranks 1 --group 1000", 2),
    // Crash-state exploration: all invariants hold; a world of no ranks
    // would pass having checked nothing.
    ("crashcheck --pushes 3 --budget 40", 0),
    ("crashcheck --bogus-flag", 2),
    ("crashcheck --ranks 0", 2),
    // Streaming: a hostile fabric, with and without an aggregator crash,
    // still converges.
    ("collect --ranks 4 --seed 11", 0),
    ("collect --ranks 4 --seed 11 --crash --report", 0),
    ("collect --loss 1.5", 2),
    ("collect --ranks 0", 2),
    // Experiments: a typo is refused before anything runs.
    ("experiments fig6z", 2),
    ("experiments --out", 2),
    ("experiments --scale huge", 2),
];

fn provio(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_provio"))
        .args(args)
        .output()
        .expect("the provio binary runs")
}

#[test]
fn every_command_line_exits_by_the_contract() {
    for (line, want) in ROWS {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = provio(&args);
        assert_eq!(
            out.status.code(),
            Some(*want),
            "provio {line}\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
    }
}

/// A refusal names the flag it refused and what that flag accepts, and
/// happens before the subcommand builds its run (nothing on stdout).
#[test]
fn a_refusal_names_the_offending_flag() {
    for (args, flag) in [
        (["verify", "--ranks", "0"], "--ranks"),
        (["scrub", "--ranks", "0"], "--ranks"),
        (["scrub", "--group", "0"], "--group"),
        (["crashcheck", "--ranks", "0"], "--ranks"),
        (["verify", "--key", ""], "manifest_key"),
    ] {
        let out = provio(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
    }
}
