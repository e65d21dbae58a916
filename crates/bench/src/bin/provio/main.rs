//! `provio` — the operator binary: every audit, repair, collection and
//! evaluation entry point of the workspace as one subcommand each.
//!
//! ```text
//! provio verify | scrub | crashcheck | collect | experiments [options]
//! provio <subcommand> --help
//! ```
//!
//! The stores live on the simulated Lustre filesystem, so each subcommand
//! builds the run it judges in process. All share one exit contract —
//! 0 pass, 1 fail, 2 bad arguments — decided here and nowhere else: a
//! subcommand returns an [`Outcome`], and a value outside the range its
//! option table gives is refused before anything is built.

mod collect;
mod crashcheck;
mod experiments;
mod opts;
mod scenario;
mod scrub;
mod verify;

use opts::Outcome;

/// A subcommand's entry point, handed the arguments after its name.
type Subcommand = fn(Vec<String>) -> Outcome;

const SUBCOMMANDS: [(&str, Subcommand); 5] = [
    ("verify", verify::main),
    ("scrub", scrub::main),
    ("crashcheck", crashcheck::main),
    ("collect", collect::main),
    ("experiments", experiments::main),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let outcome = match SUBCOMMANDS.iter().find(|(known, _)| *known == name) {
        Some((_, subcommand)) => subcommand(argv.collect()),
        None => {
            let names: Vec<&str> = SUBCOMMANDS.iter().map(|(known, _)| *known).collect();
            let usage = format!(
                "usage: provio {} [options] (try provio <subcommand> --help)",
                names.join("|")
            );
            if name == "--help" || name == "-h" {
                println!("{usage}");
                Outcome::Pass
            } else {
                Outcome::Usage(usage)
            }
        }
    };
    std::process::exit(match outcome {
        Outcome::Pass => 0,
        Outcome::Fail => 1,
        Outcome::Usage(why) => {
            eprintln!("{why}");
            2
        }
    });
}
