//! `provio scrub` — drive the self-healing pipeline against a damaged run.
//!
//! The store lives on the simulated Lustre filesystem, so the subcommand
//! builds a parity-protected multi-rank run in process, applies at most
//! one at-rest damage (a rotted member, a deleted member, or a rotted
//! parity block), and then recovers the directory exactly as an offline
//! repair pass would. Passes when the scrub left the run fully repaired
//! (or found nothing to do) and, under `--verify`, the audit trusts it;
//! fails when data was unrecoverable — so CI can assert both directions
//! of the contract.

use crate::opts::{parse, Opt, Outcome, Slot};
use crate::scenario::Scenario;
use provio::frame::is_parity_path;
use provio::{recover_all, repairable_paths};
use provio_hpcfs::CorruptKind;
use provio_workflows::Cluster;

#[derive(Clone, Copy, PartialEq)]
enum Damage {
    None,
    Corrupt,
    Delete,
    Parity,
}

const DAMAGES: [(&str, Damage); 4] = [
    ("none", Damage::None),
    ("corrupt", Damage::Corrupt),
    ("delete", Damage::Delete),
    ("parity", Damage::Parity),
];

pub fn main(argv: Vec<String>) -> Outcome {
    let (mut ranks, mut seed, mut group) = (4, 7, 2);
    let (mut key, mut damage, mut verify) = ("campaign-key".to_string(), DAMAGES[0], false);
    let table = &mut [
        Opt("--ranks", "ranks in the run", Slot::U32(1, &mut ranks)),
        Opt("--seed", "picks the killed rank and the damaged artifact", Slot::U64(&mut seed)),
        Opt("--group", "committed artifacts per parity group", Slot::U32(1, &mut group)),
        Opt("--key", "campaign key the run is sealed under", Slot::Text("KEY", &mut key)),
        Opt("--damage", "the one at-rest damage applied before the repair", Slot::Choice(&DAMAGES, &mut damage)),
        Opt("--verify", "audit the repaired run against its manifest", Slot::Switch(&mut verify)),
    ];
    let about = "build a parity-protected run, damage it at most once, repair it";
    if let Some(over) = parse("scrub", about, table, None, argv) {
        return over;
    }
    let (_, damage) = damage;

    // ---- A parity-protected run over the simulated filesystem -----------
    let cluster = Cluster::new();
    let built = Scenario {
        ini: format!(
            "[provio]\nformat = ntriples\npolicy = every:2\nasync = false\n\
             [store]\nchecksum_format = true\ncompact_every = 0\n\
             parity = true\nparity_group = {group}\nmanifest = true\nmanifest_key = {key}\n"
        ),
        pid_base: 900,
        user: "operator",
        program: "scrub-cli",
        phases: &["produce"],
        files_per_phase: 6,
        // One rank is killed mid-run so its uncompacted snapshot + segments —
        // the artifacts mid-run parity groups actually cover — survive.
        kill: Some(seed as u32 % ranks),
    }
    .run(&cluster, ranks, |_| ());
    if let Err(refused) = built {
        return refused;
    }
    let fs = &cluster.fs;

    // ---- At most one at-rest damage --------------------------------------
    let mut covered: Vec<String> = repairable_paths(fs, "/provio").into_iter().collect();
    covered.sort();
    if damage != Damage::None {
        let wants_parity = damage == Damage::Parity;
        let candidates: Vec<&String> = covered.iter().filter(|p| is_parity_path(p) == wants_parity).collect();
        if candidates.is_empty() {
            // E.g. one rank, killed, under a group too large to ever seal.
            return Outcome::Usage("--damage: the run sealed nothing of that kind (try a smaller --group)".into());
        }
        let target = candidates[seed as usize % candidates.len()];
        if damage == Damage::Delete {
            fs.unlink(target).expect("damage target exists");
            println!("damage: deleted {target}");
        } else {
            let n = fs
                .corrupt_at_rest(target, &CorruptKind::BitFlips { count: 3 }, seed)
                .expect("damage target exists");
            println!("damage: {n} bit(s) flipped in {target}");
        }
    }

    // ---- The repair pass -------------------------------------------------
    let out = recover_all(fs, "/provio", verify.then_some(key.as_str()));
    println!("{}", out.scrub);
    for p in &out.scrub.repaired_files {
        println!("repaired: {p}");
    }
    for p in &out.scrub.repaired_parity {
        println!("regenerated: {p}");
    }
    for p in &out.scrub.unrecoverable {
        println!("UNRECOVERABLE: {p}");
    }
    println!(
        "post-scrub merge: {} file(s), {} corrupt, {} quarantined, {} chain break(s)",
        out.merge.files,
        out.merge.corrupt.len(),
        out.merge.quarantined.len(),
        out.merge.chain_breaks
    );
    if let Some(audited) = &out.verify {
        println!("{audited}");
    }
    println!("{}", out.report());

    let trusted = out.verify.is_none_or(|audited| audited.is_trusted());
    if trusted && out.scrub.fully_repaired() {
        Outcome::Pass
    } else {
        Outcome::Fail
    }
}
