//! `provio scrub` — drive the self-healing pipeline against a damaged run.
//!
//! ```text
//! scrub [--ranks N] [--seed N] [--group N] [--key KEY]
//!       [--damage none|corrupt|delete|parity] [--verify]
//! ```
//!
//! The store lives on the simulated Lustre filesystem, so the binary
//! builds a parity-protected multi-rank run in process, applies at most
//! one at-rest damage (a rotted member, a deleted member, or a rotted
//! parity block), and then scrubs the directory exactly as an offline
//! repair pass would. Exit status: 0 when the scrub left the run fully
//! repaired (or found nothing to do), 1 when data was unrecoverable, 2 on
//! bad arguments — so CI can assert both directions of the contract.

use provio::frame::is_parity_path;
use provio::{
    merge_directory, repairable_paths, scrub_directory, verify_directory, ProvIoConfig,
};
use provio_bench::parse;
use provio_hpcfs::CorruptKind;
use provio_mpi::MpiWorld;
use provio_workflows::Cluster;

fn main() {
    let mut ranks: u32 = 4;
    let mut seed: u64 = 7;
    let mut group: u32 = 2;
    let mut key = "campaign-key".to_string();
    let mut damage = "none".to_string();
    let mut verify = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => ranks = parse(&mut args, "--ranks"),
            "--seed" => seed = parse(&mut args, "--seed"),
            "--group" => group = parse(&mut args, "--group"),
            "--key" => key = parse(&mut args, "--key"),
            "--damage" => damage = parse(&mut args, "--damage"),
            "--verify" => verify = true,
            "--help" | "-h" => {
                println!(
                    "scrub [--ranks N] [--seed N] [--group N] [--key KEY]\n\
                     \x20     [--damage none|corrupt|delete|parity] [--verify]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    // ---- A parity-protected run over the simulated filesystem -----------
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::from_ini(&format!(
        "[provio]\nformat = ntriples\npolicy = every:2\nasync = false\n\
         [store]\nchecksum_format = true\ncompact_every = 0\n\
         parity = true\nparity_group = {group}\nmanifest = true\nmanifest_key = {key}\n"
    ))
    .expect("valid config")
    .shared();
    let world = MpiWorld::new(ranks);
    world.superstep_named("produce", |ctx| {
        let (_s, h5) = cluster.process(
            900 + ctx.rank,
            "operator",
            "scrub-cli",
            ctx.clock().clone(),
            Some(&cfg),
        );
        for i in 0..6 {
            let f = h5
                .create_file(&format!("/run_r{}_{i}.h5", ctx.rank))
                .unwrap();
            h5.close_file(f).unwrap();
        }
    });
    // One rank is killed mid-run so its uncompacted snapshot + segments —
    // the artifacts mid-run parity groups actually cover — survive.
    if let Some(t) = cluster.registry.unregister(900 + seed as u32 % ranks) {
        std::mem::forget(t);
    }
    cluster.registry.finish_all();
    let fs = &cluster.fs;

    // ---- At most one at-rest damage --------------------------------------
    let mut covered: Vec<String> = repairable_paths(fs, "/provio").into_iter().collect();
    covered.sort();
    match damage.as_str() {
        "none" => {}
        "corrupt" | "delete" => {
            let members: Vec<&String> = covered.iter().filter(|p| !is_parity_path(p)).collect();
            let target = members[seed as usize % members.len()];
            if damage == "delete" {
                fs.unlink(target).expect("damage target exists");
                println!("damage: deleted {target}");
            } else {
                let n = fs
                    .corrupt_at_rest(target, &CorruptKind::BitFlips { count: 3 }, seed)
                    .expect("damage target exists");
                println!("damage: {n} bit(s) flipped in {target}");
            }
        }
        "parity" => {
            let pars: Vec<&String> = covered.iter().filter(|p| is_parity_path(p)).collect();
            let target = pars[seed as usize % pars.len()];
            let n = fs
                .corrupt_at_rest(target, &CorruptKind::BitFlips { count: 3 }, seed)
                .expect("damage target exists");
            println!("damage: {n} bit(s) flipped in {target}");
        }
        other => {
            eprintln!("unknown damage kind '{other}' (try --help)");
            std::process::exit(2);
        }
    }

    // ---- The repair pass -------------------------------------------------
    let report = scrub_directory(fs, "/provio");
    println!("{report}");
    for p in &report.repaired_files {
        println!("repaired: {p}");
    }
    for p in &report.repaired_parity {
        println!("regenerated: {p}");
    }
    for p in &report.unrecoverable {
        println!("UNRECOVERABLE: {p}");
    }

    let (_, mrep) = merge_directory(fs, "/provio");
    println!(
        "post-scrub merge: {} file(s), {} corrupt, {} quarantined, {} chain break(s)",
        mrep.files,
        mrep.corrupt.len(),
        mrep.quarantined.len(),
        mrep.chain_breaks
    );

    if verify {
        let audited = verify_directory(fs, "/provio", &key);
        println!("{audited}");
        if !audited.is_trusted() {
            std::process::exit(1);
        }
    }

    std::process::exit(if report.fully_repaired() { 0 } else { 1 });
}
