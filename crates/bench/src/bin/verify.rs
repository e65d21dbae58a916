//! `provio verify` — drive the trust pipeline against a sealed run.
//!
//! ```text
//! verify [--ranks N] [--seed N] [--key KEY] [--wrong-key]
//!        [--tamper none|crc|substitute|manifest|ledger] [--quarantine]
//! ```
//!
//! The store lives on the simulated Lustre filesystem, so the binary
//! builds a sealed multi-rank run in process, applies at most one
//! adversarial mutation, and then verifies the directory exactly as a
//! post-hoc audit would. Exit status: 0 when the run is TRUSTED, 1 when
//! it is not, 2 on bad arguments — so CI can assert both directions of
//! the contract.

use provio::verify::seal_run;
use provio::{merge_directory, quarantine_tampered, verify_directory, ProvIoConfig};
use provio_bench::parse;
use provio_hpcfs::TamperKind;
use provio_mpi::MpiWorld;
use provio_workflows::Cluster;

fn main() {
    let mut ranks: u32 = 4;
    let mut seed: u64 = 7;
    let mut key = "campaign-key".to_string();
    let mut wrong_key = false;
    let mut tamper = "none".to_string();
    let mut quarantine = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => ranks = parse(&mut args, "--ranks"),
            "--seed" => seed = parse(&mut args, "--seed"),
            "--key" => key = parse(&mut args, "--key"),
            "--wrong-key" => wrong_key = true,
            "--tamper" => tamper = parse(&mut args, "--tamper"),
            "--quarantine" => quarantine = true,
            "--help" | "-h" => {
                println!(
                    "verify [--ranks N] [--seed N] [--key KEY] [--wrong-key]\n\
                     \x20      [--tamper none|crc|substitute|manifest|ledger] [--quarantine]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    // ---- A sealed run over the simulated filesystem ---------------------
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::from_ini(&format!(
        "[provio]\nformat = ntriples\npolicy = every:2\nasync = false\n\
         [store]\nchecksum_format = true\nmanifest = true\nmanifest_key = {key}\n"
    ))
    .expect("valid config")
    .shared();
    let world = MpiWorld::new(ranks);
    world.superstep_named("produce", |ctx| {
        let (_s, h5) = cluster.process(
            800 + ctx.rank,
            "auditor",
            "verify-cli",
            ctx.clock().clone(),
            Some(&cfg),
        );
        for i in 0..4 {
            let f = h5
                .create_file(&format!("/run_r{}_{i}.h5", ctx.rank))
                .unwrap();
            h5.close_file(f).unwrap();
        }
    });
    cluster.registry.finish_all();
    let fs = &cluster.fs;

    // ---- At most one adversarial mutation -------------------------------
    let kind = match tamper.as_str() {
        "none" => None,
        "crc" => Some(TamperKind::CrcPatchedRewrite),
        "substitute" => Some(TamperKind::FileSubstitution),
        "manifest" => Some(TamperKind::ManifestEdit),
        "ledger" => Some(TamperKind::LedgerTruncate),
        other => {
            eprintln!("unknown tamper kind '{other}' (try --help)");
            std::process::exit(2);
        }
    };
    if let Some(kind) = kind {
        let target = match kind {
            TamperKind::ManifestEdit => "/provio/MANIFEST.provio".to_string(),
            TamperKind::LedgerTruncate => "/provio/CAMPAIGN.provio".to_string(),
            _ => format!("/provio/prov_p{}.nt", 800 + seed % ranks as u64),
        };
        let affected = fs
            .tamper_at_rest(&target, &kind, seed)
            .expect("tamper target exists");
        println!("tamper: {tamper} on {target} → {affected} unit(s) mutated");
    }

    // ---- The audit -------------------------------------------------------
    let verify_key = if wrong_key {
        format!("{key}-but-wrong")
    } else {
        key
    };
    let report = verify_directory(fs, "/provio", &verify_key);
    println!("{report}");

    if quarantine {
        let renamed = quarantine_tampered(fs, &report);
        if renamed.is_empty() {
            println!("quarantine: nothing to rename");
        } else {
            for p in &renamed {
                println!("quarantine: {p} → {p}.quarantine");
            }
            let (_, mrep) = merge_directory(fs, "/provio");
            println!(
                "re-merge after quarantine: {} file(s), {} corrupt, {} quarantined",
                mrep.files,
                mrep.corrupt.len(),
                mrep.quarantined.len()
            );
        }
    }

    // Reseal check: re-signing an untouched directory must keep the run
    // trusted, with the new manifest chained onto the ledger.
    if report.is_trusted() {
        seal_run(fs, "/provio", &verify_key, &[]).expect("reseal");
        let resealed = verify_directory(fs, "/provio", &verify_key);
        assert!(resealed.is_trusted(), "reseal must stay trusted");
    }

    std::process::exit(if report.is_trusted() { 0 } else { 1 });
}
