//! `provio verify` — drive the trust pipeline against a sealed run.
//!
//! The store lives on the simulated Lustre filesystem, so the subcommand
//! builds a sealed multi-rank run in process, applies at most one
//! adversarial mutation, and then verifies the directory exactly as a
//! post-hoc audit would. Passes when the run is TRUSTED, fails when it is
//! not — so CI can assert both directions of the contract.

use crate::opts::{parse, Opt, Outcome, Slot};
use crate::scenario::Scenario;
use provio::verify::seal_run;
use provio::{merge_directory, quarantine_tampered, verify_directory};
use provio_hpcfs::TamperKind;
use provio_workflows::Cluster;

const PID_BASE: u32 = 800;

const TAMPERS: [(&str, Option<TamperKind>); 5] = [
    ("none", None),
    ("crc", Some(TamperKind::CrcPatchedRewrite)),
    ("substitute", Some(TamperKind::FileSubstitution)),
    ("manifest", Some(TamperKind::ManifestEdit)),
    ("ledger", Some(TamperKind::LedgerTruncate)),
];

pub fn main(argv: Vec<String>) -> Outcome {
    let (mut ranks, mut seed, mut key) = (4, 7, "campaign-key".to_string());
    let (mut wrong_key, mut tamper, mut quarantine) = (false, TAMPERS[0], false);
    let table = &mut [
        Opt("--ranks", "ranks in the sealed run", Slot::U32(1, &mut ranks)),
        Opt("--seed", "picks the tampered rank file and the mutation", Slot::U64(&mut seed)),
        Opt("--key", "campaign key the run is sealed under", Slot::Text("KEY", &mut key)),
        Opt("--wrong-key", "audit under a different key than the seal's", Slot::Switch(&mut wrong_key)),
        Opt("--tamper", "the one adversarial mutation applied before the audit", Slot::Choice(&TAMPERS, &mut tamper)),
        Opt("--quarantine", "rename what the audit condemns, then re-merge", Slot::Switch(&mut quarantine)),
    ];
    let about = "seal a multi-rank run, tamper with it at most once, audit it";
    if let Some(over) = parse("verify", about, table, None, argv) {
        return over;
    }

    // ---- A sealed run over the simulated filesystem ---------------------
    let cluster = Cluster::new();
    let sealed = Scenario {
        ini: format!(
            "[provio]\nformat = ntriples\npolicy = every:2\nasync = false\n\
             [store]\nchecksum_format = true\nmanifest = true\nmanifest_key = {key}\n"
        ),
        pid_base: PID_BASE,
        user: "auditor",
        program: "verify-cli",
        phases: &["produce"],
        files_per_phase: 4,
        kill: None,
    }
    .run(&cluster, ranks, |_| ());
    if let Err(refused) = sealed {
        return refused;
    }
    let fs = &cluster.fs;

    // ---- At most one adversarial mutation -------------------------------
    if let (name, Some(kind)) = &tamper {
        let target = match kind {
            TamperKind::ManifestEdit => "/provio/MANIFEST.provio".to_string(),
            TamperKind::LedgerTruncate => "/provio/CAMPAIGN.provio".to_string(),
            _ => format!("/provio/prov_p{}.nt", u64::from(PID_BASE) + seed % u64::from(ranks)),
        };
        let affected = fs
            .tamper_at_rest(&target, kind, seed)
            .expect("tamper target exists");
        println!("tamper: {name} on {target} → {affected} unit(s) mutated");
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

    if !report.is_trusted() {
        return Outcome::Fail;
    }
    // Reseal check: re-signing an untouched directory must keep the run
    // trusted, with the new manifest chained onto the ledger.
    seal_run(fs, "/provio", &verify_key, &[]).expect("reseal");
    let resealed = verify_directory(fs, "/provio", &verify_key);
    assert!(resealed.is_trusted(), "reseal must stay trusted");
    Outcome::Pass
}
