//! The golden values hold at every pool size. `finish_all`'s renders, the
//! merge's parses, scrub's parity-group reads and the MPI supersteps run on
//! the `rayon` shim's pool, sized process-wide from the host; this binary
//! forces it to 1, 2 and 4 workers in turn and checks every digest
//! `golden_store.rs`, `golden_workflows.rs` and `golden_recovery.rs` pin
//! against the same recorded values. A binary of its own, because forcing
//! the pool size would reach every test running beside it.

mod common;

use common::recovery::{keyed, recovery};
use common::workflows::fingerprint;
use common::{recovery as rec, store, workflows};
use prov_io::hpcfs::FileSystem;
use std::sync::{Arc, Mutex};

/// Run `check` at each forced pool size; the tests here take turns.
fn at_each_pool_size(check: impl Fn(&str)) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 4] {
        rayon::set_thread_count(threads);
        check(&format!("{threads} workers"));
    }
    rayon::set_thread_count(0);
}

#[test]
fn store_digests_hold_at_every_pool_size() {
    at_each_pool_size(|pool| {
        for (name, scenario, recorded) in store::SCENARIOS {
            let image = scenario();
            let digests = (image.directory_digest(), image.trace_digest());
            assert_eq!((digests.0.as_str(), digests.1.as_str()), recorded, "{name}, {pool}");
        }
    });
}

#[test]
fn workflow_fingerprints_hold_at_every_pool_size() {
    at_each_pool_size(|pool| {
        for (name, scenario, recorded) in workflows::SCENARIOS {
            assert_eq!(fingerprint(&scenario()).1, recorded, "{name}, {pool}");
        }
    });
}

/// The two damaged scenarios start from one capture of the unfinished run,
/// copied, since capturing the fixture unoptimized is the costly part.
#[test]
fn recovery_holds_at_every_pool_size() {
    at_each_pool_size(|pool| {
        let unfinished = rec::capture(true);
        let damaged = |damage: fn(&Arc<FileSystem>)| {
            let fs = rec::copy(&unfinished);
            damage(&fs);
            fs
        };
        for (name, fs, recorded) in [
            ("clean", rec::clean(), rec::CLEAN),
            ("in tolerance", damaged(rec::damage_in_tolerance), rec::IN_TOLERANCE),
            ("over tolerance", damaged(rec::damage_over_tolerance), rec::OVER_TOLERANCE),
        ] {
            assert_eq!(recovery(&fs, keyed).1, recorded, "{name}, {pool}");
        }
    });
}
