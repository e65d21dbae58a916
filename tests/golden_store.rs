//! The store's on-disk bytes, file names and file-system operation order
//! are frozen: a fixed seeded stream through the default configuration and
//! through every durability plane at once must leave exactly the directory
//! and issue exactly the operations it did when the digests in
//! `common/store.rs` were recorded (at the commit before the write path
//! was restructured). A
//! change that moves one byte, renames one file or reorders one call fails
//! here and names which of the two moved.

mod common;

use common::store::{default_config, run, run_direct, Digests};
use common::store::{DEFAULT_CONFIG, DIRECT_STORE, EVERY_PLANE};
use common::{durable_config, Image};

/// Run `scenario` twice: the runs must agree with each other, and the
/// first with the recorded digests.
fn assert_frozen(scenario: impl Fn() -> Image, recorded: Digests) {
    let first = scenario();
    assert!(first == scenario(), "two runs, two results");
    assert_eq!(
        (
            first.directory_digest().as_str(),
            first.trace_digest().as_str()
        ),
        recorded,
        "(directory bytes and file names, file-system operations and their order)"
    );
}

#[test]
fn default_config_bytes_and_op_order_are_frozen() {
    assert_frozen(|| run(&default_config()), DEFAULT_CONFIG);
}

#[test]
fn every_plane_on_bytes_and_op_order_are_frozen() {
    assert_frozen(|| run(&durable_config()), EVERY_PLANE);
}

#[test]
fn direct_store_bytes_and_op_order_are_frozen() {
    assert_frozen(run_direct, DIRECT_STORE);
}
