//! The capture path's allocation budget, as a count per event (exact and
//! machine-independent, unlike a timing): a steady-state `track_io`
//! allocates only what is new in the event — the activity's IRI and its
//! integer literals — and an event the selector filters allocates nothing.
//!
//! A counting `#[global_allocator]` needs a binary of its own. Counts are
//! per thread, so the store's writer pool and the other test do not leak
//! into a measurement.

use provio::{IoEvent, ObjectDesc, ProvIoConfig, ProvTracker};
use provio_hpcfs::{FileSystem, LustreConfig};
use provio_model::{ActivityClass, ClassSelector, EntityClass};
use provio_simrt::VirtualClock;
use std::sync::Arc;

#[path = "../../rdf/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

fn tracker(selector: ClassSelector) -> Arc<ProvTracker> {
    ProvTracker::new(
        ProvIoConfig::default()
            .with_selector(selector)
            .with_record_latency_ns(0)
            .shared(),
        FileSystem::new(LustreConfig::default()),
        3,
        "alice",
        "bench",
        VirtualClock::new(),
    )
}

/// Writes and reads over 16 datasets, every one carrying bytes, a duration
/// and a timestamp: the most a tracked event can emit.
fn events(n: usize) -> Vec<IoEvent> {
    (0..n)
        .map(|i| {
            let (activity, api_name) = if i.is_multiple_of(2) {
                (ActivityClass::Write, "H5Dwrite")
            } else {
                (ActivityClass::Read, "H5Dread")
            };
            IoEvent {
                activity,
                api_name: api_name.to_string(),
                object: Some(ObjectDesc::hdf5(
                    EntityClass::Dataset,
                    "/data/r0.h5",
                    format!("/Timestep_0/d{}", i % 16),
                )),
                bytes: 4096 + i as u64,
                duration_ns: 1_000 + i as u64,
                timestamp_ns: 50_000 + i as u64,
                ok: true,
            }
        })
        .collect()
}

#[test]
fn steady_state_track_io_stays_inside_its_allocation_budget() {
    let t = tracker(ClassSelector::all());
    let stream = events(4_000);
    let mut calls = stream.iter();
    // Warm up until a hand-over has just happened: every object and API
    // name has been seen, and the pending buffer starts a fresh batch.
    let pushed_at_start = t.store().stats().triples_pushed;
    for e in calls.by_ref() {
        t.track_io(e);
        if t.store().stats().triples_pushed != pushed_at_start {
            break;
        }
    }
    let pushed = t.store().stats().triples_pushed;
    assert_ne!(pushed, pushed_at_start, "the warm-up reached a hand-over");

    let window: Vec<&IoEvent> = calls.take(100).collect();
    assert_eq!(window.len(), 100);
    let ((), allocations) = allocations_during(|| {
        for e in &window {
            t.track_io(e);
        }
    });
    assert_eq!(t.store().stats().triples_pushed, pushed, "no hand-over inside the window");
    // One activity IRI and three integer literals per event (the parent of
    // this change: about 100).
    assert!(
        allocations <= 6 * 100,
        "{allocations} allocations in 100 steady-state track_io calls"
    );
    assert!(allocations >= 100, "the counter counts: {allocations}");
    t.finish();
}

#[test]
fn a_filtered_event_allocates_nothing() {
    // File lineage tracks files and directories: dataset events fall below
    // the enabled granularity and are dropped before any work.
    let t = tracker(ClassSelector::dassa_file_lineage());
    let stream = events(100);
    let ((), allocations) = allocations_during(|| {
        for e in &stream {
            t.track_io(e);
        }
    });
    assert_eq!(allocations, 0);
    assert_eq!(t.event_count(), 0, "every event was filtered");
    t.finish();
}
