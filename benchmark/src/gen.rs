//! The seeded event generator shared by the synthetic workloads, and the
//! output expectations derived from it.
//!
//! Everything the program later reports (emitted triples, merged triples,
//! query row counts, lineage sizes) is an exact function of the seed, so
//! the expectations here are computed from the generated events alone —
//! the program only ever sees the `IoEvent`s.

use provio::{IoEvent, ObjectDesc};
use provio_model::{ActivityClass, EntityClass};
use provio_simrt::DetRng;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

/// User every rank runs as (one shared `User` agent node).
pub const USER: &str = "alice";

/// Program name of a rank. One program per rank keeps
/// `derive_lineage` (outputs × inputs per program) quadratic in a rank's
/// objects only, not in the whole run's.
pub fn program(rank: u32) -> String {
    format!("bench-r{rank}")
}

/// Tracked pid of a rank.
pub fn pid(rank: u32) -> u32 {
    100 + rank
}

/// One rank's pre-generated events.
pub struct Stream {
    pub rank: u32,
    pub events: Vec<IoEvent>,
}

/// Distinct objects a rank's events are drawn from.
pub fn objects_per_rank(events_per_rank: usize) -> u64 {
    (events_per_rank as u64 / 16).max(1)
}

fn object(rank: u32, o: u64) -> ObjectDesc {
    // The class is a function of the object index, so one object never
    // changes class between events: 4/5 datasets, 1/5 attributes.
    let class = if o % 5 == 4 {
        EntityClass::Attribute
    } else {
        EntityClass::Dataset
    };
    ObjectDesc::hdf5(
        class,
        format!("/data/r{rank}.h5"),
        format!("/Timestep_{}/d{o}", o % 64),
    )
}

/// Generate rank `rank`'s stream of `events` events from `seed`.
///
/// API mix Create 1/6, Open 1/6, Write 2/6, Read 2/6; objects uniform over
/// `events/16`, so ~6% of events are first sights (type/label emission,
/// intern misses) and the rest hit the dedup/intern caches. `bytes`,
/// `duration_ns`, `timestamp_ns` come from the stream, never from a clock.
pub fn stream(seed: u64, rank: u32, events: usize) -> Stream {
    let objects = objects_per_rank(events);
    let mut rng = DetRng::with_stream(seed, 0xE7E0 + rank as u64);
    let mut now = 1_000u64;
    let events = (0..events)
        .map(|_| {
            let (activity, api_name) = match rng.below(6) {
                0 => (ActivityClass::Create, "H5Dcreate2"),
                1 => (ActivityClass::Open, "H5Dopen2"),
                2 | 3 => (ActivityClass::Write, "H5Dwrite"),
                _ => (ActivityClass::Read, "H5Dread"),
            };
            let o = rng.below(objects);
            let moves_data = matches!(activity, ActivityClass::Write | ActivityClass::Read);
            let bytes = if moves_data { rng.range(1, 1 << 20) } else { 0 };
            let duration_ns = rng.range(200, 3_200);
            now += duration_ns + rng.below(500);
            IoEvent {
                activity,
                api_name: api_name.to_string(),
                object: Some(object(rank, o)),
                bytes,
                duration_ns,
                timestamp_ns: now,
                ok: true,
            }
        })
        .collect();
    Stream { rank, events }
}

/// One stream per rank, `0..ranks`.
pub fn generate(seed: u64, ranks: u32, events_per_rank: usize) -> Vec<Stream> {
    (0..ranks)
        .map(|rank| stream(seed, rank, events_per_rank))
        .collect()
}

/// SHA-256 over a canonical rendering of the streams (self-test and
/// `results.json` identity of the inputs).
pub fn digest(streams: &[Stream]) -> String {
    let mut h = sha2::Sha256::new();
    for s in streams {
        for e in &s.events {
            let o = e.object.as_ref().expect("generated events carry an object");
            h.update(
                format!(
                    "{}|{}|{}|{}|{}|{}|{}\n",
                    s.rank, e.api_name, o.scope, o.path, e.bytes, e.duration_ns, e.timestamp_ns
                )
                .as_bytes(),
            );
        }
    }
    sha2::hex(&h.finalize())
}

/// What a correct run over the streams must report, with
/// `ClassSelector::all()` and one tracker per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub events: u64,
    /// Σ `TrackSummary.triples` (every emitted triple, duplicates included).
    pub emitted_triples: u64,
    /// Distinct triples of the merged graph.
    pub merged_triples: u64,
    pub writes: u64,
    pub fast_writes: u64,
    pub attr_writes: u64,
    /// Objects attributed to their program (created or written at least once).
    pub attributed_objects: u64,
    /// Read+Open events on [`Expected::probe`].
    pub probe_read_steps: u64,
    /// `prov:wasDerivedFrom` edges `derive_lineage` adds.
    pub lineage_edges: u64,
    /// Size of the backward lineage of [`Expected::probe`].
    pub probe_lineage: u64,
    /// The fixed object the lineage queries start from: the first object
    /// rank 0 writes or creates.
    pub probe: ObjectDesc,
}

/// `FILTER(?d < FAST_NS)` threshold of the join-filter query.
pub const FAST_NS: u64 = 1_000;

/// Triples the tracker emits at initialization per rank: User (type,
/// label), Thread (type, label, rank, actedOnBehalfOf), Program (type,
/// label, actedOnBehalfOf).
const AGENT_TRIPLES: u64 = 9;

pub fn expected<S: Borrow<Stream>>(streams: &[S]) -> Expected {
    let streams: Vec<&Stream> = streams.iter().map(Borrow::borrow).collect();
    let mut x = Expected {
        events: 0,
        emitted_triples: 0,
        merged_triples: 0,
        writes: 0,
        fast_writes: 0,
        attr_writes: 0,
        attributed_objects: 0,
        probe_read_steps: 0,
        lineage_edges: 0,
        probe_lineage: 0,
        probe: streams[0]
            .events
            .iter()
            .find(|e| matches!(e.activity, ActivityClass::Write | ActivityClass::Create))
            .and_then(|e| e.object.clone())
            .expect("rank 0 writes at least one object"),
    };
    let mut duplicates = 0u64;
    for s in &streams {
        x.emitted_triples += AGENT_TRIPLES;
        // path → (times attributed, read or opened, written or created)
        let mut objects: BTreeMap<&str, (u64, bool, bool)> = BTreeMap::new();
        for e in &s.events {
            let o = e.object.as_ref().expect("generated events carry an object");
            x.events += 1;
            // Activity: type, label, elapsed, timestamp, [bytes],
            // wasAssociatedWith, wasMemberOf.
            x.emitted_triples += 6 + u64::from(e.bytes > 0);
            let produces = matches!(e.activity, ActivityClass::Write | ActivityClass::Create);
            let entry = objects.entry(o.path.as_str()).or_insert_with(|| {
                x.emitted_triples += 2; // first sight: type + label
                (0, false, false)
            });
            // Entity: relation to the activity, plus attribution on
            // write-like events.
            x.emitted_triples += 1 + u64::from(produces);
            if produces {
                entry.0 += 1;
                entry.2 = true;
            } else {
                entry.1 = true;
            }
            if e.activity == ActivityClass::Write {
                x.writes += 1;
                x.fast_writes += u64::from(e.duration_ns < FAST_NS);
                x.attr_writes += u64::from(o.class == EntityClass::Attribute);
            }
            if s.rank == 0 && !produces && o.path == x.probe.path {
                x.probe_read_steps += 1;
            }
        }
        let inputs: BTreeSet<&str> = objects
            .iter()
            .filter(|(_, v)| v.1)
            .map(|(k, _)| *k)
            .collect();
        let outputs: BTreeSet<&str> = objects
            .iter()
            .filter(|(_, v)| v.2)
            .map(|(k, _)| *k)
            .collect();
        // Repeated (object, wasAttributedTo, program) triples collapse.
        duplicates += objects.values().map(|v| v.0.saturating_sub(1)).sum::<u64>();
        x.attributed_objects += outputs.len() as u64;
        x.lineage_edges +=
            (inputs.len() * outputs.len()) as u64 - inputs.intersection(&outputs).count() as u64;
        if s.rank == 0 {
            // BFS over derived edges from the probe: its own inputs first,
            // and the probe itself again once another output that is also
            // an input derives from it.
            let probe = x.probe.path.as_str();
            let others = inputs.iter().filter(|p| **p != probe).count() as u64;
            let back =
                inputs.contains(probe) && inputs.iter().any(|p| *p != probe && outputs.contains(p));
            x.probe_lineage = others + u64::from(back);
        }
    }
    // The shared User node's type and label merge across ranks.
    duplicates += 2 * (streams.len() as u64 - 1);
    x.merged_triples = x.emitted_triples - duplicates;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        let a = digest(&generate(42, 2, 500));
        let b = digest(&generate(42, 2, 500));
        let c = digest(&generate(43, 2, 500));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn api_mix_and_object_reuse() {
        let s = &generate(42, 1, 6_000)[0];
        let writes = s
            .events
            .iter()
            .filter(|e| e.activity == ActivityClass::Write)
            .count();
        let creates = s
            .events
            .iter()
            .filter(|e| e.activity == ActivityClass::Create)
            .count();
        assert!((1_800..2_200).contains(&writes), "writes {writes}");
        assert!((850..1_150).contains(&creates), "creates {creates}");
        let distinct: BTreeSet<_> = s
            .events
            .iter()
            .map(|e| e.object.as_ref().unwrap().path.clone())
            .collect();
        assert!(distinct.len() as u64 <= objects_per_rank(6_000));
    }

    #[test]
    fn expectations_are_consistent() {
        let streams = generate(7, 3, 400);
        let x = expected(&streams);
        assert_eq!(x.events, 1_200);
        assert!(x.merged_triples < x.emitted_triples);
        assert!(x.fast_writes <= x.writes && x.attr_writes <= x.writes);
        assert!(x.probe_lineage > 0);
    }
}
