//! The plane contract ladder: what each optional durability plane costs on
//! top of the one below it, measured the way ROADMAP item 1 asks —
//! interleaved rounds, rotated order, per-round ratios, median with
//! quartiles, and a verdict against the contract bar that admits when the
//! measurement cannot tell.

use crate::gen::Stream;
use crate::pipeline::{self, Checks};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use provio::{Collector, ProvIoConfig, RdfFormat, SerializationPolicy};
use provio_hpcfs::{FileSystem, LustreConfig};
use provio_simrt::{NetPlan, VirtualClock};
use std::sync::Arc;

/// Fewest interleaved rounds a verdict is based on.
pub const MIN_ROUNDS: usize = 5;

/// One plane of the ladder and the bar ROADMAP sets for it: its overhead
/// over the rung below, in percent of that rung's wall time.
pub struct Plane {
    pub name: &'static str,
    pub bar_pct: f64,
}

/// In ladder order: each plane is measured against the previous rung
/// (checksums against delta-only segments).
pub const PLANES: [Plane; 5] = [
    Plane {
        name: "checksum",
        bar_pct: 10.0,
    },
    Plane {
        name: "wal",
        bar_pct: 15.0,
    },
    Plane {
        name: "parity",
        bar_pct: 10.0,
    },
    Plane {
        name: "manifest",
        bar_pct: 5.0,
    },
    Plane {
        name: "stream",
        bar_pct: 15.0,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    Inconclusive,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// Judge a plane's overhead (percent, summarized over rounds) against its
/// bar. Inconclusive when the bar lies inside the quartile range, or
/// closer to the median than the A/A floor — the gap two runs of the
/// *same* rung show.
pub fn verdict(overhead_pct: &Summary, bar_pct: f64, floor_pct: f64) -> Verdict {
    let inside_quartiles = overhead_pct.q1 <= bar_pct && bar_pct <= overhead_pct.q3;
    let inside_floor = (overhead_pct.median - bar_pct).abs() <= floor_pct;
    if inside_quartiles || inside_floor {
        Verdict::Inconclusive
    } else if overhead_pct.median <= bar_pct {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

pub struct PlaneResult {
    pub name: &'static str,
    pub bar_pct: f64,
    /// Per-round overhead over the previous rung, percent.
    pub overhead_pct: Vec<f64>,
    pub summary: Summary,
    pub verdict: Verdict,
}

pub struct Outcome {
    pub rounds: usize,
    pub events: usize,
    /// Median |a/b − 1| of the duplicated base rung, percent.
    pub floor_pct: f64,
    pub planes: Vec<PlaneResult>,
}

/// Rung 0 and its A/A twin are delta-only segments; rungs 2.. add one
/// plane each.
const RUNGS: usize = 2 + PLANES.len();

fn rung_config(rung: usize) -> ProvIoConfig {
    let planes = rung.saturating_sub(1);
    let mut cfg = pipeline::mem_config()
        .with_policy(SerializationPolicy::EveryRecords(pipeline::FLUSH_RECORDS))
        .with_format(RdfFormat::NTriples)
        .synchronous()
        .with_checksums(planes >= 1)
        .with_wal(planes >= 2, pipeline::WAL_GROUP)
        .with_parity(planes >= 3, pipeline::PARITY_GROUP)
        .with_manifest(planes >= 4)
        .with_manifest_key(pipeline::KEY);
    if planes >= 5 {
        cfg = cfg.with_net(true, 10_000_000);
    }
    cfg
}

/// One rung, end to end: track the stream, finish, seconds.
fn run_rung(rung: usize, stream: &Stream, checks: &mut Checks) -> f64 {
    let mut off = Tracer::new("ladder", false);
    let fs = FileSystem::new(LustreConfig::default());
    let cfg = rung_config(rung).shared();
    let streaming = cfg.net;
    // The collector's client must be attached to the tracker before its
    // first event.
    let collector = streaming.then(|| {
        Collector::new(
            Arc::clone(&fs),
            pipeline::STORE_DIR,
            NetPlan::ideal(stream.rank as u64),
        )
    });
    let captured = match &collector {
        None => pipeline::capture(&fs, &cfg, std::slice::from_ref(stream), &mut off),
        Some(c) => {
            let attach = |t: &provio::ProvTracker| {
                t.attach_net(c.client(stream.rank, VirtualClock::new(), &cfg));
            };
            pipeline::capture_with(&fs, &cfg, std::slice::from_ref(stream), &mut off, attach)
        }
    };
    let summaries = &captured.summaries;
    pipeline::check_summaries(summaries, stream.events.len() as u64, None, checks);
    if streaming {
        checks.check(
            summaries
                .iter()
                .all(|(_, s)| s.net_sent > 0 && s.net_unacked == 0),
            || "streamed rung left batches unacked".into(),
        );
    }
    captured.capture_s
}

/// One warm pass, then `rounds` interleaved rounds with the rung order
/// rotated each round.
pub fn run(stream: &Stream, rounds: usize, checks: &mut Checks) -> Outcome {
    let rounds = rounds.max(MIN_ROUNDS);
    for rung in 0..RUNGS {
        run_rung(rung, stream, checks);
    }
    // wall[round][rung]
    let mut wall = vec![[0.0; RUNGS]; rounds];
    for (round, row) in wall.iter_mut().enumerate() {
        for i in 0..RUNGS {
            let rung = (i + round) % RUNGS;
            row[rung] = run_rung(rung, stream, checks);
        }
    }
    let ratio_pct = |a: usize, b: usize| -> Vec<f64> {
        wall.iter()
            .map(|row| (row[a] / row[b] - 1.0) * 100.0)
            .collect()
    };
    let floor: Vec<f64> = ratio_pct(1, 0).into_iter().map(f64::abs).collect();
    let floor_pct = stats::median(&floor);
    let planes = PLANES
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let overhead_pct = ratio_pct(i + 2, i + 1);
            let summary = stats::summarize(&overhead_pct);
            PlaneResult {
                name: p.name,
                bar_pct: p.bar_pct,
                verdict: verdict(&summary, p.bar_pct, floor_pct),
                overhead_pct,
                summary,
            }
        })
        .collect();
    Outcome {
        rounds,
        events: stream.events.len(),
        floor_pct,
        planes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 5,
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_on_synthetic_overheads() {
        // Clearly under, clearly over.
        assert_eq!(verdict(&s(1.0, 2.0, 3.0), 10.0, 1.0), Verdict::Pass);
        assert_eq!(verdict(&s(11.5, 12.2, 13.0), 10.0, 1.0), Verdict::Fail);
        // The bar sits inside the quartile range.
        assert_eq!(
            verdict(&s(8.0, 9.0, 11.0), 10.0, 0.1),
            Verdict::Inconclusive
        );
        assert_eq!(
            verdict(&s(9.0, 12.0, 14.0), 10.0, 0.1),
            Verdict::Inconclusive
        );
        // The bar is closer to the median than two identical runs are to
        // each other — e.g. the −5.5% "manifest overhead" of BENCH_store.json.
        assert_eq!(
            verdict(&s(-6.0, -5.5, -5.0), 5.0, 11.0),
            Verdict::Inconclusive
        );
        assert_eq!(verdict(&s(4.0, 4.5, 4.8), 5.0, 1.0), Verdict::Inconclusive);
        assert_eq!(verdict(&s(-6.0, -5.5, -5.0), 5.0, 2.0), Verdict::Pass);
    }

    #[test]
    fn rungs_add_one_plane_each() {
        let base = rung_config(0);
        assert!(!base.checksum_format && !base.wal && !base.parity && !base.manifest && !base.net);
        assert!(!rung_config(1).checksum_format, "A/A twin of the base rung");
        assert!(rung_config(2).checksum_format && !rung_config(2).wal);
        assert!(rung_config(3).wal && !rung_config(3).parity);
        assert!(rung_config(4).parity && !rung_config(4).manifest);
        assert!(rung_config(5).manifest && !rung_config(5).net);
        assert!(rung_config(6).net);
    }
}
