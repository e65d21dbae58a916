//! Span recording around the benchmark's own calls into each layer.
//!
//! Every stage is timed through [`Tracer::begin`] / [`Tracer::end`] whether
//! or not recording is on, so the untraced and the traced run execute the
//! same benchmark code; recording only adds a push into a preallocated
//! `Vec`. Per-event `track_io` timings are folded into one aggregate span
//! per rank (count, sum, log2 histogram) to bound memory.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    pub layer: &'static str,
    pub rank: Option<u32>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `Some` for an aggregate of many calls: (count, Σ ns, log2 buckets).
    pub calls: Option<(u64, u64, Vec<u64>)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: its slot (when recording) and its start.
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    recording: bool,
    rep: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    /// Reference-kernel samples taken at the stage boundaries of the
    /// current repetition (see `calib`).
    references_s: Vec<f64>,
}

impl Tracer {
    pub fn new(workload: &str, recording: bool) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            recording,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(if recording { 1 << 14 } else { 0 }),
            references_s: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.references_s.clear();
    }

    /// Sample host speed here: between two stages, outside both, with the
    /// program under test quiescent (see `calib`).
    pub fn reference(&mut self) {
        self.references_s.push(crate::calib::reference_s());
    }

    /// The reference samples of the current repetition.
    pub fn references_s(&self) -> &[f64] {
        &self.references_s
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &str, rank: Option<u32>) -> Open {
        let slot = self.recording.then(|| {
            let now = self.now_ns();
            self.spans.push(Span {
                parent: self.stack.last().copied(),
                name: name.to_string(),
                layer,
                rank,
                rep: self.rep,
                start_ns: now,
                end_ns: now,
                calls: None,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            slot,
            start: Instant::now(),
        }
    }

    /// Close a span; the elapsed time is returned in either mode.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans close innermost first");
        }
        elapsed
    }

    /// Record many short calls (one rank's `track_io` loop) as one span
    /// under the currently open one.
    pub fn aggregate(
        &mut self,
        layer: &'static str,
        name: &str,
        rank: u32,
        started: Instant,
        samples_ns: &[u32],
    ) {
        if !self.recording {
            return;
        }
        let mut buckets = vec![0u64; 33];
        let mut sum = 0u64;
        for &ns in samples_ns {
            sum += u64::from(ns);
            buckets[(u32::BITS - ns.leading_zeros()) as usize] += 1;
        }
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name: name.to_string(),
            layer,
            rank: Some(rank),
            rep: self.rep,
            start_ns,
            end_ns: start_ns + sum,
            calls: Some((samples_ns.len() as u64, sum, buckets)),
        });
    }

    /// Span ids are strings; all spans of one rank share the prefix
    /// `<workload>.<rep>.r<rank>.`.
    fn id(&self, slot: usize) -> String {
        let s = &self.spans[slot];
        match s.rank {
            Some(r) => format!("{}.{}.r{}.{}", self.workload, s.rep, r, slot),
            None => format!("{}.{}.{}", self.workload, s.rep, slot),
        }
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = vec![
                    ("id", Json::str(self.id(i))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::str(self.id(p))),
                    ),
                    ("name", Json::str(&s.name)),
                    ("layer", Json::str(s.layer)),
                    ("workload", Json::str(&self.workload)),
                    (
                        "rank",
                        s.rank.map_or(Json::Null, |r| Json::num(f64::from(r))),
                    ),
                    ("rep", Json::num(f64::from(s.rep))),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                    ("self_ns", Json::num(self_ns[i] as f64)),
                ];
                if let Some((count, sum, buckets)) = &s.calls {
                    o.push(("count", Json::num(*count as f64)));
                    o.push(("sum_ns", Json::num(*sum as f64)));
                    o.push((
                        "log2_ns_histogram",
                        Json::Arr(buckets.iter().map(|b| Json::num(*b as f64)).collect()),
                    ));
                }
                Json::obj(o)
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus what its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s".into(),
            layer: "l",
            rank: None,
            rep: 0,
            start_ns,
            end_ns,
            calls: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 50, 70),
            span(Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn nesting_and_rank_prefixes() {
        let mut t = Tracer::new("w", true);
        t.set_rep(2);
        let outer = t.begin("a", "outer", None);
        let inner = t.begin("b", "inner", Some(3));
        t.end(inner);
        t.aggregate("c", "calls", 3, Instant::now(), &[1, 2, 1000]);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[2].calls.as_ref().unwrap().0, 3);
        assert!(t.id(1).starts_with("w.2.r3."));
        assert!(t.id(2).starts_with("w.2.r3."));
        assert_eq!(t.id(0), "w.2.0");
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new("w", false);
        let o = t.begin("a", "x", None);
        let d = t.end(o);
        assert!(t.spans.is_empty());
        assert!(d.as_nanos() > 0);
    }
}
