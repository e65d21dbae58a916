//! Seeded, deterministic simulated interconnect faults.
//!
//! The transport-side sibling of `provio-hpcfs`'s `FaultPlan`: where that
//! plan decides the fate of file-system operations, a [`NetPlan`] decides
//! the fate of messages on the rank ↔ aggregator fabric — loss,
//! duplication, reordering, bounded extra delay, and partition episodes.
//! The plan is pure fate mechanics: it never sees payloads, so the same
//! schedule drives unit tests, property tests, and full streaming runs.
//!
//! Each rank draws its fates from its own [`DetRng`] child stream
//! (derivation is order-independent, like the workload streams), so a
//! run's fault schedule is a function of `(seed, rank, attempt index,
//! virtual time)` alone — never of thread interleaving.

use crate::clock::{SimDuration, SimTime};
use crate::rng::DetRng;

/// `DetRng` stream id for network fault schedules, disjoint from the
/// file-system fault stream (`0xFA17`).
pub(crate) const NET_FAULT_STREAM: u64 = 0x4E_F0;

/// A closed interval of virtual time during which some (or all) ranks
/// cannot reach the aggregator. Sends inside the window are black-holed:
/// no delivery, no ack — the sender only learns via timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEpisode {
    /// First virtual instant inside the partition.
    pub(crate) start: SimTime,
    /// First virtual instant after the partition heals.
    pub(crate) end: SimTime,
    /// Ranks cut off; `None` partitions every rank (the aggregator side
    /// of the fabric is down).
    pub(crate) ranks: Option<Vec<u32>>,
}

impl PartitionEpisode {
    /// Partition every rank for `[start, end)` virtual nanoseconds.
    pub fn all(start_ns: u64, end_ns: u64) -> Self {
        PartitionEpisode {
            start: SimTime(start_ns),
            end: SimTime(end_ns),
            ranks: None,
        }
    }

    /// Partition only `ranks` for `[start, end)` virtual nanoseconds.
    pub fn of_ranks(start_ns: u64, end_ns: u64, ranks: Vec<u32>) -> Self {
        PartitionEpisode {
            start: SimTime(start_ns),
            end: SimTime(end_ns),
            ranks: Some(ranks),
        }
    }

    /// Whether `rank` is cut off at virtual instant `now`.
    pub(crate) fn covers(&self, rank: u32, now: SimTime) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        match &self.ranks {
            None => true,
            Some(rs) => rs.contains(&rank),
        }
    }
}

/// The fault schedule for one run's interconnect. Probabilities are per
/// send attempt; `delay_ns` bounds the extra one-way latency surcharge
/// drawn uniformly from `[min, max)`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetPlan {
    /// Root seed; each rank derives child stream `rank` from it.
    pub seed: u64,
    /// Probability a request is dropped in flight (no delivery, no ack).
    pub(crate) loss: f64,
    /// Probability the *ack* is dropped after a successful delivery, so
    /// the sender retransmits a message the aggregator already holds.
    pub(crate) ack_loss: f64,
    /// Probability a delivered request arrives twice.
    pub(crate) duplicate: f64,
    /// Probability the fabric holds a message back so its successor
    /// overtakes it.
    pub(crate) reorder: f64,
    /// Extra one-way delay drawn uniformly from `[min, max)` nanoseconds.
    pub(crate) delay_ns: (u64, u64),
    /// Partition episodes, checked against the sender's virtual clock.
    pub(crate) partitions: Vec<PartitionEpisode>,
}

impl NetPlan {
    /// A perfect fabric: every send delivers exactly once, instantly.
    pub fn ideal(seed: u64) -> Self {
        NetPlan {
            seed,
            loss: 0.0,
            ack_loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay_ns: (0, 0),
            partitions: Vec::new(),
        }
    }

    /// An actively hostile fabric: `p` loss on both directions plus `p`
    /// duplication and reordering, with up to 50µs of jittered delay.
    pub fn hostile(seed: u64, p: f64) -> Self {
        NetPlan {
            seed,
            loss: p,
            ack_loss: p,
            duplicate: p,
            reorder: p,
            delay_ns: (0, 50_000),
            partitions: Vec::new(),
        }
    }

    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    pub fn with_ack_loss(mut self, p: f64) -> Self {
        self.ack_loss = p;
        self
    }

    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    pub fn with_delay(mut self, min_ns: u64, max_ns: u64) -> Self {
        self.delay_ns = (min_ns, max_ns);
        self
    }

    pub fn with_partition(mut self, episode: PartitionEpisode) -> Self {
        self.partitions.push(episode);
        self
    }

    /// `true` when no fault can ever fire.
    pub fn is_ideal(&self) -> bool {
        self.loss == 0.0
            && self.ack_loss == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay_ns.1 <= self.delay_ns.0
            && self.partitions.is_empty()
    }

    /// The per-rank view of this fabric. Child-stream derivation makes
    /// one rank's fate sequence independent of every other rank's usage.
    pub fn link(&self, rank: u32) -> NetLink {
        NetLink {
            rank,
            plan: self.clone(),
            rng: DetRng::with_stream(self.seed, NET_FAULT_STREAM).child(rank as u64),
        }
    }
}

/// The fate of one send attempt, drawn by [`NetLink::fate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// The sender is inside a partition episode: the request vanishes
    /// and only a timeout tells the sender so.
    Partitioned,
    /// The request was dropped in flight: no delivery, no ack.
    LostRequest,
    /// The request arrived.
    Delivered {
        /// How many copies arrive (`> 1` models duplication).
        copies: u32,
        /// Extra one-way latency surcharge for this message.
        delay: SimDuration,
        /// The ack was dropped on the way back: the aggregator holds the
        /// data but the sender must retransmit anyway.
        ack_lost: bool,
        /// The fabric holds this message back so its successor (if one
        /// is queued) overtakes it.
        reorder: bool,
    },
}

/// One rank's connection to the fabric: its own child fate stream plus
/// the shared plan. Not `Sync` on purpose — each rank owns its link.
#[derive(Debug, Clone)]
pub struct NetLink {
    rank: u32,
    plan: NetPlan,
    rng: DetRng,
}

impl NetLink {
    /// Draw the fate of one send attempt issued at virtual instant
    /// `now`. Partition windows preempt the probabilistic faults and do
    /// not consume randomness, so healing never shifts the schedule.
    pub fn fate(&mut self, now: SimTime) -> SendFate {
        if self.plan.partitions.iter().any(|p| p.covers(self.rank, now)) {
            return SendFate::Partitioned;
        }
        if self.rng.chance(self.plan.loss) {
            return SendFate::LostRequest;
        }
        let copies = if self.rng.chance(self.plan.duplicate) { 2 } else { 1 };
        let (lo, hi) = self.plan.delay_ns;
        let delay = if hi > lo {
            SimDuration::from_nanos(self.rng.range(lo, hi))
        } else {
            SimDuration::from_nanos(lo)
        };
        let ack_lost = self.rng.chance(self.plan.ack_loss);
        let reorder = self.rng.chance(self.plan.reorder);
        SendFate::Delivered {
            copies,
            delay,
            ack_lost,
            reorder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_plan_delivers_everything_instantly() {
        let mut link = NetPlan::ideal(1).link(0);
        for i in 0..100 {
            assert_eq!(
                link.fate(SimTime(i)),
                SendFate::Delivered {
                    copies: 1,
                    delay: SimDuration::ZERO,
                    ack_lost: false,
                    reorder: false,
                }
            );
        }
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let plan = NetPlan::hostile(42, 0.3);
        let mut a = plan.link(3);
        let mut b = plan.link(3);
        for i in 0..200 {
            assert_eq!(a.fate(SimTime(i)), b.fate(SimTime(i)));
        }
    }

    #[test]
    fn ranks_draw_independent_streams() {
        let plan = NetPlan::hostile(42, 0.3);
        let mut a = plan.link(0);
        let mut b = plan.link(1);
        let fa: Vec<_> = (0..64).map(|i| a.fate(SimTime(i))).collect();
        let fb: Vec<_> = (0..64).map(|i| b.fate(SimTime(i))).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn loss_rate_tracks_the_plan() {
        let mut link = NetPlan::ideal(7).with_loss(0.25).link(0);
        let lost = (0..2000)
            .filter(|&i| link.fate(SimTime(i)) == SendFate::LostRequest)
            .count();
        assert!((350..650).contains(&lost), "p=0.25 loss rate off: {lost}");
    }

    #[test]
    fn partition_window_black_holes_only_inside() {
        let plan = NetPlan::ideal(9).with_partition(PartitionEpisode::all(100, 200));
        let mut link = plan.link(0);
        assert_ne!(link.fate(SimTime(99)), SendFate::Partitioned);
        assert_eq!(link.fate(SimTime(100)), SendFate::Partitioned);
        assert_eq!(link.fate(SimTime(199)), SendFate::Partitioned);
        assert_ne!(link.fate(SimTime(200)), SendFate::Partitioned);
    }

    #[test]
    fn rank_scoped_partition_spares_other_ranks() {
        let plan = NetPlan::ideal(9).with_partition(PartitionEpisode::of_ranks(0, 100, vec![1]));
        assert_eq!(plan.link(1).fate(SimTime(50)), SendFate::Partitioned);
        assert_ne!(plan.link(0).fate(SimTime(50)), SendFate::Partitioned);
    }

    #[test]
    fn partition_does_not_consume_randomness() {
        // The fate sequence after the window must match a link that
        // never entered it: healing cannot shift the fault schedule.
        let faulty = NetPlan::hostile(11, 0.4).with_partition(PartitionEpisode::all(0, 50));
        let clean = NetPlan::hostile(11, 0.4);
        let mut a = faulty.link(2);
        let mut b = clean.link(2);
        for i in 0..50 {
            assert_eq!(a.fate(SimTime(i)), SendFate::Partitioned);
        }
        for i in 50..150 {
            assert_eq!(a.fate(SimTime(i)), b.fate(SimTime(i)));
        }
    }

    #[test]
    fn delay_stays_in_bounds() {
        let mut link = NetPlan::ideal(13).with_delay(10, 20).link(0);
        for i in 0..500 {
            if let SendFate::Delivered { delay, .. } = link.fate(SimTime(i)) {
                assert!((10..20).contains(&delay.as_nanos()), "{delay:?}");
            }
        }
    }

    #[test]
    fn hostile_plan_exercises_every_fault_kind() {
        let mut link = NetPlan::hostile(17, 0.3).link(0);
        let fates: Vec<_> = (0..500).map(|i| link.fate(SimTime(i))).collect();
        let seen = |f: fn(&SendFate) -> bool| fates.iter().any(f);
        assert!(seen(|f| *f == SendFate::LostRequest));
        assert!(seen(|f| matches!(f, SendFate::Delivered { copies: 2, .. })));
        assert!(seen(|f| matches!(f, SendFate::Delivered { ack_lost: true, .. })));
        assert!(seen(|f| matches!(f, SendFate::Delivered { reorder: true, .. })));
    }

    #[test]
    fn is_ideal_classification() {
        assert!(NetPlan::ideal(1).is_ideal());
        assert!(!NetPlan::ideal(1).with_loss(0.1).is_ideal());
        assert!(!NetPlan::ideal(1)
            .with_partition(PartitionEpisode::all(0, 1))
            .is_ideal());
        assert!(!NetPlan::ideal(1).with_delay(0, 5).is_ideal());
    }
}
