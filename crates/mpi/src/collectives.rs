//! Communication cost model: the barrier and point-to-point messages.

use provio_simrt::{LatencyBandwidth, SimDuration};

/// Interconnect parameters.
///
/// The barrier is modeled as a binomial tree: `ceil(log2(P))` rounds, each
/// paying the link latency. Defaults approximate a Cray Aries-class fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// One network hop.
    pub link: LatencyBandwidth,
    /// Fixed software overhead per call, per rank.
    pub call_overhead_ns: u64,
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel {
            link: LatencyBandwidth::new(1_500, 10_000_000_000), // 1.5 us, 10 GB/s
            call_overhead_ns: 500,
        }
    }
}

impl CommModel {
    fn rounds(ranks: u32) -> u32 {
        if ranks <= 1 {
            0
        } else {
            32 - (ranks - 1).leading_zeros()
        }
    }

    /// Cost of a barrier across `ranks`.
    pub fn barrier(&self, ranks: u32) -> SimDuration {
        let mut d = SimDuration::from_nanos(self.call_overhead_ns);
        for _ in 0..Self::rounds(ranks) {
            d = d.saturating_add(self.link.meta_cost());
        }
        d
    }

    /// Sender-side cost of one point-to-point message of `bytes`: the
    /// per-call software overhead plus a single hop's latency and
    /// transfer time — no tree, unlike the barrier. The streaming
    /// collection layer charges this per send attempt, so every retry
    /// over a lossy fabric costs virtual time.
    pub fn send(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.call_overhead_ns).saturating_add(self.link.cost(bytes))
    }

    /// Receiver-side cost of matching a point-to-point message: the same
    /// software overhead plus the metadata hop for the ack/completion
    /// handshake. The payload's wire time is charged to the sender by
    /// [`Self::send`], not double-charged here.
    pub fn recv(&self) -> SimDuration {
        SimDuration::from_nanos(self.call_overhead_ns).saturating_add(self.link.meta_cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_log2_ceil() {
        assert_eq!(CommModel::rounds(1), 0);
        assert_eq!(CommModel::rounds(2), 1);
        assert_eq!(CommModel::rounds(3), 2);
        assert_eq!(CommModel::rounds(4), 2);
        assert_eq!(CommModel::rounds(4096), 12);
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let m = CommModel::default();
        let b2 = m.barrier(2);
        let b4096 = m.barrier(4096);
        assert!(b4096 > b2);
        // 12 rounds vs 1 round.
        assert_eq!(
            b4096.as_nanos() - m.call_overhead_ns,
            12 * (b2.as_nanos() - m.call_overhead_ns)
        );
    }

    #[test]
    fn single_rank_collectives_are_overheads_only() {
        let m = CommModel::default();
        assert_eq!(m.barrier(1).as_nanos(), m.call_overhead_ns);
    }

    #[test]
    fn send_is_one_hop_plus_overhead() {
        let m = CommModel::default();
        assert_eq!(
            m.send(1 << 20).as_nanos(),
            m.call_overhead_ns + m.link.cost(1 << 20).as_nanos()
        );
        assert!(m.send(1 << 20) > m.send(8));
    }

    #[test]
    fn recv_charges_the_ack_hop_not_the_payload() {
        let m = CommModel::default();
        assert_eq!(
            m.recv().as_nanos(),
            m.call_overhead_ns + m.link.meta_cost().as_nanos()
        );
        assert!(m.recv() < m.send(1 << 20));
    }
}
