//! Deterministic, splittable random streams.
//!
//! Experiments must be reproducible run-to-run and independent of thread
//! scheduling, so every parallel agent derives its own stream from a
//! `(seed, stream-id)` pair via SplitMix64 — two agents never share a
//! generator and the derivation is order-independent.

/// SplitMix64 step, used to whiten (seed, stream) pairs into RNG seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ state.
#[derive(Debug, Clone)]
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn from_key(mut key: [u64; 4]) -> Self {
        if key == [0; 4] {
            // xoshiro must not start from the all-zero state.
            let mut x = 0x9E37_79B9u64;
            key = [(); 4].map(|()| splitmix64(&mut x));
        }
        Xoshiro(key)
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: Xoshiro,
    seed: u64,
    stream: u64,
}

impl DetRng {
    /// Root stream for a run.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0)
    }

    /// Stream `stream` of run `seed`. Distinct streams are statistically
    /// independent regardless of creation order.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.rotate_left(17).wrapping_mul(0xA24B_AED4_963E_E407);
        let key = [(); 4].map(|()| splitmix64(&mut s));
        DetRng {
            inner: Xoshiro::from_key(key),
            seed,
            stream,
        }
    }

    /// Derive a child stream; `(seed, stream)` of the child depends only on
    /// this stream's identity and `n`, not on how much this stream was used.
    pub fn child(&self, n: u64) -> DetRng {
        DetRng::with_stream(
            self.seed,
            self.stream
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(n)
                .wrapping_add(1),
        )
    }

    pub fn u64(&mut self) -> u64 {
        self.inner.next()
    }

    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.range(0, bound)
    }

    /// Uniform in `[lo, hi)`; the range must not be empty. Modulo bias is
    /// negligible for simulation-sized spans.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Fill `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            chunk.copy_from_slice(&self.u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    /// The streams themselves, as constants: every fault schedule, workload
    /// and golden digest in the workspace is a function of these bits.
    #[test]
    fn streams_are_pinned() {
        let mut root = DetRng::new(42);
        let first: Vec<u64> = (0..4).map(|_| root.u64()).collect();
        assert_eq!(
            first,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8
            ]
        );

        let mut s = DetRng::with_stream(42, 7);
        assert_eq!(s.u32(), 0xb424_9277);
        assert_eq!(s.below(1000), 649);
        assert_eq!(s.range(10, 20), 10);
        assert_eq!(s.f64(), 0.928_850_240_584_839_1);
        let mut buf = [0u8; 13];
        s.fill(&mut buf);
        assert_eq!(
            buf,
            [0xb6, 0xee, 0x5d, 0x46, 0xb5, 0xe2, 0x8b, 0x0e, 0x11, 0x60, 0xb3, 0x4a, 0xfd]
        );

        assert_eq!(DetRng::new(7).child(3).u64(), 0xdbd7_b949_8e57_ab0d);
    }

    #[test]
    fn zero_seed_escapes_fixed_point() {
        assert_ne!(Xoshiro::from_key([0; 4]).next(), 0);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = DetRng::with_stream(42, 0);
        let mut b = DetRng::with_stream(42, 1);
        let av: Vec<u64> = (0..8).map(|_| a.u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn child_is_usage_independent() {
        let mut a = DetRng::new(7);
        let b = DetRng::new(7);
        // Burn some values on `a`; children must still agree.
        for _ in 0..10 {
            a.u64();
        }
        let mut ca = a.child(3);
        let mut cb = b.child(3);
        for _ in 0..16 {
            assert_eq!(ca.u64(), cb.u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(2);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_edges_and_rough_rate() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..1000).filter(|_| r.chance(0.25)).count();
        assert!((150..350).contains(&hits), "p=0.25 hit rate off: {hits}");
    }

    #[test]
    fn fill_is_deterministic() {
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        let mut ba = [0u8; 64];
        let mut bb = [0u8; 64];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
    }
}
