//! Property tests: sparse file content vs. a reference byte-vector model,
//! and namespace operations vs. a reference map model.

use proptest::prelude::*;
use provio_hpcfs::{FileContent, FileSystem, LustreConfig};
use provio_simrt::SimTime;
use std::collections::HashMap;

/// Where a real write lands, relative to the materialized runs the model
/// holds when it is applied: every case the content store distinguishes —
/// adopt the buffer, or merge it with the segments it touches.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Touches no materialized byte (not even at an edge).
    Fresh,
    /// Overlaps a run.
    Overlap,
    /// Ends where a run starts, or starts where one ends.
    Adjacent,
    /// At the end of the file.
    Append,
    /// Past the end of the file, leaving a hole.
    Sparse,
}

#[derive(Debug, Clone)]
enum ContentOp {
    Write { place: Place, pick: u16, data: Vec<u8> },
    Synthetic { offset: u16, len: u16 },
    Truncate { size: u16 },
}

fn arb_content_op() -> impl Strategy<Value = ContentOp> {
    let place = prop_oneof![
        Just(Place::Fresh),
        Just(Place::Overlap),
        Just(Place::Adjacent),
        Just(Place::Append),
        Just(Place::Sparse),
    ];
    prop_oneof![
        (place, any::<u16>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(place, pick, data)| ContentOp::Write { place, pick, data }),
        (0u16..512, 1u16..256)
            .prop_map(|(offset, len)| ContentOp::Synthetic { offset, len }),
        (0u16..768).prop_map(|size| ContentOp::Truncate { size }),
    ]
}

/// The reference: a flat byte vector, and which of its bytes a real write
/// materialized.
#[derive(Default)]
struct Model {
    bytes: Vec<u8>,
    real: Vec<bool>,
}

impl Model {
    fn resize(&mut self, len: usize) {
        self.bytes.resize(len, 0);
        self.real.resize(len, false);
    }

    /// Materialized runs, as half-open ranges.
    fn runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut at = 0;
        while at < self.real.len() {
            if self.real[at] {
                let start = at;
                while at < self.real.len() && self.real[at] {
                    at += 1;
                }
                runs.push((start, at));
            } else {
                at += 1;
            }
        }
        runs
    }

    /// Is any byte of `[lo, hi)` materialized?
    fn touches(&self, lo: usize, hi: usize) -> bool {
        (lo..hi.min(self.real.len())).any(|i| self.real[i])
    }

    /// The offset a `len`-byte write placed by `place` lands at.
    fn offset(&self, place: Place, pick: usize, len: usize) -> usize {
        let runs = self.runs();
        let run = (!runs.is_empty()).then(|| runs[pick % runs.len()]);
        match (place, run) {
            (Place::Overlap, Some((lo, hi))) => (lo + pick % (hi - lo)).saturating_sub(len / 2),
            (Place::Adjacent, Some((lo, _))) if pick.is_multiple_of(2) && lo >= len => lo - len,
            (Place::Adjacent, Some((_, hi))) => hi,
            (Place::Append, _) => self.bytes.len(),
            (Place::Sparse, _) => self.bytes.len() + 1 + pick % 64,
            _ => (pick % (self.bytes.len() + 64)..)
                .find(|&at| !self.touches(at.saturating_sub(1), at + len + 1))
                .expect("past the last run nothing is touched"),
        }
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        if self.bytes.len() < offset + data.len() {
            self.resize(offset + data.len());
        }
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
        self.real[offset..offset + data.len()].fill(true);
    }

    fn window(&self, offset: usize, len: usize) -> &[u8] {
        let lo = offset.min(self.bytes.len());
        &self.bytes[lo..self.bytes.len().min(offset + len)]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FileContent behaves exactly like a byte vector with zero-fill
    /// semantics: after every operation its length, its resident bytes
    /// and reads at windows inside a run, across runs and holes, and past
    /// the end all agree with the model's.
    #[test]
    fn content_matches_reference_model(ops in proptest::collection::vec(arb_content_op(), 1..40)) {
        let mut sys = FileContent::new();
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match op {
                ContentOp::Write { place, pick, data } => {
                    let off = model.offset(*place, *pick as usize, data.len());
                    sys.write(off as u64, data);
                    model.write(off, data);
                }
                ContentOp::Synthetic { offset, len } => {
                    let end = *offset as usize + *len as usize;
                    sys.write_synthetic(*offset as u64, *len as u64);
                    if model.bytes.len() < end {
                        model.resize(end);
                    }
                }
                ContentOp::Truncate { size } => {
                    sys.truncate(*size as u64);
                    model.resize(*size as usize);
                }
            }
            prop_assert_eq!(sys.len(), model.bytes.len() as u64, "len after step {}", step);
            let resident = model.real.iter().filter(|&&r| r).count() as u64;
            prop_assert_eq!(sys.resident_bytes(), resident, "resident after step {}", step);
            let len = model.bytes.len();
            let mut windows = vec![(0, len + 8), (len / 3, 17), (len.saturating_sub(5), 64)];
            for (lo, hi) in model.runs() {
                windows.push((lo, hi - lo));
                windows.push((lo + (hi - lo) / 2, (hi - lo).div_ceil(2)));
                windows.push((lo.saturating_sub(3), hi - lo + 6));
            }
            for (offset, n) in windows {
                let got = sys.read(offset as u64, n as u64);
                prop_assert_eq!(&got[..], model.window(offset, n), "window {}+{} after step {}", offset, n, step);
            }
        }
        prop_assert_eq!(sys.to_vec(), model.bytes.clone());
    }
}

#[derive(Debug, Clone)]
enum NsOp {
    Create(u8),
    Unlink(u8),
    RenameTo(u8, u8),
    WriteBytes(u8, Vec<u8>),
}

fn arb_ns_op() -> impl Strategy<Value = NsOp> {
    prop_oneof![
        (0u8..12).prop_map(NsOp::Create),
        (0u8..12).prop_map(NsOp::Unlink),
        (0u8..12, 0u8..12).prop_map(|(a, b)| NsOp::RenameTo(a, b)),
        ((0u8..12), proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(f, d)| NsOp::WriteBytes(f, d)),
    ]
}

fn path(n: u8) -> String {
    format!("/w/f{n}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Namespace operations agree with a HashMap<name, contents> model.
    #[test]
    fn namespace_matches_reference_model(ops in proptest::collection::vec(arb_ns_op(), 1..50)) {
        let fs = FileSystem::new(LustreConfig::default());
        fs.mkdir("/w", "u", SimTime::ZERO).unwrap();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        let t = SimTime::ZERO;

        for op in &ops {
            match op {
                NsOp::Create(n) => {
                    let sys = fs.create_file(&path(*n), true, "u", t);
                    if model.contains_key(n) {
                        prop_assert!(sys.is_err());
                    } else {
                        prop_assert!(sys.is_ok());
                        model.insert(*n, Vec::new());
                    }
                }
                NsOp::Unlink(n) => {
                    let sys = fs.unlink(&path(*n));
                    prop_assert_eq!(sys.is_ok(), model.remove(n).is_some());
                }
                NsOp::RenameTo(a, b) => {
                    let sys = fs.rename(&path(*a), &path(*b), t);
                    if let Some(content) = model.get(a).cloned() {
                        prop_assert!(sys.is_ok());
                        model.remove(a);
                        if a != b {
                            model.insert(*b, content);
                        } else {
                            model.insert(*a, content);
                        }
                    } else {
                        prop_assert!(sys.is_err());
                    }
                }
                NsOp::WriteBytes(n, data) => {
                    match fs.lookup(&path(*n)) {
                        Ok(ino) => {
                            prop_assert!(model.contains_key(n));
                            fs.write_at(ino, 0, data, t).unwrap();
                            let entry = model.get_mut(n).unwrap();
                            if entry.len() < data.len() {
                                entry.resize(data.len(), 0);
                            }
                            entry[..data.len()].copy_from_slice(data);
                        }
                        Err(_) => prop_assert!(!model.contains_key(n)),
                    }
                }
            }
        }

        // Directory listing matches the model's keys.
        let mut listed = fs.readdir("/w").unwrap();
        listed.sort();
        let mut expected: Vec<String> = model.keys().map(|n| format!("f{n}")).collect();
        expected.sort();
        prop_assert_eq!(listed, expected);

        // Contents match.
        for (n, want) in &model {
            let ino = fs.lookup(&path(*n)).unwrap();
            let got = fs.read_at(ino, 0, want.len() as u64 + 8).unwrap();
            prop_assert_eq!(&got[..], &want[..]);
        }
    }
}

mod lustre_props {
    use proptest::prelude::*;
    use provio_hpcfs::LustreConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Transfer cost always sits between the perfectly-parallel lower
        /// bound (all stripes share the bytes) and the serial upper bound
        /// (one OST moves everything). Note: cost is deliberately NOT
        /// monotone in bytes at stripe boundaries — a slightly larger
        /// transfer that engages one more OST can finish sooner, which is
        /// real striping behavior.
        #[test]
        fn data_op_bounded_by_parallelism(
            stripe_count in 1u32..256,
            stripe_size in (1u64 << 16)..(1u64 << 26),
            bytes in 1u64..(1 << 40),
        ) {
            let cfg = LustreConfig { stripe_count, stripe_size, ..Default::default() };
            let cost = cfg.data_op(bytes).as_nanos();
            let fixed = cfg.client_overhead_ns + cfg.ost.latency_ns;
            let serial = fixed + cfg.ost.cost(bytes).as_nanos() - cfg.ost.latency_ns;
            // ceil division in the per-OST share can add one element's
            // worth of slack per stripe.
            let parallel_floor = fixed
                + ((bytes / stripe_count as u64) as u128 * 1_000_000_000u128
                    / cfg.ost.bytes_per_sec as u128) as u64;
            prop_assert!(cost <= serial + 1, "{cost} > serial {serial}");
            prop_assert!(cost + 2 >= parallel_floor, "{cost} < floor {parallel_floor}");
        }

        /// Striping never makes a transfer slower than a single-stripe
        /// config, and never faster than perfect stripe_count-way speedup.
        #[test]
        fn striping_speedup_bounded(
            stripe_count in 2u32..128,
            bytes in 1u64..(1 << 38),
        ) {
            let striped = LustreConfig { stripe_count, ..Default::default() };
            let single = LustreConfig { stripe_count: 1, ..Default::default() };
            let s = striped.data_op(bytes).as_nanos();
            let u = single.data_op(bytes).as_nanos();
            prop_assert!(s <= u, "striping can't hurt: {s} > {u}");
            // Perfect speedup bound, modulo the fixed latency term.
            let fixed = striped.client_overhead_ns + striped.ost.latency_ns;
            let s_var = s.saturating_sub(fixed) as u128;
            let u_var = u.saturating_sub(fixed) as u128;
            prop_assert!(
                s_var * (stripe_count as u128) + (stripe_count as u128) >= u_var,
                "super-linear speedup: {s_var} x{stripe_count} < {u_var}"
            );
        }

        /// fsync dominates a metadata op and grows with dirty bytes.
        #[test]
        fn fsync_ordering(dirty in 0u64..(1 << 36)) {
            let cfg = LustreConfig::default();
            prop_assert!(cfg.fsync_op(dirty) >= cfg.meta_op());
            prop_assert!(cfg.fsync_op(dirty) >= cfg.fsync_op(0));
        }
    }
}
