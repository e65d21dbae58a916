//! Property tests: dataset hyperslab writes/reads against a reference
//! in-memory array model, and extendable-dataset semantics.

use proptest::prelude::*;
use provio_hdf5::{Data, Dataspace, Datatype, Hyperslab, NativeVol, VolConnector};
use provio_hpcfs::{Dispatcher, FileSystem, FsSession, LustreConfig};
use provio_simrt::VirtualClock;
use std::sync::Arc;

fn rig() -> (Arc<NativeVol>, FsSession) {
    let fs = FileSystem::new(LustreConfig::default());
    let vol = Arc::new(NativeVol::new(Arc::clone(&fs)));
    let s = FsSession::new(fs, 1, "p", "p", VirtualClock::new(), Dispatcher::new());
    (vol, s)
}

#[derive(Debug, Clone)]
struct Slab {
    start: u64,
    count: u64,
    fill: u8,
}

fn arb_slabs(dim: u64) -> impl Strategy<Value = Vec<Slab>> {
    proptest::collection::vec(
        (0..dim, 1..=dim, any::<u8>()).prop_map(move |(start, count, fill)| Slab {
            start,
            count: count.min(dim - start).max(1),
            fill,
        }),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rank-1 writes/reads agree with a byte-array reference model.
    #[test]
    fn rank1_matches_reference(dim in 4u64..64, slabs in arb_slabs(64)) {
        let slabs: Vec<Slab> = slabs
            .into_iter()
            .map(|s| Slab { start: s.start.min(dim - 1), count: s.count.min(dim - s.start.min(dim - 1)).max(1), fill: s.fill })
            .collect();
        let (vol, s) = rig();
        let f = vol.file_create(&s, "/p.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Int64, Dataspace::fixed(&[dim]))
            .unwrap();
        let mut model = vec![0u8; (dim * 8) as usize];
        for slab in &slabs {
            let bytes = vec![slab.fill; (slab.count * 8) as usize];
            vol.dataset_write(
                &s,
                d,
                &Hyperslab::new(&[slab.start], &[slab.count]),
                &Data::real(bytes.clone()),
            )
            .unwrap();
            model[(slab.start * 8) as usize..((slab.start + slab.count) * 8) as usize]
                .copy_from_slice(&bytes);
        }
        let got = vol
            .dataset_read(&s, d, &Hyperslab::new(&[0], &[dim]))
            .unwrap();
        match got {
            Data::Real(b) => prop_assert_eq!(&b[..], &model[..]),
            Data::Synthetic(n) => {
                prop_assert_eq!(n, dim * 8);
                prop_assert!(model.iter().all(|&x| x == 0));
            }
        }
    }

    /// Rank-2 row-block round trip.
    #[test]
    fn rank2_row_blocks(rows in 2u64..16, cols in 2u64..16, row in 0u64..16, fill in any::<u8>()) {
        let row = row.min(rows - 1);
        let (vol, s) = rig();
        let f = vol.file_create(&s, "/q.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "m", Datatype::Int32, Dataspace::fixed(&[rows, cols]))
            .unwrap();
        let bytes = vec![fill; (cols * 4) as usize];
        vol.dataset_write(
            &s,
            d,
            &Hyperslab::new(&[row, 0], &[1, cols]),
            &Data::real(bytes.clone()),
        )
        .unwrap();
        // Read just that row back.
        let got = vol
            .dataset_read(&s, d, &Hyperslab::new(&[row, 0], &[1, cols]))
            .unwrap();
        if fill == 0 {
            prop_assert_eq!(got.len(), cols * 4);
        } else {
            prop_assert_eq!(got.as_bytes().unwrap().as_ref(), &bytes[..]);
        }
        // Other rows stay zero.
        let other = (row + 1) % rows;
        if other != row {
            let z = vol
                .dataset_read(&s, d, &Hyperslab::new(&[other, 0], &[1, cols]))
                .unwrap();
            match z {
                Data::Real(b) => prop_assert!(b.iter().all(|&x| x == 0)),
                Data::Synthetic(n) => prop_assert_eq!(n, cols * 4),
            }
        }
    }

    /// Extending never loses previously written data.
    #[test]
    fn extend_preserves_prefix(chunks in 1u64..6, chunk in 2u64..16, fill in 1u8..255) {
        let (vol, s) = rig();
        let f = vol.file_create(&s, "/e.h5", true).unwrap();
        let space = Dataspace::with_max(&[0], &[None]).unwrap();
        let d = vol
            .dataset_create(&s, f, "log", Datatype::Int64, space)
            .unwrap();
        for c in 0..chunks {
            vol.dataset_extend(&s, d, &[(c + 1) * chunk]).unwrap();
            vol.dataset_write(
                &s,
                d,
                &Hyperslab::new(&[c * chunk], &[chunk]),
                &Data::real(vec![fill.wrapping_add(c as u8); (chunk * 8) as usize]),
            )
            .unwrap();
        }
        // Every chunk reads back with its own fill byte.
        for c in 0..chunks {
            let got = vol
                .dataset_read(&s, d, &Hyperslab::new(&[c * chunk], &[chunk]))
                .unwrap();
            let expect = fill.wrapping_add(c as u8);
            prop_assert!(
                got.as_bytes().unwrap().iter().all(|&b| b == expect),
                "chunk {} corrupted", c
            );
        }
    }

    /// Out-of-bounds selections always fail and never corrupt state.
    #[test]
    fn oob_selection_rejected(dim in 2u64..32, over in 1u64..8) {
        let (vol, s) = rig();
        let f = vol.file_create(&s, "/o.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Float32, Dataspace::fixed(&[dim]))
            .unwrap();
        let bad = Hyperslab::new(&[dim - 1], &[over + 1]);
        prop_assert!(vol
            .dataset_write(&s, d, &bad, &Data::synthetic((over + 1) * 4))
            .is_err());
        prop_assert!(vol.dataset_read(&s, d, &bad).is_err());
        // Valid ops still work afterwards.
        vol.dataset_write(
            &s,
            d,
            &Hyperslab::new(&[0], &[dim]),
            &Data::synthetic(dim * 4),
        )
        .unwrap();
    }
}
