//! Property tests for the fault-injection layer: torn writes persist
//! exactly the promised prefix, crash points never mutate anything beyond
//! their declared prefix, and fault schedules replay deterministically.

use proptest::prelude::*;
use provio_hpcfs::{FaultOp, FaultPlan, FaultRule, FileSystem, FsError, LustreConfig};
use provio_simrt::SimTime;
use std::sync::Arc;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A torn write persists exactly `min(keep, len)` bytes and reports
    /// EIO; the stored prefix is bit-identical to the buffer's prefix.
    #[test]
    fn torn_write_persists_exact_prefix(len in 1usize..2048, keep in 0u64..4096) {
        let fs = FileSystem::new(LustreConfig::default());
        let plan = FaultPlan::new(1);
        plan.add_rule(FaultRule::torn_write(keep).on_path("/victim"));
        fs.install_faults(plan);
        let data = payload(len);
        let ino = fs.create_file("/victim", false, "u", SimTime::ZERO).unwrap();
        prop_assert_eq!(fs.write_at(ino, 0, &data, SimTime::ZERO), Err(FsError::Io));
        let expect = keep.min(len as u64);
        prop_assert_eq!(fs.file_size(ino).unwrap(), expect);
        let stored = fs.read_at(ino, 0, expect).unwrap();
        prop_assert_eq!(&stored[..], &data[..expect as usize]);
    }

    /// A crash point on any armed op returns ESIMCRASH and leaves the
    /// namespace/content exactly as declared: nothing for create/rename/
    /// truncate, at most the torn prefix for write.
    #[test]
    fn crash_points_never_mutate_beyond_declared_prefix(
        op_pick in 0u8..5,
        has_torn in any::<bool>(),
        keep_raw in 0u64..64,
        len in 1usize..256,
    ) {
        let torn_keep = if has_torn { Some(keep_raw) } else { None };
        let op = [
            FaultOp::CreateFile,
            FaultOp::WriteAt,
            FaultOp::Rename,
            FaultOp::TruncateIno,
            FaultOp::Unlink,
        ][op_pick as usize];
        let fs = FileSystem::new(LustreConfig::default());
        let data = payload(len);
        // Pre-existing committed state the crash must not disturb.
        let ino = fs.create_file("/old", false, "u", SimTime::ZERO).unwrap();
        fs.write_at(ino, 0, &data, SimTime::ZERO).unwrap();

        let plan = FaultPlan::new(2);
        let mut rule = FaultRule::crash(op);
        if let Some(k) = torn_keep {
            rule = rule.torn(k);
        }
        plan.add_rule(rule);
        fs.install_faults(plan);

        match op {
            FaultOp::CreateFile => {
                prop_assert_eq!(
                    fs.create_file("/new", false, "u", SimTime::ZERO),
                    Err(FsError::Crashed)
                );
                prop_assert!(!fs.exists("/new"), "no inode materialized");
            }
            FaultOp::WriteAt => {
                let before = data.clone();
                let err = fs.write_at(ino, 0, &[0xAA; 300], SimTime::ZERO);
                prop_assert_eq!(err, Err(FsError::Crashed));
                let kept = torn_keep.unwrap_or(0).min(300);
                let now = fs.read_at(ino, 0, fs.file_size(ino).unwrap()).unwrap();
                // Declared prefix is the new bytes; the rest is untouched.
                for (i, b) in now.iter().enumerate() {
                    if (i as u64) < kept {
                        prop_assert_eq!(*b, 0xAA);
                    } else if i < before.len() {
                        prop_assert_eq!(*b, before[i]);
                    }
                }
            }
            FaultOp::Rename => {
                prop_assert_eq!(
                    fs.rename("/old", "/moved", SimTime::ZERO),
                    Err(FsError::Crashed)
                );
                prop_assert!(fs.exists("/old"), "source still in place");
                prop_assert!(!fs.exists("/moved"));
            }
            FaultOp::TruncateIno => {
                prop_assert_eq!(
                    fs.truncate_ino(ino, 0, SimTime::ZERO),
                    Err(FsError::Crashed)
                );
                prop_assert_eq!(fs.file_size(ino).unwrap(), len as u64, "size unchanged");
            }
            FaultOp::Unlink => {
                prop_assert_eq!(fs.unlink("/old"), Err(FsError::Crashed));
                prop_assert!(fs.exists("/old"), "victim still in place");
            }
            FaultOp::ReadAt => unreachable!("op_pick only draws mutating ops"),
        }
    }

    /// A probabilistic schedule replays identically for the same seed and
    /// rule set, independent of what the workload data looks like.
    #[test]
    fn schedules_replay_deterministically(seed in 0u64..1_000_000, p in 0.05f64..0.95) {
        let run = |seed: u64| -> Vec<bool> {
            let fs = FileSystem::new(LustreConfig::default());
            let plan = FaultPlan::new(seed);
            plan.add_rule(
                FaultRule::fail(FaultOp::WriteAt, FsError::NoSpace).with_probability(p),
            );
            fs.install_faults(plan);
            let ino = fs.create_file("/f", false, "u", SimTime::ZERO).unwrap();
            (0..32)
                .map(|i| fs.write_at(ino, i, b"x", SimTime::ZERO).is_err())
                .collect()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// End-to-end integrity property over the checksummed store format (the
/// dev-dependency on `provio-core` is the point: the *filesystem's* bit-rot
/// faults are exercised against the *store's* on-disk framing).
mod bit_rot_integrity {
    use super::*;
    use provio::{merge_directory, ProvenanceStore, RdfFormat};
    use provio_hpcfs::CorruptKind;
    use provio_rdf::{ntriples, Graph, Iri, Subject, Term, Triple};
    use std::collections::BTreeSet;

    fn triples(start: usize, n: usize) -> Vec<Triple> {
        (start..start + n)
            .map(|i| {
                Triple::new(
                    Subject::iri(format!("urn:s{i}")),
                    Iri::new("urn:p"),
                    Term::iri("urn:o"),
                )
            })
            .collect()
    }

    fn lines(g: &Graph) -> BTreeSet<String> {
        ntriples::serialize(g)
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// Build a checksummed store and leave its snapshot + delta segments on
    /// disk (no `finish`, so nothing gets compacted away).
    fn build_store(fs: &Arc<FileSystem>) {
        let st = ProvenanceStore::new(
            Arc::clone(fs),
            "/prov/prov_p0.nt".to_string(),
            RdfFormat::NTriples,
            false,
        )
        .with_checksums(true)
        .with_compact_every(0);
        for flush in 0..3 {
            st.push(triples(flush * 16, 16), None);
            st.flush(None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A single random bit-flip anywhere in any committed checksummed
        /// file is either detected (quarantine, dropped batch, or chain
        /// break — and then only verified triples merge) or harmless (the
        /// merged graph is bit-identical to the fault-free baseline). It
        /// NEVER silently alters or forges a triple.
        #[test]
        fn single_bit_flip_is_detected_or_harmless(
            seed in any::<u64>(),
            file_pick in any::<prop::sample::Index>(),
        ) {
            let fs = FileSystem::new(LustreConfig::default());
            build_store(&fs);
            let (baseline, rb) = merge_directory(&fs, "/prov");
            prop_assert!(rb.corrupt.is_empty() && rb.quarantined.is_empty());
            prop_assert_eq!(rb.chain_breaks, 0);
            let baseline_lines = lines(&baseline);

            let files = fs.walk_files("/prov").unwrap();
            prop_assert_eq!(files.len(), 3, "snapshot + two delta segments");
            let victim = &files[file_pick.index(files.len())];
            let flipped = fs
                .corrupt_at_rest(victim, &CorruptKind::BitFlips { count: 1 }, seed)
                .unwrap();
            prop_assert_eq!(flipped, 1);

            let (merged, report) = merge_directory(&fs, "/prov");
            let merged_lines = lines(&merged);
            prop_assert!(
                merged_lines.is_subset(&baseline_lines),
                "a bit-flip must never put a triple into the merge that the \
                 fault-free run would not have produced (victim {}, seed {})",
                victim,
                seed
            );
            let detected = !report.corrupt.is_empty()
                || !report.quarantined.is_empty()
                || report.chain_breaks > 0;
            if !detected {
                prop_assert_eq!(
                    &merged_lines,
                    &baseline_lines,
                    "an undetected flip must be harmless: identical merge \
                     (victim {}, seed {})",
                    victim,
                    seed
                );
            }
        }
    }
}

/// Adversarial counterpart to `bit_rot_integrity`: the same store is
/// *sealed* (signed manifest + campaign ledger), and the mutations are
/// format-aware forgeries instead of blind rot. The property is the
/// tamper-evidence contract: any single seeded mutation anywhere in the
/// run directory is either detected by `verify` or provably harmless
/// (`affected == 0`, bytes untouched) — and a clean sealed run never
/// yields a false positive.
mod tamper_trust {
    use super::*;
    use provio::verify::{read_ledger, seal_run};
    use provio::{
        merge_directory, recover_all, scrub_directory, verify_directory, FileVerdict,
        ProvenanceStore, RdfFormat,
    };
    use provio_hpcfs::{CorruptKind, TamperKind};

    const KEY: &str = "prop-campaign-key";

    fn build_sealed_run(fs: &Arc<FileSystem>) {
        let st = ProvenanceStore::new(
            Arc::clone(fs),
            "/prov/prov_p0.nt".to_string(),
            RdfFormat::NTriples,
            false,
        )
        .with_checksums(true)
        .with_compact_every(0);
        for flush in 0..3 {
            st.push(
                (flush * 16..flush * 16 + 16)
                    .map(|i| {
                        provio_rdf::Triple::new(
                            provio_rdf::Subject::iri(format!("urn:s{i}")),
                            provio_rdf::Iri::new("urn:p"),
                            provio_rdf::Term::iri("urn:o"),
                        )
                    })
                    .collect(),
                None,
            );
            st.flush(None);
        }
        seal_run(fs, "/prov", KEY, &[]).unwrap();
    }

    /// A sealed run holding every kind of artifact the read side decodes:
    /// snapshot, delta segments, a journal with an unflushed tail, parity
    /// files of both planes, the manifest and the ledger.
    fn build_full_run(fs: &Arc<FileSystem>) {
        let st = ProvenanceStore::new(
            Arc::clone(fs),
            "/prov/prov_p0.nt".to_string(),
            RdfFormat::NTriples,
            false,
        )
        .with_checksums(true)
        .with_compact_every(0)
        .with_wal(true, 2)
        .with_parity(true, 2);
        let batch = |from: usize| {
            (from..from + 8)
                .map(|i| {
                    provio_rdf::Triple::new(
                        provio_rdf::Subject::iri(format!("urn:s{i}")),
                        provio_rdf::Iri::new("urn:p"),
                        provio_rdf::Term::iri("urn:o"),
                    )
                })
                .collect::<Vec<_>>()
        };
        for flush in 0..3 {
            st.push(batch(flush * 8), None);
            st.flush(None);
        }
        st.push(batch(24), None);
        st.push(batch(32), None);
        st.wal_sync();
        seal_run(fs, "/prov", KEY, &[]).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any single tamper mutation — against any file in the run
        /// directory, store files and trust artifacts alike — is detected
        /// or provably harmless, with zero false positives and a verdict
        /// that is stable under re-verify.
        #[test]
        fn any_single_tamper_is_detected_or_provably_harmless(
            seed in any::<u64>(),
            kind_pick in 0u8..4,
            file_pick in any::<prop::sample::Index>(),
        ) {
            let fs = FileSystem::new(LustreConfig::default());
            build_sealed_run(&fs);
            let clean = verify_directory(&fs, "/prov", KEY);
            prop_assert!(clean.is_trusted(), "false positive on a clean run: {}", clean);

            // The adversary may aim any mutation at any file; kinds that
            // find no valid target there must leave the bytes untouched.
            let files = fs.walk_files("/prov").unwrap();
            let victim = files[file_pick.index(files.len())].clone();
            let kind = [
                TamperKind::CrcPatchedRewrite,
                TamperKind::FileSubstitution,
                TamperKind::ManifestEdit,
                TamperKind::LedgerTruncate,
            ][kind_pick as usize];
            let affected = fs.tamper_at_rest(&victim, &kind, seed).unwrap();

            let report = verify_directory(&fs, "/prov", KEY);
            if affected == 0 {
                prop_assert!(
                    report.is_trusted(),
                    "a no-op mutation must not change the verdict \
                     (kind {:?}, victim {}, seed {}): {}",
                    kind, victim, seed, report
                );
            } else {
                // Detected: either the trust tier condemns the run, or the
                // mutation degenerated to rot (e.g. a truncation aimed at
                // a store file) and the CRC tier accounts it as damage —
                // visible either way, never a silent pass.
                let visible = !report.is_trusted()
                    || report.count(FileVerdict::Damaged) > 0
                    || report.count(FileVerdict::Missing) > 0;
                prop_assert!(
                    visible,
                    "undetected tamper (kind {:?}, victim {}, seed {}): {}",
                    kind, victim, seed, report
                );
                // Blast radius: every Tampered row names the mutated file
                // (an edited manifest additionally demotes store rows to
                // Unsigned — unjudgeable, not misattributed).
                for c in &report.checks {
                    if c.verdict == FileVerdict::Tampered {
                        prop_assert_eq!(
                            c.path.as_str(), victim.as_str(),
                            "misattributed blast radius (kind {:?}, seed {})",
                            kind, seed
                        );
                    }
                }
                if matches!(
                    kind,
                    TamperKind::CrcPatchedRewrite | TamperKind::FileSubstitution
                ) {
                    // The CRC-patched kinds never masquerade as rot: every
                    // frame check passes, only the signed root disagrees.
                    prop_assert!(!report.is_trusted(), "{}", report);
                    prop_assert_eq!(report.count(FileVerdict::Damaged), 0, "{}", report);
                }
            }
            // Verifying is read-only, so the verdict is reproducible.
            let again = verify_directory(&fs, "/prov", KEY);
            prop_assert_eq!(report.to_string(), again.to_string());
        }

        /// Recovery runs on exactly the disks that are damaged, so no tier
        /// that decodes — scrub, merge, verify, the ledger reader, or all
        /// of them as `recover_all` — panics on any damage to any
        /// artifact: rot of every kind, arbitrary bytes, and the damaged
        /// file left under its tmp or quarantined name. Rot never forges a
        /// triple, and recovering the recovered directory again moves no
        /// byte.
        #[test]
        fn no_tier_panics_on_any_damage_to_any_artifact(
            seed in any::<u64>(),
            kind_pick in 0u8..5,
            file_pick in any::<prop::sample::Index>(),
            wrapper in prop_oneof![Just(""), Just(".tmp"), Just(".quarantine")],
            junk in prop::collection::vec(any::<u8>(), 0..200),
        ) {
            let fs = FileSystem::new(LustreConfig::default());
            build_full_run(&fs);
            let (baseline, _) = merge_directory(&fs, "/prov");
            let files = fs.walk_files("/prov").unwrap();
            for role in [".d0", ".w0", ".p0", "MANIFEST", "CAMPAIGN"] {
                prop_assert!(files.iter().any(|p| p.contains(role)), "{role} in {files:?}");
            }
            let victim = &files[file_pick.index(files.len())];
            let rot = [
                CorruptKind::BitFlips { count: 1 + (seed % 8) as u32 },
                CorruptKind::Truncate,
                CorruptKind::DuplicateBlock { len: 1 + seed % 64 },
                CorruptKind::ZeroFill,
            ];
            match rot.get(kind_pick as usize) {
                Some(kind) => drop(fs.corrupt_at_rest(victim, kind, seed).unwrap()),
                None => {
                    let ino = fs.lookup(victim).unwrap();
                    fs.truncate_ino(ino, 0, SimTime::ZERO).unwrap();
                    fs.write_at(ino, 0, &junk, SimTime::ZERO).unwrap();
                }
            }
            if !wrapper.is_empty() {
                fs.rename(victim, &format!("{victim}{wrapper}"), SimTime::ZERO).unwrap();
            }

            let _ = scrub_directory(&fs, "/prov");
            let _ = verify_directory(&fs, "/prov", KEY);
            let _ = read_ledger(&fs, "/prov");
            let first = recover_all(&fs, "/prov", Some(KEY));
            if (kind_pick as usize) < rot.len() {
                for t in first.graph.iter() {
                    prop_assert!(baseline.contains(&t), "forged {t:?} ({victim}, seed {seed})");
                }
            }
            let image = || -> Vec<(String, Vec<u8>)> {
                let read = |p: String| {
                    let ino = fs.lookup(&p).unwrap();
                    let bytes = fs.read_at(ino, 0, fs.file_size(ino).unwrap()).unwrap();
                    (p, bytes.to_vec())
                };
                fs.walk_files("/prov").unwrap().into_iter().map(read).collect()
            };
            let recovered = image();
            let second = recover_all(&fs, "/prov", Some(KEY));
            prop_assert!(image() == recovered, "second pass moved bytes ({victim}, seed {seed})");
            prop_assert_eq!(first.graph.len(), second.graph.len());
        }
    }
}

#[test]
fn transient_rule_recovers_after_n_failures() {
    let fs = FileSystem::new(LustreConfig::default());
    let plan = FaultPlan::new(3);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).times(3));
    fs.install_faults(Arc::clone(&plan));
    let ino = fs.create_file("/t", false, "u", SimTime::ZERO).unwrap();
    for _ in 0..3 {
        assert_eq!(fs.write_at(ino, 0, b"abc", SimTime::ZERO), Err(FsError::Io));
    }
    assert!(fs.write_at(ino, 0, b"abc", SimTime::ZERO).is_ok());
    assert_eq!(plan.injected(), 3);
    assert_eq!(fs.file_size(ino).unwrap(), 3);
}

#[test]
fn clearing_faults_restores_clean_operation() {
    let fs = FileSystem::new(LustreConfig::default());
    let plan = FaultPlan::new(4);
    plan.add_rule(FaultRule::fail(FaultOp::CreateFile, FsError::NoSpace));
    fs.install_faults(plan);
    assert_eq!(
        fs.create_file("/x", false, "u", SimTime::ZERO),
        Err(FsError::NoSpace)
    );
    fs.clear_faults();
    assert!(fs.create_file("/x", false, "u", SimTime::ZERO).is_ok());
}

#[test]
fn renamed_files_keep_matching_path_rules() {
    // Path-filtered WriteAt rules must track a file across rename — the
    // store's tmp file becomes the committed path.
    let fs = FileSystem::new(LustreConfig::default());
    let plan = FaultPlan::new(5);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::Io).on_path("/final"));
    fs.install_faults(plan);
    let ino = fs.create_file("/staging", false, "u", SimTime::ZERO).unwrap();
    assert!(fs.write_at(ino, 0, b"ok", SimTime::ZERO).is_ok(), "no match yet");
    fs.rename("/staging", "/final", SimTime::ZERO).unwrap();
    assert_eq!(
        fs.write_at(ino, 0, b"boom", SimTime::ZERO),
        Err(FsError::Io),
        "rule follows the inode to its new path"
    );
}

/// Self-healing property over the parity-protected store: the filesystem's
/// at-rest damage primitives (rot and deletion) are exercised against the
/// store's XOR parity groups, and `scrub` must restore any single loss per
/// group *byte-identically* — or, beyond tolerance, refuse to guess and
/// report exactly what was lost.
mod parity_scrub {
    use super::*;
    use provio::{merge_directory, repairable_paths, scrub_directory, ProvenanceStore, RdfFormat};
    use provio_hpcfs::CorruptKind;
    use provio_rdf::{ntriples, Graph, Iri, Subject, Term, Triple};
    use std::collections::{BTreeMap, BTreeSet};

    fn triples(start: usize, n: usize) -> Vec<Triple> {
        (start..start + n)
            .map(|i| {
                Triple::new(
                    Subject::iri(format!("urn:s{i}")),
                    Iri::new("urn:p"),
                    Term::iri("urn:o"),
                )
            })
            .collect()
    }

    fn lines(g: &Graph) -> BTreeSet<String> {
        ntriples::serialize(g)
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// A checksummed, parity-protected store left uncompacted: snapshot +
    /// delta segments with their sealed `.par` groups still on disk.
    fn build_parity_store(fs: &Arc<FileSystem>, group: u32) {
        let st = ProvenanceStore::new(
            Arc::clone(fs),
            "/prov/prov_p0.nt".to_string(),
            RdfFormat::NTriples,
            false,
        )
        .with_checksums(true)
        .with_compact_every(0)
        .with_parity(true, group);
        for flush in 0..4 {
            st.push(triples(flush * 16, 16), None);
            st.flush(None);
        }
    }

    fn image(fs: &Arc<FileSystem>) -> BTreeMap<String, Vec<u8>> {
        fs.walk_files("/prov")
            .unwrap()
            .into_iter()
            .map(|p| {
                let ino = fs.lookup(&p).unwrap();
                let n = fs.stat(&p).unwrap().size;
                let bytes = fs.read_at(ino, 0, n).unwrap().to_vec();
                (p, bytes)
            })
            .collect()
    }

    /// Member paths recorded by one parity file (whole-file members only —
    /// this store has no journal plane).
    fn group_members(fs: &Arc<FileSystem>, par: &str) -> Vec<String> {
        let ino = fs.lookup(par).unwrap();
        let n = fs.stat(par).unwrap().size;
        let text = String::from_utf8(fs.read_at(ino, 0, n).unwrap().to_vec()).unwrap();
        text.lines()
            .filter_map(|l| l.split_once("path=").map(|(_, p)| p.to_string()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any single covered artifact — snapshot, delta segment, or the
        /// parity file itself — damaged or deleted, is restored to the
        /// exact sealed bytes (a damaged parity file regenerates, a rotted
        /// member reconstructs, and only a destroyed member *batch* may
        /// honestly cost redundancy — never data).
        #[test]
        fn single_loss_per_group_restores_byte_identical(
            seed in any::<u64>(),
            group in 1u32..4,
            pick in any::<prop::sample::Index>(),
            delete in any::<bool>(),
        ) {
            let fs = FileSystem::new(LustreConfig::default());
            build_parity_store(&fs, group);
            let before = image(&fs);
            let (baseline, _) = merge_directory(&fs, "/prov");
            let baseline_lines = lines(&baseline);

            let mut covered: Vec<String> =
                repairable_paths(&fs, "/prov").into_iter().collect();
            covered.sort();
            prop_assert!(!covered.is_empty());
            let victim = covered[pick.index(covered.len())].clone();
            let is_par = victim.ends_with(".par");
            if delete {
                fs.unlink(&victim).unwrap();
            } else {
                fs.corrupt_at_rest(&victim, &CorruptKind::BitFlips { count: 1 }, seed)
                    .unwrap();
            }

            let report = scrub_directory(&fs, "/prov");
            let healed = image(&fs);
            if is_par && delete {
                // A deleted parity file takes its member records with it:
                // the group is no longer discoverable, so nothing can (or
                // should) be rebuilt — and nothing else may be touched.
                prop_assert!(report.is_clean(), "{}", report);
                for (path, bytes) in &before {
                    if path != &victim {
                        prop_assert_eq!(healed.get(path), Some(bytes), "{}", path);
                    }
                }
            } else if is_par {
                // A rotted parity file either regenerates byte-identical
                // (the member records survived) or is honestly declared
                // unusable (the flip landed in the member batch) — and in
                // both cases every data artifact is untouched.
                let regenerated = report.repaired_parity.contains(&victim);
                let written_off = report.unusable_parity.contains(&victim);
                prop_assert!(regenerated || written_off, "{}", report);
                prop_assert!(report.unrecoverable.is_empty(), "{}", report);
                for (path, bytes) in &before {
                    if regenerated || path != &victim {
                        prop_assert_eq!(healed.get(path), Some(bytes), "{}", path);
                    }
                }
            } else {
                // A lost or rotted member reconstructs exactly.
                prop_assert!(
                    report.repaired_files.contains(&victim),
                    "victim {} not repaired (delete={}): {}",
                    victim, delete, report
                );
                for (path, bytes) in &before {
                    prop_assert_eq!(healed.get(path), Some(bytes), "{}", path);
                }
            }

            let (merged, mrep) = merge_directory(&fs, "/prov");
            prop_assert_eq!(lines(&merged), baseline_lines);
            prop_assert!(mrep.corrupt.is_empty() && mrep.quarantined.is_empty());
        }

        /// Two members lost in the *same* group exceed XOR tolerance: scrub
        /// must refuse to fabricate bytes, report exactly the lost pair,
        /// leave every surviving file untouched, and hand the loss to the
        /// merge tier's accounting (missing sub-graphs, never forgeries).
        #[test]
        fn double_loss_in_one_group_is_reported_not_guessed(
            seed in any::<u64>(),
            group in 2u32..4,
            pair in any::<prop::sample::Index>(),
        ) {
            let fs = FileSystem::new(LustreConfig::default());
            build_parity_store(&fs, group);
            let before = image(&fs);
            let (baseline, _) = merge_directory(&fs, "/prov");
            let baseline_lines = lines(&baseline);

            let mut pars: Vec<String> = fs
                .walk_files("/prov")
                .unwrap()
                .into_iter()
                .filter(|p| p.ends_with(".par"))
                .collect();
            pars.sort();
            let full: Vec<(String, Vec<String>)> = pars
                .iter()
                .map(|p| (p.clone(), group_members(&fs, p)))
                .filter(|(_, m)| m.len() >= 2)
                .collect();
            prop_assert!(!full.is_empty(), "a multi-member group exists at width {}", group);
            let (_, members) = &full[pair.index(full.len())];
            let a = members[0].clone();
            let b = members[1].clone();
            fs.unlink(&a).unwrap();
            fs.corrupt_at_rest(&b, &CorruptKind::ZeroFill, seed).unwrap();

            let report = scrub_directory(&fs, "/prov");
            let mut lost = report.unrecoverable.clone();
            lost.sort();
            let mut expect = vec![a.clone(), b.clone()];
            expect.sort();
            prop_assert_eq!(lost, expect, "{}", report);
            prop_assert!(report.repaired_files.is_empty(), "no partial guesses: {}", report);
            let healed = image(&fs);
            for (path, bytes) in &before {
                if path != &a && path != &b {
                    prop_assert_eq!(healed.get(path), Some(bytes), "{}", path);
                }
            }

            // PR 4/5 loss accounting takes over: the merge shrinks (or at
            // worst flags damage); it never invents triples.
            let (merged, _) = merge_directory(&fs, "/prov");
            prop_assert!(lines(&merged).is_subset(&baseline_lines));
        }
    }
}
