//! Host-speed calibration.
//!
//! The shared 2-core sandbox this benchmark has to be steady on changes
//! speed by 1.3–1.8× for minutes at a time (SMT siblings and neighbours come
//! and go), and when it does every stage of a repetition slows together.
//! No number of repetitions inside one process averages that away: over
//! two sets of ten runs per workload a timing's spread is 13% in the median
//! and up to 44% as clocked, and the benchmark contract allows no bound
//! over 25%. So a fixed reference kernel — plain `std` formatting, hashing,
//! allocation and sorting, sharing no code with the program under test —
//! is sampled around the stages of a repetition, and the repetition's times
//! are rescaled to what they would be on a host running that kernel in
//! [`NOMINAL_S`] (the same runs then spread 7% in the median, 18% at most).
//! Times as clocked and the factor are kept in the result files.
//!
//! A sample is taken only while the program under test is quiescent —
//! before a capture starts, and after `finish_all`, `merge_directory`, a
//! query pass or `recover_all` has returned, when no store writer, pool or
//! merge thread has work left — and never inside a timed interval. So the
//! program can neither hide work behind a sample nor compete with one, and
//! a change to the program shows in full while a change in host speed
//! moves both and cancels.
//!
//! [`NOMINAL_S`] only fixes the unit: gated values read as seconds on the
//! sizing host in its fast state, and on any other host as a fixed multiple
//! of that host's own speed. Comparisons between two commits, which is all
//! a bound is used for, do not depend on it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host the benchmark was sized on, in its fast
/// state. Fixed: changing it rescales every timing the benchmark gates.
pub const NOMINAL_S: f64 = 0.0165;

/// Sized by experiment: ten back-to-back runs per workload with this
/// kernel cut spreads from 13–32% to 3–9%; a kernel half as long, fastest
/// of three, tracked the stages worse than not rescaling at all.
const KEYS: u64 = 48 * 1024;

/// Format, hash, insert, then sort: the instruction mix of provenance
/// capture (GUID strings into hash-indexed graphs) and of rendering
/// (sorted lines), over a few MiB so caches matter as they do there.
fn kernel() -> u64 {
    let mut map: HashMap<String, u64> = HashMap::with_capacity(1024);
    for i in 0..KEYS {
        let mixed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = format!("urn:calib:obj/{}/{:08x}", mixed >> 58, mixed as u32);
        *map.entry(key).or_insert(0) += mixed >> 32;
    }
    let mut keys: Vec<(&String, &u64)> = map.iter().collect();
    keys.sort_unstable();
    keys.iter()
        .step_by(97)
        .fold(0u64, |acc, (k, v)| acc.wrapping_add(k.len() as u64 ^ **v))
}

/// Seconds the reference kernel takes right now.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The factor that rescales a time measured among these reference samples
/// to the nominal host: below 1 when the host is currently slow.
pub fn factor(references_s: &[f64]) -> f64 {
    NOMINAL_S / (references_s.iter().sum::<f64>() / references_s.len() as f64)
}

/// A value as clocked, rescaled to the nominal host: a time is multiplied
/// by the factor, a rate divided by it; bytes, sizes and shares do not
/// depend on host speed.
pub fn at_nominal_speed(unit: &str, as_clocked: f64, factor: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => as_clocked * factor,
        "1/s" => as_clocked / factor,
        _ => as_clocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_cancels_speed() {
        assert_eq!(kernel(), kernel());
        // A host twice as slow measures everything twice as long.
        let (stage, reference) = (3.0, NOMINAL_S);
        let nominal = stage * factor(&[reference, reference]);
        let slow = 2.0 * stage * factor(&[2.0 * reference, 2.0 * reference, 2.0 * reference]);
        assert!((nominal - slow).abs() < 1e-12);
        assert!((nominal - stage).abs() < 1e-12);
        // Times scale with the factor, rates against it, sizes not at all.
        assert_eq!(at_nominal_speed("ms", 10.0, 0.5), 5.0);
        assert_eq!(at_nominal_speed("1/s", 10.0, 0.5), 20.0);
        assert_eq!(at_nominal_speed("MiB", 10.0, 0.5), 10.0);
    }
}
