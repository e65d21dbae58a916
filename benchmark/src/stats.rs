//! Order statistics: medians, quartiles and tail percentiles.

/// Median and quartiles of a sample, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here are the ones the acceptance check computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timing samples"));
    v
}

/// The `k`-th of `n`-quantile cut point of a sorted sample (exclusive
/// method: position `k (len + 1) / n`, clamped to the sample).
fn cut(sorted: &[f64], k: usize, n: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let pos = k * (len + 1);
    let j = (pos / n).clamp(1, len - 1);
    let delta = pos as f64 / n as f64 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let v = sorted(values);
    Summary {
        n: v.len(),
        median: cut(&v, 2, 4),
        q1: cut(&v, 1, 4),
        q3: cut(&v, 3, 4),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest-rank percentile of an unsorted integer sample. The rank is
/// given per mille (999 = p99.9) so it is computed in integers: in floating
/// point `0.999 * 1000` rounds up past 999.
pub fn percentile(samples: &mut [u64], per_mille: usize) -> u64 {
    assert!(!samples.is_empty() && per_mille <= 1000);
    samples.sort_unstable();
    let rank = (samples.len() * per_mille).div_ceil(1000);
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The highest of p99.9 / p99 / p90 / p50 (per mille) that still has at
/// least ten samples beyond it — the tail a sample of this size supports.
pub fn supported_tail(n: usize) -> usize {
    [999, 990, 900]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .unwrap_or(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut v, 500), 500);
        assert_eq!(percentile(&mut v, 999), 999);
        assert_eq!(percentile(&mut v, 1000), 1000);
        assert_eq!(percentile(&mut [7], 999), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(200_000), 999);
        assert_eq!(supported_tail(10_000), 999);
        assert_eq!(supported_tail(9_999), 990);
        assert_eq!(supported_tail(1_000), 990);
        assert_eq!(supported_tail(999), 900);
        assert_eq!(supported_tail(100), 900);
        assert_eq!(supported_tail(99), 500);
    }
}
