//! Latency summaries: the median and the highest percentile that has at
//! least ten samples beyond it.

/// Samples needed beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency together with the percentile it sits at and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency in milliseconds.
    pub value_ms: f64,
    /// The percentile (0–100) the value sits at.
    pub percentile: f64,
    /// The number of samples.
    pub samples: usize,
}

/// The median of `values` (mean of the middle pair for an even count);
/// `0.0` for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the eleventh-largest sample. With fewer than eleven samples no such
/// percentile exists and the maximum is returned at percentile 100, which
/// the printed sample count makes visible.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value_ms: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value_ms: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let idx = n - TAIL_BEYOND - 1;
    Tail {
        value_ms: v[idx],
        percentile: (idx + 1) as f64 * 100.0 / n as f64,
        samples: n,
    }
}

/// A 64-bit FNV-1a digest of rendered rows (one newline after each).
#[must_use]
pub fn digest(schema: &str, rows: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in std::iter::once(schema).chain(rows.iter().map(String::as_str)) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: the benchmark's own seeded generator for key draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded from the workload seed and a stream id.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert!((t.value_ms - 30.0).abs() < 1e-12);
        assert!((t.percentile - 75.0).abs() < 1e-12);
        assert_eq!(t.samples, 40);
        assert_eq!(v.iter().filter(|&&x| x > t.value_ms).count(), TAIL_BEYOND);
    }

    #[test]
    fn short_samples_fall_back_to_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert!((t.value_ms - 3.0).abs() < 1e-12);
        assert!((t.percentile - 100.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert!((median(&[4.0, 1.0, 3.0]) - 3.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 3.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn digest_depends_on_every_row() {
        let a = digest("s", &["x".to_owned(), "y".to_owned()]);
        let b = digest("s", &["x".to_owned(), "z".to_owned()]);
        assert_ne!(a, b);
        assert_eq!(a, digest("s", &["x".to_owned(), "y".to_owned()]));
    }
}
