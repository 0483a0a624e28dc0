//! The ledger's own arithmetic: percentiles, medians, quartile spread and
//! the FNV checksum that pins simulated statistics bit for bit.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. At tiny counts high
/// percentiles collapse to the maximum (p99 of 5 samples is the largest).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice; the mean of the two middle samples when
/// the count is even.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Ascending copy of `values` (which must be finite).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them; `None` below two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // May be negative or exceed 4 at the clamped ends: the exclusive
        // method extrapolates there, exactly as CPython does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of the
/// median. `None` below two samples or for a zero median.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// p50 / p99 / extremes of one set of timing samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for no samples.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        Some(Summary {
            count: s.len(),
            min: s[0],
            p50: median_sorted(&s),
            p99: percentile(&s, 99.0),
            max: s[s.len() - 1],
        })
    }
}

/// FNV-1a 64-bit, fed integer by integer. Simulated statistics are exact
/// counts, so the hash repeats bit for bit on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The low 48 bits: exactly representable as a JSON number.
    #[must_use]
    pub fn finish48(self) -> u64 {
        self.0 & 0xFFFF_FFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_at_tiny_counts() {
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 2.0);
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 0.0), 1.0);
        assert_eq!(percentile(&five, 20.0), 1.0);
        assert_eq!(percentile(&five, 21.0), 2.0);
        assert_eq!(percentile(&five, 99.0), 5.0);
        assert_eq!(percentile(&five, 100.0), 5.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), 990.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn fnv_is_order_sensitive_and_fits_a_json_number() {
        let mut a = Fnv::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish48(), b.finish48());
        assert!(a.finish48() < 1 << 48);
        assert_eq!((a.finish48() as f64) as u64, a.finish48());
    }
}
