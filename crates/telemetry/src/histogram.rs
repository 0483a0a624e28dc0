//! Fixed-bucket histograms (Prometheus-style `le` upper bounds).

/// A histogram over fixed upper-bound buckets plus an implicit `+Inf`
/// overflow bucket, tracking total count and sum alongside.
///
/// Buckets are *non-cumulative* here (each observation lands in exactly one
/// bucket); the JSONL sink emits the conventional cumulative `le` form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

/// Default bucket bounds, in seconds: span timers across the workspace range
/// from sub-microsecond GEMM calls to multi-second training iterations.
pub(crate) const DEFAULT_TIME_BOUNDS: &[f64] =
    &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

impl Histogram {
    /// Creates a histogram with the given finite, strictly increasing upper
    /// bounds. An overflow (`+Inf`) bucket is always appended.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite and strictly increasing.
    #[must_use]
    pub(crate) fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// A histogram over `DEFAULT_TIME_BOUNDS`.
    #[must_use]
    pub(crate) fn default_time() -> Self {
        Histogram::new(DEFAULT_TIME_BOUNDS)
    }

    /// Records one observation. A value equal to a bound lands in that
    /// bound's bucket (`value <= bound`, Prometheus `le` semantics); `NaN`
    /// counts into the overflow bucket so totals stay consistent.
    pub(crate) fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Upper bounds, excluding the implicit `+Inf`.
    #[must_use]
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the overflow
    /// bucket.
    #[must_use]
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    #[must_use]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_use_le_semantics() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.0);
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1, 0]);
    }

    #[test]
    fn just_above_boundary_falls_into_next_bucket() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0 + f64::EPSILON * 2.0);
        assert_eq!(h.bucket_counts(), &[0, 1, 0]);
    }

    #[test]
    fn below_first_bound_and_overflow() {
        let mut h = Histogram::new(&[10.0]);
        h.observe(-5.0);
        h.observe(10.000_001);
        assert_eq!(h.bucket_counts(), &[1, 1]);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn empty_bounds_means_single_overflow_bucket() {
        let mut h = Histogram::new(&[]);
        h.observe(3.0);
        h.observe(-3.0);
        assert_eq!(h.bucket_counts(), &[2]);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn nan_lands_in_overflow() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        assert_eq!(h.bucket_counts(), &[0, 1]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_bound_panics() {
        let _ = Histogram::new(&[1.0, f64::INFINITY]);
    }
}
