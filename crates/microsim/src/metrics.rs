//! Per-window observations produced by the environment.

use serde::{Deserialize, Serialize};

/// Everything observed during one decision window `(T_k, T_{k+1})`.
///
/// The RL agent only consumes `wip` (the state) and `reward`; the remaining
/// fields feed the paper's evaluation figures (response-time comparisons,
/// constraint-violation counts for the exploration ablation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Zero-based index `k` of the window since environment construction.
    pub window_index: usize,
    /// Work-in-progress per task type observed at the window's end —
    /// the paper's state `w(k+1)`.
    pub wip: Vec<usize>,
    /// The paper's reward `r = 1 − Σ_j w_j` for this window.
    pub reward: f64,
    /// The consumer allocation actually applied this window (after any
    /// budget clamping).
    pub action_applied: Vec<usize>,
    /// True when the requested action exceeded the consumer budget and had
    /// to be clamped.
    pub constraint_violated: bool,
    /// Workflow requests that arrived during the window, per workflow type.
    pub arrivals: Vec<usize>,
    /// Workflow requests that completed during the window, per workflow type.
    pub completions: Vec<usize>,
    /// Mean end-to-end response time (seconds) of the requests that
    /// completed during the window, per workflow type; `None` when no
    /// request of that type completed.
    pub mean_response_secs: Vec<Option<f64>>,
}

impl WindowMetrics {
    /// Total WIP at the end of the window.
    #[must_use]
    pub fn total_wip(&self) -> usize {
        self.wip.iter().sum()
    }

    /// Mean response time over all workflow types that completed requests in
    /// this window, weighted by completion counts. `None` if nothing
    /// completed.
    ///
    /// `completions` and `mean_response_secs` must have one entry per
    /// workflow type each; a length mismatch would silently drop the excess
    /// types from the weighted mean, so it is rejected in debug builds (and
    /// flagged by the simulation auditor when auditing is enabled).
    #[must_use]
    pub fn overall_mean_response_secs(&self) -> Option<f64> {
        debug_assert_eq!(
            self.completions.len(),
            self.mean_response_secs.len(),
            "completions and mean_response_secs must cover the same workflow types"
        );
        let mut total = 0.0;
        let mut count = 0usize;
        for (c, r) in self.completions.iter().zip(&self.mean_response_secs) {
            if let Some(r) = r {
                total += r * *c as f64;
                count += c;
            }
        }
        (count > 0).then(|| total / count as f64)
    }
}

/// Response-time distribution summary over a set of completed workflows.
///
/// # Examples
///
/// ```
/// use microsim::LatencySummary;
///
/// let latencies: Vec<f64> = (1..=100).map(f64::from).collect();
/// let s = LatencySummary::from_secs(&latencies).unwrap();
/// assert_eq!(s.count, 100);
/// assert!((s.p50 - 50.0).abs() <= 1.0);
/// assert!((s.p99 - 99.0).abs() <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of (finite) samples summarised.
    pub count: usize,
    /// Number of non-finite samples (NaN or infinite) dropped from the
    /// input before summarising.
    #[serde(default)]
    pub dropped_non_finite: usize,
    /// Arithmetic mean (seconds).
    pub mean: f64,
    /// Minimum (seconds).
    pub min: f64,
    /// Median (seconds).
    pub p50: f64,
    /// 95th percentile (seconds).
    pub p95: f64,
    /// 99th percentile (seconds).
    pub p99: f64,
    /// Maximum (seconds).
    pub max: f64,
}

impl LatencySummary {
    /// Summarises response times in seconds; `None` when no finite samples
    /// are present.
    ///
    /// Non-finite samples (NaN or infinite) are dropped rather than
    /// panicking; the number dropped is reported in
    /// [`dropped_non_finite`](Self::dropped_non_finite). Percentiles use the
    /// nearest-rank method over `count - 1` intervals, so at tiny sample
    /// counts high percentiles collapse to the maximum (e.g. `p99` of two
    /// samples is the larger one).
    #[must_use]
    pub fn from_secs(latencies: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = latencies
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .collect();
        let dropped_non_finite = latencies.len() - sorted.len();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let nearest = |p: f64| {
            let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank]
        };
        Some(LatencySummary {
            count: sorted.len(),
            dropped_non_finite,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: nearest(50.0),
            p95: nearest(95.0),
            p99: nearest(99.0),
            max: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WindowMetrics {
        WindowMetrics {
            window_index: 3,
            wip: vec![2, 0, 5],
            reward: 1.0 - 7.0,
            action_applied: vec![1, 1, 2],
            constraint_violated: false,
            arrivals: vec![1, 0],
            completions: vec![2, 3],
            mean_response_secs: vec![Some(10.0), Some(20.0)],
        }
    }

    #[test]
    fn total_wip_sums() {
        assert_eq!(sample().total_wip(), 7);
    }

    #[test]
    fn overall_mean_weights_by_completions() {
        let m = sample();
        let expected = (10.0 * 2.0 + 20.0 * 3.0) / 5.0;
        assert!((m.overall_mean_response_secs().unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn overall_mean_none_when_no_completions() {
        let mut m = sample();
        m.completions = vec![0, 0];
        m.mean_response_secs = vec![None, None];
        assert_eq!(m.overall_mean_response_secs(), None);
    }

    #[test]
    fn latency_summary_percentiles() {
        let lat: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
        let s = LatencySummary::from_secs(&lat).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 0.0);
        assert!((s.p50 - 50.0).abs() < 0.2);
        assert!((s.p95 - 94.9).abs() < 0.2);
        assert!((s.max - 99.9).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_empty_is_none() {
        assert!(LatencySummary::from_secs(&[]).is_none());
    }

    #[test]
    fn latency_summary_single_sample() {
        let s = LatencySummary::from_secs(&[7.0]).unwrap();
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.mean, 7.0);
    }

    /// Regression: a length mismatch between `completions` and
    /// `mean_response_secs` used to be silently truncated by `zip`, dropping
    /// workflow types from the weighted mean.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "same workflow types")]
    fn overall_mean_rejects_mismatched_lengths() {
        let mut m = sample();
        m.mean_response_secs.pop();
        let _ = m.overall_mean_response_secs();
    }

    /// Regression: `from_secs` used to panic (`expect` inside `sort_by`) on
    /// any NaN sample. It now drops non-finite samples and reports the count.
    #[test]
    fn latency_summary_drops_non_finite() {
        let s =
            LatencySummary::from_secs(&[3.0, f64::NAN, 1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY])
                .unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.dropped_non_finite, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn latency_summary_all_non_finite_is_none() {
        assert!(LatencySummary::from_secs(&[f64::NAN, f64::INFINITY]).is_none());
    }

    /// Nearest-rank behaviour at tiny sample counts: with two samples the
    /// only ranks are 0 and 1, so `p99` (rank round(0.99) = 1) is the max
    /// and `p50` (rank round(0.5) = 1) rounds up to the max as well.
    #[test]
    fn latency_summary_percentiles_of_two_samples() {
        let s = LatencySummary::from_secs(&[10.0, 20.0]).unwrap();
        assert_eq!(s.p99, 20.0);
        assert_eq!(s.p95, 20.0);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.mean, 15.0);
    }

    #[test]
    fn latency_summary_deserialises_without_dropped_field() {
        let json = r#"{"count":1,"mean":1.0,"min":1.0,"p50":1.0,"p95":1.0,"p99":1.0,"max":1.0}"#;
        let s: LatencySummary = serde_json::from_str(json).unwrap();
        assert_eq!(s.dropped_non_finite, 0);
    }

    #[test]
    fn serde_round_trip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: WindowMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
