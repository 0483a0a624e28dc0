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

    #[test]
    fn serde_round_trip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: WindowMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
