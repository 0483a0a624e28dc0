//! Running observation normalisation.

use serde::{Deserialize, Serialize};

/// A running per-dimension observation normaliser (Welford's algorithm).
///
/// DDPG is sensitive to input scale: WIP observations range from 0 to
/// several hundred, and feeding them raw saturates the actor's softmax
/// immediately. OpenAI Baselines' DDPG — the implementation the paper built
/// on — normalises observations by default; this reproduces that behaviour.
/// Outputs are standardised with the running mean/std and clipped to
/// `[-clip, clip]`.
///
/// # Examples
///
/// ```
/// use rl::RunningNorm;
///
/// let mut norm = RunningNorm::new(2);
/// for i in 0..100 {
///     norm.update(&[i as f64, 1000.0 + i as f64]);
/// }
/// let z = norm.normalize(&[50.0, 1050.0]);
/// assert!(z.iter().all(|v| v.abs() < 1.0)); // near the running mean
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningNorm {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
    clip: f64,
}

impl RunningNorm {
    /// Creates an identity normaliser over `dim` dimensions (clip ±5).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        RunningNorm {
            count: 0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
            clip: 5.0,
        }
    }

    /// Number of observations folded in so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Checks that a deserialized normaliser can run: statistics of one
    /// positive dimension, all finite, and a non-negative clip.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean.is_empty() || self.m2.len() != self.mean.len() {
            return Err(format!(
                "{} means and {} second moments",
                self.mean.len(),
                self.m2.len()
            ));
        }
        if !self.mean.iter().chain(&self.m2).all(|v| v.is_finite()) {
            return Err("non-finite statistic".to_string());
        }
        if !(self.clip.is_finite() && self.clip >= 0.0) {
            return Err(format!("clip {} is not a finite bound", self.clip));
        }
        Ok(())
    }

    /// Folds one observation into the running statistics.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn update(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        self.count += 1;
        let n = self.count as f64;
        for (i, &xi) in x.iter().enumerate() {
            let delta = xi - self.mean[i];
            self.mean[i] += delta / n;
            self.m2[i] += delta * (xi - self.mean[i]);
        }
    }

    /// Standardises `x` with the running statistics, clipped to ±clip.
    /// Identity until at least two observations have been folded in.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn normalize(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.normalize_slice(x, &mut out);
        out
    }

    /// [`RunningNorm::normalize`] into a caller buffer (cleared and
    /// refilled). Bitwise-identical to `normalize`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn normalize_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.len(), 0.0);
        self.normalize_slice(x, out);
    }

    /// [`RunningNorm::normalize`] straight into a slice of the same length
    /// — e.g. one row of a minibatch matrix. Bitwise-identical to
    /// `normalize`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn normalize_slice(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        assert_eq!(out.len(), x.len(), "output length mismatch");
        if self.count < 2 {
            out.copy_from_slice(x);
            return;
        }
        let n = self.count as f64;
        for (i, (o, &v)) in out.iter_mut().zip(x).enumerate() {
            let var = self.m2[i] / n;
            let std = var.sqrt().max(1e-6);
            *o = ((v - self.mean[i]) / std).clamp(-self.clip, self.clip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_before_two_updates() {
        let mut n = RunningNorm::new(2);
        assert_eq!(n.normalize(&[3.0, 4.0]), vec![3.0, 4.0]);
        n.update(&[1.0, 1.0]);
        assert_eq!(n.normalize(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn standardises_to_zero_mean_unit_std() {
        let mut n = RunningNorm::new(1);
        let data: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        for &v in &data {
            n.update(&[v]);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let z = n.normalize(&[mean]);
        assert!(z[0].abs() < 1e-9);
        // One std above the mean normalises to ≈ 1.
        let var = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / data.len() as f64;
        let z1 = n.normalize(&[mean + var.sqrt()]);
        assert!((z1[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clips_outliers() {
        let mut n = RunningNorm::new(1);
        for i in 0..100 {
            n.update(&[i as f64 % 10.0]);
        }
        let z = n.normalize(&[1e9]);
        assert_eq!(z[0], 5.0);
        let z = n.normalize(&[-1e9]);
        assert_eq!(z[0], -5.0);
    }

    #[test]
    fn constant_input_is_safe() {
        let mut n = RunningNorm::new(1);
        for _ in 0..10 {
            n.update(&[7.0]);
        }
        let z = n.normalize(&[7.0]);
        assert!(z[0].abs() < 1e-6);
        assert!(n.normalize(&[8.0])[0].is_finite());
    }

    #[test]
    fn matches_batch_statistics() {
        let mut n = RunningNorm::new(2);
        let rows = [[1.0, -5.0], [2.0, 0.0], [3.0, 5.0], [4.0, 10.0]];
        for r in &rows {
            n.update(r);
        }
        // Batch mean of dim 0 is 2.5.
        let z = n.normalize(&[2.5, 2.5]);
        assert!(z[0].abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let mut n = RunningNorm::new(2);
        n.update(&[1.0, 2.0]);
        n.update(&[3.0, 4.0]);
        let json = serde_json::to_string(&n).unwrap();
        let back: RunningNorm = serde_json::from_str(&json).unwrap();
        assert_eq!(n, back);
    }
}
