//! The Adam gradient-descent optimizer.

use serde::{Deserialize, Serialize};

/// The Adam optimizer (Kingma & Ba) with bias-corrected moment estimates.
///
/// # Examples
///
/// ```
/// use nn::{Activation, Adam, Matrix, Mlp};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut net = Mlp::new(&[1, 1], Activation::Linear, Activation::Linear, &mut rng);
/// let mut opt = Adam::new(1e-2);
/// let (x, y) = (Matrix::from_vec(1, 1, vec![1.0]), Matrix::from_vec(1, 1, vec![3.0]));
/// let first = net.train_mse(&x, &y, &mut opt);
/// let mut last = first;
/// for _ in 0..100 {
///     last = net.train_mse(&x, &y, &mut opt);
/// }
/// assert!(last < first);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    clip: Option<f64>,
    /// Per-slot first/second moment buffers and step counters.
    state: Vec<AdamSlot>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
struct AdamSlot {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard defaults
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive and finite.
    #[must_use]
    pub fn new(learning_rate: f64) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            clip: None,
            state: Vec::new(),
        }
    }

    /// Enables global-norm gradient clipping.
    #[must_use]
    pub fn with_clip_norm(mut self, clip: f64) -> Self {
        self.clip = Some(clip);
        self
    }

    /// The global norm above which gradients are scaled down, if any.
    pub(crate) fn clip_norm(&self) -> Option<f64> {
        self.clip
    }

    /// Applies one update step to the parameter buffer identified by the
    /// caller's stable `slot` index (layer 0's weights are slot 0, its bias
    /// slot 1, …); each slot keeps its own moment estimates.
    ///
    /// # Panics
    ///
    /// Panics when `params.len() != grads.len()`.
    pub(crate) fn update(&mut self, slot: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        if self.state.len() <= slot {
            self.state.resize_with(slot + 1, AdamSlot::default);
        }
        let s = &mut self.state[slot];
        if s.m.len() != params.len() {
            s.m = vec![0.0; params.len()];
            s.v = vec![0.0; params.len()];
            s.t = 0;
        }
        // A zipped loop stops at the shortest slice; a checkpoint whose
        // moment buffers disagree must fail loudly, not update a prefix.
        assert_eq!(s.v.len(), s.m.len(), "Adam moment buffers disagree");
        s.t += 1;
        let bias1 = 1.0 - self.beta1.powi(s.t as i32);
        let bias2 = 1.0 - self.beta2.powi(s.t as i32);
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (learning_rate, epsilon) = (self.learning_rate, self.epsilon);
        // Zipped slices carry no bounds checks, so the body vectorises;
        // every expression is the scalar one, element by element.
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(s.m.iter_mut())
            .zip(s.v.iter_mut())
        {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_quadratic() {
        let mut opt = Adam::new(0.05);
        let mut p = [5.0];
        for _ in 0..2000 {
            let g = 2.0 * p[0];
            opt.update(0, &mut p, &[g]);
        }
        assert!(p[0].abs() < 1e-3, "p = {}", p[0]);
    }

    #[test]
    fn adam_slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let mut a = [1.0];
        let mut b = [1.0];
        // Slot 0 takes many steps; slot 1 takes one. If their moments were
        // shared, b's step size would be wrong.
        for _ in 0..10 {
            opt.update(0, &mut a, &[1.0]);
        }
        opt.update(1, &mut b, &[1.0]);
        let first_step = 1.0 - b[0];
        // Adam's first bias-corrected step equals the learning rate.
        assert!((first_step - 0.1).abs() < 1e-9);
    }

    #[test]
    fn adam_handles_resized_buffers() {
        let mut opt = Adam::new(0.1);
        let mut small = [1.0];
        opt.update(0, &mut small, &[1.0]);
        let mut large = [1.0, 2.0];
        // Same slot, new shape: state resets instead of panicking.
        opt.update(0, &mut large, &[1.0, 1.0]);
        assert!(large[0] < 1.0 && large[1] < 2.0);
    }

    /// The textbook indexed Adam step, kept here as the reference the
    /// production loop must match bit for bit.
    fn scalar_adam_step(
        (lr, beta1, beta2, eps): (f64, f64, f64, f64),
        (m, v, t): (&mut [f64], &mut [f64], &mut u64),
        params: &mut [f64],
        grads: &[f64],
    ) {
        *t += 1;
        let bias1 = 1.0 - beta1.powi(*t as i32);
        let bias2 = 1.0 - beta2.powi(*t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// A cheap deterministic stream of values in (-1, 1) with a few exact
    /// zeros, so `sqrt(0) + ε` is exercised too.
    fn pseudo(len: usize, salt: u64) -> Vec<f64> {
        (0..len as u64)
            .map(|i| {
                let x = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                if x.is_multiple_of(11) {
                    0.0
                } else {
                    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn adam_matches_scalar_reference_bitwise() {
        let hyper = (3e-3, 0.9, 0.999, 1e-8);
        // Around the 4- and 8-lane vector widths, plus the actor's size.
        for len in [0usize, 1, 3, 4, 7, 8, 9, 8836] {
            let mut opt = Adam::new(hyper.0);
            let mut params = pseudo(len, 1);
            let mut ref_params = params.clone();
            let (mut m, mut v, mut t) = (vec![0.0; len], vec![0.0; len], 0u64);
            for step in 0..6 {
                let grads = pseudo(len, 100 + step);
                opt.update(0, &mut params, &grads);
                scalar_adam_step(hyper, (&mut m, &mut v, &mut t), &mut ref_params, &grads);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&params), bits(&ref_params), "len {len} step {step}");
                if len > 0 {
                    assert_eq!(bits(&opt.state[0].m), bits(&m), "m, len {len}");
                    assert_eq!(bits(&opt.state[0].v), bits(&v), "v, len {len}");
                    assert_eq!(opt.state[0].t, t);
                }
            }
            // Same slot, new shape: moments and step count start over.
            let new_len = len + 5;
            let mut params = pseudo(new_len, 2);
            let mut ref_params = params.clone();
            let (mut m, mut v, mut t) = (vec![0.0; new_len], vec![0.0; new_len], 0u64);
            for step in 0..3 {
                let grads = pseudo(new_len, 200 + step);
                opt.update(0, &mut params, &grads);
                scalar_adam_step(hyper, (&mut m, &mut v, &mut t), &mut ref_params, &grads);
                assert_eq!(params, ref_params, "resized from {len}, step {step}");
            }
            assert_eq!(opt.state[0].m.len(), new_len);
            assert_eq!(opt.state[0].v.len(), new_len);
        }
    }

    #[test]
    #[should_panic(expected = "Adam moment buffers disagree")]
    fn adam_rejects_mismatched_moment_buffers() {
        // Only a hand-edited checkpoint can get here; the zipped update
        // would otherwise stop at the shorter buffer without a word.
        let mut opt = Adam::new(0.1);
        opt.state.push(AdamSlot {
            m: vec![0.0; 4],
            v: vec![0.0; 3],
            t: 1,
        });
        opt.update(0, &mut [1.0; 4], &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "parameter/gradient mismatch")]
    fn adam_rejects_mismatched_gradients() {
        Adam::new(0.1).update(0, &mut [1.0; 4], &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_learning_rate_panics() {
        let _ = Adam::new(0.0);
    }

    #[test]
    fn clip_norm_is_exposed() {
        assert_eq!(Adam::new(0.1).clip_norm(), None);
        assert_eq!(Adam::new(0.1).with_clip_norm(1.0).clip_norm(), Some(1.0));
    }
}
