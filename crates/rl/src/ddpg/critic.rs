//! The paper's critic.

use nn::{Activation, Adam, Matrix, Mlp};
use serde::{Deserialize, Serialize};

/// The critic `Q(s, a)` with the paper's architecture: the action is
/// injected at the *second* hidden layer (§VI-A3 — "we insert one of
/// Critic's inputs — action — to the second layer").
///
/// Internally this is a one-layer trunk over the state followed by a head
/// over `[trunk(s) ‖ a]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Critic {
    pub(super) trunk: Mlp,
    pub(super) head: Mlp,
    action_dim: usize,
}

impl Critic {
    /// Creates a critic with hidden widths `hidden` (e.g. `[256, 256, 256]`
    /// for the paper's MSD critic).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or any dimension is zero.
    #[must_use]
    pub(crate) fn new<R: rand::Rng + ?Sized>(
        state_dim: usize,
        action_dim: usize,
        hidden: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(!hidden.is_empty(), "critic needs at least one hidden layer");
        // Trunk: state → first hidden layer.
        let trunk = Mlp::new(
            &[state_dim, hidden[0]],
            Activation::Relu,
            Activation::Relu,
            rng,
        );
        // Head: [h1 ‖ a] → remaining hidden layers → scalar Q.
        let mut sizes = vec![hidden[0] + action_dim];
        sizes.extend_from_slice(&hidden[1..]);
        sizes.push(1);
        let head = Mlp::new(&sizes, Activation::Relu, Activation::Linear, rng);
        Critic {
            trunk,
            head,
            action_dim,
        }
    }

    /// Q-values for a batch of `(state, action)` pairs, shape `(batch, 1)`.
    #[must_use]
    pub(crate) fn q(&self, states: &Matrix, actions: &Matrix) -> Matrix {
        self.head.forward(&self.head_input(states, actions))
    }

    /// The head's input `[trunk(s) ‖ a]`.
    fn head_input(&self, states: &Matrix, actions: &Matrix) -> Matrix {
        Matrix::hconcat(&[&self.trunk.forward(states), actions])
    }

    /// One MSE training step toward `targets`; returns the loss before the
    /// update.
    ///
    /// One forward/backward over the whole minibatch, then one optimiser
    /// step per network; the result does not depend on `NN_NUM_THREADS`.
    pub(crate) fn train(
        &mut self,
        states: &Matrix,
        actions: &Matrix,
        targets: &Matrix,
        trunk_opt: &mut Adam,
        head_opt: &mut Adam,
    ) -> f64 {
        let n = states.rows() as f64;
        let trunk_trace = self.trunk.forward_cached(states);
        let z = Matrix::hconcat(&[trunk_trace.output(), actions]);
        let head_trace = self.head.forward_cached(&z);
        let mut d_q = head_trace.output() - targets;
        let loss_sum = d_q.as_slice().iter().map(|&v| v * v).sum::<f64>();
        d_q.scale_in_place(2.0 / n);
        let (d_z, mut head_grads) = self.head.backward(&head_trace, &d_q);
        let d_h = d_z.columns(0, trunk_trace.output().cols());
        let mut trunk_grads = self.trunk.param_gradients(&trunk_trace, &d_h);
        self.head.apply_gradients(&mut head_grads, head_opt);
        self.trunk.apply_gradients(&mut trunk_grads, trunk_opt);
        loss_sum / n
    }

    /// `Q(s, a)` and `∂Q/∂a` for each sample from one forward pass: the
    /// head's trace serves both the value and an input-only backward over
    /// the action columns of `[trunk(s) ‖ a]` (the deterministic policy
    /// gradient reads neither weight gradients nor `∂Q/∂trunk(s)`).
    #[must_use]
    pub(crate) fn q_and_action_gradient(
        &self,
        states: &Matrix,
        actions: &Matrix,
    ) -> (Matrix, Matrix) {
        let z = self.head_input(states, actions);
        let trace = self.head.forward_cached(&z);
        let ones = Matrix::from_vec(z.rows(), 1, vec![1.0; z.rows()]);
        let d_actions = self.head.input_gradient_columns(
            &trace,
            &ones,
            z.cols() - self.action_dim,
            self.action_dim,
        );
        (trace.into_output(), d_actions)
    }

    /// Polyak update toward `src`.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub(crate) fn soft_update_from(&mut self, src: &Critic, tau: f64) {
        self.trunk.soft_update_from(&src.trunk, tau);
        self.head.soft_update_from(&src.head, tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn critic_converges_on_fixed_targets() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut critic = Critic::new(2, 2, &[16, 16], &mut rng);
        let mut t_opt = Adam::new(1e-2);
        let mut h_opt = Adam::new(1e-2);
        let s = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let a = Matrix::from_rows(&[&[0.3, 0.7], &[0.9, 0.1]]);
        let y = Matrix::from_rows(&[&[2.0], &[-1.0]]);
        let mut loss = f64::INFINITY;
        for _ in 0..500 {
            loss = critic.train(&s, &a, &y, &mut t_opt, &mut h_opt);
        }
        assert!(loss < 1e-2, "loss {loss}");
    }

    /// The fused pass against the route it replaced, written out here: a
    /// `q` forward, then a second forward and a full head backward whose
    /// weight gradients and trunk columns are thrown away.
    #[test]
    fn fused_q_and_action_gradient_matches_separate_passes_bitwise() {
        let mut rng = SmallRng::seed_from_u64(17);
        let critic = Critic::new(4, 4, &[64, 64, 64], &mut rng);
        for batch in [1usize, 5, 64] {
            let random = |cols: usize, rng: &mut SmallRng| {
                use rand::Rng;
                let data = (0..batch * cols)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                Matrix::from_vec(batch, cols, data)
            };
            let (s, a) = (random(4, &mut rng), random(4, &mut rng));

            let h = critic.trunk.forward(&s);
            let z = Matrix::hconcat(&[&h, &a]);
            let trace = critic.head.forward_cached(&z);
            let ones = Matrix::from_vec(batch, 1, vec![1.0; batch]);
            let (d_z, _weight_grads) = critic.head.backward(&trace, &ones);
            let old_gradient = d_z.columns(h.cols(), 4);

            let (q, gradient) = critic.q_and_action_gradient(&s, &a);
            assert_eq!(q, critic.q(&s, &a), "batch {batch}");
            assert_eq!(gradient, old_gradient, "batch {batch}");
        }
    }

    #[test]
    fn critic_action_gradient_matches_finite_diff() {
        let mut rng = SmallRng::seed_from_u64(7);
        let critic = Critic::new(2, 3, &[8, 8], &mut rng);
        let s = Matrix::from_rows(&[&[0.4, -0.2]]);
        let a = Matrix::from_rows(&[&[0.2, 0.5, 0.3]]);
        let (_, grad) = critic.q_and_action_gradient(&s, &a);
        let eps = 1e-6;
        for c in 0..3 {
            let mut ap = a.clone();
            let mut am = a.clone();
            ap.set(0, c, a.get(0, c) + eps);
            am.set(0, c, a.get(0, c) - eps);
            let numeric = (critic.q(&s, &ap).get(0, 0) - critic.q(&s, &am).get(0, 0)) / (2.0 * eps);
            assert!((numeric - grad.get(0, c)).abs() < 1e-5, "dim {c}");
        }
    }
}
