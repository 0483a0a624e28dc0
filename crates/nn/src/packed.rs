//! Inference-only MLPs whose weights are packed once.
//!
//! [`Mlp::forward_one`] sends one input row through the GEMM driver, which
//! takes its small path for a single row: every output unit is then a
//! serial dot product, one dependent add after another. [`PackedMlp`]
//! stores each layer's weights in the driver's panel layout instead
//! (k-major, `NR` wide, zero-padded), packed once when it is built, so a
//! batch-1 forward runs the tiled kernel (`gemm_packed` → `micro_row`) with
//! `NR` independent sums in flight and no packing per call.
//!
//! Bit-identity: each output is still its own ascending-`k` sum from
//! `0.0`, one multiply and one add per term, finished by the same bias
//! and activation epilogue, so [`PackedMlp::forward_one`] returns exactly
//! the bits of [`Mlp::forward_one`] (`tests/packed_forward.rs` checks
//! every activation at widths on and off the panel width).

use crate::kernels::{self, RhsLayout, NR};
use crate::layer::finish_row;
use crate::{scratch, Activation, Dense, Matrix, Mlp};

/// An immutable [`Mlp`] packed for batch-1 inference.
///
/// Built from a trained network with [`PackedMlp::new`]; [`PackedMlp::unpack`]
/// gives the network back, parameter for parameter, so a packed model
/// serializes exactly as its [`Mlp`] does.
///
/// # Examples
///
/// ```
/// use nn::{Activation, Mlp, PackedMlp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let net = Mlp::new(&[4, 20, 4], Activation::Relu, Activation::Softmax, &mut rng);
/// let packed = PackedMlp::new(&net);
/// let x = [1.0, -2.0, 0.5, 3.0];
/// assert_eq!(packed.forward_one(&x), net.forward_one(&x));
/// assert_eq!(packed.unpack(), net);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMlp {
    layers: Vec<PackedDense>,
    /// The widest layer boundary: the length of each ping-pong buffer.
    width: usize,
}

/// One layer: `Wᵀ` as `fan_out.div_ceil(NR)` panels of `fan_in × NR`.
#[derive(Debug, Clone, PartialEq)]
struct PackedDense {
    fan_in: usize,
    fan_out: usize,
    panels: Vec<f64>,
    bias: Vec<f64>,
    activation: Activation,
}

impl PackedDense {
    fn new(layer: &Dense) -> Self {
        let (fan_out, fan_in) = (layer.fan_out(), layer.fan_in());
        let mut panels = vec![0.0; fan_out.div_ceil(NR) * fan_in * NR];
        let weights = RhsLayout::Transposed(layer.weights().as_slice());
        kernels::pack_rhs(&weights, fan_in, fan_out, &mut panels);
        PackedDense {
            fan_in,
            fan_out,
            panels,
            bias: layer.bias().to_vec(),
            activation: layer.activation(),
        }
    }

    /// `y = act(x · Wᵀ + b)` for one row.
    fn forward(&self, x: &[f64], y: &mut [f64]) {
        kernels::gemm_packed(
            x,
            1,
            self.fan_in,
            &self.panels,
            self.fan_out,
            y,
            &|row: &mut [f64]| finish_row(row, &self.bias, self.activation),
        );
    }

    /// The `fan_out × fan_in` weight matrix the panels were packed from.
    fn weights(&self) -> Matrix {
        let k = self.fan_in;
        let mut data = Vec::with_capacity(self.fan_out * k);
        for j in 0..self.fan_out {
            let panel = &self.panels[(j / NR) * k * NR..];
            data.extend((0..k).map(|t| panel[t * NR + j % NR]));
        }
        Matrix::from_vec(self.fan_out, k, data)
    }
}

impl PackedMlp {
    /// Packs `net`'s weights into panels, once.
    ///
    /// # Panics
    ///
    /// Panics if `net` is malformed, which only a decoded network that
    /// skipped [`Mlp::validate`] can be.
    #[must_use]
    pub fn new(net: &Mlp) -> Self {
        let layers: Vec<PackedDense> = net.layers().iter().map(PackedDense::new).collect();
        let width = layers
            .iter()
            .map(|l| l.fan_in.max(l.fan_out))
            .max()
            .expect("at least one layer");
        PackedMlp { layers, width }
    }

    /// The network these panels were packed from.
    #[must_use]
    pub fn unpack(&self) -> Mlp {
        Mlp::from_layers(
            self.layers
                .iter()
                .map(|l| Dense::from_parts(l.weights(), l.bias.clone(), l.activation))
                .collect(),
        )
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in
    }

    /// Output dimensionality.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].fan_out
    }

    /// Forward pass for a single sample; bitwise [`Mlp::forward_one`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    #[must_use]
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_one_into(x, &mut out);
        out
    }

    /// Forward pass for a single sample into `out` (cleared and refilled).
    /// Layer outputs ping-pong between two pooled buffers, so a call with
    /// a pre-sized `out` allocates nothing once the pool is warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward_one_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.input_dim(), "input width mismatch");
        let (last, init) = self.layers.split_last().expect("at least one layer");
        let mut cur = scratch::take_buffer(self.width);
        let mut next = scratch::take_buffer(self.width);
        cur[..x.len()].copy_from_slice(x);
        for layer in init {
            layer.forward(&cur[..layer.fan_in], &mut next[..layer.fan_out]);
            std::mem::swap(&mut cur, &mut next);
        }
        out.clear();
        out.resize(last.fan_out, 0.0);
        last.forward(&cur[..last.fan_in], out);
        scratch::recycle(cur);
        scratch::recycle(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn unpack_inverts_pack_at_every_panel_remainder() {
        let mut rng = SmallRng::seed_from_u64(11);
        for sizes in [
            &[1usize, 1][..],
            &[3, 17, 5],
            &[16, 32, 16],
            &[7, 40, 33, 2],
        ] {
            let net = Mlp::new(sizes, Activation::Tanh, Activation::Linear, &mut rng);
            let packed = PackedMlp::new(&net);
            assert_eq!(packed.unpack(), net, "{sizes:?}");
            assert_eq!(
                (packed.input_dim(), packed.output_dim()),
                (net.input_dim(), net.output_dim())
            );
        }
    }

    #[test]
    fn forward_one_into_reuses_out() {
        let mut rng = SmallRng::seed_from_u64(12);
        let net = Mlp::new(&[5, 24, 3], Activation::Relu, Activation::Softmax, &mut rng);
        let packed = PackedMlp::new(&net);
        let mut out = vec![9.0; 11];
        packed.forward_one_into(&[0.5, -1.0, 2.0, 0.0, 3.0], &mut out);
        assert_eq!(out, net.forward_one(&[0.5, -1.0, 2.0, 0.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let mut rng = SmallRng::seed_from_u64(13);
        let net = Mlp::new(&[3, 4, 3], Activation::Relu, Activation::Linear, &mut rng);
        let _ = PackedMlp::new(&net).forward_one(&[1.0, 2.0]);
    }
}
