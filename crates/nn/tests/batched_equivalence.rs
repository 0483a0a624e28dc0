//! Batched-vs-single forward equivalence.
//!
//! The lockstep rollout engine relies on one invariant: row `i` of a
//! batched forward pass is **bitwise**-equal to `forward_one(row_i)`. The
//! GEMM core guarantees it by accumulating every output element in
//! ascending-k order from `0.0` in all dispatch paths (packed tile, small
//! fallback, row-parallel split); these tests pin the contract down across
//! shapes, batch sizes and activations.

use nn::{Activation, Matrix, Mlp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn build_net(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Mlp {
    Mlp::new(sizes, hidden, output, &mut SmallRng::seed_from_u64(seed))
}

proptest! {
    /// `forward_batch` row `i` is bitwise-equal to `forward_one(row_i)`
    /// across random shapes (including B = 1) and activations.
    #[test]
    fn forward_batch_rows_match_forward_one_bitwise(
        seed in 0u64..1000,
        batch in 1usize..20,
        (input_dim, hidden_dim, output_dim) in (1usize..8, 1usize..24, 1usize..8),
        depth in 1usize..4,
        act_pick in 0usize..3,
        data in proptest::collection::vec(-5.0f64..5.0, 1..160),
    ) {
        let hidden = [Activation::Relu, Activation::Tanh, Activation::Sigmoid][act_pick];
        let mut sizes = vec![input_dim];
        sizes.extend(std::iter::repeat_n(hidden_dim, depth - 1));
        sizes.push(output_dim);
        let net = build_net(&sizes, hidden, Activation::Linear, seed);

        let mut x = Matrix::zeros(batch, input_dim);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = data[i % data.len()];
        }

        let batched = net.forward_batch(&x);
        prop_assert_eq!((batched.rows(), batched.cols()), (batch, output_dim));
        for r in 0..batch {
            let single = net.forward_one(x.row(r));
            prop_assert_eq!(
                batched.row(r),
                single.as_slice(),
                "row {} differs from forward_one", r
            );
        }
    }
}

/// The empty batch is legal: zero rows in, zero rows out, right width.
#[test]
fn empty_batch_forward_is_well_defined() {
    let net = build_net(&[3, 8, 2], Activation::Relu, Activation::Linear, 42);
    let x = Matrix::zeros(0, 3);
    let y = net.forward_batch(&x);
    assert_eq!((y.rows(), y.cols()), (0, 2));
}

/// `forward_into` reuses the output buffer and matches `forward` exactly.
#[test]
fn forward_into_matches_forward_and_reuses_buffer() {
    let net = build_net(&[4, 16, 16, 3], Activation::Relu, Activation::Linear, 7);
    let mut out = Matrix::zeros(9, 9);
    for batch in [1usize, 2, 5, 17] {
        let mut x = Matrix::zeros(batch, 4);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 * 0.37).cos();
        }
        net.forward_into(&x, &mut out);
        assert_eq!(out, net.forward(&x), "batch {batch}");
    }
}

/// `forward_one_into` refills the caller's vector and matches
/// `forward_one` bitwise, including on a single-layer network (the direct
/// infer-into path).
#[test]
fn forward_one_into_matches_forward_one() {
    for sizes in [vec![5usize, 2], vec![5, 12, 12, 2]] {
        let net = build_net(&sizes, Activation::Tanh, Activation::Softmax, 11);
        let mut out = vec![99.0; 7];
        let x = [0.4, -1.2, 3.3, 0.0, -0.7];
        net.forward_one_into(&x, &mut out);
        assert_eq!(out, net.forward_one(&x), "sizes {sizes:?}");
    }
}

/// Softmax rows are normalised per row, so the row-wise equivalence must
/// hold through it too (each row's max/sum only sees its own row).
#[test]
fn softmax_output_rows_match_single_forward_bitwise() {
    let net = build_net(&[3, 10, 4], Activation::Relu, Activation::Softmax, 21);
    let mut x = Matrix::zeros(33, 3);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 7 % 13) as f64) - 6.0;
    }
    let batched = net.forward_batch(&x);
    for r in 0..x.rows() {
        assert_eq!(batched.row(r), net.forward_one(x.row(r)).as_slice());
    }
}
