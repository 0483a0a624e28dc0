//! Property-based tests for the neural-network library: algebraic matrix
//! identities and randomized gradient checks.

use nn::{Activation, Matrix, Mlp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A strategy for small random matrices of the given shape.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    /// Distributivity: A·(B + C) = A·B + A·C.
    #[test]
    fn matmul_distributes(
        a in matrix(3, 4),
        b in matrix(4, 2),
        c in matrix(4, 2),
    ) {
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// (Aᵀ)ᵀ = A.
    #[test]
    fn transpose_is_involution(a in matrix(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// The fused transpose products agree with explicit transposition.
    #[test]
    fn fused_transpose_products_agree(a in matrix(4, 3), b in matrix(4, 2)) {
        let fused = a.transpose_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn product_transpose_identity(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Softmax outputs are valid distributions for arbitrary logits.
    #[test]
    fn softmax_rows_are_distributions(z in matrix(4, 6)) {
        let y = Activation::Softmax.forward(&z);
        for r in 0..y.rows() {
            let sum: f64 = y.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(y.row(r).iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    /// Randomized end-to-end gradient check: the MLP's input gradient
    /// matches finite differences for arbitrary inputs.
    #[test]
    fn input_gradient_matches_finite_difference(
        seed in 0u64..1000,
        input in proptest::collection::vec(-2.0f64..2.0, 3),
    ) {
        let net = Mlp::new(
            &[3, 6, 2],
            Activation::Tanh,
            Activation::Linear,
            &mut SmallRng::seed_from_u64(seed),
        );
        let x = Matrix::row_vector(&input);
        let d_out = Matrix::row_vector(&[1.0, -1.0]);
        let analytic = net.input_gradient(&x, &d_out);
        let f = |m: &Matrix| -> f64 {
            let y = net.forward(m);
            y.get(0, 0) - y.get(0, 1)
        };
        let eps = 1e-6;
        for c in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            xm.set(0, c, x.get(0, c) - eps);
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            prop_assert!(
                (numeric - analytic.get(0, c)).abs() < 1e-4,
                "dim {c}: numeric {numeric}, analytic {}",
                analytic.get(0, c)
            );
        }
    }

    /// Soft updates interpolate linearly: after one update with τ,
    /// every parameter equals τ·src + (1 − τ)·dst.
    #[test]
    fn soft_update_interpolates(seed in 0u64..1000, tau in 0.0f64..1.0) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src = Mlp::new(&[2, 3, 1], Activation::Relu, Activation::Linear, &mut rng);
        let orig = Mlp::new(&[2, 3, 1], Activation::Relu, Activation::Linear, &mut rng);
        let mut dst = orig.clone();
        dst.soft_update_from(&src, tau);
        for ((d, s), o) in dst
            .flat_params()
            .iter()
            .zip(src.flat_params())
            .zip(orig.flat_params())
        {
            prop_assert!((d - (tau * s + (1.0 - tau) * o)).abs() < 1e-12);
        }
    }
}
