//! Row-major dense matrices over `f64`.
//!
//! The three matrix products (`matmul`, `transpose_matmul`,
//! `matmul_transpose`) share one cache-blocked, register-tiled GEMM driver
//! (see [`crate::kernels`]) with a packed right-hand side, an unpacked
//! small-matrix path and an optional row-parallel split. The straightforward
//! triple-loop implementations are kept as `naive_*` references; the tiled
//! kernels reproduce them bit-for-bit for finite inputs because every output
//! element accumulates its products in the same ascending-`k` order.
//!
//! Matrix buffers are recycled through a thread-local scratch pool
//! ([`crate::scratch`]): `Drop` returns the buffer, `zeros`/`resize` and the
//! arithmetic helpers take from it, so steady-state training iterations do
//! not allocate.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::kernels::{self, RhsLayout};
use crate::scratch;

/// A dense, row-major matrix of `f64`.
///
/// Rows are samples, columns are features — the layout every layer in this
/// crate assumes.
///
/// # Examples
///
/// ```
/// use nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = scratch::take_buffer(self.data.len());
        data.copy_from_slice(&self.data);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.resize(source.rows, source.cols);
        self.data.copy_from_slice(&source.data);
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        scratch::recycle(std::mem::take(&mut self.data));
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros (buffer drawn from the scratch pool).
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: scratch::take_buffer(rows * cols),
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the input is empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut out = Matrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            out.row_mut(r).copy_from_slice(row);
        }
        out
    }

    /// A `1 × n` matrix holding one sample.
    #[must_use]
    pub fn row_vector(values: &[f64]) -> Self {
        let mut out = Matrix::zeros(1, values.len());
        out.data.copy_from_slice(values);
        out
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reshapes to `rows × cols`, zero-filling the contents. Reuses the
    /// existing buffer (or the scratch pool) instead of reallocating.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.rows = rows;
        self.cols = cols;
        if self.data.len() == len {
            self.data.fill(0.0);
        } else if self.data.capacity() >= len {
            self.data.clear();
            self.data.resize(len, 0.0);
        } else {
            scratch::recycle(std::mem::take(&mut self.data));
            self.data = scratch::take_buffer(len);
        }
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self · rhs` (tiled kernel).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self · rhs` into `out`, reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        out.resize(self.rows, rhs.cols);
        kernels::gemm_plain(
            &self.data,
            self.rows,
            self.cols,
            RhsLayout::Normal(&rhs.data),
            rhs.cols,
            &mut out.data,
        );
    }

    /// `selfᵀ · rhs` without materialising the transpose of `rhs`
    /// (tiled kernel; the left operand is packed once into scratch).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    #[must_use]
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_matmul_into(rhs, &mut out);
        out
    }

    /// `selfᵀ · rhs` into `out`, reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub(crate) fn transpose_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "row counts must agree");
        out.resize(self.cols, rhs.cols);
        // Pack selfᵀ once so the driver sees a plain row-major LHS; the
        // shared dimension keeps its ascending accumulation order, so the
        // result matches `naive_transpose_matmul` bit-for-bit.
        let mut lhs_t = scratch::take_buffer(self.data.len());
        for r in 0..self.rows {
            for c in 0..self.cols {
                lhs_t[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        kernels::gemm_plain(
            &lhs_t,
            self.cols,
            self.rows,
            RhsLayout::Normal(&rhs.data),
            rhs.cols,
            &mut out.data,
        );
        scratch::recycle(lhs_t);
    }

    /// `self · rhsᵀ` without materialising the transpose (tiled kernel;
    /// panels are packed directly from the transposed layout).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    #[must_use]
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transpose_into(rhs, &mut out);
        out
    }

    /// `self · rhsᵀ` into `out`, reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub(crate) fn matmul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_transpose_fused_into(rhs, out, &|_: &mut [f64]| {});
    }

    /// `self · rhsᵀ` with a fused per-row epilogue: `post` runs once on each
    /// finished output row while it is cache-hot. The layer forward pass
    /// uses this to fold the bias broadcast and activation into the product.
    pub(crate) fn matmul_transpose_fused_into<P: Fn(&mut [f64]) + Sync>(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        post: &P,
    ) {
        assert_eq!(self.cols, rhs.cols, "column counts must agree");
        out.resize(self.rows, rhs.rows);
        kernels::gemm(
            &self.data,
            self.rows,
            self.cols,
            RhsLayout::Transposed(&rhs.data),
            rhs.rows,
            &mut out.data,
            post,
        );
    }

    /// Reference `self · rhs`: the pre-optimisation triple loop. Kept
    /// (hidden) so property tests can compare the tiled kernel against it
    /// in-process.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    #[doc(hidden)]
    #[must_use]
    pub fn naive_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // memory in both `rhs` and `out`.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `selfᵀ · rhs` (see [`Matrix::naive_matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    #[doc(hidden)]
    #[must_use]
    pub fn naive_transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "row counts must agree");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let left = &self.data[r * self.cols..(r + 1) * self.cols];
            let right = &rhs.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (i, &a) in left.iter().enumerate() {
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(right) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `self · rhsᵀ` (see [`Matrix::naive_matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    #[doc(hidden)]
    #[must_use]
    pub fn naive_matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "column counts must agree");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let left = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let right = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in left.iter().zip(right) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// The transposed matrix.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
        out
    }

    /// Scales every element by `s`.
    #[must_use]
    pub(crate) fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Scales every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds `bias` (length = cols) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    #[must_use]
    pub fn add_row_broadcast(&self, bias: &[f64]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    /// Column sums as a vector of length `cols`.
    #[must_use]
    pub(crate) fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        self.column_sums_into(&mut sums);
        sums
    }

    /// Column sums into `out` (resized to `cols`).
    pub(crate) fn column_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (s, &v) in out.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Concatenates matrices horizontally (same row count).
    ///
    /// # Panics
    ///
    /// Panics on empty input or mismatched row counts.
    #[must_use]
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "nothing to concatenate");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "row mismatch in hconcat");
                out.data[r * cols + offset..r * cols + offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Returns the sub-matrix of columns `[start, start + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    #[must_use]
    pub fn columns(&self, start: usize, width: usize) -> Matrix {
        assert!(start + width <= self.cols, "column range out of bounds");
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let mut out = Matrix::zeros(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a + b;
        }
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let mut out = Matrix::zeros(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a - b;
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
impl Matrix {
    /// The Frobenius norm.
    #[must_use]
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut out = Matrix::zeros(rows, cols);
        for v in &mut out.data {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state as f64 / u64::MAX as f64) * 2.0 - 1.0;
        }
        out
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_matmul_equals_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_transpose_equals_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.5]]);
        let identity = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&identity), a);
    }

    #[test]
    fn tiled_products_match_naive_bitwise() {
        // Sizes straddling the tile (4×16) and stream/pack thresholds.
        for &(m, k, n) in &[
            (1usize, 7usize, 9usize),
            (3, 17, 5),
            (4, 16, 16),
            (5, 33, 18),
            (23, 40, 31),
            (64, 64, 64),
        ] {
            let a = pseudo_random(m, k, 3 * m as u64 + 1);
            let b = pseudo_random(k, n, 5 * n as u64 + 7);
            assert_eq!(a.matmul(&b), a.naive_matmul(&b), "matmul {m}x{k}x{n}");

            let at = pseudo_random(k, m, 11 * m as u64 + 3);
            assert_eq!(
                at.transpose_matmul(&b),
                at.naive_transpose_matmul(&b),
                "transpose_matmul {m}x{k}x{n}"
            );

            let bt = pseudo_random(n, k, 13 * n as u64 + 5);
            assert_eq!(
                a.matmul_transpose(&bt),
                a.naive_matmul_transpose(&bt),
                "matmul_transpose {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(a.matmul(&b).rows(), 0);
        let c = Matrix::zeros(4, 0);
        let d = Matrix::zeros(0, 6);
        let prod = c.matmul(&d);
        assert_eq!((prod.rows(), prod.cols()), (4, 6));
        assert!(prod.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_into_reuses_out() {
        let a = pseudo_random(6, 8, 21);
        let b = pseudo_random(8, 10, 22);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.naive_matmul(&b));
        // Second call with different shapes reuses the same Matrix.
        let c = pseudo_random(8, 4, 23);
        a.matmul_into(&c, &mut out);
        assert_eq!(out, a.naive_matmul(&c));
    }

    #[test]
    fn resize_zeroes_and_reshapes() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.resize(3, 1);
        assert_eq!((m.rows(), m.cols()), (3, 1));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        m.resize(2, 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn in_place_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        a.scale_in_place(3.0);
        assert_eq!(a, Matrix::from_rows(&[&[3.0, 6.0]]));
    }

    #[test]
    fn hconcat_and_columns_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let joined = Matrix::hconcat(&[&a, &b]);
        assert_eq!(joined.cols(), 3);
        assert_eq!(joined.columns(0, 2), a);
        assert_eq!(joined.columns(2, 1), b);
    }

    #[test]
    fn broadcast_and_column_sums() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let biased = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(biased, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn norms_and_means() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn bad_from_vec_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn clone_is_independent() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut b = a.clone();
        b.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(b.get(0, 0), 9.0);
    }
}
