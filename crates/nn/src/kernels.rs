//! Cache-blocked, register-tiled GEMM kernels.
//!
//! One driver ([`gemm`]) backs all three matrix products the training stack
//! uses (`A·B`, `Aᵀ·B`, `A·Bᵀ`). The right-hand side is packed into
//! column panels of [`NR`] values laid out k-major, so the innermost loop
//! streams both operands contiguously; the micro-kernel accumulates an
//! [`MR`]`×`[`NR`] register tile with one accumulator row per output row.
//!
//! Determinism contract: every output element is the sum of its `k`
//! products accumulated in ascending-`k` order from `0.0`, in every path —
//! the packed tile kernel, the unpacked small-matrix fallback, and the
//! row-parallel split (which partitions whole output rows and never splits
//! a reduction). Tiled, naive, serial and threaded results are therefore
//! bit-identical, for any thread count.
//!
//! The optional `post` hook runs exactly once on each finished output row
//! while it is still cache-hot; the layer forward pass uses it to fuse the
//! bias broadcast and activation into the product.

use crate::threads;

/// Rows per register tile (one accumulator row per output row).
pub(crate) const MR: usize = 4;
/// Columns per packed panel / register tile.
pub(crate) const NR: usize = 16;

/// Below this many multiply-adds, packing the RHS costs more than it saves.
const STREAM_MIN_MADDS: usize = 4096;
/// Packing needs at least this many LHS rows to amortise.
const PACK_MIN_ROWS: usize = MR;
/// Below this many multiply-adds the threaded split is never attempted.
const PAR_MIN_MADDS: usize = 1 << 20;

/// How the driver should read the right-hand side operand.
pub(crate) enum RhsLayout<'a> {
    /// Row-major `k × n`: `out = A · B`.
    Normal(&'a [f64]),
    /// Row-major `n × k` (the logical RHS stored transposed): `out = A · Bᵀ`.
    /// This is the packed-RHS fast path for `matmul_transpose` — panels are
    /// packed straight from the transposed layout with no intermediate copy.
    Transposed(&'a [f64]),
}

fn no_post(_: &mut [f64]) {}

/// `out(m×n) = A(m×k) · B`, with `post` applied to each completed row.
///
/// `out` must be zero-filled on entry (the small-matrix path accumulates in
/// place; the tiled path overwrites).
pub(crate) fn gemm<P: Fn(&mut [f64]) + Sync>(
    a: &[f64],
    m: usize,
    k: usize,
    rhs: RhsLayout<'_>,
    n: usize,
    out: &mut [f64],
    post: &P,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let madds = m * k * n;
    if m < PACK_MIN_ROWS || madds < STREAM_MIN_MADDS {
        gemm_small(a, m, k, &rhs, n, out, post);
        return;
    }

    let panels = n.div_ceil(NR);
    let mut packed = crate::scratch::take_buffer(panels * k * NR);
    pack_rhs(&rhs, k, n, &mut packed);

    let row_blocks = m.div_ceil(MR);
    let threads = threads::effective_threads().min(row_blocks);
    if threads > 1 && madds >= PAR_MIN_MADDS {
        // Partition whole output rows (aligned to MR blocks) across scoped
        // threads. Each row's reduction stays on one thread, so the split
        // cannot change any floating-point result.
        let rows_per = row_blocks.div_ceil(threads) * MR;
        let packed_ref: &[f64] = &packed;
        std::thread::scope(|scope| {
            let mut a_rest = a;
            let mut out_rest = &mut *out;
            while !out_rest.is_empty() {
                let take = rows_per.min(out_rest.len() / n);
                let (a_chunk, a_tail) = a_rest.split_at(take * k);
                let (out_chunk, out_tail) = out_rest.split_at_mut(take * n);
                a_rest = a_tail;
                out_rest = out_tail;
                scope.spawn(move || gemm_packed(a_chunk, take, k, packed_ref, n, out_chunk, post));
            }
        });
    } else {
        gemm_packed(a, m, k, &packed, n, out, post);
    }
    crate::scratch::recycle(packed);
}

/// Convenience wrapper for product-only call sites.
pub(crate) fn gemm_plain(
    a: &[f64],
    m: usize,
    k: usize,
    rhs: RhsLayout<'_>,
    n: usize,
    out: &mut [f64],
) {
    gemm(a, m, k, rhs, n, out, &no_post);
}

/// Packs the RHS into k-major column panels of width `NR`:
/// `packed[p*k*NR + t*NR + jj] = B[t][p*NR + jj]`. Writes only the real
/// columns, so `packed` must be zero-filled on entry for the padding of a
/// last panel narrower than `NR` to be zero.
pub(crate) fn pack_rhs(rhs: &RhsLayout<'_>, k: usize, n: usize, packed: &mut [f64]) {
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let width = NR.min(n - j0);
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        match *rhs {
            RhsLayout::Normal(b) => {
                for t in 0..k {
                    dst[t * NR..t * NR + width].copy_from_slice(&b[t * n + j0..t * n + j0 + width]);
                }
            }
            RhsLayout::Transposed(bt) => {
                for jj in 0..width {
                    let col = &bt[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (t, &v) in col.iter().enumerate() {
                        dst[t * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// MR-row × NR-col register-tile micro-kernel over one packed panel.
///
/// The per-row slice locals are deliberate: LLVM keeps the accumulator tile
/// in vector registers with this shape, but spills it if the rows are
/// addressed through a generic `for r in 0..MR` loop.
#[inline(always)]
fn micro_tile(a: &[f64], k: usize, i: usize, panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    for t in 0..k {
        let bv = &panel[t * NR..(t + 1) * NR];
        let (v0, v1, v2, v3) = (a0[t], a1[t], a2[t], a3[t]);
        for jj in 0..NR {
            acc[0][jj] += v0 * bv[jj];
            acc[1][jj] += v1 * bv[jj];
            acc[2][jj] += v2 * bv[jj];
            acc[3][jj] += v3 * bv[jj];
        }
    }
}

/// Single-row variant for the `m % MR` remainder rows.
#[inline(always)]
fn micro_row(a_row: &[f64], panel: &[f64], acc: &mut [f64; NR]) {
    for (t, &v) in a_row.iter().enumerate() {
        let bv = &panel[t * NR..(t + 1) * NR];
        for jj in 0..NR {
            acc[jj] += v * bv[jj];
        }
    }
}

/// Tiled product over a pre-packed RHS; writes (never accumulates into)
/// `out` and runs `post` on each completed row. `PackedMlp` calls it with
/// panels packed once at load; [`gemm`] with panels packed per call.
pub(crate) fn gemm_packed<P: Fn(&mut [f64]) + Sync>(
    a: &[f64],
    m: usize,
    k: usize,
    packed: &[f64],
    n: usize,
    out: &mut [f64],
    post: &P,
) {
    let full_panels = n / NR;
    let tail = n % NR;
    let panel_len = k * NR;
    let mut i = 0;
    while i + MR <= m {
        for p in 0..full_panels {
            let panel = &packed[p * panel_len..(p + 1) * panel_len];
            let mut acc = [[0.0f64; NR]; MR];
            micro_tile(a, k, i, panel, &mut acc);
            for (r, acc_row) in acc.iter().enumerate() {
                let at = (i + r) * n + p * NR;
                out[at..at + NR].copy_from_slice(acc_row);
            }
        }
        if tail != 0 {
            let panel = &packed[full_panels * panel_len..(full_panels + 1) * panel_len];
            let mut acc = [[0.0f64; NR]; MR];
            micro_tile(a, k, i, panel, &mut acc);
            for (r, acc_row) in acc.iter().enumerate() {
                let at = (i + r) * n + full_panels * NR;
                out[at..at + tail].copy_from_slice(&acc_row[..tail]);
            }
        }
        for r in 0..MR {
            post(&mut out[(i + r) * n..(i + r + 1) * n]);
        }
        i += MR;
    }
    while i < m {
        let a_row = &a[i * k..(i + 1) * k];
        for p in 0..full_panels {
            let panel = &packed[p * panel_len..(p + 1) * panel_len];
            let mut acc = [0.0f64; NR];
            micro_row(a_row, panel, &mut acc);
            out[i * n + p * NR..i * n + (p + 1) * NR].copy_from_slice(&acc);
        }
        if tail != 0 {
            let panel = &packed[full_panels * panel_len..(full_panels + 1) * panel_len];
            let mut acc = [0.0f64; NR];
            micro_row(a_row, panel, &mut acc);
            out[i * n + full_panels * NR..i * n + full_panels * NR + tail]
                .copy_from_slice(&acc[..tail]);
        }
        post(&mut out[i * n..(i + 1) * n]);
        i += 1;
    }
}

/// Unpacked fallback for matrices too small to amortise packing.
/// Accumulates into the zero-filled `out` in the same ascending-`k` order
/// as the tiled kernel, so both paths agree bit-for-bit.
fn gemm_small<P: Fn(&mut [f64]) + Sync>(
    a: &[f64],
    m: usize,
    k: usize,
    rhs: &RhsLayout<'_>,
    n: usize,
    out: &mut [f64],
    post: &P,
) {
    match *rhs {
        RhsLayout::Normal(b) => {
            for i in 0..m {
                let out_row = &mut out[i * n..(i + 1) * n];
                let a_row = &a[i * k..(i + 1) * k];
                for (t, &av) in a_row.iter().enumerate() {
                    let b_row = &b[t * n..(t + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
                post(out_row);
            }
        }
        RhsLayout::Transposed(bt) => {
            for i in 0..m {
                let out_row = &mut out[i * n..(i + 1) * n];
                let a_row = &a[i * k..(i + 1) * k];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &bt[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *o = acc;
                }
                post(out_row);
            }
        }
    }
}
