//! The scalar reference kernels.
//!
//! These are the original `fuse-tensor` hot loops, extracted verbatim: the
//! floating-point order they define **is** the numeric contract of the
//! workspace — every committed golden trace was produced by these loops, and
//! [`crate::SimdBackend`] is only allowed to reorganise work in ways that
//! leave every per-element operation sequence unchanged (see
//! `REPRODUCIBILITY.md`). They live as free functions so the SIMD backend can
//! delegate to them for the ops it must not vectorise (in-order reductions,
//! first-maximum scans) without duplicating code.

use crate::KernelBackend;

/// Per-row GEMM kernel: `out_row (+)= a_row · b` where `b` is `[k x n]` and
/// `n == out_row.len()`. The `p`-ascending accumulation order is the single
/// source of truth for every backend.
#[inline]
pub(crate) fn gemm_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], accumulate: bool) {
    let n = out_row.len();
    if !accumulate {
        out_row.fill(0.0);
    }
    for (p, &a_ip) in a_row.iter().enumerate() {
        if a_ip == 0.0 {
            continue;
        }
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
            *o += a_ip * b_pj;
        }
    }
}

/// `k`-outer band kernel of `out = aᵀ·b` over a contiguous band of output
/// rows starting at absolute row `row0` (`a` stored `[k x m]`, `b` stored
/// `[k x n]`). Each output row accumulates in `p`-ascending order — the same
/// order for any banding, so parallel output is bit-identical to serial.
pub(crate) fn gemm_at_b_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    row0: usize,
    m: usize,
    n: usize,
) {
    out_band.fill(0.0);
    let a_rows = a.chunks_exact(m);
    let b_rows = b.chunks_exact(n);
    assert_eq!(a_rows.len(), b_rows.len(), "operands disagree on k");
    debug_assert_eq!(out_band.len() % n, 0, "output band must hold whole rows of length n");
    for (a_row, b_row) in a_rows.zip(b_rows) {
        for (i, out_row) in out_band.chunks_exact_mut(n).enumerate() {
            let a_pi = a_row[row0 + i];
            if a_pi == 0.0 {
                continue;
            }
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_pi * b_pj;
            }
        }
    }
}

/// Per-row kernel of `out = a·bᵀ`: `out_row[j] = a_row · b[j]` with `b`
/// stored `[n x k]`. One running accumulator per output element, `p`
/// ascending.
#[inline]
pub(crate) fn gemm_a_bt_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize) {
    for (o, b_row) in out_row.iter_mut().zip(b.chunks_exact(k)) {
        let mut acc = 0.0f32;
        for (x, y) in a_row.iter().zip(b_row) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// Fills one row of an im2col matrix: the lowered window values for kernel
/// tap `(ch, ky, kx) = decode(row)` at every output position. Pure data
/// movement — no arithmetic, so any backend may reorganise it freely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_row(
    input: &[f32],
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    row: usize,
    row_out: &mut [f32],
    out_w: usize,
) {
    let ch = row / (kernel * kernel);
    let ky = (row / kernel) % kernel;
    let kx = row % kernel;
    let out_h = row_out.len() / out_w;
    for oy in 0..out_h {
        let iy = (oy * stride + ky) as isize - padding as isize;
        for ox in 0..out_w {
            let ix = (ox * stride + kx) as isize - padding as isize;
            let val = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                input[(ch * h + iy as usize) * w + ix as usize]
            } else {
                0.0
            };
            row_out[oy * out_w + ox] = val;
        }
    }
}

/// `y += alpha * x`, element order ascending.
#[inline]
pub(crate) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += x`, element order ascending.
#[inline]
pub(crate) fn add_assign(y: &mut [f32], x: &[f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// `data *= s`, element order ascending.
#[inline]
pub(crate) fn scale_assign(data: &mut [f32], s: f32) {
    for v in data {
        *v *= s;
    }
}

/// `data += s` (bias broadcast), element order ascending.
#[inline]
pub(crate) fn add_scalar_assign(data: &mut [f32], s: f32) {
    for v in data {
        *v += s;
    }
}

/// In-order running sum. The left-to-right association is part of the
/// contract: a lane-blocked SIMD sum would change the result, so every
/// backend must use exactly this reduction.
#[inline]
pub(crate) fn sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// In-order dot product (`Σ a[i]*b[i]`, left-to-right).
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// First-maximum scan with strict `>` against a running best that starts at
/// `-∞`: returns the index and value of the first element strictly greater
/// than everything before it. `None` when no element exceeds `-∞` (empty
/// slices, all `-∞`, all NaN) — mirroring the max-pooling loop this was
/// extracted from, where such a window leaves the argmax untouched.
#[inline]
pub(crate) fn max_scan(x: &[f32]) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in x.iter().enumerate() {
        let greater = match best {
            None => v > f32::NEG_INFINITY,
            Some((_, b)) => v > b,
        };
        if greater {
            best = Some((i, v));
        }
    }
    best
}

/// The reference backend: the workspace's original scalar loops, unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], accumulate: bool) {
        gemm_row(a_row, b, out_row, accumulate);
    }

    fn gemm_at_b_band(
        &self,
        a: &[f32],
        b: &[f32],
        out_band: &mut [f32],
        row0: usize,
        m: usize,
        n: usize,
    ) {
        gemm_at_b_band(a, b, out_band, row0, m, n);
    }

    fn gemm_a_bt_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize) {
        gemm_a_bt_row(a_row, b, out_row, k);
    }

    fn im2col_row(
        &self,
        input: &[f32],
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        row: usize,
        row_out: &mut [f32],
        out_w: usize,
    ) {
        im2col_row(input, h, w, kernel, stride, padding, row, row_out, out_w);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        axpy(alpha, x, y);
    }

    fn add_assign(&self, y: &mut [f32], x: &[f32]) {
        add_assign(y, x);
    }

    fn scale_assign(&self, data: &mut [f32], s: f32) {
        scale_assign(data, s);
    }

    fn add_scalar_assign(&self, data: &mut [f32], s: f32) {
        add_scalar_assign(data, s);
    }

    fn sum(&self, x: &[f32]) -> f32 {
        sum(x)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }

    fn max_scan(&self, x: &[f32]) -> Option<(usize, f32)> {
        max_scan(x)
    }
}
