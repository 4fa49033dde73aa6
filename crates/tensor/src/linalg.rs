//! Low-level dense linear-algebra kernels.
//!
//! These kernels operate on plain `&[f32]` slices so they can be reused by the
//! tensor type, the im2col convolution path and the radar signal chain without
//! additional allocation.
//!
//! ## Execution backends
//!
//! Every matrix product dispatches row-parallel bands to the `fuse-parallel`
//! pool when the operation is large enough ([`fuse_parallel::parallel_beneficial`])
//! and runs serially otherwise; *within* each row the arithmetic runs on the
//! active [`fuse_backend::KernelBackend`] (scalar reference or SIMD, selected
//! by `FUSE_BACKEND` / [`fuse_backend::with_backend`]). The backend is
//! fetched once per dispatch on the calling thread and handed into the pool
//! tasks, so thread-local test overrides compose with parallel execution.
//! All backends honour the bit-reproducibility contract
//! (`REPRODUCIBILITY.md`), so results are bit-identical for every
//! `FUSE_THREADS` × `FUSE_BACKEND` combination — the invariant the
//! workspace's seed-exact tests and the CI backend matrix rely on.
//!
//! ## Relaxed entry points
//!
//! The `*_relaxed` variants ([`affine_a_bt_relaxed`]) resolve the backend
//! through [`fuse_backend::ContractMode::Relaxed`] instead of exact
//! dispatch. Under `scalar`/`simd`/`auto` they are bit-identical to their
//! exact twins (relaxed dispatch only differs for the opt-in `simd-fma`
//! choice); under `FUSE_BACKEND=simd-fma` on an FMA host they run fused
//! kernels and are verified by tolerance. Only the compiled-plan serve
//! path calls them.

use fuse_backend::ContractMode;
use fuse_parallel as par;

pub use fuse_backend::KernelBackend;

/// The kernel backend active for the current thread, for callers that want
/// to resolve it once and reuse it across a hot loop (e.g. the max-pooling
/// window scan) instead of paying a per-call lookup through the facade
/// functions below.
pub fn active_backend() -> &'static dyn KernelBackend {
    fuse_backend::active()
}

fn gemm_dispatch(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    gemm_dispatch_on(fuse_backend::active(), a, b, out, m, k, n, acc);
}

#[allow(clippy::too_many_arguments)]
fn gemm_dispatch_on(
    be: &'static dyn KernelBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(b.len() >= k * n, "rhs buffer too small");
    assert!(out.len() >= m * n, "output buffer too small");
    let out = &mut out[..m * n];
    if n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    let (a, b) = (&a[..m * k], &b[..k * n]);
    if m > 1 && par::parallel_beneficial(m * k * n) {
        // Contiguous row bands (one per thread) instead of per-row chunks:
        // the block-level backend kernel can then reuse `b` loads across
        // rows. Per-element accumulation order is banding-independent, so
        // any thread count stays bit-identical.
        let band_rows = m.div_ceil(par::available_threads());
        par::par_chunks_mut(out, band_rows * n, |band, out_band| {
            let start = band * band_rows;
            let rows = out_band.len() / n;
            be.gemm_rows(&a[start * k..(start + rows) * k], b, out_band, k, n, acc);
        });
    } else {
        be.gemm_rows(a, b, out, k, n, acc);
    }
}

/// General matrix multiply: `out[m x n] = a[m x k] * b[k x n]`.
///
/// `out` must already have length `m * n`; it is overwritten, not accumulated
/// into. Each output row keeps the innermost loop contiguous over both `b`
/// and `out`; rows are distributed across the `fuse-parallel` pool for large
/// operands.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_dispatch(a, b, out, m, k, n, false);
}

/// Accumulating matrix multiply: `out += a * b` with the same layout rules as
/// [`gemm`].
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
pub fn gemm_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_dispatch(a, b, out, m, k, n, true);
}

/// [`gemm`] on an explicit backend — the hook the conv forward path uses to
/// run one resolved backend (exact or relaxed) across its whole dispatch.
pub(crate) fn gemm_on(
    be: &'static dyn KernelBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_dispatch_on(be, a, b, out, m, k, n, false);
}

/// Matrix multiply with the left operand transposed: `out[m x n] = aᵀ * b`
/// where `a` is stored as `[k x m]`.
///
/// Used by the Linear/Conv backward passes, which need `Wᵀ·grad` and
/// `xᵀ·grad` products without materialising explicit transposes.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
pub fn gemm_at_b(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    gemm_at_b_dispatch(a, b, out, k, m, n, false);
}

/// Accumulating transposed-lhs multiply: `out += aᵀ * b` with the same
/// layout rules as [`gemm_at_b`]. Each output element adds its terms onto
/// its current value in `p`-ascending order, so from a zeroed `out` the
/// result is bit-identical to [`gemm_at_b`]; layer backward passes use it to
/// accumulate a weight gradient without a product-sized temporary.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
pub fn gemm_at_b_acc(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    gemm_at_b_dispatch(a, b, out, k, m, n, true);
}

fn gemm_at_b_dispatch(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    acc: bool,
) {
    assert!(a.len() >= k * m, "lhs buffer too small");
    assert!(b.len() >= k * n, "rhs buffer too small");
    assert!(out.len() >= m * n, "output buffer too small");
    let out = &mut out[..m * n];
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    let (a, b) = (&a[..k * m], &b[..k * n]);
    let be = fuse_backend::active();
    if m > 1 && par::parallel_beneficial(k * m * n) {
        let band_rows = m.div_ceil(par::available_threads());
        par::par_chunks_mut(out, band_rows * n, |band, out_band| {
            be.gemm_at_b_band(a, b, out_band, band * band_rows, m, n, acc);
        });
    } else {
        be.gemm_at_b_band(a, b, out, 0, m, n, acc);
    }
}

/// Matrix multiply with the right operand transposed: `out[m x n] = a * bᵀ`
/// where `b` is stored as `[n x k]`.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
pub fn gemm_a_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_a_bt_on(fuse_backend::active(), a, b, out, m, k, n);
}

fn gemm_a_bt_on(
    be: &'static dyn KernelBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(b.len() >= n * k, "rhs buffer too small");
    assert!(out.len() >= m * n, "output buffer too small");
    let out = &mut out[..m * n];
    if n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let (a, b) = (&a[..m * k], &b[..n * k]);
    if m > 1 && par::parallel_beneficial(m * k * n) {
        // One contiguous row band per thread, as in `gemm_dispatch_on`: the
        // backend's row-blocked kernel then reads `b` once per block of rows
        // instead of once per row. Per-element accumulation order does not
        // depend on the banding, so any thread count stays bit-identical.
        let band_rows = m.div_ceil(par::available_threads());
        par::par_chunks_mut(out, band_rows * n, |band, out_band| {
            let start = band * band_rows;
            let rows = out_band.len() / n;
            be.gemm_a_bt_rows(&a[start * k..(start + rows) * k], b, out_band, k, n);
        });
    } else {
        be.gemm_a_bt_rows(a, b, out, k, n);
    }
}

/// Fused affine transform `out[m x n] = a * bᵀ + bias` with an optional
/// fused ReLU, where `b` is stored `[n x k]` (a fully-connected layer's
/// weight layout) and `bias` has `n` elements.
///
/// This is the arena-backed entry point compiled `fuse-graph` plans use for
/// Linear layers: the GEMM is exactly [`gemm_a_bt`], the bias add is the same
/// per-element scalar `+` a `Linear` layer applies, and the ReLU is the same
/// per-element `x.max(0.0)` as a standalone ReLU layer — so fusing the three
/// cannot change any bit.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn affine_a_bt(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
) {
    affine_a_bt_on(fuse_backend::active(), a, b, bias, out, m, k, n, relu);
}

/// [`affine_a_bt`] under **relaxed** dispatch: identical to the exact entry
/// point for `scalar`/`simd`/`auto`, the fused FMA kernels under the opt-in
/// `FUSE_BACKEND=simd-fma` on a capable host. The compiled-plan Linear step
/// is the only caller — see `REPRODUCIBILITY.md` § relaxed contract.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn affine_a_bt_relaxed(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
) {
    affine_a_bt_on(fuse_backend::active_for(ContractMode::Relaxed), a, b, bias, out, m, k, n, relu);
}

#[allow(clippy::too_many_arguments)]
fn affine_a_bt_on(
    be: &'static dyn KernelBackend,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
) {
    assert!(bias.len() >= n, "bias buffer too small");
    gemm_a_bt_on(be, a, b, out, m, k, n);
    for row in out[..m * n].chunks_exact_mut(n) {
        for (o, &bv) in row.iter_mut().zip(&bias[..n]) {
            *o += bv;
        }
        if relu {
            for o in row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

/// Outer product `out[m x n] = a ⊗ b`.
///
/// # Panics
///
/// Panics if any slice is shorter than the dimensions imply.
pub fn outer(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(out.len() >= a.len() * b.len(), "output buffer too small");
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i * b.len() + j] = ai * bj;
        }
    }
}

/// `y += alpha * x` over raw slices, on the active backend.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
    fuse_backend::active().axpy(alpha, x, y);
}

/// `y += x` over raw slices, on the active backend.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(x.len(), y.len(), "add_assign operands must have equal length");
    fuse_backend::active().add_assign(y, x);
}

/// `data *= s` in place, on the active backend.
pub fn scale_assign(data: &mut [f32], s: f32) {
    fuse_backend::active().scale_assign(data, s);
}

/// `data += s` in place (bias broadcast), on the active backend.
pub fn add_scalar_assign(data: &mut [f32], s: f32) {
    fuse_backend::active().add_scalar_assign(data, s);
}

/// In-order sum of a slice. Reductions are order-sensitive, so every backend
/// uses the scalar left-to-right association (the reproducibility contract).
pub fn sum(x: &[f32]) -> f32 {
    fuse_backend::active().sum(x)
}

/// Dot product of two equal-length slices (in-order reduction, see [`sum`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    fuse_backend::active().dot(a, b)
}

/// First-maximum scan with strict `>` starting from `-∞` (see
/// [`fuse_backend::KernelBackend::max_scan`]); the max-pooling layer builds
/// its window argmax from this.
pub fn max_scan(x: &[f32]) -> Option<(usize, f32)> {
    fuse_backend::active().max_scan(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn gemm_matches_naive_triple_loop() {
        let m = 4;
        let k = 5;
        let n = 3;
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * -0.21 + 1.0).collect();
        let mut out = vec![0.0; m * n];
        gemm(&a, &b, &mut out, m, k, n);
        let expected = naive_gemm(&a, &b, m, k, n);
        for (x, y) in out.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_acc_accumulates_on_top() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut out = vec![10.0; 4];
        gemm_acc(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn gemm_at_b_matches_explicit_transpose() {
        let k = 3;
        let m = 2;
        let n = 4;
        let a: Vec<f32> = (0..k * m).map(|i| i as f32 + 1.0).collect(); // [k x m]
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.5).collect(); // [k x n]
                                                                          // explicit transpose of a -> [m x k]
        let mut at = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let expected = naive_gemm(&at, &b, m, k, n);
        let mut out = vec![0.0; m * n];
        gemm_at_b(&a, &b, &mut out, k, m, n);
        for (x, y) in out.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn gemm_at_b_acc_accumulates_on_top() {
        let (k, m, n) = (3, 2, 4);
        let a: Vec<f32> = (0..k * m).map(|i| i as f32 * 0.3 - 0.7).collect();
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * -0.2 + 1.1).collect();
        let mut product = vec![7.0; m * n];
        gemm_at_b(&a, &b, &mut product, k, m, n);
        let mut from_zero = vec![0.0; m * n];
        gemm_at_b_acc(&a, &b, &mut from_zero, k, m, n);
        assert_eq!(from_zero, product, "from zeros the accumulate form is the product");
        let mut twice = from_zero.clone();
        gemm_at_b_acc(&a, &b, &mut twice, k, m, n);
        for (x, p) in twice.iter().zip(&product) {
            assert!((x - 2.0 * p).abs() < 1e-5, "{x} vs 2 × {p}");
        }
        // k = 0 adds nothing.
        gemm_at_b_acc(&[], &[], &mut twice, 0, m, n);
        assert!(twice.iter().zip(&product).all(|(x, p)| (x - 2.0 * p).abs() < 1e-5));
    }

    #[test]
    fn gemm_a_bt_matches_explicit_transpose() {
        let m = 3;
        let k = 2;
        let n = 4;
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 1.5).collect(); // [m x k]
        let b: Vec<f32> = (0..n * k).map(|i| (i as f32) * 0.25 + 0.5).collect(); // [n x k]
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let expected = naive_gemm(&a, &bt, m, k, n);
        let mut out = vec![0.0; m * n];
        gemm_a_bt(&a, &b, &mut out, m, k, n);
        for (x, y) in out.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn parallel_gemm_is_bit_identical_to_serial() {
        // 37 rows: past the 16-row a·bᵀ block, with bands of 37, 19 and 10
        // rows at 1, 2 and 4 threads.
        let (m, k, n) = (37, 29, 23);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 1000) as f32 * 1e-3 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 104_729) % 1000) as f32 * 1e-3 - 0.5).collect();
        let run = |threads: usize| {
            fuse_parallel::with_threads(threads, || {
                fuse_parallel::with_min_parallel_work(0, || {
                    let mut out = vec![0.0f32; m * n];
                    gemm(&a, &b, &mut out, m, k, n);
                    let mut out_bt = vec![0.0f32; m * n];
                    gemm_a_bt(&a, &b, &mut out_bt, m, k, n);
                    (out, out_bt)
                })
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn simd_backend_is_bit_identical_to_scalar_for_all_products() {
        use fuse_backend::{with_backend, BackendChoice};
        // Widths off every lane multiple (1, 3, 7, 17) plus aligned 8.
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 7, 17), (7, 17, 3), (5, 8, 8), (2, 3, 7), (28, 257, 13)]
        {
            let a: Vec<f32> =
                (0..m.max(k) * k.max(m)).map(|i| (i % 19) as f32 * 0.3 - 2.0).collect();
            let b: Vec<f32> =
                (0..k * n.max(k) + n * k).map(|i| (i % 23) as f32 * 0.2 - 1.5).collect();
            let run = |choice| {
                with_backend(choice, || {
                    let mut g = vec![0.1f32; m * n];
                    gemm(&a[..m * k], &b[..k * n], &mut g, m, k, n);
                    gemm_acc(&a[..m * k], &b[..k * n], &mut g, m, k, n);
                    let mut gt = vec![0.0f32; m * n];
                    gemm_at_b(&a[..k * m], &b[..k * n], &mut gt, k, m, n);
                    let mut gbt = vec![0.0f32; m * n];
                    gemm_a_bt(&a[..m * k], &b[..n * k], &mut gbt, m, k, n);
                    (g, gt, gbt)
                })
            };
            assert_eq!(run(BackendChoice::Scalar), run(BackendChoice::Simd), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn elementwise_facade_routes_through_backend_bit_identically() {
        use fuse_backend::{with_backend, BackendChoice};
        let x: Vec<f32> = (0..17).map(|i| i as f32 * 0.7 - 5.0).collect();
        let run = |choice| {
            with_backend(choice, || {
                let mut y: Vec<f32> = (0..17).map(|i| i as f32 * -0.3).collect();
                axpy(1.5, &x, &mut y);
                add_assign(&mut y, &x);
                scale_assign(&mut y, 0.77);
                add_scalar_assign(&mut y, -0.1);
                (y, sum(&x), dot(&x, &x), max_scan(&x))
            })
        };
        assert_eq!(run(BackendChoice::Scalar), run(BackendChoice::Simd));
    }

    #[test]
    fn relaxed_affine_is_bit_identical_under_exact_choices() {
        use fuse_backend::{with_backend, BackendChoice};
        let (m, k, n) = (3usize, 33usize, 7usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.21 - 1.0).collect();
        let b: Vec<f32> = (0..n * k).map(|i| (i % 17) as f32 * 0.13 - 1.1).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.05).collect();
        for choice in [BackendChoice::Scalar, BackendChoice::Simd, BackendChoice::Auto] {
            with_backend(choice, || {
                let mut exact = vec![0.0f32; m * n];
                let mut relaxed = vec![0.0f32; m * n];
                affine_a_bt(&a, &b, &bias, &mut exact, m, k, n, true);
                affine_a_bt_relaxed(&a, &b, &bias, &mut relaxed, m, k, n, true);
                assert_eq!(exact, relaxed, "relaxed must be exact under {choice}");
            });
        }
    }

    #[test]
    fn relaxed_affine_under_simd_fma_stays_within_tolerance() {
        use fuse_backend::{with_backend, BackendChoice};
        let (m, k, n) = (4usize, 40usize, 9usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.21 - 1.0).collect();
        let b: Vec<f32> = (0..n * k).map(|i| (i % 17) as f32 * 0.13 - 1.1).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.05 - 0.2).collect();
        let mut exact = vec![0.0f32; m * n];
        affine_a_bt(&a, &b, &bias, &mut exact, m, k, n, false);
        with_backend(BackendChoice::SimdFma, || {
            // Exact dispatch demotes simd-fma: still bit-identical.
            let mut demoted = vec![0.0f32; m * n];
            affine_a_bt(&a, &b, &bias, &mut demoted, m, k, n, false);
            assert_eq!(exact, demoted, "exact dispatch must demote simd-fma");
            // Relaxed dispatch may fuse, but stays within a tight budget.
            let mut relaxed = vec![0.0f32; m * n];
            affine_a_bt_relaxed(&a, &b, &bias, &mut relaxed, m, k, n, false);
            for (e, r) in exact.iter().zip(&relaxed) {
                let tol = 1e-4 * e.abs().max(1.0);
                assert!((e - r).abs() <= tol, "relaxed {r} vs exact {e}");
            }
        });
    }

    #[test]
    fn outer_product() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0, 5.0];
        let mut out = vec![0.0; 6];
        outer(&a, &b, &mut out);
        assert_eq!(out, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn axpy_and_dot() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
        assert_eq!(dot(&x, &x), 14.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn axpy_panics_on_length_mismatch() {
        let x = [1.0, 2.0];
        let mut y = [0.0];
        axpy(1.0, &x, &mut y);
    }
}
