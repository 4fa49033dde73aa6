//! The relaxed-contract FMA backend: AVX2 + fused multiply-add kernels.
//!
//! Everything here is **outside the bit-reproducibility contract**: a fused
//! multiply-add performs one rounding where the scalar reference performs
//! two, and the `a·bᵀ` row kernel accumulates eight-lane partial sums that
//! it reduces at the end (a reassociated reduction). Results are compared
//! against the float goldens by *tolerance* (see `fuse-quant`'s comparator
//! and the relaxed-contract section of `REPRODUCIBILITY.md`), never by
//! bits.
//!
//! The backend is only constructed when the host CPU reports both `avx2`
//! and `fma`, and is only reachable through
//! [`ContractMode::Relaxed`](crate::ContractMode) dispatch — exact-mode
//! call sites demote `FUSE_BACKEND=simd-fma` to the plain SIMD backend, so
//! training, checkpointing and the exact golden suite never see these
//! kernels.

#![cfg(target_arch = "x86_64")]

use crate::simd::SimdBackend;
use crate::x86;
use crate::KernelBackend;

/// Horizontal sum of an 8-lane register, reduced pairwise. Any association
/// is acceptable here — the kernel is already relaxed.
///
/// # Safety
///
/// Caller must ensure AVX is available.
#[inline(always)]
unsafe fn hsum256(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let q = _mm_add_ps(lo, hi);
    let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(d, _mm_shuffle_ps::<1>(d, d));
    _mm_cvtss_f32(s)
}

/// One output row of `out = a·bᵀ` with eight-lane FMA accumulators per dot
/// product (reassociated reduction + fused rounding — relaxed only).
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available.
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_a_bt_row_fma(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize) {
    use std::arch::x86_64::*;
    for (j, out) in out_row.iter_mut().enumerate() {
        let b_row = &b[j * k..(j + 1) * k];
        let mut acc = _mm256_setzero_ps();
        let mut p = 0;
        while p + 8 <= k {
            let va = _mm256_loadu_ps(a_row.as_ptr().add(p));
            let vb = _mm256_loadu_ps(b_row.as_ptr().add(p));
            acc = _mm256_fmadd_ps(va, vb, acc);
            p += 8;
        }
        let mut s = hsum256(acc);
        while p < k {
            s += a_row[p] * b_row[p];
            p += 1;
        }
        *out = s;
    }
}

/// The relaxed AVX2+FMA backend. GEMM-family kernels run the `avx2fma`
/// macro level (fused multiply-add) or the reassociated row-dot kernel;
/// everything order-insensitive or outside the hot GEMM paths delegates to
/// the exact SIMD backend.
#[derive(Debug, Clone, Copy)]
pub struct FmaBackend {
    inner: SimdBackend,
}

impl FmaBackend {
    /// Constructs the backend when the host CPU supports AVX2 + FMA,
    /// `None` otherwise (relaxed dispatch then falls back to the exact
    /// SIMD backend, so non-FMA hosts degrade to exact results).
    pub(crate) fn detect() -> Option<Self> {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Some(FmaBackend { inner: SimdBackend::new() })
        } else {
            None
        }
    }
}

impl KernelBackend for FmaBackend {
    fn name(&self) -> &'static str {
        "simd-fma"
    }

    fn gemm_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], accumulate: bool) {
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::gemm_row(a_row, b, out_row, accumulate) }
    }

    fn gemm_rows(
        &self,
        a_rows: &[f32],
        b: &[f32],
        out_rows: &mut [f32],
        k: usize,
        n: usize,
        accumulate: bool,
    ) {
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::gemm_rows(a_rows, b, out_rows, k, n, accumulate) }
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
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::gemm_at_b_band(a, b, out_band, row0, m, n) }
    }

    fn gemm_a_bt_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize) {
        // The kernel reads `a_row` through raw pointers.
        crate::assert_a_bt_operands(a_row.len(), b.len(), out_row.len(), k, out_row.len());
        if k == 0 {
            out_row.fill(0.0);
            return;
        }
        // Safety: construction proved avx2+fma.
        unsafe { gemm_a_bt_row_fma(a_row, b, out_row, k) }
    }

    fn gemm_a_bt_rows(&self, a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
        crate::assert_a_bt_operands(a_rows.len(), b.len(), out_rows.len(), k, n);
        if out_rows.len() > n {
            // Safety: construction proved avx2+fma.
            unsafe { x86::avx2fma::gemm_a_bt_rows(a_rows, b, out_rows, k, n) }
        } else {
            for (a_row, out_row) in a_rows.chunks_exact(k).zip(out_rows.chunks_exact_mut(n)) {
                self.gemm_a_bt_row(a_row, b, out_row, k);
            }
        }
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
        // Pure data movement — identical at every contract level.
        self.inner.im2col_row(input, h, w, kernel, stride, padding, row, row_out, out_w);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::axpy(alpha, x, y) }
    }

    // The remaining elementwise kernels never compose a multiply with an
    // add, so the `avx2fma` instantiations are bit-identical to `avx2` —
    // dispatching them here just keeps the whole backend on one module.

    fn add_assign(&self, y: &mut [f32], x: &[f32]) {
        assert_eq!(x.len(), y.len(), "add_assign operands must have equal length");
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::add_assign(y, x) }
    }

    fn scale_assign(&self, data: &mut [f32], s: f32) {
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::scale_assign(data, s) }
    }

    fn add_scalar_assign(&self, data: &mut [f32], s: f32) {
        // Safety: construction proved avx2+fma.
        unsafe { x86::avx2fma::add_scalar_assign(data, s) }
    }

    // Reductions and scans stay on the exact reference even in relaxed
    // mode: they are cheap, and keeping them exact narrows the surface the
    // tolerance budgets have to cover.

    fn sum(&self, x: &[f32]) -> f32 {
        self.inner.sum(x)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        self.inner.dot(a, b)
    }

    fn max_scan(&self, x: &[f32]) -> Option<(usize, f32)> {
        self.inner.max_scan(x)
    }
}
