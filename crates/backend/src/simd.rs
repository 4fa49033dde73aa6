//! The SIMD backend: runtime-detected x86_64 AVX2/SSE kernels with a
//! portable unrolled-accumulator fallback.
//!
//! Three rules keep this backend inside the bit-reproducibility contract
//! (`REPRODUCIBILITY.md`):
//!
//! 1. **Vectorise across independent output elements only.** The GEMM and
//!    elementwise kernels process 8 (AVX2) or 4 (SSE) output elements per
//!    instruction, but each element still sees exactly the scalar
//!    reference's operation sequence — same multiplies, same adds, same
//!    `p`-ascending order, no FMA contraction.
//! 2. **Never reassociate a reduction.** In-order reductions (`sum`, `dot`)
//!    and the order-sensitive first-maximum scan (`max_scan`) delegate to
//!    the scalar reference: a lane-blocked accumulator would change the
//!    floating-point association and therefore the bits.
//! 3. **Data movement is free.** `im2col` rows are pure copies, so the
//!    stride-1 fast path lowers interior spans with `copy_from_slice`
//!    instead of per-element bounds checks.
//!
//! Off x86_64 (or when even SSE2 is unavailable, which the x86_64 ABI rules
//! out) the backend runs the portable path: the unrolled-accumulator
//! `gemm_a_bt` kernel plus the scalar reference for everything else, which
//! the autovectoriser is free to widen because the lanes are independent.

use crate::scalar;
#[cfg(target_arch = "x86_64")]
use crate::x86;
use crate::KernelBackend;

/// The instruction-set level a [`SimdBackend`] detected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// 8-lane AVX2 kernels (x86_64 with runtime `avx2` detection).
    Avx2,
    /// 4-lane SSE kernels (always available on x86_64 — part of the ABI).
    Sse,
    /// Portable unrolled-accumulator kernels (non-x86_64 hosts).
    Portable,
}

impl SimdLevel {
    /// Short lowercase name used in reports and the backend table.
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Sse => "sse",
            SimdLevel::Portable => "portable",
        }
    }
}

/// Detects the best level the current CPU supports.
pub(crate) fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline ABI: every x86_64 CPU has it.
            SimdLevel::Sse
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Portable
    }
}

/// Unrolled-accumulator kernel for `out = a·bᵀ` rows: processes
/// [`UNROLL`](gemm_a_bt_row_unrolled) output elements per pass with one
/// independent running accumulator each. Every accumulator still adds its
/// `a_row[p] * b[j*k + p]` terms in `p`-ascending order — the exact
/// per-element sequence of the scalar reference — so this reorganisation is
/// free under the contract while breaking the single-accumulator dependency
/// chain that bounds the scalar kernel's throughput.
fn gemm_a_bt_row_unrolled(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize) {
    const UNROLL: usize = 8;
    if k == 0 {
        out_row.fill(0.0);
        return;
    }
    let mut out_chunks = out_row.chunks_exact_mut(UNROLL);
    let mut b_chunks = b.chunks_exact(UNROLL * k);
    for (out_c, b_c) in out_chunks.by_ref().zip(b_chunks.by_ref()) {
        let mut acc = [0.0f32; UNROLL];
        for (p, &x) in a_row.iter().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                *a += x * b_c[l * k + p];
            }
        }
        out_c.copy_from_slice(&acc);
    }
    // Remainder columns: the scalar reference, one accumulator per element.
    scalar::gemm_a_bt_row(a_row, b_chunks.remainder(), out_chunks.into_remainder(), k);
}

/// Stride-1 fast path for one im2col row: each output row of the lowering is
/// a contiguous span of the input row (shifted by the kernel tap) flanked by
/// padding zeros, so it can be filled with two `fill`s and one
/// `copy_from_slice`. Pure data movement — bit-identical to the scalar
/// per-element loop by construction. Non-unit strides fall back to the
/// scalar reference.
#[allow(clippy::too_many_arguments)]
fn im2col_row_fast(
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
    if stride != 1 {
        scalar::im2col_row(input, h, w, kernel, stride, padding, row, row_out, out_w);
        return;
    }
    let ch = row / (kernel * kernel);
    let ky = (row / kernel) % kernel;
    let kx = row % kernel;
    let out_h = row_out.len() / out_w;
    // ix = ox + off for every output column ox.
    let off = kx as isize - padding as isize;
    let first_valid = usize::try_from(-off).unwrap_or(0).min(out_w);
    let end_valid = usize::try_from(w as isize - off).unwrap_or(0).min(out_w).max(first_valid);
    for oy in 0..out_h {
        let iy = (oy + ky) as isize - padding as isize;
        let dst = &mut row_out[oy * out_w..(oy + 1) * out_w];
        if iy < 0 || iy >= h as isize {
            dst.fill(0.0);
            continue;
        }
        let base = (ch * h + iy as usize) * w;
        dst[..first_valid].fill(0.0);
        dst[end_valid..].fill(0.0);
        if end_valid > first_valid {
            // Non-empty span implies `first_valid >= -off`, so the source
            // index cannot go negative; an empty span must skip this — its
            // `first_valid + off` can be negative (wide kernels on narrow
            // inputs, e.g. kernel 9 on w = 2) and would wrap the usize.
            let src = base + (first_valid as isize + off) as usize;
            dst[first_valid..end_valid]
                .copy_from_slice(&input[src..src + (end_valid - first_valid)]);
        }
    }
}

/// Dispatches `$func` to the detected instruction-set level.
///
/// # Safety (of the generated `unsafe` calls)
///
/// The `Avx2`/`Sse` arms call `#[target_feature]` kernels; the level was
/// chosen by [`detect_level`] at construction, so the required feature is
/// guaranteed present on this CPU.
macro_rules! level_dispatch {
    ($self:ident, $func:ident ( $($arg:expr),* )) => {
        match $self.level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::avx2::$func($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse => unsafe { x86::sse::$func($($arg),*) },
            _ => scalar::$func($($arg),*),
        }
    };
}

/// The SIMD backend. Construction detects the CPU once; every kernel then
/// dispatches to the matching `std::arch` module (or the portable fallback)
/// without further branching on features.
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    level: SimdLevel,
}

impl SimdBackend {
    pub(crate) fn new() -> Self {
        SimdBackend { level: detect_level() }
    }

    /// The 4-lane SSE level whatever the host detects (SSE2 is part of the
    /// x86_64 ABI), so tests run that stamp on AVX2 hosts too.
    #[cfg(test)]
    pub(crate) const SSE: SimdBackend = SimdBackend { level: SimdLevel::Sse };

    /// The instruction-set level detected at construction.
    pub fn level(&self) -> SimdLevel {
        self.level
    }
}

impl KernelBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], accumulate: bool) {
        level_dispatch!(self, gemm_row(a_row, b, out_row, accumulate));
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
        match self.level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe {
                x86::avx2::gemm_rows(a_rows, b, out_rows, k, n, accumulate)
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse => unsafe { x86::sse::gemm_rows(a_rows, b, out_rows, k, n, accumulate) },
            _ => {
                for (a_row, out_row) in a_rows.chunks_exact(k).zip(out_rows.chunks_exact_mut(n)) {
                    scalar::gemm_row(a_row, b, out_row, accumulate);
                }
            }
        }
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
        level_dispatch!(self, gemm_at_b_band(a, b, out_band, row0, m, n));
    }

    fn gemm_a_bt_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize) {
        crate::assert_a_bt_operands(a_row.len(), b.len(), out_row.len(), k, out_row.len());
        // Unrolled independent accumulators at every level: the win is ILP
        // (eight dependency chains instead of one), not lane width.
        gemm_a_bt_row_unrolled(a_row, b, out_row, k);
    }

    fn gemm_a_bt_rows(&self, a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
        crate::assert_a_bt_operands(a_rows.len(), b.len(), out_rows.len(), k, n);
        // A single row keeps the unrolled row kernel: a row block would read
        // all of `b` just the same, with every other lane padding.
        let blocked = out_rows.len() > n;
        // SAFETY: `self.level` was detected on this CPU (or is SSE, which
        // every x86_64 CPU has), so the stamp's target feature is present.
        match self.level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 if blocked => unsafe {
                x86::avx2::gemm_a_bt_rows(a_rows, b, out_rows, k, n)
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse if blocked => unsafe {
                x86::sse::gemm_a_bt_rows(a_rows, b, out_rows, k, n)
            },
            _ => {
                for (a_row, out_row) in a_rows.chunks_exact(k).zip(out_rows.chunks_exact_mut(n)) {
                    gemm_a_bt_row_unrolled(a_row, b, out_row, k);
                }
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
        im2col_row_fast(input, h, w, kernel, stride, padding, row, row_out, out_w);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
        level_dispatch!(self, axpy(alpha, x, y));
    }

    fn add_assign(&self, y: &mut [f32], x: &[f32]) {
        assert_eq!(x.len(), y.len(), "add_assign operands must have equal length");
        level_dispatch!(self, add_assign(y, x));
    }

    fn scale_assign(&self, data: &mut [f32], s: f32) {
        level_dispatch!(self, scale_assign(data, s));
    }

    fn add_scalar_assign(&self, data: &mut [f32], s: f32) {
        level_dispatch!(self, add_scalar_assign(data, s));
    }

    // In-order reductions and order-sensitive scans cannot be vectorised
    // without reassociating floating-point ops, so per the contract they
    // fall back to the scalar reference rather than relax bit-identity.

    fn sum(&self, x: &[f32]) -> f32 {
        scalar::sum(x)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        scalar::dot(a, b)
    }

    fn max_scan(&self, x: &[f32]) -> Option<(usize, f32)> {
        scalar::max_scan(x)
    }
}
