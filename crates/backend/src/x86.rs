//! x86_64 `std::arch` kernels (AVX2 and SSE lane widths, plus the opt-in
//! AVX2+FMA relaxed level).
//!
//! The **exact-contract** levels (`avx2`, `sse`) vectorise **across
//! independent output elements** and perform each lane's arithmetic as a
//! separate IEEE-754 multiply followed by a separate add (`mul_ps` +
//! `add_ps`, never FMA — a fused multiply-add skips the intermediate
//! rounding and would change bits). Because each output element still sees
//! exactly the scalar reference's operation sequence, results are
//! bit-identical to [`crate::scalar`] by construction; see
//! `REPRODUCIBILITY.md`.
//!
//! The `avx2fma` level is stamped from the same macro with the multiply-add
//! helper swapped for `_mm256_fmadd_ps`: one fused rounding per term instead
//! of two. That **breaks bit-identity on purpose** — it is only reachable
//! through the relaxed contract mode ([`crate::ContractMode::Relaxed`]) and
//! is compared against goldens by tolerance, never by bits.
//!
//! The submodules are stamped from one macro and differ only in lane width,
//! intrinsic set and multiply-add composition: `avx2` (8 lanes, runtime AVX2
//! detection), `sse` (4 lanes, part of the x86_64 baseline ABI) and
//! `avx2fma` (8 lanes, runtime AVX2+FMA detection, fused).

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::{
    __m128, __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_mul_ps, _mm_add_ps, _mm_mul_ps,
};

/// `a*b + c` with two separate IEEE-754 roundings — the exact-contract
/// composition (256-bit lanes).
///
/// # Safety
///
/// Caller must ensure AVX is available (guaranteed inside the `avx2`
/// module's `#[target_feature]` kernels).
#[inline(always)]
unsafe fn mul_then_add_256(a: __m256, b: __m256, c: __m256) -> __m256 {
    _mm256_add_ps(_mm256_mul_ps(a, b), c)
}

/// `a*b + c` with two separate roundings (128-bit lanes).
///
/// # Safety
///
/// Caller must ensure SSE is available (baseline on x86_64).
#[inline(always)]
unsafe fn mul_then_add_128(a: __m128, b: __m128, c: __m128) -> __m128 {
    _mm_add_ps(_mm_mul_ps(a, b), c)
}

/// `a*b + c` fused into a single rounding — the relaxed-contract
/// composition. Bit-*different* from [`mul_then_add_256`] whenever the
/// intermediate product is inexact.
///
/// # Safety
///
/// Caller must ensure FMA is available (guaranteed inside the `avx2fma`
/// module's `#[target_feature]` kernels).
#[inline(always)]
unsafe fn fused_mul_add_256(a: __m256, b: __m256, c: __m256) -> __m256 {
    _mm256_fmadd_ps(a, b, c)
}

/// Depth of one `k` chunk of the packed `a·bᵀ` panel: a full 16-row AVX2
/// panel is 256 × 16 × 4 B = 16 KiB, so it stays in L1 beside the `b`
/// streams.
const A_BT_KC: usize = 256;

macro_rules! simd_level {
    ($name:ident, $feature:literal, $lanes:literal,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident, $muladd:ident) => {
        pub(crate) mod $name {
            use std::arch::x86_64::*;

            /// `y += alpha * x`.
            ///
            /// # Safety
            ///
            /// The caller must ensure the CPU supports the module's target
            /// feature (checked once at [`crate::SimdBackend`] construction).
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
                debug_assert!(x.len() >= y.len(), "axpy operand shorter than output");
                let n = y.len();
                let va = $set1(alpha);
                let mut j = 0;
                while j + $lanes <= n {
                    let vx = $load(x.as_ptr().add(j));
                    let vy = $load(y.as_ptr().add(j));
                    $store(y.as_mut_ptr().add(j), super::$muladd(va, vx, vy));
                    j += $lanes;
                }
                while j < n {
                    y[j] += alpha * x[j];
                    j += 1;
                }
            }

            /// `y += x`.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
                debug_assert!(x.len() >= y.len(), "add_assign operand shorter than output");
                let n = y.len();
                let mut j = 0;
                while j + $lanes <= n {
                    let vx = $load(x.as_ptr().add(j));
                    let vy = $load(y.as_ptr().add(j));
                    $store(y.as_mut_ptr().add(j), $add(vy, vx));
                    j += $lanes;
                }
                while j < n {
                    y[j] += x[j];
                    j += 1;
                }
            }

            /// `data *= s`.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn scale_assign(data: &mut [f32], s: f32) {
                let n = data.len();
                let vs = $set1(s);
                let mut j = 0;
                while j + $lanes <= n {
                    let v = $load(data.as_ptr().add(j));
                    $store(data.as_mut_ptr().add(j), $mul(v, vs));
                    j += $lanes;
                }
                while j < n {
                    data[j] *= s;
                    j += 1;
                }
            }

            /// `data += s` (bias broadcast).
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn add_scalar_assign(data: &mut [f32], s: f32) {
                let n = data.len();
                let vs = $set1(s);
                let mut j = 0;
                while j + $lanes <= n {
                    let v = $load(data.as_ptr().add(j));
                    $store(data.as_mut_ptr().add(j), $add(v, vs));
                    j += $lanes;
                }
                while j < n {
                    data[j] += s;
                    j += 1;
                }
            }

            /// Per-row GEMM kernel: `out_row (+)= a_row · b`. The `p` loop and
            /// the zero-skip mirror the scalar reference exactly; only the
            /// independent `j` lanes are processed `$lanes` at a time.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_row(
                a_row: &[f32],
                b: &[f32],
                out_row: &mut [f32],
                accumulate: bool,
            ) {
                let n = out_row.len();
                if !accumulate {
                    out_row.fill(0.0);
                }
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    axpy(a_ip, &b[p * n..(p + 1) * n], out_row);
                }
            }

            /// Register-blocked block kernel of `out (+)= a·b`: four output
            /// rows per pass, each keeping one vector accumulator per
            /// `$lanes`-wide column tile. Reuses every `b` row load across
            /// the four rows (the axpy-per-row kernel reloads `b` for each
            /// output row, which leaves it cache-bandwidth-bound) and keeps
            /// partial sums in registers instead of round-tripping
            /// `out_row` through memory once per `p`.
            ///
            /// Bit-identity: each output element still accumulates its
            /// `a[i][p] * b[p][j]` terms in `p`-ascending order with the
            /// reference's exact zero-skip (`a[i][p] == 0.0` contributes
            /// nothing, applied per row), so the value stream per element is
            /// unchanged — only *when* independent elements are computed
            /// moves.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_rows(
                a_rows: &[f32],
                b: &[f32],
                out_rows: &mut [f32],
                k: usize,
                n: usize,
                accumulate: bool,
            ) {
                const R: usize = 4;
                // Hard asserts, not debug ones: the tiles below read `b`
                // through raw pointers, so these checks are what keeps the
                // safe `gemm_rows` wrappers in bounds in release builds.
                assert!(n > 0, "gemm_rows needs at least one output column");
                let rows = out_rows.len() / n;
                assert!(a_rows.len() >= rows * k, "lhs block shorter than output rows");
                assert!(b.len() >= k * n, "rhs shorter than [k x n]");
                let mut r = 0;
                while r + R <= rows {
                    let mut j = 0;
                    // Wide tiles first: 2 vectors per row amortise the
                    // per-(row, p) scalar broadcast and zero-test over twice
                    // the lanes.
                    while j + 2 * $lanes <= n {
                        // Freshly derived per tile so the raw accesses never
                        // interleave with the slice accesses below.
                        let out = out_rows.as_mut_ptr();
                        let mut acc = [[$set1(0.0); 2]; R];
                        if accumulate {
                            for (i, a) in acc.iter_mut().enumerate() {
                                a[0] = $load(out.add((r + i) * n + j));
                                a[1] = $load(out.add((r + i) * n + j + $lanes));
                            }
                        }
                        for p in 0..k {
                            let vb0 = $load(b.as_ptr().add(p * n + j));
                            let vb1 = $load(b.as_ptr().add(p * n + j + $lanes));
                            for (i, a) in acc.iter_mut().enumerate() {
                                let a_ip = a_rows[(r + i) * k + p];
                                if a_ip != 0.0 {
                                    let va = $set1(a_ip);
                                    a[0] = super::$muladd(va, vb0, a[0]);
                                    a[1] = super::$muladd(va, vb1, a[1]);
                                }
                            }
                        }
                        for (i, a) in acc.iter().enumerate() {
                            $store(out.add((r + i) * n + j), a[0]);
                            $store(out.add((r + i) * n + j + $lanes), a[1]);
                        }
                        j += 2 * $lanes;
                    }
                    while j + $lanes <= n {
                        let out = out_rows.as_mut_ptr();
                        let mut acc = [$set1(0.0); R];
                        if accumulate {
                            for (i, a) in acc.iter_mut().enumerate() {
                                *a = $load(out.add((r + i) * n + j));
                            }
                        }
                        for p in 0..k {
                            let vb = $load(b.as_ptr().add(p * n + j));
                            for (i, a) in acc.iter_mut().enumerate() {
                                let a_ip = a_rows[(r + i) * k + p];
                                if a_ip != 0.0 {
                                    *a = super::$muladd($set1(a_ip), vb, *a);
                                }
                            }
                        }
                        for (i, a) in acc.iter().enumerate() {
                            $store(out.add((r + i) * n + j), *a);
                        }
                        j += $lanes;
                    }
                    // Remainder columns of this row block: the scalar
                    // reference per element (same order, same zero-skip).
                    for i in 0..R {
                        for jj in j..n {
                            let mut o = if accumulate { out_rows[(r + i) * n + jj] } else { 0.0 };
                            for p in 0..k {
                                let a_ip = a_rows[(r + i) * k + p];
                                if a_ip != 0.0 {
                                    o += a_ip * b[p * n + jj];
                                }
                            }
                            out_rows[(r + i) * n + jj] = o;
                        }
                    }
                    r += R;
                }
                // Remaining rows: the vectorised single-row kernel.
                while r < rows {
                    gemm_row(
                        &a_rows[r * k..(r + 1) * k],
                        b,
                        &mut out_rows[r * n..(r + 1) * n],
                        accumulate,
                    );
                    r += 1;
                }
            }

            /// Row-blocked kernel of `out = a·bᵀ`: `a_rows` holds
            /// `rows = out_rows.len() / n` rows of length `k`, `b` is stored
            /// `[n x k]`. It vectorises across output *rows*: a block of up
            /// to `2 * $lanes` rows of `a` is packed `k`-major into a stack
            /// panel, one [`A_BT_KC`](super::A_BT_KC)-deep chunk at a time,
            /// so lane `i` of a panel vector holds `a[i][p]`. Each `b[j][p]`
            /// is broadcast across the block, and a register tile of output
            /// columns shares every panel load. `b` is then read once per
            /// row block instead of once per row.
            ///
            /// Bit-identity: every output element starts from `+0.0` and
            /// adds its `a[i][p] * b[j][p]` terms in `p`-ascending order, one
            /// multiply then one add each, skipping none — the operation
            /// sequence of the scalar reference. A partial sum crosses a
            /// chunk boundary through `out_rows` as an exact `f32`. Padding
            /// lanes of a short block compute on zeros and are never stored.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_a_bt_rows(
                a_rows: &[f32],
                b: &[f32],
                out_rows: &mut [f32],
                k: usize,
                n: usize,
            ) {
                // The tiles read `a` and `b` through raw pointers: these
                // checks are what keeps every such read in bounds.
                assert!(k > 0 && n > 0, "callers shortcut empty a·bᵀ products");
                let rows = out_rows.len() / n;
                assert_eq!(out_rows.len(), rows * n, "output must hold whole rows of length n");
                assert!(a_rows.len() >= rows * k, "lhs block shorter than output rows");
                assert!(b.len() >= n * k, "rhs shorter than [n x k]");
                let mut panel = [0.0f32; super::A_BT_KC * 2 * $lanes];
                let mut r = 0;
                while r < rows {
                    let take = (rows - r).min(2 * $lanes);
                    let a_blk = &a_rows[r * k..(r + take) * k];
                    let out_blk = &mut out_rows[r * n..(r + take) * n];
                    // Twelve accumulators either way: 2 vectors × 6 columns,
                    // or 1 vector × 12 columns for a block of at most
                    // `$lanes` rows.
                    if take > $lanes {
                        a_bt_block::<2, 6>(a_blk, b, out_blk, k, n, &mut panel);
                    } else {
                        a_bt_block::<1, 12>(a_blk, b, out_blk, k, n, &mut panel);
                    }
                    r += take;
                }
            }

            /// One block of at most `V * $lanes` rows of [`gemm_a_bt_rows`],
            /// in register tiles of `C` output columns (single columns for
            /// the remainder).
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available,
            /// `a_blk` holds `out_blk.len() / n <= V * $lanes` rows of length
            /// `k`, `b` holds `n * k` values and `panel` holds at least
            /// `A_BT_KC * V * $lanes`.
            #[target_feature(enable = $feature)]
            unsafe fn a_bt_block<const V: usize, const C: usize>(
                a_blk: &[f32],
                b: &[f32],
                out_blk: &mut [f32],
                k: usize,
                n: usize,
                panel: &mut [f32],
            ) {
                let rows = out_blk.len() / n;
                let width = V * $lanes;
                let mut p0 = 0;
                while p0 < k {
                    let kc = (k - p0).min(super::A_BT_KC);
                    for (pp, dst) in panel[..kc * width].chunks_exact_mut(width).enumerate() {
                        for (i, d) in dst.iter_mut().enumerate() {
                            *d = if i < rows { a_blk[i * k + p0 + pp] } else { 0.0 };
                        }
                    }
                    let mut j = 0;
                    while j + C <= n {
                        a_bt_tile::<V, C>(panel, b, out_blk, rows, k, n, p0, kc, j);
                        j += C;
                    }
                    while j < n {
                        a_bt_tile::<V, 1>(panel, b, out_blk, rows, k, n, p0, kc, j);
                        j += 1;
                    }
                    p0 += kc;
                }
            }

            /// Output columns `j..j + C` of one row block over the packed
            /// chunk `p0..p0 + kc`: accumulators start at `+0.0` on the first
            /// chunk and resume from `out_blk` on later ones.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available,
            /// `panel` holds `kc` packed rows of `V * $lanes` values,
            /// `p0 + kc <= k`, `j + C <= n`, `b` holds `n * k` values and
            /// `out_blk` holds `rows <= V * $lanes` rows of length `n`.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn a_bt_tile<const V: usize, const C: usize>(
                panel: &[f32],
                b: &[f32],
                out_blk: &mut [f32],
                rows: usize,
                k: usize,
                n: usize,
                p0: usize,
                kc: usize,
                j: usize,
            ) {
                let width = V * $lanes;
                debug_assert!(panel.len() >= kc * width && p0 + kc <= k && j + C <= n);
                debug_assert!(b.len() >= n * k && out_blk.len() >= rows * n);
                let mut acc = [[$set1(0.0); V]; C];
                if p0 > 0 {
                    for (c, acc_c) in acc.iter_mut().enumerate() {
                        for (v, a) in acc_c.iter_mut().enumerate() {
                            let mut lanes = [0.0f32; $lanes];
                            for (l, x) in lanes.iter_mut().enumerate() {
                                let i = v * $lanes + l;
                                if i < rows {
                                    *x = out_blk[i * n + j + c];
                                }
                            }
                            *a = $load(lanes.as_ptr());
                        }
                    }
                }
                // In bounds: panel row `pp < kc` spans `width` values, and
                // `b[(j + c) * k + p0 + pp]` with `c < C`, `pp < kc` stays
                // below `n * k` by the caller's contract.
                let pa = panel.as_ptr();
                let pb = b.as_ptr().add(j * k + p0);
                for pp in 0..kc {
                    let mut va = [$set1(0.0); V];
                    for (v, x) in va.iter_mut().enumerate() {
                        *x = $load(pa.add(pp * width + v * $lanes));
                    }
                    for (c, acc_c) in acc.iter_mut().enumerate() {
                        let vb = $set1(*pb.add(c * k + pp));
                        for (a, &x) in acc_c.iter_mut().zip(&va) {
                            *a = super::$muladd(x, vb, *a);
                        }
                    }
                }
                for (c, acc_c) in acc.iter().enumerate() {
                    for (v, a) in acc_c.iter().enumerate() {
                        let mut lanes = [0.0f32; $lanes];
                        $store(lanes.as_mut_ptr(), *a);
                        for (l, &x) in lanes.iter().enumerate() {
                            let i = v * $lanes + l;
                            if i < rows {
                                out_blk[i * n + j + c] = x;
                            }
                        }
                    }
                }
            }

            /// Band kernel of `out (+)= aᵀ·b` (see the scalar reference for
            /// the layout). Accumulation stays `p`-ascending per output
            /// element.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_at_b_band(
                a: &[f32],
                b: &[f32],
                out_band: &mut [f32],
                row0: usize,
                m: usize,
                n: usize,
                accumulate: bool,
            ) {
                if !accumulate {
                    out_band.fill(0.0);
                }
                let a_rows = a.chunks_exact(m);
                let b_rows = b.chunks_exact(n);
                assert_eq!(a_rows.len(), b_rows.len(), "operands disagree on k");
                for (a_row, b_row) in a_rows.zip(b_rows) {
                    for (i, out_row) in out_band.chunks_exact_mut(n).enumerate() {
                        let a_pi = a_row[row0 + i];
                        if a_pi == 0.0 {
                            continue;
                        }
                        axpy(a_pi, b_row, out_row);
                    }
                }
            }
        }
    };
}

simd_level!(
    avx2,
    "avx2",
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    mul_then_add_256
);
simd_level!(
    sse,
    "sse2",
    4,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_mul_ps,
    _mm_add_ps,
    mul_then_add_128
);
// The relaxed level: identical loop structure, fused multiply-add. Only
// dispatched through `ContractMode::Relaxed` (see `crate::FmaBackend`).
simd_level!(
    avx2fma,
    "avx2,fma",
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    fused_mul_add_256
);
