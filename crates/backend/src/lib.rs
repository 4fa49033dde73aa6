//! # fuse-backend
//!
//! Pluggable compute-kernel backends for the FUSE workspace, behind a
//! **bit-reproducibility contract**: every backend must produce bit-identical
//! results to the scalar reference for every operation (the full contract is
//! documented in `REPRODUCIBILITY.md` at the workspace root).
//!
//! The [`KernelBackend`] trait covers the row/band-level kernels under the
//! workspace's hot paths — the GEMM family, im2col lowering, the conv2d
//! forward/backward building blocks, elementwise ops and in-order
//! reductions. `fuse-tensor` and `fuse-nn` fetch the active backend once per
//! kernel dispatch and hand it into their `fuse-parallel` row/sample tasks,
//! so the thread pool composes with SIMD: parallel across rows and batch
//! samples, vector lanes within a row.
//!
//! ## Backends
//!
//! * [`ScalarBackend`] — the original scalar loops, extracted as the
//!   reference implementation. Its floating-point order defines the
//!   contract.
//! * [`SimdBackend`] — x86_64 AVX2/SSE kernels via `std::arch` with runtime
//!   feature detection, plus a portable unrolled-accumulator fallback.
//!   Vectorises only across independent output elements (never inside a
//!   reduction), so it is bit-identical to scalar; ops that cannot be
//!   vectorised under that rule delegate to the scalar reference.
//!
//! ## Selection
//!
//! | `FUSE_BACKEND` | Meaning                                                    |
//! |----------------|------------------------------------------------------------|
//! | `scalar`       | the reference kernels, always                              |
//! | `simd`         | the SIMD backend (portable fallback off x86_64)            |
//! | `auto`         | `simd` — safe everywhere because of the contract (default) |
//! | `simd-fma`     | **relaxed**: AVX2+FMA fused kernels on relaxed-mode        |
//! |                | dispatch only; exact-mode dispatch demotes it to `simd`    |
//!
//! The knob is parsed through the workspace's typed env helper
//! ([`fuse_parallel::env`]): garbage never silently falls back. Read once
//! per process; tests pin the backend per-call with [`with_backend`], which
//! mirrors `fuse_parallel::with_threads`.
//!
//! ## Contract modes
//!
//! [`ContractMode`] is the typed gate between the two numeric regimes.
//! Exact-mode dispatch ([`active`]) can never resolve a relaxed backend —
//! `simd-fma` is demoted to `simd` there, so every existing exact code
//! path stays bit-identical even when the knob opts into the relaxed tier.
//! Relaxed-mode dispatch ([`active_for`] with [`ContractMode::Relaxed`])
//! honours `simd-fma` when the host CPU has AVX2+FMA and falls back to the
//! exact SIMD backend otherwise, so non-FMA hosts degrade to exact results
//! rather than failing. `auto` never resolves to a relaxed level in either
//! mode.

#![warn(missing_docs)]

mod fma;
mod scalar;
mod simd;
mod x86;

use std::sync::OnceLock;

use fuse_parallel::env::{self, InvalidEnv};

#[cfg(target_arch = "x86_64")]
pub use fma::FmaBackend;
pub use scalar::ScalarBackend;
pub use simd::{SimdBackend, SimdLevel};

/// Environment knob selecting the kernel backend.
pub const FUSE_BACKEND_ENV: &str = "FUSE_BACKEND";

/// The environment knobs owned by `fuse-backend` (see
/// [`fuse_parallel::env::KnobDef`] for how these feed the generated
/// `README.md` reference table).
pub const BACKEND_KNOBS: &[env::KnobDef] = &[env::KnobDef {
    name: FUSE_BACKEND_ENV,
    default: "auto",
    accepts: "one of scalar / simd / auto / simd-fma",
    description: "Kernel backend: scalar reference, SIMD, runtime autodetection, or relaxed FMA",
}];

/// The numeric regime a kernel dispatch belongs to.
///
/// Exact-mode call sites (training, checkpointing, the legacy model walk,
/// every golden pinned by bits) resolve backends through
/// [`ContractMode::Exact`], which can never produce a relaxed backend:
/// `FUSE_BACKEND=simd-fma` is demoted to the plain SIMD backend there.
/// Only call sites that have explicitly opted into tolerance-based
/// verification (the compiled-plan serve path) dispatch through
/// [`ContractMode::Relaxed`]. The enum makes that opt-in typed: a code
/// path cannot dispatch relaxed kernels by accident, only by naming the
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContractMode {
    /// Bit-reproducibility required: every backend must match the scalar
    /// reference bit-for-bit (the default everywhere).
    #[default]
    Exact,
    /// Tolerance-based verification: fused multiply-add and reassociated
    /// reductions are permitted; outputs are compared to goldens within a
    /// declared accuracy budget.
    Relaxed,
}

/// Row/band-level compute kernels behind the workspace's hot paths.
///
/// Callers own shape validation and parallel banding; implementations own
/// the innermost loops. Every method must be bit-identical to
/// [`ScalarBackend`]'s (the contract in `REPRODUCIBILITY.md`); slices follow
/// the layout conventions of `fuse_tensor::linalg`.
///
/// ```
/// use fuse_backend::{active, KernelBackend, ScalarBackend};
///
/// // One row of out = a·b (a is 1×2, b is 2×3) through the active backend —
/// // which must agree bit-for-bit with the scalar reference.
/// let a = [1.0_f32, 2.0];
/// let b = [10.0_f32, 20.0, 30.0, 40.0, 50.0, 60.0];
/// let mut out = [0.0_f32; 3];
/// active().gemm_row(&a, &b, &mut out, false);
/// assert_eq!(out, [90.0, 120.0, 150.0]);
/// let mut reference = [0.0_f32; 3];
/// ScalarBackend.gemm_row(&a, &b, &mut reference, false);
/// assert_eq!(out, reference);
/// ```
pub trait KernelBackend: Send + Sync {
    /// Short lowercase backend name used in reports and bench IDs.
    fn name(&self) -> &'static str;

    /// One output row of `out (+)= a·b`: `out_row (+)= a_row · b`, with `b`
    /// row-major `[k x n]` and `n == out_row.len()`. Accumulation is
    /// `p`-ascending per output element.
    fn gemm_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], accumulate: bool);

    /// A contiguous block of output rows of `out (+)= a·b` (`a_rows` holds
    /// `rows = out_rows.len() / n` rows of length `k`). Semantically
    /// identical to [`KernelBackend::gemm_row`] per row; a backend may
    /// register-block across rows to reuse `b` loads as long as every output
    /// element keeps its `p`-ascending accumulation order (the SIMD backend
    /// processes four rows per pass this way).
    fn gemm_rows(
        &self,
        a_rows: &[f32],
        b: &[f32],
        out_rows: &mut [f32],
        k: usize,
        n: usize,
        accumulate: bool,
    ) {
        for (a_row, out_row) in a_rows.chunks_exact(k).zip(out_rows.chunks_exact_mut(n)) {
            self.gemm_row(a_row, b, out_row, accumulate);
        }
    }

    /// A contiguous band of output rows of `out (+)= aᵀ·b` starting at
    /// absolute row `row0` (`a` stored `[k x m]`, `b` stored `[k x n]`).
    /// Overwrites the band, or with `accumulate` adds onto it; accumulation
    /// is `p`-ascending per output element.
    #[allow(clippy::too_many_arguments)]
    fn gemm_at_b_band(
        &self,
        a: &[f32],
        b: &[f32],
        out_band: &mut [f32],
        row0: usize,
        m: usize,
        n: usize,
        accumulate: bool,
    );

    /// One output row of `out = a·bᵀ`: `out_row[j] = a_row · b[j*k..][..k]`
    /// with `b` stored `[n x k]` and `k >= 1` (callers shortcut `k == 0`).
    fn gemm_a_bt_row(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize);

    /// A contiguous block of output rows of `out = a·bᵀ` (`a_rows` holds
    /// `rows = out_rows.len() / n` rows of length `k`, `b` stored
    /// `[n x k]`, `k >= 1` and `n >= 1`). Semantically identical to
    /// [`KernelBackend::gemm_a_bt_row`] per row; a backend may block across
    /// rows to read `b` once per block as long as every output element
    /// keeps the reference's accumulation (the SIMD backend packs up to 16
    /// rows per pass this way).
    fn gemm_a_bt_rows(&self, a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
        for (a_row, out_row) in a_rows.chunks_exact(k).zip(out_rows.chunks_exact_mut(n)) {
            self.gemm_a_bt_row(a_row, b, out_row, k);
        }
    }

    /// One row of the im2col lowering of a `[C, H, W]` sample: the window
    /// values for kernel tap `(ch, ky, kx) = decode(row)` at every output
    /// position (`row_out` holds `out_h * out_w` values). Pure data
    /// movement.
    #[allow(clippy::too_many_arguments)]
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
    );

    /// `y += alpha * x` (equal lengths).
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]);

    /// `y += x` (equal lengths).
    fn add_assign(&self, y: &mut [f32], x: &[f32]);

    /// `data *= s`.
    fn scale_assign(&self, data: &mut [f32], s: f32);

    /// `data += s` (bias broadcast).
    fn add_scalar_assign(&self, data: &mut [f32], s: f32);

    /// In-order sum `Σ x[i]` (left-to-right association is the contract).
    fn sum(&self, x: &[f32]) -> f32;

    /// In-order dot product `Σ a[i]*b[i]`.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// First-maximum scan with strict `>` starting from `-∞`: the index and
    /// value of the running maximum, `None` when nothing exceeds `-∞`. The
    /// max-pooling forward pass composes window argmaxes from this.
    fn max_scan(&self, x: &[f32]) -> Option<(usize, f32)>;
}

/// The `FUSE_BACKEND` knob values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Always the scalar reference kernels.
    Scalar,
    /// Always the SIMD backend (portable fallback off x86_64).
    Simd,
    /// Pick the fastest backend for this host. Because every backend is
    /// bit-identical by contract, `auto` resolves to [`BackendChoice::Simd`]
    /// on every platform; backends that *relax* the contract (like
    /// [`BackendChoice::SimdFma`]) are opt-in only, never selected by
    /// `auto` — in either contract mode.
    #[default]
    Auto,
    /// **Relaxed**: AVX2+FMA fused kernels when the host supports them.
    /// Exact-mode dispatch demotes this to [`BackendChoice::Simd`]; only
    /// [`ContractMode::Relaxed`] call sites run the fused kernels, and
    /// hosts without AVX2+FMA fall back to the exact SIMD backend.
    SimdFma,
}

/// Accepted `FUSE_BACKEND` values, in [`BackendChoice`] discriminant order.
const CHOICES: &[&str] = &["scalar", "simd", "auto", "simd-fma"];
const EXPECTED: &str = "one of scalar|simd|auto|simd-fma";

impl BackendChoice {
    /// Short lowercase name (the knob syntax).
    pub fn name(&self) -> &'static str {
        CHOICES[*self as usize]
    }

    /// Resolves a [`CHOICES`] index — the wire format shared by the env
    /// parser and the pool's inherited-context word — back to a choice. The
    /// single source of truth for that mapping: `parse`, `from_env` and
    /// [`active_choice`] all go through here.
    fn from_index(i: usize) -> Option<Self> {
        match i {
            0 => Some(BackendChoice::Scalar),
            1 => Some(BackendChoice::Simd),
            2 => Some(BackendChoice::Auto),
            3 => Some(BackendChoice::SimdFma),
            _ => None,
        }
    }

    /// Parses a knob value (trimmed, ASCII case-insensitive) — the same
    /// matching rule `from_env` applies through the shared env helper.
    pub fn parse(value: &str) -> Option<Self> {
        let lowered = value.trim().to_ascii_lowercase();
        CHOICES.iter().position(|c| *c == lowered).and_then(Self::from_index)
    }

    /// Reads `FUSE_BACKEND`, distinguishing *unset* (`Ok(None)`) from
    /// *unparseable* (a typed error naming the knob — configuration surfaces
    /// like `fuse-cluster` turn this into their own `InvalidEnv` variant).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidEnv`] when the variable is set but is not one of
    /// `scalar`, `simd`, `auto`, `simd-fma`.
    pub fn from_env() -> Result<Option<Self>, InvalidEnv> {
        Ok(env::env_choice(FUSE_BACKEND_ENV, CHOICES, EXPECTED)?
            .map(|i| Self::from_index(i).expect("env_choice returns an index into CHOICES")))
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide backend choice: `FUSE_BACKEND` when set, else `auto`.
/// Read once; garbage fails fast with the typed [`InvalidEnv`] message (the
/// same behaviour as `FUSE_THREADS` — configuration surfaces that want a
/// `Result` instead call [`BackendChoice::from_env`] before kernels run).
/// The operand checks of the `a·bᵀ` kernels (`a` holds `out_len / n` rows
/// of length `k`, `b` holds `n` rows of length `k`), made in the safe
/// wrappers of the backends whose kernels read through raw pointers, so a
/// short operand panics in release builds too instead of being read out of
/// bounds or silently skipped.
fn assert_a_bt_operands(a_len: usize, b_len: usize, out_len: usize, k: usize, n: usize) {
    let rows = out_len.checked_div(n).unwrap_or(0);
    assert!(a_len >= rows * k, "lhs shorter than its output rows");
    assert!(b_len >= n * k, "rhs shorter than [n x k]");
}

fn configured_choice() -> BackendChoice {
    static CONFIG: OnceLock<BackendChoice> = OnceLock::new();
    *CONFIG.get_or_init(|| match BackendChoice::from_env() {
        Ok(choice) => choice.unwrap_or_default(),
        Err(e) => panic!("{e}"),
    })
}

/// The backend choice governing kernels dispatched from the current thread
/// (the [`with_backend`] override, else `FUSE_BACKEND`, else `auto`).
///
/// A context word that is not a valid choice index (which would mean some
/// other code started using the pool's inherited-context word — it is
/// reserved by this crate, see [`fuse_parallel::inherited_context`]) is
/// rejected loudly in debug builds and ignored in release builds rather
/// than silently remapped.
pub fn active_choice() -> BackendChoice {
    match fuse_parallel::inherited_context() {
        Some(word) => BackendChoice::from_index(word).unwrap_or_else(|| {
            debug_assert!(
                false,
                "inherited context word {word} is not a backend choice — the word is \
                 reserved by fuse-backend"
            );
            configured_choice()
        }),
        None => configured_choice(),
    }
}

/// Runs `f` with the backend choice pinned for work dispatched from the
/// current thread. This is the hook the scalar↔SIMD equivalence tests use,
/// mirroring `fuse_parallel::with_threads` — with one strengthening: the
/// choice rides `fuse-parallel`'s inheritable context word, so it follows
/// fork-join work onto pool workers and nested kernel dispatches inside
/// parallel tasks resolve the same backend as the caller.
pub fn with_backend<R>(choice: BackendChoice, f: impl FnOnce() -> R) -> R {
    fuse_parallel::with_inherited_context(Some(choice as usize), f)
}

fn simd_backend() -> &'static SimdBackend {
    static SIMD: OnceLock<SimdBackend> = OnceLock::new();
    SIMD.get_or_init(SimdBackend::new)
}

#[cfg(target_arch = "x86_64")]
fn fma_backend() -> Option<&'static FmaBackend> {
    static FMA: OnceLock<Option<FmaBackend>> = OnceLock::new();
    FMA.get_or_init(FmaBackend::detect).as_ref()
}

/// Whether the relaxed AVX2+FMA backend is available on this host. When
/// `false`, `FUSE_BACKEND=simd-fma` still parses but relaxed dispatch
/// degrades to the exact SIMD backend (so relaxed-leg tests pass
/// trivially on non-FMA hosts).
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        fma_backend().is_some()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a choice to its **exact-contract** backend
/// ([`BackendChoice::Auto`] → SIMD; the contract makes that safe on every
/// platform). [`BackendChoice::SimdFma`] is demoted to the exact SIMD
/// backend here — exact-mode call sites can never run relaxed kernels.
pub fn backend_for(choice: BackendChoice) -> &'static dyn KernelBackend {
    static SCALAR: ScalarBackend = ScalarBackend;
    match choice {
        BackendChoice::Scalar => &SCALAR,
        BackendChoice::Simd | BackendChoice::Auto | BackendChoice::SimdFma => simd_backend(),
    }
}

/// Resolves a choice to its backend under **relaxed** dispatch:
/// [`BackendChoice::SimdFma`] becomes the FMA backend when the host
/// supports AVX2+FMA (exact SIMD otherwise); every other choice —
/// including `auto` — resolves exactly as [`backend_for`] does, so `auto`
/// never selects a relaxed level.
pub fn relaxed_backend_for(choice: BackendChoice) -> &'static dyn KernelBackend {
    match choice {
        BackendChoice::SimdFma => {
            #[cfg(target_arch = "x86_64")]
            if let Some(be) = fma_backend() {
                return be;
            }
            simd_backend()
        }
        other => backend_for(other),
    }
}

/// The backend kernels dispatched from the current thread should use under
/// the given [`ContractMode`]. Hot paths call this **once per kernel
/// dispatch** (not per row) and pass the reference into their parallel
/// tasks.
pub fn active_for(mode: ContractMode) -> &'static dyn KernelBackend {
    match mode {
        ContractMode::Exact => backend_for(active_choice()),
        ContractMode::Relaxed => relaxed_backend_for(active_choice()),
    }
}

/// The **exact-contract** backend kernels dispatched from the current
/// thread should use (shorthand for [`active_for`] with
/// [`ContractMode::Exact`]).
///
/// Hot paths call this **once per kernel dispatch** (not per row) and pass
/// the reference into their parallel tasks — thread-local overrides do not
/// cross into pool workers, the reference does.
pub fn active() -> &'static dyn KernelBackend {
    active_for(ContractMode::Exact)
}

/// The SIMD instruction-set level this host resolved to (what `auto`/`simd`
/// will run): `avx2`, `sse` or `portable`.
pub fn detected_level() -> SimdLevel {
    simd_backend().level()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference paired with each exact SIMD backend that must
    /// match it bit for bit: the detected level, and the 4-lane SSE stamp
    /// that AVX2 hosts never run otherwise.
    fn backends() -> [[&'static dyn KernelBackend; 2]; 2] {
        static SSE: SimdBackend = SimdBackend::SSE;
        let s = backend_for(BackendChoice::Scalar);
        [[s, backend_for(BackendChoice::Simd)], [s, &SSE]]
    }

    /// Deterministic pseudo-random fill that exercises signs, magnitudes and
    /// exact zeros (the GEMM kernels skip zero multipliers).
    fn data(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = ((i * 2654435761 + salt * 40503) % 2048) as f32 * 1e-3 - 1.0;
                if i % 13 == 0 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    /// Non-lane-multiple widths: 1 and 3 (below SSE width), 7 (below AVX2
    /// width), 17 (two AVX2 blocks + 1), plus lane-aligned 8/16.
    const WIDTHS: &[usize] = &[1, 3, 7, 8, 16, 17];

    #[test]
    fn gemm_row_bit_identical_across_backends_and_widths() {
        for [s, v] in backends() {
            for &n in WIDTHS {
                for &k in WIDTHS {
                    let a = data(k, n);
                    let b = data(k * n, n + k);
                    for acc in [false, true] {
                        let mut out_s = data(n, 7);
                        let mut out_v = out_s.clone();
                        s.gemm_row(&a, &b, &mut out_s, acc);
                        v.gemm_row(&a, &b, &mut out_v, acc);
                        assert_eq!(out_s, out_v, "gemm_row k={k} n={n} acc={acc}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_rows_block_kernel_bit_identical_across_backends() {
        for [s, v] in backends() {
            // Row counts around the 4-row register block (1..9) × odd widths.
            for &rows in &[1usize, 2, 3, 4, 5, 7, 8, 9] {
                for &n in WIDTHS {
                    for &k in &[1usize, 7, 16] {
                        let a = data(rows * k, n);
                        let b = data(k * n, rows);
                        for acc in [false, true] {
                            let mut out_s = data(rows * n, 11);
                            let mut out_v = out_s.clone();
                            s.gemm_rows(&a, &b, &mut out_s, k, n, acc);
                            v.gemm_rows(&a, &b, &mut out_v, k, n, acc);
                            assert_eq!(out_s, out_v, "gemm_rows rows={rows} k={k} n={n} acc={acc}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_at_b_band_bit_identical_across_backends() {
        for [s, v] in backends() {
            for &n in WIDTHS {
                for &(k, m) in &[(1usize, 1usize), (3, 5), (8, 4), (17, 3)] {
                    let a = data(k * m, n);
                    let b = data(k * n, m);
                    let mut out_s = vec![1.0f32; m * n];
                    let mut out_v = vec![-1.0f32; m * n];
                    s.gemm_at_b_band(&a, &b, &mut out_s, 0, m, n, false);
                    v.gemm_at_b_band(&a, &b, &mut out_v, 0, m, n, false);
                    assert_eq!(out_s, out_v, "gemm_at_b_band k={k} m={m} n={n}");

                    // The accumulate form against a product into a zeroed
                    // buffer added on with an axpy: bit-identical from a
                    // zeroed accumulator (a freshly zeroed gradient), within
                    // rounding from a live one (the terms associate onto the
                    // accumulator one by one instead of as one sum).
                    for init in [vec![0.0f32; m * n], data(m * n, 5)] {
                        let mut acc = [init.clone(), init.clone()];
                        for (be, out) in [s, v].into_iter().zip(&mut acc) {
                            be.gemm_at_b_band(&a, &b, out, 0, m, n, true);
                            let mut product = vec![0.0f32; m * n];
                            be.gemm_at_b_band(&a, &b, &mut product, 0, m, n, false);
                            let mut reference = init.clone();
                            be.axpy(1.0, &product, &mut reference);
                            if init.iter().all(|&x| x == 0.0) {
                                assert_eq!(*out, reference, "zeroed acc k={k} m={m} n={n}");
                            }
                            for (x, r) in out.iter().zip(&reference) {
                                assert!((x - r).abs() <= 1e-5 * r.abs().max(1.0), "{x} vs {r}");
                            }
                        }
                        assert_eq!(acc[0], acc[1], "gemm_at_b_band acc k={k} m={m} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_a_bt_row_bit_identical_across_backends() {
        // Signed-zero activations against non-finite weights: every output
        // starts from +0.0 and skips no term, so a row of -0.0 against
        // positive weights sums to +0.0 (all its products are -0.0), and a
        // zero against an infinite or NaN weight gives NaN. Each column
        // carries one kind of non-finite weight, so all NaNs meeting in one
        // sum share their bits.
        let (zrows, zk, zn) = (19usize, 300usize, 14usize);
        let zero_acts: Vec<f32> = (0..zrows * zk)
            .map(|i| match (i / zk % 3, i % 3) {
                (0, _) => -0.0,
                (1, 0) | (2, 0) => 0.0,
                (1, _) => -0.0,
                _ => ((i * 37) % 11) as f32 * 0.25 - 1.25,
            })
            .collect();
        let non_finite_wts: Vec<f32> = (0..zn * zk)
            .map(|i| match (i / zk % 4, i % 61) {
                (0, _) => ((i * 13) % 17) as f32 * 0.125 + 0.5,
                (1, 3) => f32::NAN,
                (2, 3) => f32::INFINITY,
                (3, 3) => f32::NEG_INFINITY,
                _ => ((i * 13) % 17) as f32 * 0.125 - 1.0,
            })
            .collect();
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for [s, v] in backends() {
            for &n in WIDTHS {
                for &k in WIDTHS {
                    let a = data(k, n + 1);
                    let b = data(n * k, k + 2);
                    let mut out_s = vec![0.0f32; n];
                    let mut out_v = vec![0.5f32; n];
                    s.gemm_a_bt_row(&a, &b, &mut out_s, k);
                    v.gemm_a_bt_row(&a, &b, &mut out_v, k);
                    assert_eq!(out_s, out_v, "gemm_a_bt_row k={k} n={n}");
                }
            }
            let rows_kernel = |a: &[f32], b: &[f32], rows: usize, k: usize, n: usize| {
                let mut out_s = vec![0.0f32; rows * n];
                let mut out_v = vec![0.5f32; rows * n];
                s.gemm_a_bt_rows(a, b, &mut out_s, k, n);
                v.gemm_a_bt_rows(a, b, &mut out_v, k, n);
                assert_eq!(bits(&out_s), bits(&out_v), "gemm_a_bt_rows rows={rows} k={k} n={n}");
                out_s
            };
            // Rows around the 8- and 16-row blocks (one row keeps the row
            // kernel), `k` on both sides of the 256-deep panel chunk, `n` off
            // the 6- and 12-column register tiles, and fc1 at a 28-frame
            // micro-batch.
            for &rows in &[1usize, 2, 15, 16, 17, 28, 33, 64] {
                for &k in &[1usize, 7, 255, 256, 257, 600] {
                    for &n in &[1usize, 5, 13, 57] {
                        rows_kernel(&data(rows * k, n), &data(n * k, rows + k), rows, k, n);
                    }
                }
            }
            rows_kernel(&data(28 * 2048, 1), &data(512 * 2048, 2), 28, 2048, 512);
            let out = rows_kernel(&zero_acts, &non_finite_wts, zrows, zk, zn);
            assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "-0.0 products must sum to +0.0");
            assert!(out[1..4].iter().all(|x| x.is_nan()));
        }
    }

    #[test]
    fn im2col_row_bit_identical_across_backends() {
        for [s, v] in backends() {
            let (h, w, c) = (5usize, 7usize, 2usize);
            let input = data(c * h * w, 3);
            for &(kernel, stride, padding) in &[(3usize, 1usize, 1usize), (3, 2, 0), (1, 1, 0)] {
                let out_h = (h + 2 * padding - kernel) / stride + 1;
                let out_w = (w + 2 * padding - kernel) / stride + 1;
                for row in 0..c * kernel * kernel {
                    let mut out_s = vec![9.0f32; out_h * out_w];
                    let mut out_v = vec![-9.0f32; out_h * out_w];
                    s.im2col_row(&input, h, w, kernel, stride, padding, row, &mut out_s, out_w);
                    v.im2col_row(&input, h, w, kernel, stride, padding, row, &mut out_v, out_w);
                    assert_eq!(
                        out_s, out_v,
                        "im2col_row k={kernel} s={stride} p={padding} row={row}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_row_wide_kernel_on_narrow_input_matches_scalar() {
        // Regression: kernel taps whose entire output row falls outside the
        // input (kernel 9 on a 2x2 input with padding 4) produce an empty
        // valid span; the stride-1 fast path must emit the all-zero row the
        // scalar reference does instead of wrapping a negative source index.
        for [s, v] in backends() {
            let (h, w, c, kernel, padding) = (2usize, 2usize, 1usize, 9usize, 4usize);
            let input = data(c * h * w, 4);
            let (out_h, out_w) = (h, w); // "same" geometry
            for row in 0..c * kernel * kernel {
                let mut out_s = vec![7.0f32; out_h * out_w];
                let mut out_v = vec![-7.0f32; out_h * out_w];
                s.im2col_row(&input, h, w, kernel, 1, padding, row, &mut out_s, out_w);
                v.im2col_row(&input, h, w, kernel, 1, padding, row, &mut out_v, out_w);
                assert_eq!(out_s, out_v, "im2col_row wide-kernel row={row}");
            }
        }
    }

    #[test]
    fn elementwise_ops_bit_identical_across_backends() {
        for [s, v] in backends() {
            for &n in WIDTHS {
                let x = data(n, 1);
                let (mut ys, mut yv) = (data(n, 2), data(n, 2));
                s.axpy(0.37, &x, &mut ys);
                v.axpy(0.37, &x, &mut yv);
                assert_eq!(ys, yv, "axpy n={n}");
                s.add_assign(&mut ys, &x);
                v.add_assign(&mut yv, &x);
                assert_eq!(ys, yv, "add_assign n={n}");
                s.scale_assign(&mut ys, -1.7);
                v.scale_assign(&mut yv, -1.7);
                assert_eq!(ys, yv, "scale_assign n={n}");
                s.add_scalar_assign(&mut ys, 0.11);
                v.add_scalar_assign(&mut yv, 0.11);
                assert_eq!(ys, yv, "add_scalar_assign n={n}");
            }
        }
    }

    #[test]
    fn reductions_and_scans_bit_identical_across_backends() {
        for [s, v] in backends() {
            for &n in WIDTHS {
                let a = data(n, 5);
                let b = data(n, 6);
                assert_eq!(s.sum(&a).to_bits(), v.sum(&a).to_bits(), "sum n={n}");
                assert_eq!(s.dot(&a, &b).to_bits(), v.dot(&a, &b).to_bits(), "dot n={n}");
                assert_eq!(s.max_scan(&a), v.max_scan(&a), "max_scan n={n}");
            }
        }
    }

    #[test]
    fn max_scan_keeps_first_maximum_and_ignores_nan_and_neg_inf() {
        let s = backend_for(BackendChoice::Scalar);
        assert_eq!(s.max_scan(&[]), None);
        assert_eq!(s.max_scan(&[f32::NEG_INFINITY; 3]), None);
        assert_eq!(s.max_scan(&[f32::NAN, f32::NAN]), None);
        // First of equal maxima wins (strict `>` never replaces it).
        assert_eq!(s.max_scan(&[1.0, 5.0, 5.0, 2.0]), Some((1, 5.0)));
        assert_eq!(s.max_scan(&[f32::NAN, 2.0, 1.0]), Some((1, 2.0)));
    }

    #[test]
    fn choice_parses_and_renders() {
        assert_eq!(BackendChoice::parse(" SIMD "), Some(BackendChoice::Simd));
        assert_eq!(BackendChoice::parse("scalar"), Some(BackendChoice::Scalar));
        assert_eq!(BackendChoice::parse("auto"), Some(BackendChoice::Auto));
        assert_eq!(BackendChoice::parse("simd-fma"), Some(BackendChoice::SimdFma));
        assert_eq!(BackendChoice::parse(" Simd-FMA "), Some(BackendChoice::SimdFma));
        assert_eq!(BackendChoice::parse("gpu"), None);
        assert_eq!(BackendChoice::parse("fma"), None);
        assert_eq!(BackendChoice::Simd.to_string(), "simd");
        assert_eq!(BackendChoice::SimdFma.to_string(), "simd-fma");
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
    }

    #[test]
    fn auto_never_resolves_to_a_relaxed_level() {
        // The satellite guarantee: `auto` is exact in *both* contract
        // modes. Only an explicit `simd-fma` opt-in can reach relaxed
        // kernels, and only through relaxed dispatch.
        assert_eq!(backend_for(BackendChoice::Auto).name(), "simd");
        assert_eq!(relaxed_backend_for(BackendChoice::Auto).name(), "simd");
        for choice in [BackendChoice::Scalar, BackendChoice::Simd, BackendChoice::Auto] {
            assert_ne!(relaxed_backend_for(choice).name(), "simd-fma", "{choice} must stay exact");
        }
    }

    #[test]
    fn exact_mode_demotes_simd_fma() {
        // Exact-contract dispatch can never produce the FMA backend, even
        // when the knob (or a per-thread override) selects it.
        assert_eq!(backend_for(BackendChoice::SimdFma).name(), "simd");
        with_backend(BackendChoice::SimdFma, || {
            assert_eq!(active().name(), "simd");
            assert_eq!(active_for(ContractMode::Exact).name(), "simd");
        });
    }

    #[test]
    fn relaxed_dispatch_honours_simd_fma_when_detected() {
        let expected = if fma_available() { "simd-fma" } else { "simd" };
        assert_eq!(relaxed_backend_for(BackendChoice::SimdFma).name(), expected);
        with_backend(BackendChoice::SimdFma, || {
            assert_eq!(active_for(ContractMode::Relaxed).name(), expected);
        });
        // Relaxed dispatch under a non-relaxed choice is identical to exact.
        with_backend(BackendChoice::Scalar, || {
            assert_eq!(active_for(ContractMode::Relaxed).name(), "scalar");
        });
    }

    #[test]
    fn fma_kernels_match_scalar_within_tolerance() {
        if !fma_available() {
            return; // Non-FMA host: relaxed dispatch is exact, nothing to compare.
        }
        let fma = relaxed_backend_for(BackendChoice::SimdFma);
        let s = backend_for(BackendChoice::Scalar);
        let (k, n, rows) = (33usize, 17usize, 5usize);
        let a = data(rows * k, 1);
        let b = data(k * n, 2);
        let rel = |x: f32, y: f32| (x - y).abs() / x.abs().max(y.abs()).max(1e-6);

        let mut out_f = vec![0.0f32; rows * n];
        let mut out_s = vec![0.0f32; rows * n];
        fma.gemm_rows(&a, &b, &mut out_f, k, n, false);
        s.gemm_rows(&a, &b, &mut out_s, k, n, false);
        for (f, r) in out_f.iter().zip(&out_s) {
            assert!(rel(*f, *r) < 1e-4, "gemm_rows fma={f} scalar={r}");
        }

        let bt = data(n * k, 3);
        let mut row_f = vec![0.0f32; n];
        let mut row_s = vec![0.0f32; n];
        fma.gemm_a_bt_row(&a[..k], &bt, &mut row_f, k);
        s.gemm_a_bt_row(&a[..k], &bt, &mut row_s, k);
        for (f, r) in row_f.iter().zip(&row_s) {
            assert!(rel(*f, *r) < 1e-4, "gemm_a_bt_row fma={f} scalar={r}");
        }

        let mut rows_f = vec![0.0f32; rows * n];
        let mut rows_s = vec![0.0f32; rows * n];
        fma.gemm_a_bt_rows(&a, &bt, &mut rows_f, k, n);
        s.gemm_a_bt_rows(&a, &bt, &mut rows_s, k, n);
        for (f, r) in rows_f.iter().zip(&rows_s) {
            assert!(rel(*f, *r) < 1e-4, "gemm_a_bt_rows fma={f} scalar={r}");
        }
    }

    /// Runs `kernel` on every backend whose kernels read through raw
    /// pointers — the SSE stamp, the relaxed FMA backend when the host has
    /// it, and the detected SIMD level last — and expects each to panic with
    /// `expected`. All but the last run under `catch_unwind`; the last
    /// panics into the calling test's `#[should_panic(expected)]`.
    fn panics_on_every_unsafe_backend(expected: &str, kernel: impl Fn(&dyn KernelBackend)) {
        static SSE: SimdBackend = SimdBackend::SSE;
        let mut first: Vec<&dyn KernelBackend> = vec![&SSE];
        if let Some(fma) = fma_backend() {
            first.push(fma);
        }
        for be in first {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(be)))
                .expect_err(be.name());
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(expected), "{}: panicked with {msg:?}", be.name());
        }
        kernel(backend_for(BackendChoice::Simd));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gemm_row_rejects_a_short_rhs() {
        panics_on_every_unsafe_backend("out of range", |be| {
            be.gemm_row(&[1.0; 4], &[1.0; 4 * 8 - 1], &mut [0.0; 8], false)
        });
    }

    #[test]
    #[should_panic(expected = "rhs shorter than [k x n]")]
    fn gemm_rows_rejects_a_short_rhs() {
        panics_on_every_unsafe_backend("rhs shorter than [k x n]", |be| {
            be.gemm_rows(&[1.0; 5 * 4], &[1.0; 4 * 16 - 1], &mut [0.0; 5 * 16], 4, 16, false)
        });
    }

    #[test]
    #[should_panic(expected = "lhs block shorter than output rows")]
    fn gemm_rows_rejects_a_short_lhs() {
        panics_on_every_unsafe_backend("lhs block shorter than output rows", |be| {
            be.gemm_rows(&[1.0; 5 * 4 - 1], &[1.0; 4 * 16], &mut [0.0; 5 * 16], 4, 16, false)
        });
    }

    #[test]
    #[should_panic(expected = "at least one output column")]
    fn gemm_rows_rejects_zero_columns() {
        panics_on_every_unsafe_backend("at least one output column", |be| {
            be.gemm_rows(&[1.0; 4], &[], &mut [], 4, 0, false)
        });
    }

    #[test]
    #[should_panic(expected = "operands disagree on k")]
    fn gemm_at_b_band_rejects_operands_that_disagree_on_k() {
        panics_on_every_unsafe_backend("operands disagree on k", |be| {
            be.gemm_at_b_band(&[1.0; 3 * 4], &[1.0; 2 * 5], &mut [0.0; 4 * 5], 0, 4, 5, false)
        });
    }

    #[test]
    #[should_panic(expected = "lhs shorter than its output rows")]
    fn gemm_a_bt_row_rejects_a_short_lhs() {
        panics_on_every_unsafe_backend("lhs shorter than its output rows", |be| {
            be.gemm_a_bt_row(&[1.0; 15], &[1.0; 3 * 16], &mut [0.0; 3], 16)
        });
    }

    #[test]
    #[should_panic(expected = "rhs shorter than [n x k]")]
    fn gemm_a_bt_rows_rejects_a_short_rhs() {
        panics_on_every_unsafe_backend("rhs shorter than [n x k]", |be| {
            be.gemm_a_bt_rows(&[1.0; 5 * 16], &[1.0; 3 * 16 - 1], &mut [0.0; 5 * 3], 16, 3)
        });
    }

    #[test]
    #[should_panic(expected = "axpy operands must have equal length")]
    fn axpy_rejects_a_short_operand() {
        panics_on_every_unsafe_backend("axpy operands must have equal length", |be| {
            be.axpy(2.0, &[1.0; 15], &mut [0.0; 16])
        });
    }

    #[test]
    #[should_panic(expected = "add_assign operands must have equal length")]
    fn add_assign_rejects_a_short_operand() {
        panics_on_every_unsafe_backend("add_assign operands must have equal length", |be| {
            be.add_assign(&mut [0.0; 16], &[1.0; 15])
        });
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        // Pin the config first so the OnceLock is initialised from the clean
        // ambient environment, then override per-thread.
        let ambient = active_choice();
        with_backend(BackendChoice::Scalar, || {
            assert_eq!(active_choice(), BackendChoice::Scalar);
            assert_eq!(active().name(), "scalar");
            with_backend(BackendChoice::Simd, || {
                assert_eq!(active().name(), "simd");
            });
            assert_eq!(active_choice(), BackendChoice::Scalar);
        });
        assert_eq!(active_choice(), ambient);
    }

    #[test]
    fn auto_resolves_to_simd_and_detection_is_stable() {
        assert_eq!(backend_for(BackendChoice::Auto).name(), "simd");
        let level = detected_level();
        assert_eq!(level, detected_level(), "detection must be cached");
        #[cfg(target_arch = "x86_64")]
        assert_ne!(level, SimdLevel::Portable, "x86_64 always has at least SSE");
        assert!(!level.name().is_empty());
    }

    #[test]
    fn backend_env_parse_rejects_garbage_with_typed_error() {
        // `BackendChoice::from_env` reads the real FUSE_BACKEND (left
        // untouched here: it is process-global and the CI matrix owns it);
        // the parse itself is pinned through the shared helper on a
        // test-private knob name.
        let err = fuse_parallel::env::env_choice("FUSE_TEST_BACKEND_KNOB", CHOICES, EXPECTED);
        assert_eq!(err.unwrap(), None);
        std::env::set_var("FUSE_TEST_BACKEND_KNOB", "fpga");
        let err = fuse_parallel::env::env_choice("FUSE_TEST_BACKEND_KNOB", CHOICES, EXPECTED)
            .unwrap_err();
        assert_eq!(err.value, "fpga");
        assert!(err.to_string().contains("scalar|simd|auto|simd-fma"));
        std::env::remove_var("FUSE_TEST_BACKEND_KNOB");
    }
}
