//! Serial-vs-parallel and scalar-vs-SIMD equivalence properties for the
//! tensor kernels.
//!
//! Every hot path must produce **bit-identical** results for any thread
//! count *and* any kernel backend: parallel work is banded over indexed
//! units whose per-unit floating-point order is fixed, reductions merge
//! partials in index order, and the SIMD backend only vectorises across
//! independent output elements (`REPRODUCIBILITY.md`). These properties pin
//! both contracts inside one process — thread count forced to 1 vs 4 (the
//! parallel side also forces the work threshold to zero, so even
//! proptest-sized inputs take the parallel path), and the backend forced to
//! scalar vs SIMD — comparing outputs with exact equality.

use fuse_backend::{with_backend, BackendChoice};
use fuse_parallel::{with_min_parallel_work, with_threads};
use fuse_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, linalg, Conv2dSpec, Tensor,
};
use proptest::prelude::*;

/// Runs `f` once with 1 thread and once with 4 threads (parallel dispatch
/// forced for any input size) and returns both results.
fn serial_and_parallel<R>(f: impl Fn() -> R) -> (R, R) {
    let serial = with_threads(1, &f);
    let parallel = with_threads(4, || with_min_parallel_work(0, &f));
    (serial, parallel)
}

/// Runs `f` on the scalar reference (serially) and on the SIMD backend
/// (under parallel dispatch), crossing both contracts in one comparison.
fn scalar_and_simd<R>(f: impl Fn() -> R) -> (R, R) {
    let scalar = with_threads(1, || with_backend(BackendChoice::Scalar, &f));
    let simd =
        with_threads(4, || with_min_parallel_work(0, || with_backend(BackendChoice::Simd, &f)));
    (scalar, simd)
}

const DIM: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// gemm and gemm_acc: parallel output is bit-identical to serial.
    #[test]
    fn gemm_and_acc_parallel_matches_serial(
        m in 1usize..DIM, k in 1usize..DIM, n in 1usize..DIM,
        data in prop::collection::vec(-4.0f32..4.0, 2 * DIM * DIM)
    ) {
        let a = &data[..m * k];
        let b = &data[DIM * DIM..DIM * DIM + k * n];
        let (serial, parallel) = serial_and_parallel(|| {
            let mut out = vec![0.25f32; m * n];
            linalg::gemm(a, b, &mut out, m, k, n);
            linalg::gemm_acc(a, b, &mut out, m, k, n);
            out
        });
        prop_assert_eq!(serial, parallel);
    }

    /// gemm_at_b (transposed lhs): parallel bands are bit-identical to serial.
    #[test]
    fn gemm_at_b_parallel_matches_serial(
        k in 1usize..DIM, m in 1usize..DIM, n in 1usize..DIM,
        data in prop::collection::vec(-4.0f32..4.0, 2 * DIM * DIM)
    ) {
        let a = &data[..k * m];
        let b = &data[DIM * DIM..DIM * DIM + k * n];
        let (serial, parallel) = serial_and_parallel(|| {
            let mut out = vec![0.0f32; m * n];
            linalg::gemm_at_b(a, b, &mut out, k, m, n);
            out
        });
        prop_assert_eq!(serial, parallel);
    }

    /// gemm_a_bt (transposed rhs): parallel row bands at 2 and 4 threads
    /// are bit-identical to serial, on both backends, past the SIMD
    /// backend's 16-row block and 256-deep panel chunk.
    #[test]
    fn gemm_a_bt_parallel_matches_serial(
        m in 1usize..40, k in 1usize..300, n in 1usize..DIM,
        data in prop::collection::vec(-4.0f32..4.0, (40 + DIM) * 300)
    ) {
        let a = &data[..m * k];
        let b = &data[40 * 300..40 * 300 + n * k];
        let run = |choice, threads| {
            with_threads(threads, || {
                with_min_parallel_work(0, || {
                    with_backend(choice, || {
                        let mut out = vec![0.0f32; m * n];
                        linalg::gemm_a_bt(a, b, &mut out, m, k, n);
                        out
                    })
                })
            })
        };
        let serial = run(BackendChoice::Scalar, 1);
        for choice in [BackendChoice::Scalar, BackendChoice::Simd] {
            for threads in [1, 2, 4] {
                prop_assert_eq!(&serial, &run(choice, threads), "{} threads={}", choice, threads);
            }
        }
    }

    /// conv2d forward: the sample-parallel path is bit-identical to serial.
    #[test]
    fn conv2d_forward_parallel_matches_serial(
        n in 1usize..3, c in 1usize..3, oc in 1usize..4,
        h in 3usize..7, w in 3usize..7,
        data in prop::collection::vec(-2.0f32..2.0, 2 * 2 * 6 * 6 + 3 * 2 * 9 + 3)
    ) {
        let spec = Conv2dSpec::same(c, oc, 3);
        let input = Tensor::from_vec(data[..n * c * h * w].to_vec(), &[n, c, h, w]).unwrap();
        let wlen = spec.weight_len();
        let weight =
            Tensor::from_vec(data[144..144 + wlen].to_vec(), &[oc, c, 3, 3]).unwrap();
        let bias = Tensor::from_vec(data[144 + 54..144 + 54 + oc].to_vec(), &[oc]).unwrap();
        let (serial, parallel) = serial_and_parallel(|| {
            conv2d_forward(&input, &weight, &bias, &spec).unwrap().as_slice().to_vec()
        });
        prop_assert_eq!(serial, parallel);
    }

    /// Matmul variants: the SIMD backend under parallel dispatch is
    /// bit-identical to the serial scalar reference for arbitrary shapes
    /// (1..12 covers sub-lane widths and non-multiples of both lane widths).
    #[test]
    fn gemm_family_simd_matches_scalar(
        m in 1usize..DIM, k in 1usize..DIM, n in 1usize..DIM,
        data in prop::collection::vec(-4.0f32..4.0, 3 * DIM * DIM)
    ) {
        let (scalar, simd) = scalar_and_simd(|| {
            let mut out = vec![0.5f32; m * n];
            linalg::gemm(&data[..m * k], &data[DIM * DIM..DIM * DIM + k * n], &mut out, m, k, n);
            linalg::gemm_acc(&data[..m * k], &data[DIM * DIM..DIM * DIM + k * n], &mut out, m, k, n);
            let mut out_at = vec![0.0f32; m * n];
            linalg::gemm_at_b(
                &data[..k * m], &data[DIM * DIM..DIM * DIM + k * n], &mut out_at, k, m, n,
            );
            let mut out_bt = vec![0.0f32; m * n];
            linalg::gemm_a_bt(
                &data[..m * k],
                &data[2 * DIM * DIM..2 * DIM * DIM + n * k],
                &mut out_bt,
                m,
                k,
                n,
            );
            (out, out_at, out_bt)
        });
        prop_assert_eq!(scalar, simd);
    }

    /// conv2d forward and backward on the SIMD backend (parallel) are
    /// bit-identical to the serial scalar reference.
    #[test]
    fn conv2d_simd_matches_scalar(
        n in 1usize..3, c in 1usize..3, oc in 1usize..4,
        h in 3usize..7, w in 3usize..7,
        data in prop::collection::vec(-2.0f32..2.0, 2 * 2 * 6 * 6 + 3 * 2 * 9 + 2 * 3 * 6 * 6)
    ) {
        let spec = Conv2dSpec::same(c, oc, 3);
        let input = Tensor::from_vec(data[..n * c * h * w].to_vec(), &[n, c, h, w]).unwrap();
        let weight =
            Tensor::from_vec(data[144..144 + spec.weight_len()].to_vec(), &[oc, c, 3, 3]).unwrap();
        let bias = Tensor::from_vec(data[144 + 54..144 + 54 + oc].to_vec(), &[oc]).unwrap();
        let grad_out =
            Tensor::from_vec(data[198..198 + n * oc * h * w].to_vec(), &[n, oc, h, w]).unwrap();
        let (scalar, simd) = scalar_and_simd(|| {
            let fwd = conv2d_forward(&input, &weight, &bias, &spec).unwrap();
            let gi = conv2d_backward_input(&grad_out, &weight, input.dims(), &spec).unwrap();
            let (gw, gb) = conv2d_backward_weight(&input, &grad_out, &spec).unwrap();
            (
                fwd.as_slice().to_vec(),
                gi.as_slice().to_vec(),
                gw.as_slice().to_vec(),
                gb.as_slice().to_vec(),
            )
        });
        prop_assert_eq!(scalar, simd);
    }

    /// conv2d backward (input and weight/bias gradients): sample-parallel
    /// partials merged in order are bit-identical to serial accumulation.
    #[test]
    fn conv2d_backward_parallel_matches_serial(
        n in 1usize..3, c in 1usize..3, oc in 1usize..4,
        h in 3usize..7, w in 3usize..7,
        data in prop::collection::vec(-2.0f32..2.0, 2 * 2 * 6 * 6 + 3 * 2 * 9 + 2 * 3 * 6 * 6)
    ) {
        let spec = Conv2dSpec::same(c, oc, 3);
        let input = Tensor::from_vec(data[..n * c * h * w].to_vec(), &[n, c, h, w]).unwrap();
        let weight =
            Tensor::from_vec(data[144..144 + spec.weight_len()].to_vec(), &[oc, c, 3, 3]).unwrap();
        // Same-padding keeps the output spatial dims equal to the input's.
        let grad_out =
            Tensor::from_vec(data[198..198 + n * oc * h * w].to_vec(), &[n, oc, h, w]).unwrap();
        let (serial, parallel) = serial_and_parallel(|| {
            let gi = conv2d_backward_input(&grad_out, &weight, input.dims(), &spec).unwrap();
            let (gw, gb) = conv2d_backward_weight(&input, &grad_out, &spec).unwrap();
            (gi.as_slice().to_vec(), gw.as_slice().to_vec(), gb.as_slice().to_vec())
        });
        prop_assert_eq!(serial, parallel);
    }
}

/// Deterministic remainder-path coverage: every matmul variant at widths 1,
/// 3, 7 and 17 — below the SSE lane width, below the AVX2 lane width, and
/// one past two AVX2 lanes — so the SIMD kernels' scalar tails and the
/// 4-row block kernel's odd-row tail are all exercised explicitly.
#[test]
fn matmul_variants_simd_matches_scalar_at_non_lane_multiple_widths() {
    for &m in &[1usize, 3, 7, 17] {
        for &k in &[1usize, 3, 7, 17] {
            for &n in &[1usize, 3, 7, 17] {
                let a: Vec<f32> =
                    (0..m.max(k) * k.max(m)).map(|i| ((i * 31) % 64) as f32 * 0.1 - 3.0).collect();
                let b: Vec<f32> =
                    (0..k * n + n * k).map(|i| ((i * 47) % 64) as f32 * 0.1 - 3.0).collect();
                let (scalar, simd) = scalar_and_simd(|| {
                    let mut g = vec![0.0f32; m * n];
                    linalg::gemm(&a[..m * k], &b[..k * n], &mut g, m, k, n);
                    let mut gacc = g.clone();
                    linalg::gemm_acc(&a[..m * k], &b[..k * n], &mut gacc, m, k, n);
                    let mut gt = vec![0.0f32; m * n];
                    linalg::gemm_at_b(&a[..k * m], &b[..k * n], &mut gt, k, m, n);
                    let mut gbt = vec![0.0f32; m * n];
                    linalg::gemm_a_bt(&a[..m * k], &b[..n * k], &mut gbt, m, k, n);
                    (g, gacc, gt, gbt)
                });
                assert_eq!(scalar, simd, "m={m} k={k} n={n}");
            }
        }
    }
}
