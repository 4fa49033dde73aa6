//! The device-memory seam and its host (CPU) implementation.
//!
//! A quantized plan does not hold raw weight slices at execution time — it
//! holds opaque [`BufferId`] handles into a [`DeviceMemory`], obtained by
//! uploading the int8 weights and f32 scales once when the plan is
//! prepared. The int8 gemm/conv entry points execute against those
//! handles, taking host-side f32 activations and writing host-side f32
//! outputs. That split is exactly the shape a GPU backend needs (weights
//! batch-resident on the device, activations streamed per micro-batch), so
//! swapping [`HostDevice`] for a CUDA/ROCm implementation touches nothing
//! above this trait — not `ExecPlan`, not `ServeEngine`, not the cluster.
//!
//! [`HostDevice`] is the reference implementation: buffers are plain
//! vectors, "upload" is a copy, and the kernels are AVX2+FMA
//! convert-and-fmadd loops (runtime-detected via
//! [`fuse_backend::fma_available`]) with a portable accumulator fallback.
//! Both kernel flavours accumulate in f32 and dequantize once per output
//! element (`acc * scale[channel] + bias[channel]`), so the quantization
//! error is the weight rounding only.
//!
//! Everything here is relaxed-contract: the AVX2 path reassociates the
//! k-reduction across eight lanes. Outputs are verified against float
//! goldens by tolerance (see [`crate::compare`]).

use fuse_parallel as par;
use fuse_tensor::conv::Conv2dSpec;

/// Opaque handle to a device-resident buffer returned by the upload
/// methods of [`DeviceMemory`]. Handles are only meaningful on the device
/// that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// The raw slot index (stable within one device instance; useful for
    /// debug output only).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The device-memory seam the int8 serving path is written against.
///
/// Implementations own buffer storage and the quantized compute kernels.
/// Weights and scales are uploaded once per plan (batch-resident);
/// activations and outputs cross the seam as host slices on every call —
/// the transfer policy for those is the implementation's concern (the host
/// device reads them in place; a GPU device would stage them).
pub trait DeviceMemory: Send + std::fmt::Debug {
    /// Short lowercase device name for reports (`"host"`, `"cuda"`, …).
    fn name(&self) -> &'static str;

    /// Uploads an int8 buffer (quantized weights), returning its handle.
    fn upload_i8(&mut self, data: &[i8]) -> BufferId;

    /// Uploads an f32 buffer (per-channel scales), returning its handle.
    fn upload_f32(&mut self, data: &[f32]) -> BufferId;

    /// Downloads an f32 buffer into `out` (length must match the upload).
    fn download_f32(&self, buf: BufferId, out: &mut [f32]);

    /// Quantized fully-connected forward: `out[m x n] = act[m x k] ·
    /// dequant(weights)[n x k]ᵀ + bias`, with optional fused ReLU.
    ///
    /// `weights` is an [`Self::upload_i8`] handle holding `n` rows of `k`
    /// int8 values; `scales` an [`Self::upload_f32`] handle with `n`
    /// per-row scales. Accumulation is f32; each output element is
    /// dequantized once (`acc * scale[j] + bias[j]`).
    #[allow(clippy::too_many_arguments)]
    fn gemm_i8(
        &self,
        act: &[f32],
        weights: BufferId,
        scales: BufferId,
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    );

    /// Quantized conv2d forward over a `[batch, C, H, W]` input, direct
    /// (no im2col scratch): `out[b][oc][oy][ox] = Σ act·w + bias[oc]`,
    /// dequantized per output channel, optional fused ReLU.
    ///
    /// `weights` holds `spec.out_channels` rows of `spec.in_channels *
    /// kernel²` int8 values (the same row-major layout as the float
    /// weights); `scales` one scale per output channel.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_i8(
        &self,
        input: &[f32],
        weights: BufferId,
        scales: BufferId,
        bias: &[f32],
        out: &mut [f32],
        batch: usize,
        spec: &Conv2dSpec,
        h: usize,
        w: usize,
        relu: bool,
    );
}

/// One slot of [`HostDevice`] storage.
#[derive(Debug)]
enum Slot {
    I8(Vec<i8>),
    F32(Vec<f32>),
}

/// The host (CPU) implementation of [`DeviceMemory`]: buffers are vectors,
/// kernels are AVX2+FMA when the CPU supports it, portable otherwise.
#[derive(Debug, Default)]
pub struct HostDevice {
    slots: Vec<Slot>,
}

impl HostDevice {
    /// Creates an empty host device.
    pub fn new() -> Self {
        Self::default()
    }

    fn i8_slot(&self, buf: BufferId) -> &[i8] {
        match &self.slots[buf.0] {
            Slot::I8(v) => v,
            Slot::F32(_) => panic!("buffer {} holds f32 data, expected i8", buf.0),
        }
    }

    fn f32_slot(&self, buf: BufferId) -> &[f32] {
        match &self.slots[buf.0] {
            Slot::F32(v) => v,
            Slot::I8(_) => panic!("buffer {} holds i8 data, expected f32", buf.0),
        }
    }
}

impl DeviceMemory for HostDevice {
    fn name(&self) -> &'static str {
        "host"
    }

    fn upload_i8(&mut self, data: &[i8]) -> BufferId {
        self.slots.push(Slot::I8(data.to_vec()));
        BufferId(self.slots.len() - 1)
    }

    fn upload_f32(&mut self, data: &[f32]) -> BufferId {
        self.slots.push(Slot::F32(data.to_vec()));
        BufferId(self.slots.len() - 1)
    }

    fn download_f32(&self, buf: BufferId, out: &mut [f32]) {
        let src = self.f32_slot(buf);
        assert_eq!(src.len(), out.len(), "download length must match upload");
        out.copy_from_slice(src);
    }

    fn gemm_i8(
        &self,
        act: &[f32],
        weights: BufferId,
        scales: BufferId,
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    ) {
        let wq = self.i8_slot(weights);
        let sc = self.f32_slot(scales);
        assert_eq!(act.len(), m * k, "activations must be [m x k]");
        assert_eq!(wq.len(), n * k, "weights must be [n x k]");
        assert_eq!(sc.len(), n, "one scale per output channel");
        assert_eq!(bias.len(), n, "one bias per output channel");
        assert_eq!(out.len(), m * n, "output must be [m x n]");
        if m > 1 && par::parallel_beneficial(m * k * n) {
            par::par_chunks_mut(out, n, |i, out_row| {
                gemm_i8_row(&act[i * k..(i + 1) * k], wq, sc, bias, out_row, k, relu);
            });
        } else {
            for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
                gemm_i8_row(&act[i * k..(i + 1) * k], wq, sc, bias, out_row, k, relu);
            }
        }
    }

    fn conv2d_i8(
        &self,
        input: &[f32],
        weights: BufferId,
        scales: BufferId,
        bias: &[f32],
        out: &mut [f32],
        batch: usize,
        spec: &Conv2dSpec,
        h: usize,
        w: usize,
        relu: bool,
    ) {
        let wq = self.i8_slot(weights);
        let sc = self.f32_slot(scales);
        let (out_h, out_w) =
            spec.output_size(h, w).expect("conv geometry validated at plan compile time");
        let in_stride = spec.in_channels * h * w;
        let out_stride = spec.out_channels * out_h * out_w;
        assert_eq!(input.len(), batch * in_stride, "input must be [batch, C, H, W]");
        assert_eq!(wq.len(), spec.weight_len(), "weights must match the conv spec");
        assert_eq!(sc.len(), spec.out_channels, "one scale per output channel");
        assert_eq!(bias.len(), spec.out_channels, "one bias per output channel");
        assert_eq!(out.len(), batch * out_stride, "output must be [batch, OC, OH, OW]");
        if batch > 1 && par::parallel_beneficial(out.len() * spec.in_channels * spec.kernel) {
            par::par_chunks_mut(out, out_stride, |b, out_sample| {
                conv2d_i8_sample(
                    &input[b * in_stride..(b + 1) * in_stride],
                    wq,
                    sc,
                    bias,
                    out_sample,
                    spec,
                    h,
                    w,
                    (out_h, out_w),
                    relu,
                );
            });
        } else {
            for (b, out_sample) in out.chunks_exact_mut(out_stride).enumerate() {
                conv2d_i8_sample(
                    &input[b * in_stride..(b + 1) * in_stride],
                    wq,
                    sc,
                    bias,
                    out_sample,
                    spec,
                    h,
                    w,
                    (out_h, out_w),
                    relu,
                );
            }
        }
    }
}

/// One output row of the quantized FC forward: `out[j] = (act ·
/// dequant(wq[j])) * sc[j] + bias[j]`. Dispatches the AVX2+FMA kernel when
/// the host supports it.
fn gemm_i8_row(
    act: &[f32],
    wq: &[i8],
    sc: &[f32],
    bias: &[f32],
    out: &mut [f32],
    k: usize,
    relu: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if fuse_backend::fma_available() {
        // Safety: `fma_available` proved avx2+fma on this CPU.
        unsafe { x86::gemm_i8_row_fma(act, wq, sc, bias, out, k, relu) };
        return;
    }
    gemm_i8_row_portable(act, wq, sc, bias, out, k, relu);
}

/// Portable quantized FC row kernel: four independent accumulators per
/// output element for ILP, f32 accumulation, dequantize once at the end.
fn gemm_i8_row_portable(
    act: &[f32],
    wq: &[i8],
    sc: &[f32],
    bias: &[f32],
    out: &mut [f32],
    k: usize,
    relu: bool,
) {
    for (j, o) in out.iter_mut().enumerate() {
        let w_row = &wq[j * k..(j + 1) * k];
        let mut acc = [0.0f32; 4];
        let mut chunks_a = act.chunks_exact(4);
        let mut chunks_w = w_row.chunks_exact(4);
        for (ca, cw) in chunks_a.by_ref().zip(chunks_w.by_ref()) {
            for l in 0..4 {
                acc[l] += ca[l] * f32::from(cw[l]);
            }
        }
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (a, q) in chunks_a.remainder().iter().zip(chunks_w.remainder()) {
            s += a * f32::from(*q);
        }
        let v = s * sc[j] + bias[j];
        *o = if relu { v.max(0.0) } else { v };
    }
}

/// One sample of the direct quantized conv2d forward (no im2col scratch):
/// straight loops over output channel × output position × tap, f32
/// accumulation, dequantize per output channel.
#[allow(clippy::too_many_arguments)]
fn conv2d_i8_sample(
    input: &[f32],
    wq: &[i8],
    sc: &[f32],
    bias: &[f32],
    out: &mut [f32],
    spec: &Conv2dSpec,
    h: usize,
    w: usize,
    (out_h, out_w): (usize, usize),
    relu: bool,
) {
    let kernel = spec.kernel;
    let tap_len = spec.in_channels * kernel * kernel;
    for oc in 0..spec.out_channels {
        let w_row = &wq[oc * tap_len..(oc + 1) * tap_len];
        let (scale, b) = (sc[oc], bias[oc]);
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0f32;
                for ic in 0..spec.in_channels {
                    let plane = &input[ic * h * w..(ic + 1) * h * w];
                    let taps = &w_row[ic * kernel * kernel..(ic + 1) * kernel * kernel];
                    for ky in 0..kernel {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kernel {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let a = plane[iy as usize * w + ix as usize];
                            acc += a * f32::from(taps[ky * kernel + kx]);
                        }
                    }
                }
                let v = acc * scale + b;
                out[(oc * out_h + oy) * out_w + ox] = if relu { v.max(0.0) } else { v };
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2+FMA quantized FC kernel: convert eight int8 weights to f32 in
    //! registers, fuse the multiply-add, share each activation load across
    //! four weight rows (the weight stream is the bandwidth bound — int8
    //! quarters it, and the row blocking quarters the activation reloads).

    use std::arch::x86_64::*;

    /// Converts 8 consecutive int8 values to an 8-lane f32 register.
    ///
    /// # Safety
    ///
    /// `ptr` must be readable for 8 bytes; caller must have AVX2.
    #[inline(always)]
    unsafe fn cvt_i8x8(ptr: *const i8) -> __m256 {
        let raw = _mm_loadl_epi64(ptr as *const __m128i);
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw))
    }

    /// Pairwise horizontal sum of an 8-lane register.
    ///
    /// # Safety
    ///
    /// Caller must have AVX.
    #[inline(always)]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps::<1>(d, d));
        _mm_cvtss_f32(s)
    }

    /// One output row of the quantized FC forward (see the portable kernel
    /// for semantics). Four weight rows per pass share each activation
    /// load; the k-reduction is eight-lane reassociated (relaxed contract).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_i8_row_fma(
        act: &[f32],
        wq: &[i8],
        sc: &[f32],
        bias: &[f32],
        out: &mut [f32],
        k: usize,
        relu: bool,
    ) {
        const JB: usize = 4;
        let n = out.len();
        let mut j = 0;
        while j + JB <= n {
            let w_base = wq.as_ptr().add(j * k);
            let mut acc = [_mm256_setzero_ps(); JB];
            let mut p = 0;
            while p + 8 <= k {
                let va = _mm256_loadu_ps(act.as_ptr().add(p));
                for (l, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(va, cvt_i8x8(w_base.add(l * k + p)), *a);
                }
                p += 8;
            }
            let mut sums = [0.0f32; JB];
            for (l, a) in acc.iter().enumerate() {
                sums[l] = hsum256(*a);
            }
            while p < k {
                let a = act[p];
                for (l, s) in sums.iter_mut().enumerate() {
                    *s += a * f32::from(wq[(j + l) * k + p]);
                }
                p += 1;
            }
            for (l, s) in sums.iter().enumerate() {
                let v = s * sc[j + l] + bias[j + l];
                out[j + l] = if relu { v.max(0.0) } else { v };
            }
            j += JB;
        }
        while j < n {
            let w_row = &wq[j * k..(j + 1) * k];
            let mut acc = _mm256_setzero_ps();
            let mut p = 0;
            while p + 8 <= k {
                let va = _mm256_loadu_ps(act.as_ptr().add(p));
                acc = _mm256_fmadd_ps(va, cvt_i8x8(w_row.as_ptr().add(p)), acc);
                p += 8;
            }
            let mut s = hsum256(acc);
            while p < k {
                s += act[p] * f32::from(w_row[p]);
                p += 1;
            }
            let v = s * sc[j] + bias[j];
            out[j] = if relu { v.max(0.0) } else { v };
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int8::quantize_rows;

    fn data(len: usize, salt: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 2654435761 + salt * 40503) % 2048) as f32 * 1e-3 - 1.0).collect()
    }

    /// Float reference of the quantized FC forward: dequantize the weights
    /// and run the plain dot products.
    #[allow(clippy::too_many_arguments)]
    fn gemm_ref(
        act: &[f32],
        wq: &[i8],
        sc: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += f64::from(act[i * k + p]) * f64::from(wq[j * k + p]);
                }
                let v = s as f32 * sc[j] + bias[j];
                out[i * n + j] = if relu { v.max(0.0) } else { v };
            }
        }
        out
    }

    #[test]
    fn gemm_i8_matches_float_reference_within_tolerance() {
        let mut dev = HostDevice::new();
        // Odd sizes exercise both the 8-lane body and the scalar tails.
        let (m, k, n) = (3usize, 37usize, 11usize);
        let weights = data(n * k, 1);
        let q = quantize_rows(&weights, k);
        let wbuf = dev.upload_i8(&q.values);
        let sbuf = dev.upload_f32(&q.scales);
        let act = data(m * k, 2);
        let bias = data(n, 3);
        for relu in [false, true] {
            let mut out = vec![0.0f32; m * n];
            dev.gemm_i8(&act, wbuf, sbuf, &bias, &mut out, m, k, n, relu);
            let reference = gemm_ref(&act, &q.values, &q.scales, &bias, m, k, n, relu);
            for (o, r) in out.iter().zip(&reference) {
                assert!((o - r).abs() <= 1e-4 * r.abs().max(1.0), "got {o}, reference {r}");
            }
        }
    }

    #[test]
    fn conv2d_i8_matches_dequantized_float_conv() {
        let mut dev = HostDevice::new();
        let spec = Conv2dSpec::same(2, 3, 3);
        let (batch, h, w) = (2usize, 5usize, 4usize);
        let weights = data(spec.weight_len(), 4);
        let q = quantize_rows(&weights, spec.in_channels * spec.kernel * spec.kernel);
        let wbuf = dev.upload_i8(&q.values);
        let sbuf = dev.upload_f32(&q.scales);
        let input = data(batch * spec.in_channels * h * w, 5);
        let bias = data(spec.out_channels, 6);
        let mut out = vec![0.0f32; batch * spec.out_channels * h * w];
        dev.conv2d_i8(&input, wbuf, sbuf, &bias, &mut out, batch, &spec, h, w, true);

        // Reference: dequantize and run the exact float conv.
        let mut wf = vec![0.0f32; weights.len()];
        crate::int8::dequantize_rows(
            &q.values,
            &q.scales,
            spec.in_channels * spec.kernel * spec.kernel,
            &mut wf,
        );
        let mut cols = vec![0.0f32; batch * spec.in_channels * spec.kernel * spec.kernel * h * w];
        let mut reference = vec![0.0f32; out.len()];
        fuse_tensor::conv::conv2d_forward_into(
            &input,
            batch,
            h,
            w,
            &wf,
            &bias,
            &spec,
            &mut cols,
            &mut reference,
            true,
        )
        .unwrap();
        for (o, r) in out.iter().zip(&reference) {
            assert!((o - r).abs() <= 1e-4 * r.abs().max(1.0), "got {o}, reference {r}");
        }
    }

    #[test]
    fn upload_download_round_trips() {
        let mut dev = HostDevice::new();
        let buf = dev.upload_f32(&[1.0, -2.5, 3.25]);
        let mut back = [0.0f32; 3];
        dev.download_f32(buf, &mut back);
        assert_eq!(back, [1.0, -2.5, 3.25]);
        assert_eq!(dev.name(), "host");
    }

    #[test]
    #[should_panic(expected = "activations must be [m x k]")]
    fn gemm_i8_rejects_short_activations() {
        // The AVX2 kernel reads activations through raw pointers; the public
        // entry point must refuse a short operand in release builds too.
        let mut dev = HostDevice::new();
        let (m, k, n) = (2usize, 16usize, 4usize);
        let wbuf = dev.upload_i8(&vec![1i8; n * k]);
        let sbuf = dev.upload_f32(&vec![1.0; n]);
        let mut out = vec![0.0f32; m * n];
        dev.gemm_i8(&vec![1.0; m * k - 1], wbuf, sbuf, &[0.0; 4], &mut out, m, k, n, false);
    }

    #[test]
    #[should_panic(expected = "weights must match the conv spec")]
    fn conv2d_i8_rejects_short_weights() {
        let mut dev = HostDevice::new();
        let spec = Conv2dSpec::same(2, 3, 3);
        let wbuf = dev.upload_i8(&vec![1i8; spec.weight_len() - 1]);
        let sbuf = dev.upload_f32(&[1.0; 3]);
        let mut out = vec![0.0f32; 3 * 4 * 4];
        dev.conv2d_i8(&[1.0; 2 * 4 * 4], wbuf, sbuf, &[0.0; 3], &mut out, 1, &spec, 4, 4, false);
    }

    #[test]
    #[should_panic(expected = "expected i8")]
    fn kind_confusion_is_rejected() {
        let mut dev = HostDevice::new();
        let buf = dev.upload_f32(&[1.0]);
        let mut out = [0.0f32; 1];
        dev.gemm_i8(&[1.0], buf, buf, &[0.0], &mut out, 1, 1, 1, false);
    }
}
