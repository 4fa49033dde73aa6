//! The `.fplan` plan artifact: a versioned, checksummed, little-endian
//! binary container for compiled [`ExecPlan`]s.
//!
//! An artifact is fully self-contained — shape signature, scheduled steps,
//! arena slot layout (with the compiled `max_batch`), and a raw-f32
//! parameter snapshot — so an edge deployment can load and serve it against
//! `fuse-tensor`/`fuse-backend` alone, with no `fuse-nn` lowering stack and
//! no startup compilation. The byte layout is specified normatively in
//! `REPRODUCIBILITY.md`; in short, the shared [`fuse_tensor::codec`]
//! container:
//!
//! ```text
//! magic "FPLN" | format version u32 | payload length u64 | payload | CRC-32C u32
//! ```
//!
//! All integers are little-endian; `f32` values are stored as the
//! little-endian bytes of their IEEE-754 bit patterns, so a round trip is
//! bit-exact (NaN payloads included). Format v2 appends two length-prefixed
//! tables after the f32 parameters — int8 quantized weights and per-channel
//! f32 scales — and adds the quantized step tags; v3 keeps the v2 payload
//! and replaces the FNV-1a-64 `u64` trailer with CRC-32C. Readers accept
//! `v1..=v3`, decoding v1 artifacts to float plans with empty quantized
//! sections. Every malformed input — wrong magic,
//! unknown version, short file, corrupt payload, or a structurally valid
//! payload describing an inconsistent plan — is a typed [`GraphError`];
//! loading never panics, and a loaded plan's `run` is panic-free because all
//! arena and parameter ranges are bounds- and overlap-checked here.

use std::fs;
use std::ops::Range;
use std::path::Path;

use fuse_tensor::codec::{decode_f32s, encode_f32s, ContainerError, Format};
use fuse_tensor::Conv2dSpec;

use crate::error::GraphError;
use crate::graph::ShapeSignature;
use crate::meta::{DType, TensorMeta};
use crate::plan::{ExecPlan, Src, Step};
use crate::Result;

/// The four magic bytes opening every `.fplan` artifact.
pub const FPLAN_MAGIC: [u8; 4] = *b"FPLN";

/// The artifact format version this build writes. Readers accept
/// `FPLAN_MIN_VERSION..=FPLAN_VERSION`: v1 is the float-only layout, v2
/// appends the int8 quantized-weight and per-channel scale tables (and may
/// carry quantized step tags), and v3 keeps the v2 payload under a CRC-32C
/// trailer instead of FNV-1a-64. A v1 artifact decodes to a float plan with
/// empty quantized sections.
///
/// Any change to the byte layout — new step tags included — must bump this;
/// readers reject every newer or unknown version with
/// [`GraphError::UnsupportedVersion`] rather than guessing.
pub const FPLAN_VERSION: u32 = 3;

/// The oldest artifact format version this build still reads.
pub const FPLAN_MIN_VERSION: u32 = 1;

/// The `.fplan` container: every version has the length word; v3 moved
/// from FNV-1a-64 to CRC-32C.
pub const FPLAN_FORMAT: Format = Format {
    magic: FPLAN_MAGIC,
    min_version: FPLAN_MIN_VERSION,
    max_version: FPLAN_VERSION,
    len_since: 1,
    crc_since: 3,
    max_payload: u64::MAX,
};

const TAG_CONV2D: u8 = 0;
const TAG_CONV1X1: u8 = 1;
const TAG_LINEAR: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_MAXPOOL2D: u8 = 4;
// v2-only tags: quantized steps referencing the int8/scale tables.
const TAG_QCONV2D: u8 = 5;
const TAG_QLINEAR: u8 = 6;

const SRC_INPUT: u8 = 0;
const SRC_ARENA: u8 = 1;

const DTYPE_F32: u8 = 0;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn i8s(&mut self, v: &[i8]) {
        self.buf.extend(v.iter().map(|&x| x as u8));
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn range(&mut self, r: &Range<usize>) {
        self.usize(r.start);
        self.usize(r.end);
    }
    fn meta(&mut self, m: &TensorMeta) {
        match m.dtype() {
            DType::F32 => self.u8(DTYPE_F32),
        }
        self.u32(m.dims().len() as u32);
        for &d in m.dims() {
            self.usize(d);
        }
    }
    fn src(&mut self, s: &Src) {
        match s {
            Src::Input => self.u8(SRC_INPUT),
            Src::Arena { offset } => {
                self.u8(SRC_ARENA);
                self.usize(*offset);
            }
        }
    }
    fn spec(&mut self, s: &Conv2dSpec) {
        self.usize(s.in_channels);
        self.usize(s.out_channels);
        self.usize(s.kernel);
        self.usize(s.stride);
        self.usize(s.padding);
    }
}

fn encode_payload(plan: &ExecPlan, buf: &mut Vec<u8>) {
    let mut e = Enc { buf };

    let sig = &plan.signature;
    e.u32(sig.layer_names().len() as u32);
    for name in sig.layer_names() {
        e.str(name);
    }
    e.usize(sig.param_len());
    e.meta(sig.input());
    e.meta(sig.output());

    e.meta(&plan.input);
    e.meta(&plan.output);
    e.usize(plan.max_batch);
    e.usize(plan.out_offset);
    e.usize(plan.arena.len());

    e.u32(plan.steps.len() as u32);
    for step in &plan.steps {
        match step {
            Step::Conv2d {
                spec,
                h,
                w,
                src,
                src_len,
                cols_offset,
                cols_len,
                dst_offset,
                dst_len,
                weight,
                bias,
                relu,
            } => {
                e.u8(TAG_CONV2D);
                e.spec(spec);
                e.usize(*h);
                e.usize(*w);
                e.src(src);
                e.usize(*src_len);
                e.usize(*cols_offset);
                e.usize(*cols_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
                e.range(weight);
                e.range(bias);
                e.u8(u8::from(*relu));
            }
            Step::Conv1x1 { spec, h, w, src, src_len, dst_offset, dst_len, weight, bias, relu } => {
                e.u8(TAG_CONV1X1);
                e.spec(spec);
                e.usize(*h);
                e.usize(*w);
                e.src(src);
                e.usize(*src_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
                e.range(weight);
                e.range(bias);
                e.u8(u8::from(*relu));
            }
            Step::Linear { in_features, out_features, src, dst_offset, weight, bias, relu } => {
                e.u8(TAG_LINEAR);
                e.usize(*in_features);
                e.usize(*out_features);
                e.src(src);
                e.usize(*dst_offset);
                e.range(weight);
                e.range(bias);
                e.u8(u8::from(*relu));
            }
            Step::Relu { src, len, dst_offset } => {
                e.u8(TAG_RELU);
                e.src(src);
                e.usize(*len);
                e.usize(*dst_offset);
            }
            Step::MaxPool2d { window, c, h, w, src, src_len, dst_offset, dst_len } => {
                e.u8(TAG_MAXPOOL2D);
                e.usize(*window);
                e.usize(*c);
                e.usize(*h);
                e.usize(*w);
                e.src(src);
                e.usize(*src_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
            }
            Step::QConv2d {
                spec,
                h,
                w,
                src,
                src_len,
                dst_offset,
                dst_len,
                weight,
                scale,
                bias,
                relu,
            } => {
                e.u8(TAG_QCONV2D);
                e.spec(spec);
                e.usize(*h);
                e.usize(*w);
                e.src(src);
                e.usize(*src_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
                e.range(weight);
                e.range(scale);
                e.range(bias);
                e.u8(u8::from(*relu));
            }
            Step::QLinear {
                in_features,
                out_features,
                src,
                dst_offset,
                weight,
                scale,
                bias,
                relu,
            } => {
                e.u8(TAG_QLINEAR);
                e.usize(*in_features);
                e.usize(*out_features);
                e.src(src);
                e.usize(*dst_offset);
                e.range(weight);
                e.range(scale);
                e.range(bias);
                e.u8(u8::from(*relu));
            }
        }
    }

    e.usize(plan.params.len());
    encode_f32s(e.buf, &plan.params);

    // v2 quantized sections: length-prefixed int8 weights, then f32 scales.
    e.usize(plan.qweights.len());
    e.i8s(&plan.qweights);
    e.usize(plan.qscales.len());
    encode_f32s(e.buf, &plan.qscales);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let available = self.bytes.len() - self.pos;
        if available < n {
            return Err(GraphError::Truncated { needed: n, available });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| GraphError::Malformed(format!("value {v} exceeds the address space")))
    }
    /// Reads `count` f32 values, checking the count against the bytes left
    /// before allocating, so a lying count is a typed truncation.
    fn f32s(&mut self, count: usize) -> Result<Vec<f32>> {
        let available = self.bytes.len() - self.pos;
        match count.checked_mul(4) {
            Some(need) if need <= available => Ok(decode_f32s(self.take(need)?)),
            _ => Err(GraphError::Truncated { needed: count.saturating_mul(4), available }),
        }
    }
    fn i8s(&mut self, n: usize) -> Result<Vec<i8>> {
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }
    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| GraphError::Malformed("layer name is not valid UTF-8".into()))
    }
    fn range(&mut self) -> Result<Range<usize>> {
        let start = self.usize()?;
        let end = self.usize()?;
        if start > end {
            return Err(GraphError::Malformed(format!("inverted range {start}..{end}")));
        }
        Ok(start..end)
    }
    fn meta(&mut self) -> Result<TensorMeta> {
        match self.u8()? {
            DTYPE_F32 => {}
            tag => return Err(GraphError::Malformed(format!("unknown dtype tag {tag}"))),
        }
        let rank = self.u32()? as usize;
        if rank > 8 {
            return Err(GraphError::Malformed(format!("implausible tensor rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.usize()?);
        }
        Ok(TensorMeta::f32(&dims))
    }
    fn src(&mut self) -> Result<Src> {
        match self.u8()? {
            SRC_INPUT => Ok(Src::Input),
            SRC_ARENA => Ok(Src::Arena { offset: self.usize()? }),
            tag => Err(GraphError::Malformed(format!("unknown source tag {tag}"))),
        }
    }
    fn spec(&mut self) -> Result<Conv2dSpec> {
        Ok(Conv2dSpec {
            in_channels: self.usize()?,
            out_channels: self.usize()?,
            kernel: self.usize()?,
            stride: self.usize()?,
            padding: self.usize()?,
        })
    }
}

fn decode_payload(payload: &[u8], version: u32) -> Result<ExecPlan> {
    let mut d = Dec { bytes: payload, pos: 0 };

    let name_count = d.u32()? as usize;
    let mut layer_names = Vec::with_capacity(name_count.min(1024));
    for _ in 0..name_count {
        layer_names.push(d.str()?);
    }
    let sig_param_len = d.usize()?;
    let sig_input = d.meta()?;
    let sig_output = d.meta()?;
    let signature = ShapeSignature::from_parts(layer_names, sig_param_len, sig_input, sig_output);

    let input = d.meta()?;
    let output = d.meta()?;
    let max_batch = d.usize()?;
    let out_offset = d.usize()?;
    let arena_len = d.usize()?;

    let step_count = d.u32()? as usize;
    let mut steps = Vec::with_capacity(step_count.min(1024));
    for _ in 0..step_count {
        let step = match d.u8()? {
            TAG_CONV2D => Step::Conv2d {
                spec: d.spec()?,
                h: d.usize()?,
                w: d.usize()?,
                src: d.src()?,
                src_len: d.usize()?,
                cols_offset: d.usize()?,
                cols_len: d.usize()?,
                dst_offset: d.usize()?,
                dst_len: d.usize()?,
                weight: d.range()?,
                bias: d.range()?,
                relu: d.u8()? != 0,
            },
            TAG_CONV1X1 => Step::Conv1x1 {
                spec: d.spec()?,
                h: d.usize()?,
                w: d.usize()?,
                src: d.src()?,
                src_len: d.usize()?,
                dst_offset: d.usize()?,
                dst_len: d.usize()?,
                weight: d.range()?,
                bias: d.range()?,
                relu: d.u8()? != 0,
            },
            TAG_LINEAR => Step::Linear {
                in_features: d.usize()?,
                out_features: d.usize()?,
                src: d.src()?,
                dst_offset: d.usize()?,
                weight: d.range()?,
                bias: d.range()?,
                relu: d.u8()? != 0,
            },
            TAG_RELU => Step::Relu { src: d.src()?, len: d.usize()?, dst_offset: d.usize()? },
            TAG_MAXPOOL2D => Step::MaxPool2d {
                window: d.usize()?,
                c: d.usize()?,
                h: d.usize()?,
                w: d.usize()?,
                src: d.src()?,
                src_len: d.usize()?,
                dst_offset: d.usize()?,
                dst_len: d.usize()?,
            },
            tag @ (TAG_QCONV2D | TAG_QLINEAR) if version < 2 => {
                return Err(GraphError::Malformed(format!(
                    "quantized step tag {tag} in a v{version} artifact"
                )))
            }
            TAG_QCONV2D => Step::QConv2d {
                spec: d.spec()?,
                h: d.usize()?,
                w: d.usize()?,
                src: d.src()?,
                src_len: d.usize()?,
                dst_offset: d.usize()?,
                dst_len: d.usize()?,
                weight: d.range()?,
                scale: d.range()?,
                bias: d.range()?,
                relu: d.u8()? != 0,
            },
            TAG_QLINEAR => Step::QLinear {
                in_features: d.usize()?,
                out_features: d.usize()?,
                src: d.src()?,
                dst_offset: d.usize()?,
                weight: d.range()?,
                scale: d.range()?,
                bias: d.range()?,
                relu: d.u8()? != 0,
            },
            tag => return Err(GraphError::Malformed(format!("unknown step tag {tag}"))),
        };
        steps.push(step);
    }

    let param_count = d.usize()?;
    let params = d.f32s(param_count)?;

    // v2 quantized sections; a v1 artifact simply has none.
    let (qweights, qscales) = if version >= 2 {
        let qweight_count = d.usize()?;
        let available = payload.len() - d.pos;
        if qweight_count > available {
            return Err(GraphError::Truncated { needed: qweight_count, available });
        }
        let qweights = d.i8s(qweight_count)?;
        let qscale_count = d.usize()?;
        (qweights, d.f32s(qscale_count)?)
    } else {
        (Vec::new(), Vec::new())
    };

    if d.pos != payload.len() {
        return Err(GraphError::Malformed(format!(
            "{} trailing payload bytes after the parameter table",
            payload.len() - d.pos
        )));
    }

    let plan = ExecPlan {
        signature,
        input,
        output,
        max_batch,
        params,
        steps,
        arena: vec![0.0; arena_len],
        out_offset,
        qweights,
        qscales,
        device: None,
    };
    validate(&plan)?;
    Ok(plan)
}

/// Semantic validation of a decoded plan: every arena slot, parameter range
/// and geometry a step will touch is bounds-checked against the artifact's
/// own arena/parameter tables, and same-dispatch buffers are checked
/// disjoint, so [`ExecPlan::run`] on a loaded plan can never panic — a lying
/// artifact fails here with [`GraphError::Malformed`] instead.
fn validate(plan: &ExecPlan) -> Result<()> {
    let mb = plan.max_batch;
    if mb == 0 {
        return Err(GraphError::Malformed("max_batch must be at least 1".into()));
    }
    // Each quantized weight replaces exactly one f32 parameter (biases stay
    // f32; scales are extra metadata), so the signature's parameter count —
    // the hot-swap identity — is conserved across quantization.
    let quantized = plan.steps.iter().any(|s| s.is_quantized());
    if quantized {
        let total = plan.params.len().checked_add(plan.qweights.len());
        if total != Some(plan.signature.param_len()) {
            return Err(GraphError::Malformed(format!(
                "parameter table ({}) plus quantized weights ({}) must equal the \
                 signature's {} parameters",
                plan.params.len(),
                plan.qweights.len(),
                plan.signature.param_len()
            )));
        }
    } else {
        if plan.params.len() != plan.signature.param_len() {
            return Err(GraphError::Malformed(format!(
                "parameter table holds {} values but the signature records {}",
                plan.params.len(),
                plan.signature.param_len()
            )));
        }
        if !plan.qweights.is_empty() || !plan.qscales.is_empty() {
            return Err(GraphError::Malformed(
                "quantized tables present but no step references them".into(),
            ));
        }
    }
    if let Some(bad) = plan.qscales.iter().find(|s| !s.is_finite() || **s <= 0.0) {
        return Err(GraphError::Malformed(format!(
            "dequantization scale {bad} is not a positive finite value"
        )));
    }
    if plan.steps.is_empty() {
        return Err(GraphError::Malformed("plan has no steps".into()));
    }
    let arena_len = plan.arena.len();
    let in_len = plan.input.len();

    let slot = |what: &str, offset: usize, per_sample: usize| -> Result<(usize, usize)> {
        let total = per_sample
            .checked_mul(mb)
            .and_then(|n| n.checked_add(offset))
            .ok_or_else(|| GraphError::Malformed(format!("{what} slot size overflows")))?;
        if total > arena_len {
            return Err(GraphError::Malformed(format!(
                "{what} slot {offset}+{mb}*{per_sample} exceeds the arena ({arena_len})"
            )));
        }
        Ok((offset, mb * per_sample))
    };
    let table_range =
        |what: &str, table: &str, len: usize, r: &Range<usize>, expected: usize| -> Result<()> {
            if r.end > len {
                return Err(GraphError::Malformed(format!(
                    "{what} range {r:?} exceeds the {table} table ({len})"
                )));
            }
            if r.len() != expected {
                return Err(GraphError::Malformed(format!(
                    "{what} range {r:?} holds {} values, geometry implies {expected}",
                    r.len()
                )));
            }
            Ok(())
        };
    let params_range = |what: &str, r: &Range<usize>, expected: usize| -> Result<()> {
        table_range(what, "parameter", plan.params.len(), r, expected)
    };
    let qweights_range = |what: &str, r: &Range<usize>, expected: usize| -> Result<()> {
        table_range(what, "quantized-weight", plan.qweights.len(), r, expected)
    };
    let qscales_range = |what: &str, r: &Range<usize>, expected: usize| -> Result<()> {
        table_range(what, "scale", plan.qscales.len(), r, expected)
    };
    let src_slot = |what: &str, src: &Src, per_sample: usize| -> Result<Option<(usize, usize)>> {
        match src {
            Src::Input => {
                if per_sample != in_len {
                    return Err(GraphError::Malformed(format!(
                        "{what} reads {per_sample} input values per sample, input meta has {in_len}"
                    )));
                }
                Ok(None)
            }
            Src::Arena { offset } => slot(what, *offset, per_sample).map(Some),
        }
    };
    let disjoint = |what: &str, regions: &[(usize, usize)]| -> Result<()> {
        let mut sorted = regions.to_vec();
        sorted.sort_by_key(|&(off, _)| off);
        for pair in sorted.windows(2) {
            let (a_off, a_len) = pair[0];
            let (b_off, _) = pair[1];
            if a_off + a_len > b_off {
                return Err(GraphError::Malformed(format!("{what} uses overlapping arena slots")));
            }
        }
        Ok(())
    };

    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Conv2d {
                spec,
                h,
                w,
                src,
                src_len,
                cols_offset,
                cols_len,
                dst_offset,
                dst_len,
                weight,
                bias,
                ..
            } => {
                let what = format!("step {i} (conv2d)");
                let (out_h, out_w) = spec
                    .output_size(*h, *w)
                    .map_err(|e| GraphError::Malformed(format!("{what}: {e}")))?;
                let n_cols = out_h * out_w;
                if *src_len != spec.in_channels * h * w {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *cols_len != spec.in_channels * spec.kernel * spec.kernel * n_cols {
                    return Err(GraphError::Malformed(format!("{what}: cols_len mismatch")));
                }
                if *dst_len != spec.out_channels * n_cols {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                params_range(&what, weight, spec.weight_len())?;
                params_range(&what, bias, spec.out_channels)?;
                let mut regions = vec![
                    slot(&what, *cols_offset, *cols_len)?,
                    slot(&what, *dst_offset, *dst_len)?,
                ];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::Conv1x1 {
                spec, h, w, src, src_len, dst_offset, dst_len, weight, bias, ..
            } => {
                let what = format!("step {i} (conv1x1)");
                if spec.kernel != 1 || spec.stride != 1 || spec.padding != 0 {
                    return Err(GraphError::Malformed(format!(
                        "{what}: collapsed conv must be 1x1/stride-1/unpadded"
                    )));
                }
                if *src_len != spec.in_channels * h * w {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *dst_len != spec.out_channels * h * w {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                params_range(&what, weight, spec.weight_len())?;
                params_range(&what, bias, spec.out_channels)?;
                let mut regions = vec![slot(&what, *dst_offset, *dst_len)?];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::Linear { in_features, out_features, src, dst_offset, weight, bias, .. } => {
                let what = format!("step {i} (linear)");
                params_range(&what, weight, in_features * out_features)?;
                params_range(&what, bias, *out_features)?;
                let mut regions = vec![slot(&what, *dst_offset, *out_features)?];
                if let Some(r) = src_slot(&what, src, *in_features)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::Relu { src, len, dst_offset } => {
                let what = format!("step {i} (relu)");
                let mut regions = vec![slot(&what, *dst_offset, *len)?];
                if let Some(r) = src_slot(&what, src, *len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::MaxPool2d { window, c, h, w, src, src_len, dst_offset, dst_len } => {
                let what = format!("step {i} (maxpool2d)");
                if *window == 0 || *h < *window || *w < *window {
                    return Err(GraphError::Malformed(format!(
                        "{what}: window {window} incompatible with input {h}x{w}"
                    )));
                }
                if *src_len != c * h * w {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *dst_len != c * (h / window) * (w / window) {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                let mut regions = vec![slot(&what, *dst_offset, *dst_len)?];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::QConv2d {
                spec,
                h,
                w,
                src,
                src_len,
                dst_offset,
                dst_len,
                weight,
                scale,
                bias,
                ..
            } => {
                let what = format!("step {i} (qconv2d)");
                let (out_h, out_w) = spec
                    .output_size(*h, *w)
                    .map_err(|e| GraphError::Malformed(format!("{what}: {e}")))?;
                if *src_len != spec.in_channels * h * w {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *dst_len != spec.out_channels * out_h * out_w {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                qweights_range(&what, weight, spec.weight_len())?;
                qscales_range(&what, scale, spec.out_channels)?;
                params_range(&what, bias, spec.out_channels)?;
                let mut regions = vec![slot(&what, *dst_offset, *dst_len)?];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::QLinear {
                in_features,
                out_features,
                src,
                dst_offset,
                weight,
                scale,
                bias,
                ..
            } => {
                let what = format!("step {i} (qlinear)");
                qweights_range(&what, weight, in_features * out_features)?;
                qscales_range(&what, scale, *out_features)?;
                params_range(&what, bias, *out_features)?;
                let mut regions = vec![slot(&what, *dst_offset, *out_features)?];
                if let Some(r) = src_slot(&what, src, *in_features)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
        }
    }

    let out_total = plan
        .output
        .len()
        .checked_mul(mb)
        .and_then(|n| n.checked_add(plan.out_offset))
        .ok_or_else(|| GraphError::Malformed("output slot size overflows".into()))?;
    if out_total > arena_len {
        return Err(GraphError::Malformed(format!(
            "output slot {}+{mb}*{} exceeds the arena ({arena_len})",
            plan.out_offset,
            plan.output.len()
        )));
    }
    Ok(())
}

/// Maps a container failure onto the artifact's typed errors.
fn container_error(e: ContainerError) -> GraphError {
    match e {
        ContainerError::Truncated { needed, available } => {
            GraphError::Truncated { needed, available }
        }
        ContainerError::BadMagic { found } => GraphError::BadMagic { found },
        ContainerError::UnsupportedVersion { found } => {
            GraphError::UnsupportedVersion { found, supported: FPLAN_VERSION }
        }
        ContainerError::ChecksumMismatch { stored, computed } => {
            GraphError::ChecksumMismatch { stored, computed }
        }
        e @ (ContainerError::TooLarge { .. } | ContainerError::Trailing { .. }) => {
            GraphError::Malformed(e.to_string())
        }
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl ExecPlan {
    /// Serializes the plan into a self-contained `.fplan` byte buffer
    /// (header, payload, checksum — see the module docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        // The tables, plus headroom for the signature and the steps.
        let capacity = 4 * (self.params.len() + self.qscales.len()) + self.qweights.len() + 4096;
        FPLAN_FORMAT.seal_with(FPLAN_VERSION, capacity, |buf| encode_payload(self, buf))
    }

    /// Deserializes a plan from `.fplan` bytes, verifying magic, version,
    /// length, checksum and full semantic consistency.
    ///
    /// # Errors
    ///
    /// [`GraphError::BadMagic`], [`GraphError::UnsupportedVersion`],
    /// [`GraphError::Truncated`], [`GraphError::ChecksumMismatch`] or
    /// [`GraphError::Malformed`], depending on what is wrong; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExecPlan> {
        let (version, payload) = FPLAN_FORMAT.open(bytes).map_err(container_error)?;
        decode_payload(payload, version)
    }

    /// Writes the plan to `path` as a `.fplan` artifact.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when the file cannot be written.
    pub fn write_plan(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        fs::write(path, self.to_bytes())
            .map_err(|e| GraphError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Reads a `.fplan` artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when the file cannot be read, and any
    /// [`Self::from_bytes`] error for a corrupt or incompatible artifact.
    pub fn read_plan(path: impl AsRef<Path>) -> Result<ExecPlan> {
        let path = path.as_ref();
        let bytes = fs::read(path)
            .map_err(|e| GraphError::Io(format!("reading {}: {e}", path.display())))?;
        ExecPlan::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use fuse_tensor::Tensor;

    use super::*;
    use crate::graph::Graph;
    use crate::meta::TensorMeta;

    fn pooled_plan() -> ExecPlan {
        let cw = Tensor::randn(&[3, 2, 3, 3], 0.5, 71);
        let cb = Tensor::randn(&[3], 0.1, 72);
        let w = Tensor::randn(&[4, 12], 0.2, 73);
        let b = Tensor::randn(&[4], 0.1, 74);
        let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
        g.push_conv2d("conv", Conv2dSpec::same(2, 3, 3), cw.as_slice(), cb.as_slice()).unwrap();
        g.push_relu("relu").unwrap();
        g.push_maxpool2d("pool", 2).unwrap();
        g.push_flatten("flatten").unwrap();
        g.push_linear("fc", 12, 4, w.as_slice(), b.as_slice()).unwrap();
        g.compile(3).unwrap()
    }

    #[test]
    fn round_trip_preserves_every_field_and_every_bit() {
        let plan = pooled_plan();
        let bytes = plan.to_bytes();
        let mut loaded = ExecPlan::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.signature, plan.signature);
        assert_eq!(loaded.input, plan.input);
        assert_eq!(loaded.output, plan.output);
        assert_eq!(loaded.max_batch, plan.max_batch);
        assert_eq!(loaded.steps, plan.steps);
        assert_eq!(loaded.out_offset, plan.out_offset);
        assert_eq!(loaded.arena.len(), plan.arena.len());
        let same_bits =
            loaded.params.iter().zip(&plan.params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "parameters must survive bit-exactly");

        let mut original = plan;
        let input = Tensor::randn(&[3, 2, 4, 4], 1.0, 75);
        assert_eq!(
            loaded.run(input.as_slice(), 3).unwrap(),
            original.run(input.as_slice(), 3).unwrap()
        );
    }

    #[test]
    fn header_corruptions_yield_the_matching_typed_errors() {
        let bytes = pooled_plan().to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(ExecPlan::from_bytes(&bad_magic), Err(GraphError::BadMagic { .. })));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            ExecPlan::from_bytes(&bad_version),
            Err(GraphError::UnsupportedVersion { found: 99, supported: FPLAN_VERSION })
        ));

        assert!(matches!(
            ExecPlan::from_bytes(&bytes[..bytes.len() - 1]),
            Err(GraphError::Truncated { .. })
        ));
        assert!(matches!(ExecPlan::from_bytes(&[]), Err(GraphError::Truncated { .. })));

        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(ExecPlan::from_bytes(&flipped), Err(GraphError::ChecksumMismatch { .. })));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(ExecPlan::from_bytes(&trailing), Err(GraphError::Malformed(_))));
    }

    /// Rebuilds a full artifact around a (possibly modified) payload,
    /// re-stamping length and checksum so payload-level corruptions reach
    /// the decoder instead of tripping the checksum.
    fn reassemble(payload: &[u8], version: u32) -> Vec<u8> {
        FPLAN_FORMAT.seal(version, payload)
    }

    fn payload_of(bytes: &[u8]) -> Vec<u8> {
        FPLAN_FORMAT.open(bytes).unwrap().1.to_vec()
    }

    #[test]
    fn every_flipped_byte_of_a_v3_artifact_is_a_typed_error() {
        let bytes = pooled_plan().quantize().unwrap().to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 3);
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                assert!(ExecPlan::from_bytes(&bad).is_err(), "flipping byte {i} went unnoticed");
            }
        }
    }

    #[test]
    fn v2_artifacts_under_the_fnv_trailer_still_decode() {
        let plan = pooled_plan().quantize().unwrap();
        let payload = payload_of(&plan.to_bytes());
        let v2 = reassemble(&payload, 2);
        assert_eq!(v2.len(), plan.to_bytes().len() + 4, "v2 carries a u64 FNV-1a-64 trailer");
        let mut loaded = ExecPlan::from_bytes(&v2).unwrap();
        let mut original = plan;
        let input = Tensor::randn(&[2, 2, 4, 4], 1.0, 79);
        assert_eq!(
            loaded.run(input.as_slice(), 2).unwrap(),
            original.run(input.as_slice(), 2).unwrap()
        );
        let mut flipped = v2;
        flipped[20] ^= 1;
        assert!(matches!(ExecPlan::from_bytes(&flipped), Err(GraphError::ChecksumMismatch { .. })));
    }

    #[test]
    fn quantized_plan_round_trips_at_v2() {
        let plan = pooled_plan().quantize().unwrap();
        let bytes = plan.to_bytes();
        let mut loaded = ExecPlan::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.steps, plan.steps);
        assert_eq!(loaded.qweights, plan.qweights);
        let same_bits =
            loaded.qscales.iter().zip(&plan.qscales).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "scales must survive bit-exactly");

        let mut original = plan;
        let input = Tensor::randn(&[2, 2, 4, 4], 1.0, 77);
        assert_eq!(
            loaded.run(input.as_slice(), 2).unwrap(),
            original.run(input.as_slice(), 2).unwrap(),
            "host-device execution of a loaded plan is deterministic"
        );
    }

    #[test]
    fn v1_artifacts_without_quantized_sections_still_decode() {
        let plan = pooled_plan();
        let bytes = plan.to_bytes();
        // A float plan's v2 payload ends with the two empty quantized
        // sections (8-byte zero counts each); stripping them yields the
        // exact v1 payload layout.
        let payload = payload_of(&bytes);
        assert_eq!(&payload[payload.len() - 16..], &[0u8; 16]);
        let v1 = reassemble(&payload[..payload.len() - 16], 1);
        let mut loaded = ExecPlan::from_bytes(&v1).unwrap();
        let input = Tensor::randn(&[1, 2, 4, 4], 1.0, 78);
        let mut original = plan;
        assert_eq!(
            loaded.run(input.as_slice(), 1).unwrap(),
            original.run(input.as_slice(), 1).unwrap()
        );
    }

    #[test]
    fn quantized_tags_in_a_v1_artifact_are_malformed() {
        let plan = pooled_plan().quantize().unwrap();
        let payload = payload_of(&plan.to_bytes());
        let v1 = reassemble(&payload, 1);
        assert!(matches!(ExecPlan::from_bytes(&v1), Err(GraphError::Malformed(_))));
    }

    #[test]
    fn truncated_scale_table_is_a_typed_truncation() {
        let plan = pooled_plan().quantize().unwrap();
        let payload = payload_of(&plan.to_bytes());
        // Cut into the trailing scale table: the count no longer fits.
        let cut = reassemble(&payload[..payload.len() - 2], FPLAN_VERSION);
        assert!(matches!(ExecPlan::from_bytes(&cut), Err(GraphError::Truncated { .. })));
    }

    #[test]
    fn non_positive_or_non_finite_scales_are_malformed() {
        let plan = pooled_plan().quantize().unwrap();
        let bytes = plan.to_bytes();
        for bad in [f32::NAN, 0.0, -1.0] {
            let mut payload = payload_of(&bytes);
            let n = payload.len();
            payload[n - 4..].copy_from_slice(&bad.to_bits().to_le_bytes());
            let forged = reassemble(&payload, FPLAN_VERSION);
            match ExecPlan::from_bytes(&forged) {
                Err(GraphError::Malformed(msg)) => {
                    assert!(msg.contains("positive finite"), "unexpected message: {msg}")
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn versions_outside_the_supported_range_are_rejected() {
        let payload = payload_of(&pooled_plan().to_bytes());
        for bad in [0u32, FPLAN_VERSION + 1, 99] {
            assert!(matches!(
                ExecPlan::from_bytes(&reassemble(&payload, bad)),
                Err(GraphError::UnsupportedVersion { found, supported: FPLAN_VERSION })
                    if found == bad
            ));
        }
    }

    #[test]
    fn write_and_read_plan_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("fuse_graph_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.fplan");
        let plan = pooled_plan();
        plan.write_plan(&path).unwrap();
        let mut loaded = ExecPlan::read_plan(&path).unwrap();
        let input = Tensor::randn(&[1, 2, 4, 4], 1.0, 76);
        let mut original = plan;
        assert_eq!(
            loaded.run(input.as_slice(), 1).unwrap(),
            original.run(input.as_slice(), 1).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(ExecPlan::read_plan(&path), Err(GraphError::Io(_))));
    }
}
