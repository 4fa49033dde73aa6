//! Saving and loading model parameters.
//!
//! One versioned [`Checkpoint`] type is the single persistence surface: it
//! captures a model's flattened parameters plus a layout fingerprint, encodes
//! to human-readable JSON (`{to_json, from_json}`) or a compact checksummed
//! binary container (`{to_binary, from_binary}`, roughly 10× smaller — f32s
//! as 4 raw bytes instead of decimal text), and applies itself back to a
//! model through one validated, typed error path ([`Checkpoint::apply_to`]).

use std::fs;
use std::path::Path;

use fuse_graph::ExecPlan;
use fuse_tensor::codec::{decode_f32s, encode_f32s, Format};
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::sequential::Sequential;
use crate::Result;

/// The four magic bytes opening every binary checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FCKP";

/// The binary checkpoint format version this build writes. Readers accept
/// v1 (no payload-length word, FNV-1a-64 trailer) and v2 (the shared
/// container: length word and CRC-32C trailer); both carry the same
/// payload. Bump on any layout change; readers reject other versions.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The `FCKP` container: v2 added the length word and moved to CRC-32C.
const FCKP: Format = Format {
    magic: CHECKPOINT_MAGIC,
    min_version: 1,
    max_version: CHECKPOINT_VERSION,
    len_since: 2,
    crc_since: 2,
    max_payload: u64::MAX,
};

/// On-disk representation of a model checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Free-form model identifier (e.g. `"mars-cnn"`, `"fuse-meta"`).
    pub model_name: String,
    /// Number of scalar parameters — used as a layout sanity check.
    pub param_len: usize,
    /// Layer names in execution order — used as a layout sanity check.
    pub layer_names: Vec<String>,
    /// The flattened parameter vector.
    pub params: Vec<f32>,
}

impl Checkpoint {
    /// Snapshots a model's parameters and layout fingerprint.
    pub fn capture(model: &Sequential, model_name: &str) -> Checkpoint {
        Checkpoint {
            model_name: model_name.to_string(),
            param_len: model.param_len(),
            layer_names: model.layer_names().iter().map(|s| s.to_string()).collect(),
            params: model.flat_params(),
        }
    }

    /// Snapshots a compiled plan's parameters and layout fingerprint: its
    /// signature's parameter count and layer names, and its parameters in
    /// the signature's full f32 layout ([`ExecPlan::dequantized_params`], so
    /// a quantized plan yields its dequantized weights). For a float plan
    /// this equals [`Checkpoint::capture`] of the model it was compiled from.
    pub fn of_plan(plan: &ExecPlan, model_name: &str) -> Checkpoint {
        let signature = plan.signature();
        Checkpoint {
            model_name: model_name.to_string(),
            param_len: signature.param_len(),
            layer_names: signature.layer_names().to_vec(),
            params: plan.dequantized_params(),
        }
    }

    /// Encodes the checkpoint as a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when encoding fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| NnError::Serialization(format!("encode checkpoint: {e}")))
    }

    /// Decodes a checkpoint from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when the document is not a valid
    /// checkpoint (including truncated JSON).
    pub fn from_json(json: &str) -> Result<Checkpoint> {
        serde_json::from_str(json)
            .map_err(|e| NnError::Serialization(format!("decode checkpoint: {e}")))
    }

    /// Encodes the checkpoint into the compact binary container (the
    /// shared [`fuse_tensor::codec`] container, normative in
    /// `REPRODUCIBILITY.md`):
    ///
    /// ```text
    /// magic "FCKP" | version u32 | payload length u64 | payload | CRC-32C u32
    /// ```
    ///
    /// The payload is the model name, `param_len` as a `u64`, the layer
    /// names and the parameters behind a `u64` count. Strings are a `u32`
    /// length and UTF-8; `f32` values are the little-endian bytes of their
    /// IEEE-754 bit patterns, so the round trip is bit-exact.
    pub fn to_binary(&self) -> Vec<u8> {
        let capacity = self.params.len() * 4 + 256;
        FCKP.seal_with(CHECKPOINT_VERSION, capacity, |payload| {
            put_str(payload, &self.model_name);
            payload.extend_from_slice(&(self.param_len as u64).to_le_bytes());
            payload.extend_from_slice(&(self.layer_names.len() as u32).to_le_bytes());
            for name in &self.layer_names {
                put_str(payload, name);
            }
            payload.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
            encode_f32s(payload, &self.params);
        })
    }

    /// Decodes a checkpoint from the binary container, at any version this
    /// build reads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] naming what is wrong — bad magic,
    /// unsupported version, truncation, or a checksum mismatch. Never
    /// panics.
    pub fn from_binary(bytes: &[u8]) -> Result<Checkpoint> {
        let (_, payload) = FCKP
            .open(bytes)
            .map_err(|e| NnError::Serialization(format!("binary checkpoint: {e}")))?;

        let mut pos = 0usize;
        let model_name = take_str(payload, &mut pos)?;
        let param_len = take_u64(payload, &mut pos)? as usize;
        let name_count = take_u32(payload, &mut pos)? as usize;
        let mut layer_names = Vec::with_capacity(name_count.min(1024));
        for _ in 0..name_count {
            layer_names.push(take_str(payload, &mut pos)?);
        }
        let value_count = take_u64(payload, &mut pos)? as usize;
        let available = payload.len() - pos;
        if value_count.checked_mul(4) != Some(available) {
            return Err(NnError::Serialization(format!(
                "binary checkpoint records {value_count} parameters in {available} remaining bytes"
            )));
        }
        let params = decode_f32s(&payload[pos..]);
        Ok(Checkpoint { model_name, param_len, layer_names, params })
    }

    /// Writes the checkpoint to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when encoding or writing fails.
    pub fn write_json(&self, path: &Path) -> Result<()> {
        fs::write(path, self.to_json()?)
            .map_err(|e| NnError::Serialization(format!("write {}: {e}", path.display())))
    }

    /// Writes the checkpoint to `path` in the binary container format.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when writing fails.
    pub fn write_binary(&self, path: &Path) -> Result<()> {
        fs::write(path, self.to_binary())
            .map_err(|e| NnError::Serialization(format!("write {}: {e}", path.display())))
    }

    /// Reads a checkpoint from `path`, auto-detecting the format: files
    /// opening with the `FCKP` magic decode as binary, anything else as
    /// JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when the file cannot be read or
    /// decoded in its detected format.
    pub fn read(path: &Path) -> Result<Checkpoint> {
        let bytes = fs::read(path)
            .map_err(|e| NnError::Serialization(format!("read {}: {e}", path.display())))?;
        if bytes.starts_with(&CHECKPOINT_MAGIC) {
            Checkpoint::from_binary(&bytes)
        } else {
            let json = std::str::from_utf8(&bytes).map_err(|e| {
                NnError::Serialization(format!(
                    "{} is neither binary nor UTF-8 JSON: {e}",
                    path.display()
                ))
            })?;
            Checkpoint::from_json(json)
        }
    }

    /// Decodes a checkpoint from an in-memory buffer, auto-detecting the
    /// format the same way [`Checkpoint::read`] does for files: buffers
    /// opening with the `FCKP` magic decode as binary, anything else as
    /// JSON. This is the entry point for checkpoints that arrive as wire
    /// payloads rather than files.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when the buffer cannot be decoded
    /// in its detected format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        if bytes.starts_with(&CHECKPOINT_MAGIC) {
            Checkpoint::from_binary(bytes)
        } else {
            let json = std::str::from_utf8(bytes).map_err(|e| {
                NnError::Serialization(format!("checkpoint is neither binary nor UTF-8 JSON: {e}"))
            })?;
            Checkpoint::from_json(json)
        }
    }

    /// Checks that the checkpoint fits a model with `param_len` parameters
    /// and these `layer_names` (in execution order), without touching any
    /// model. This is the one layout check behind [`Checkpoint::apply_to`]
    /// and every serving-side swap or migration validation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the parameter vector
    /// or, failing that, the `param_len` field disagrees with `param_len`,
    /// and [`NnError::ArchitectureMismatch`] when the recorded
    /// `layer_names` differ.
    pub fn check_layout<S: AsRef<str>>(&self, param_len: usize, layer_names: &[S]) -> Result<()> {
        if self.params.len() != param_len {
            return Err(NnError::ParamLengthMismatch {
                expected: param_len,
                actual: self.params.len(),
            });
        }
        // A param_len field disagreeing with the vector it describes is its
        // own mismatch; report the lying field, not the (fitting) vector
        // length.
        if self.param_len != param_len {
            return Err(NnError::ParamLengthMismatch {
                expected: param_len,
                actual: self.param_len,
            });
        }
        if !self.layer_names.iter().map(String::as_str).eq(layer_names.iter().map(AsRef::as_ref)) {
            return Err(NnError::ArchitectureMismatch {
                expected: layer_names.iter().map(|name| name.as_ref().to_string()).collect(),
                actual: self.layer_names.clone(),
            });
        }
        Ok(())
    }

    /// Applies the checkpoint to a model with a matching architecture.
    ///
    /// The model is only modified when every validation passes: a failed
    /// apply leaves the previous parameters in place.
    ///
    /// # Errors
    ///
    /// Returns the [`Checkpoint::check_layout`] errors for the model's
    /// parameter count and layer names.
    pub fn apply_to(&self, model: &mut Sequential) -> Result<()> {
        self.check_layout(model.param_len(), &model.layer_names())?;
        model.set_flat_params(&self.params)
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn take_bytes<'a>(payload: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let available = payload.len() - *pos;
    if available < n {
        return Err(NnError::Serialization(format!(
            "binary checkpoint truncated: needed {n} more bytes, found {available}"
        )));
    }
    let out = &payload[*pos..*pos + n];
    *pos += n;
    Ok(out)
}

fn take_u32(payload: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(take_bytes(payload, pos, 4)?.try_into().expect("4 bytes")))
}

fn take_u64(payload: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_le_bytes(take_bytes(payload, pos, 8)?.try_into().expect("8 bytes")))
}

fn take_str(payload: &[u8], pos: &mut usize) -> Result<String> {
    let len = take_u32(payload, pos)? as usize;
    let bytes = take_bytes(payload, pos, len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| NnError::Serialization("checkpoint string is not valid UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use fuse_tensor::Tensor;

    fn model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(4, 8, seed).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, seed + 1).unwrap()),
        ])
    }

    #[test]
    fn json_save_and_apply_round_trips_parameters() {
        let dir = std::env::temp_dir().join("fuse_nn_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        let mut original = model(1);
        Checkpoint::capture(&original, "test-model").write_json(&path).unwrap();

        let mut restored = model(99); // different init
        let ckpt = Checkpoint::read(&path).unwrap();
        ckpt.apply_to(&mut restored).unwrap();
        assert_eq!(ckpt.model_name, "test-model");
        assert_eq!(restored.flat_params(), original.flat_params());

        // Both models now produce identical predictions.
        let x = Tensor::randn(&[5, 4], 1.0, 7);
        let a = original.forward(&x, false).unwrap();
        let b = restored.forward(&x, false).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_float_plan_checkpoints_to_the_bytes_of_its_model() {
        let m = model(4);
        let plan = crate::LoweringRequest::new(&m, &[4]).lower().unwrap().compile(2).unwrap();
        assert_eq!(
            Checkpoint::of_plan(&plan, "same").to_binary(),
            Checkpoint::capture(&m, "same").to_binary()
        );
    }

    #[test]
    fn binary_round_trip_is_bit_exact_and_much_smaller_than_json() {
        let m = model(5);
        let ckpt = Checkpoint::capture(&m, "bin-model");
        let bytes = ckpt.to_binary();
        let back = Checkpoint::from_binary(&bytes).unwrap();
        assert_eq!(back.model_name, ckpt.model_name);
        assert_eq!(back.param_len, ckpt.param_len);
        assert_eq!(back.layer_names, ckpt.layer_names);
        assert_eq!(back.params.len(), ckpt.params.len());
        let bit_exact =
            back.params.iter().zip(&ckpt.params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bit_exact, "binary round trip must be bit-exact");
        let json_len = ckpt.to_json().unwrap().len();
        assert!(
            bytes.len() * 2 < json_len,
            "binary ({}) should be far smaller than JSON ({json_len})",
            bytes.len()
        );
    }

    #[test]
    fn read_auto_detects_binary_and_json() {
        let dir = std::env::temp_dir().join("fuse_nn_serialize_autodetect");
        std::fs::create_dir_all(&dir).unwrap();
        let m = model(3);
        let ckpt = Checkpoint::capture(&m, "auto");

        let bin_path = dir.join("ckpt.bin");
        let json_path = dir.join("ckpt.json");
        ckpt.write_binary(&bin_path).unwrap();
        ckpt.write_json(&json_path).unwrap();
        assert_eq!(Checkpoint::read(&bin_path).unwrap().params, ckpt.params);
        assert_eq!(Checkpoint::read(&json_path).unwrap().params, ckpt.params);
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn binary_corruptions_yield_typed_errors_not_panics() {
        let ckpt = Checkpoint::capture(&model(7), "corrupt");
        let bytes = ckpt.to_binary();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(Checkpoint::from_binary(&bad_magic), Err(NnError::Serialization(_))));

        let mut bad_version = bytes.clone();
        bad_version[4] = 77;
        assert!(matches!(Checkpoint::from_binary(&bad_version), Err(NnError::Serialization(_))));

        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                Checkpoint::from_binary(&bytes[..cut]),
                Err(NnError::Serialization(_))
            ));
        }

        let mut flipped = bytes.clone();
        let mid = 8 + (bytes.len() - 16) / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(Checkpoint::from_binary(&flipped), Err(NnError::Serialization(_))));
    }

    #[test]
    fn every_flipped_byte_of_a_v2_checkpoint_is_a_typed_error() {
        let bytes = Checkpoint::capture(&model(8), "flip").to_binary();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), CHECKPOINT_VERSION);
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                assert!(
                    matches!(Checkpoint::from_binary(&bad), Err(NnError::Serialization(_))),
                    "flipping byte {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn v1_checkpoints_without_the_length_word_still_decode() {
        let ckpt = Checkpoint::capture(&model(9), "legacy");
        let v2 = ckpt.to_binary();
        let (_, payload) = FCKP.open(&v2).unwrap();
        // v1: magic, version, payload, FNV-1a-64 — no length word.
        let v1 = FCKP.seal(1, payload);
        assert_eq!(v1.len(), 8 + payload.len() + 8);
        assert_eq!(&v1[8..8 + payload.len()], payload);
        let back = Checkpoint::from_binary(&v1).unwrap();
        assert!(back.params.iter().zip(&ckpt.params).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(back.layer_names, ckpt.layer_names);
        let mut flipped = v1;
        flipped[12] ^= 1;
        assert!(matches!(Checkpoint::from_binary(&flipped), Err(NnError::Serialization(_))));
        let mut v3 = v2;
        v3[4] = 3;
        assert!(matches!(Checkpoint::from_binary(&v3), Err(NnError::Serialization(_))));
    }

    #[test]
    fn apply_rejects_architecture_mismatch() {
        let small = model(1);
        let ckpt = Checkpoint::capture(&small, "small");
        let mut bigger = Sequential::new(vec![Box::new(Linear::new(16, 16, 3).unwrap())]);
        assert!(matches!(ckpt.apply_to(&mut bigger), Err(NnError::ParamLengthMismatch { .. })));
    }

    #[test]
    fn read_errors_on_missing_file() {
        let err = Checkpoint::read(Path::new("/nonexistent/fuse-ckpt.json"));
        assert!(matches!(err, Err(NnError::Serialization(_))));
    }
}
