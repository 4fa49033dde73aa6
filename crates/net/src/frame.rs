//! The `FNET` wire frame: the length-prefixed, checksummed container every
//! byte on a cluster link travels in.
//!
//! The layout is the workspace's shared container ([`fuse_tensor::codec`],
//! also used by the `FCKP` checkpoint and the `FPLN` plan artifact): ASCII
//! magic, little-endian format version, explicit payload length, opaque
//! payload, CRC-32C trailer. Normatively:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, ASCII "FNET"
//! 4       4     format version, u32 LE (currently 2)
//! 8       8     payload length N, u64 LE
//! 16      N     payload (opaque to the framing layer)
//! 16+N    4     CRC-32C of the payload, u32 LE
//! ```
//!
//! Compatibility rules match the `.fplan` section of `REPRODUCIBILITY.md`,
//! except that both peers of a link run one build: a decoder accepts exactly
//! [`FRAME_VERSION`] and rejects every other version (the FNV-1a-64 v1
//! included) rather than guessing. The checksum is computed over the payload
//! only (the header is validated structurally), and a mismatch is a typed
//! error, never a silent truncation.

use fuse_tensor::codec::{ContainerError, Format};

use crate::error::NetError;
use crate::Result;

/// Frame magic: `"FNET"`.
pub const FRAME_MAGIC: [u8; 4] = *b"FNET";

/// Current frame format version, and the only one a decoder accepts.
pub const FRAME_VERSION: u32 = 2;

/// Fixed header size: magic + version + payload length.
pub const FRAME_HEADER_LEN: usize = 16;

/// Fixed trailer size: the CRC-32C checksum.
pub const FRAME_TRAILER_LEN: usize = 4;

/// Sanity bound on the declared payload length (1 GiB): a corrupt length
/// field must surface as a typed error, not an absurd allocation.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// The `FNET` container.
const FNET: Format = Format {
    magic: FRAME_MAGIC,
    min_version: FRAME_VERSION,
    max_version: FRAME_VERSION,
    len_since: 0,
    crc_since: 2,
    max_payload: MAX_FRAME_PAYLOAD,
};

fn frame_error(e: ContainerError) -> NetError {
    match e {
        ContainerError::Truncated { needed, .. } if needed <= FRAME_HEADER_LEN => {
            NetError::Truncated { what: "frame header" }
        }
        ContainerError::Truncated { .. } => NetError::Truncated { what: "frame payload" },
        ContainerError::BadMagic { found } => NetError::BadMagic { found },
        ContainerError::UnsupportedVersion { found } => NetError::UnsupportedVersion { found },
        ContainerError::TooLarge { len, max } => NetError::FrameTooLarge { len, max },
        ContainerError::Trailing { extra } => {
            NetError::Decode(format!("{extra} trailing bytes after a frame"))
        }
        ContainerError::ChecksumMismatch { stored, computed } => {
            NetError::ChecksumMismatch { expected: stored, actual: computed }
        }
    }
}

/// Wraps `payload` in a complete `FNET` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    FNET.seal(FRAME_VERSION, payload)
}

/// The header and trailer [`encode_frame`] puts around `payload`, for a
/// stream writer that sends the payload without copying it into a frame.
pub(crate) fn frame_parts(payload: &[u8]) -> (Vec<u8>, Vec<u8>) {
    FNET.seal_parts(FRAME_VERSION, payload)
}

/// Validates a frame header and returns the *total* frame length (header +
/// payload + trailer) it declares. Stream transports use this to know how
/// many bytes to accumulate before [`decode_frame`] can run.
///
/// # Errors
///
/// Returns [`NetError::Truncated`] when fewer than [`FRAME_HEADER_LEN`]
/// bytes are given, and the magic/version/length errors of [`decode_frame`].
pub fn frame_len(header: &[u8]) -> Result<usize> {
    FNET.declared_len(header).map_err(frame_error)
}

/// Decodes exactly one frame from `bytes` and returns its payload.
///
/// # Errors
///
/// Returns the typed header errors of [`frame_len`],
/// [`NetError::Truncated`] when the buffer is shorter (or, as a decode
/// error, longer) than the declared frame, and
/// [`NetError::ChecksumMismatch`] when the payload does not hash to the
/// trailer.
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8]> {
    FNET.open(bytes).map(|(_, payload)| payload).map_err(frame_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", b"the quick brown fox", &[0u8; 1000]] {
            let frame = encode_frame(payload);
            assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN);
            assert_eq!(decode_frame(&frame).unwrap(), payload);
            let (head, tail) = frame_parts(payload);
            assert_eq!([&head[..], payload, &tail].concat(), frame);
        }
    }

    #[test]
    fn the_v2_layout_is_pinned_byte_for_byte() {
        let mut expected = b"FNET".to_vec();
        expected.extend_from_slice(&2u32.to_le_bytes());
        expected.extend_from_slice(&7u64.to_le_bytes());
        expected.extend_from_slice(b"payload");
        expected.extend_from_slice(&fuse_tensor::codec::crc32c(b"payload").to_le_bytes());
        assert_eq!(encode_frame(b"payload"), expected);
        assert_eq!(fuse_tensor::codec::crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn corruption_matrix_yields_typed_errors() {
        let frame = encode_frame(b"payload");

        // Truncated header.
        assert_eq!(
            decode_frame(&frame[..10]).unwrap_err(),
            NetError::Truncated { what: "frame header" }
        );
        // Wrong magic.
        let mut bad = frame.clone();
        bad[0] = b'J';
        assert!(matches!(decode_frame(&bad).unwrap_err(), NetError::BadMagic { .. }));
        // Unsupported version.
        let mut bad = frame.clone();
        bad[4] = 99; // low byte of the LE version word
        assert_eq!(decode_frame(&bad).unwrap_err(), NetError::UnsupportedVersion { found: 99 });
        // Truncated payload.
        assert_eq!(
            decode_frame(&frame[..frame.len() - 1]).unwrap_err(),
            NetError::Truncated { what: "frame payload" }
        );
        // Flipped payload byte → checksum mismatch.
        let mut bad = frame.clone();
        bad[FRAME_HEADER_LEN] ^= 0xff;
        assert!(matches!(decode_frame(&bad).unwrap_err(), NetError::ChecksumMismatch { .. }));
        // Flipped trailer byte → checksum mismatch.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(decode_frame(&bad).unwrap_err(), NetError::ChecksumMismatch { .. }));
        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert!(matches!(decode_frame(&bad).unwrap_err(), NetError::Decode(_)));
        // Absurd declared length.
        let mut bad = frame.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bad).unwrap_err(), NetError::FrameTooLarge { .. }));
        // Every single flipped byte, anywhere, is caught.
        for i in 0..frame.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = frame.clone();
                bad[i] ^= bit;
                assert!(decode_frame(&bad).is_err(), "flipping byte {i} went unnoticed");
            }
        }
    }

    #[test]
    fn a_v1_frame_is_an_unsupported_version() {
        // The v1 layout: the same header, an FNV-1a-64 u64 trailer.
        let payload = b"payload";
        let mut v1 = b"FNET".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(payload);
        v1.extend_from_slice(&fuse_tensor::codec::fnv1a64(payload).to_le_bytes());
        assert_eq!(decode_frame(&v1).unwrap_err(), NetError::UnsupportedVersion { found: 1 });
        assert_eq!(frame_len(&v1).unwrap_err(), NetError::UnsupportedVersion { found: 1 });
    }

    #[test]
    fn frame_len_reports_the_full_frame_size() {
        let frame = encode_frame(b"12345");
        assert_eq!(frame_len(&frame[..FRAME_HEADER_LEN]).unwrap(), frame.len());
        assert_eq!(
            frame_len(&frame[..FRAME_HEADER_LEN - 1]).unwrap_err(),
            NetError::Truncated { what: "frame header" }
        );
    }
}
