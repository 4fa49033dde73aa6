//! One checksum, one container and one bulk `f32` codec for every binary
//! format of the workspace: the `.fplan` plan artifact, the `FCKP`
//! checkpoint and the `FNET` wire frame.
//!
//! A container is, all integers little-endian:
//!
//! ```text
//! magic [u8; 4] | version u32 | payload length u64 | payload | checksum
//! ```
//!
//! The version picks the checksum. Versions from a format's
//! [`Format::crc_since`] on carry [`crc32c`] as a `u32`; older versions
//! carry [`fnv1a64`] as a `u64`, which is kept only to verify them. Versions
//! before [`Format::len_since`] have no length word: their payload runs to
//! the checksum (the first `FCKP` layout). Every malformed container is a
//! typed [`ContainerError`], which each format maps onto its own error type.
//!
//! The checksum covers the payload only; it detects corruption, not
//! tampering. [`crc32c`] runs the SSE4.2 `crc32` instruction when the CPU has
//! it and a portable slicing-by-8 table otherwise; the two agree on every
//! input, so the choice never changes a byte.

use std::error::Error;
use std::fmt;

/// The reflected CRC-32C (Castagnoli) polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0]` is the byte-at-a-time table, and
/// `TABLES[s][b]` is the CRC of byte `b` followed by `s` zero bytes.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ CRC32C_POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32C (Castagnoli; the iSCSI checksum of RFC 3720): reflected
/// polynomial `0x82F63B78`, initial value and final xor `0xFFFFFFFF`. The
/// check value, over `b"123456789"`, is `0xE3069283`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` is compiled for SSE4.2, and the
        // `is_x86_feature_detected!("sse4.2")` check above proves this CPU
        // has it.
        return !unsafe { crc32c_sse42(!0, bytes) };
    }
    !crc32c_table(!0, bytes)
}

/// The portable slicing-by-8 CRC-32C update over `bytes` from the running
/// (pre-inverted) state `crc`.
fn crc32c_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The SSE4.2 CRC-32C update: eight bytes per `crc32` instruction, then the
/// tail a byte at a time. Same state convention as [`crc32c_table`].
///
/// # Safety
///
/// Calling it is `unsafe` because of `#[target_feature]`: the caller must
/// ensure the CPU supports SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = bytes.chunks_exact(8);
    let mut wide = u64::from(crc);
    for c in &mut chunks {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut crc = wide as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// FNV-1a 64-bit over `bytes`. Only the container versions written before
/// CRC-32C use it; no writer calls it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends `values` to `out` as the little-endian bytes of their IEEE-754
/// bit patterns: the bytes a per-element `to_le_bytes` loop writes, NaN
/// payloads included.
pub fn encode_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes little-endian IEEE-754 bit patterns into an exactly sized vector,
/// bit for bit. Callers pass exactly `4 * count` bytes; a trailing partial
/// value would be ignored.
pub fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Why a container failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The bytes end before the header, or before the payload and checksum
    /// the header declares.
    Truncated {
        /// Bytes the container needs up to the end of the part being read.
        needed: usize,
        /// Bytes given.
        available: usize,
    },
    /// The bytes do not open with the format's magic.
    BadMagic {
        /// The first four bytes found.
        found: [u8; 4],
    },
    /// The version is outside the versions the format's reader accepts.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The declared payload length exceeds the format's bound (or the
    /// address space).
    TooLarge {
        /// Declared payload length.
        len: u64,
        /// Largest accepted payload length.
        max: u64,
    },
    /// Bytes follow the checksum.
    Trailing {
        /// Number of bytes after the checksum.
        extra: usize,
    },
    /// The payload does not hash to the stored checksum (a CRC-32C is
    /// widened to `u64`).
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the payload as read.
        computed: u64,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, found {available}")
            }
            ContainerError::BadMagic { found } => write!(f, "unexpected magic bytes {found:?}"),
            ContainerError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            ContainerError::TooLarge { len, max } => {
                write!(f, "declared payload length {len} exceeds {max}")
            }
            ContainerError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the checksum")
            }
            ContainerError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
        }
    }
}

impl Error for ContainerError {}

/// What a container header declares.
struct Header {
    version: u32,
    /// Bytes before the payload: 16, or 8 without the length word.
    header_len: usize,
    payload_len: usize,
    /// Checksum bytes: 4 for CRC-32C, 8 for FNV-1a-64.
    trailer_len: usize,
}

impl Header {
    fn total_len(&self) -> usize {
        self.header_len + self.payload_len + self.trailer_len
    }
}

/// One container format: its magic, the versions its reader accepts, and
/// the versions that introduced the length word and CRC-32C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The four bytes every container of the format opens with.
    pub magic: [u8; 4],
    /// The oldest version the reader accepts.
    pub min_version: u32,
    /// The newest version the reader accepts.
    pub max_version: u32,
    /// The first version with the `u64` payload-length word. In older
    /// versions the payload runs from the version word to the checksum.
    pub len_since: u32,
    /// The first version with a CRC-32C `u32` trailer. Older versions carry
    /// FNV-1a-64 as a `u64`.
    pub crc_since: u32,
    /// The largest payload a header may declare, so that a corrupt length
    /// is an error rather than an allocation.
    pub max_payload: u64,
}

impl Format {
    fn trailer_len(&self, version: u32) -> usize {
        if version >= self.crc_since {
            4
        } else {
            8
        }
    }

    fn checksum(&self, version: u32, payload: &[u8]) -> u64 {
        if version >= self.crc_since {
            u64::from(crc32c(payload))
        } else {
            fnv1a64(payload)
        }
    }

    fn trailer(&self, version: u32, payload: &[u8]) -> Vec<u8> {
        let sum = self.checksum(version, payload).to_le_bytes();
        sum[..self.trailer_len(version)].to_vec()
    }

    fn head(&self, version: u32, payload_len: usize) -> Vec<u8> {
        let mut head = Vec::with_capacity(16);
        head.extend_from_slice(&self.magic);
        head.extend_from_slice(&version.to_le_bytes());
        if version >= self.len_since {
            head.extend_from_slice(&(payload_len as u64).to_le_bytes());
        }
        head
    }

    /// Seals `payload` as a container of `version`. The version is not
    /// checked against the reader's range, so tests can seal versions a
    /// reader must refuse.
    pub fn seal(&self, version: u32, payload: &[u8]) -> Vec<u8> {
        self.seal_with(version, payload.len(), |out| out.extend_from_slice(payload))
    }

    /// Seals the payload that `write` appends to the buffer it is given, so
    /// an encoder writes its payload in place instead of into a copy.
    /// `payload_capacity` sizes the buffer up front.
    pub fn seal_with(
        &self,
        version: u32,
        payload_capacity: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut out = self.head(version, 0);
        let start = out.len();
        out.reserve(payload_capacity + self.trailer_len(version));
        write(&mut out);
        if version >= self.len_since {
            let len = (out.len() - start) as u64;
            out[start - 8..start].copy_from_slice(&len.to_le_bytes());
        }
        let trailer = self.trailer(version, &out[start..]);
        out.extend_from_slice(&trailer);
        out
    }

    /// The header and trailer [`Format::seal`] puts around `payload`, for a
    /// writer that sends the three pieces without joining them.
    pub fn seal_parts(&self, version: u32, payload: &[u8]) -> (Vec<u8>, Vec<u8>) {
        (self.head(version, payload.len()), self.trailer(version, payload))
    }

    /// The length of the whole container whose header opens `bytes`, so a
    /// stream reader learns from the first 16 bytes how many to buffer
    /// before [`Format::open`]. A version without the length word declares
    /// the rest of `bytes` as its container.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Truncated`] when `bytes` ends inside the header,
    /// then [`ContainerError::BadMagic`], [`ContainerError::UnsupportedVersion`]
    /// and [`ContainerError::TooLarge`], in that order.
    pub fn declared_len(&self, bytes: &[u8]) -> Result<usize, ContainerError> {
        self.header(bytes).map(|h| h.total_len())
    }

    fn header(&self, bytes: &[u8]) -> Result<Header, ContainerError> {
        if bytes.len() < 8 {
            return Err(ContainerError::Truncated { needed: 8, available: bytes.len() });
        }
        let found: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
        if found != self.magic {
            return Err(ContainerError::BadMagic { found });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if !(self.min_version..=self.max_version).contains(&version) {
            return Err(ContainerError::UnsupportedVersion { found: version });
        }
        let trailer_len = self.trailer_len(version);
        if version < self.len_since {
            let needed = 8 + trailer_len;
            let payload_len = bytes
                .len()
                .checked_sub(needed)
                .ok_or(ContainerError::Truncated { needed, available: bytes.len() })?;
            return Ok(Header { version, header_len: 8, payload_len, trailer_len });
        }
        if bytes.len() < 16 {
            return Err(ContainerError::Truncated { needed: 16, available: bytes.len() });
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let max = self.max_payload.min((usize::MAX - 16 - trailer_len) as u64);
        if len > max {
            return Err(ContainerError::TooLarge { len, max });
        }
        Ok(Header { version, header_len: 16, payload_len: len as usize, trailer_len })
    }

    /// Opens a container that is exactly `bytes`: checks the header, the
    /// length and the checksum, and returns the version and the payload.
    ///
    /// # Errors
    ///
    /// The errors of [`Format::declared_len`], then
    /// [`ContainerError::Truncated`] when `bytes` ends before the declared
    /// checksum does, [`ContainerError::Trailing`] when bytes follow it, and
    /// [`ContainerError::ChecksumMismatch`].
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(u32, &'a [u8]), ContainerError> {
        let h = self.header(bytes)?;
        let total = h.total_len();
        if bytes.len() < total {
            return Err(ContainerError::Truncated { needed: total, available: bytes.len() });
        }
        if bytes.len() > total {
            return Err(ContainerError::Trailing { extra: bytes.len() - total });
        }
        let (body, trailer) = bytes.split_at(total - h.trailer_len);
        let payload = &body[h.header_len..];
        let mut stored = [0u8; 8];
        stored[..h.trailer_len].copy_from_slice(trailer);
        let stored = u64::from_le_bytes(stored);
        let computed = self.checksum(h.version, payload);
        if stored != computed {
            return Err(ContainerError::ChecksumMismatch { stored, computed });
        }
        Ok((h.version, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A format with the three layouts: v1 without the length word (FNV),
    /// v2 with it (FNV), v3 with CRC-32C.
    const TEST: Format = Format {
        magic: *b"TEST",
        min_version: 1,
        max_version: 3,
        len_since: 2,
        crc_since: 3,
        max_payload: 1 << 20,
    };

    fn data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(131) ^ (i >> 3)) as u8).collect()
    }

    #[test]
    fn crc32c_matches_its_known_answers() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
        assert_eq!(!crc32c_table(!0, b"123456789"), 0xE306_9283);
    }

    #[test]
    fn the_dispatched_crc_equals_the_table_at_every_length_and_alignment() {
        // On an SSE4.2 host `crc32c` runs the instruction loop, so this pins
        // it to the portable table at every tail length and start offset.
        let bytes = data(64 + 8 + 4096);
        for len in 0..=64 {
            for start in 0..8 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32c(s), !crc32c_table(!0, s), "len {len} start {start}");
            }
        }
        for start in 0..8 {
            let s = &bytes[start..start + 4096 + start];
            assert_eq!(crc32c(s), !crc32c_table(!0, s), "4 KiB start {start}");
        }
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn bulk_f32_codec_writes_the_per_element_bytes_and_round_trips_bits() {
        let values = [0.0, -0.0, 1.5, f32::INFINITY, f32::from_bits(0x7f80_0001), f32::MIN];
        let mut per_element = vec![9u8];
        for v in values {
            per_element.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut bulk = vec![9u8];
        encode_f32s(&mut bulk, &values);
        assert_eq!(bulk, per_element);
        let back = decode_f32s(&bulk[1..]);
        assert_eq!(back.len(), values.len());
        assert!(back.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(decode_f32s(&[]).is_empty());
    }

    #[test]
    fn every_layout_round_trips_and_seal_with_equals_seal() {
        let payload = data(1000);
        for version in 1..=3 {
            let sealed = TEST.seal(version, &payload);
            let with = TEST.seal_with(version, 0, |out| out.extend_from_slice(&payload));
            assert_eq!(sealed, with, "v{version}");
            let (head, tail) = TEST.seal_parts(version, &payload);
            assert_eq!([&head[..], &payload, &tail].concat(), sealed, "v{version}");
            assert_eq!(TEST.open(&sealed), Ok((version, &payload[..])), "v{version}");
            assert_eq!(TEST.declared_len(&sealed), Ok(sealed.len()));
        }
        // The three layouts, byte for byte.
        let v1 = TEST.seal(1, b"xy");
        assert_eq!(
            v1,
            [&b"TEST"[..], &1u32.to_le_bytes(), b"xy", &fnv1a64(b"xy").to_le_bytes()].concat()
        );
        let v3 = TEST.seal(3, b"xy");
        let expected = [
            &b"TEST"[..],
            &3u32.to_le_bytes(),
            &2u64.to_le_bytes(),
            b"xy",
            &crc32c(b"xy").to_le_bytes(),
        ]
        .concat();
        assert_eq!(v3, expected);
    }

    #[test]
    fn every_flipped_byte_and_every_cut_is_a_typed_error() {
        for version in 1..=3 {
            let sealed = TEST.seal(version, &data(40));
            for i in 0..sealed.len() {
                for bit in [0x01u8, 0x80] {
                    let mut bad = sealed.clone();
                    bad[i] ^= bit;
                    assert!(
                        TEST.open(&bad).is_err(),
                        "v{version}: flipping byte {i} went unnoticed"
                    );
                }
            }
            for cut in 0..sealed.len() {
                assert!(TEST.open(&sealed[..cut]).is_err(), "v{version}: cut at {cut}");
            }
        }
    }

    #[test]
    fn header_errors_come_in_order() {
        let sealed = TEST.seal(3, b"payload");
        assert_eq!(
            TEST.open(&sealed[..5]),
            Err(ContainerError::Truncated { needed: 8, available: 5 })
        );
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert_eq!(TEST.open(&bad), Err(ContainerError::BadMagic { found: *b"XEST" }));
        for version in [0, 4] {
            let stamped = TEST.seal(version, b"payload");
            assert_eq!(
                TEST.open(&stamped),
                Err(ContainerError::UnsupportedVersion { found: version })
            );
        }
        assert_eq!(
            TEST.open(&sealed[..12]),
            Err(ContainerError::Truncated { needed: 16, available: 12 })
        );
        let mut huge = sealed.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(TEST.open(&huge), Err(ContainerError::TooLarge { len: u64::MAX, .. })));
        let n = sealed.len();
        assert_eq!(
            TEST.open(&sealed[..n - 1]),
            Err(ContainerError::Truncated { needed: n, available: n - 1 })
        );
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert_eq!(TEST.open(&trailing), Err(ContainerError::Trailing { extra: 1 }));
        let mut flipped = sealed;
        flipped[16] ^= 1;
        assert!(matches!(TEST.open(&flipped), Err(ContainerError::ChecksumMismatch { .. })));
        // A v1 container without the length word needs magic, version and
        // its 8-byte FNV trailer.
        let v1 = TEST.seal(1, b"");
        assert_eq!(TEST.open(&v1), Ok((1, &b""[..])));
        assert_eq!(
            TEST.open(&v1[..15]),
            Err(ContainerError::Truncated { needed: 16, available: 15 })
        );
    }
}
