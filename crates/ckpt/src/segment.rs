//! The checksummed segment envelope.
//!
//! A segment is `header ‖ payload`, where the 28-byte header is
//!
//! ```text
//! magic   8 bytes  b"DCFAILCK"
//! version 4 bytes  u32 LE   (SEGMENT_VERSION)
//! length  8 bytes  u64 LE   payload byte count
//! digest  8 bytes  u64 LE   FNV-1a 64 over the payload
//! ```
//!
//! The explicit length catches torn (truncated) files even when the
//! truncation lands on valid-looking bytes; the digest catches bitrot and
//! partial overwrites. [`decode_segment`] distinguishes the failure shapes
//! so callers can report *why* a segment was discarded.

use std::fmt;

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"DCFAILCK";

/// On-disk format version this build writes and understands.
pub const SEGMENT_VERSION: u32 = 1;

const HEADER_LEN: usize = 28;

/// FNV-1a 64-bit digest — the same digest the golden-report tests use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a segment failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// File shorter than the header, or payload shorter/longer than the
    /// recorded length — the classic torn-write shape.
    Torn {
        /// Payload bytes the header promised (`None`: header itself torn).
        expected: Option<u64>,
        /// Bytes actually present after the header (file length when the
        /// header itself is torn).
        actual: u64,
    },
    /// The magic prefix is wrong — not a segment file at all.
    BadMagic,
    /// Written by a different format version.
    BadVersion(u32),
    /// Length matches but the payload digest does not — corruption.
    ChecksumMismatch {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the bytes actually present.
        actual: u64,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Torn { expected, actual } => match expected {
                Some(e) => write!(f, "torn segment: expected {e} payload bytes, found {actual}"),
                None => write!(f, "torn segment: {actual}-byte file is shorter than the header"),
            },
            SegmentError::BadMagic => write!(f, "not a segment file (bad magic)"),
            SegmentError::BadVersion(v) => {
                write!(f, "segment format version {v}, expected {SEGMENT_VERSION}")
            }
            SegmentError::ChecksumMismatch { expected, actual } => write!(
                f,
                "segment checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

/// Wraps a payload in the checksummed envelope.
pub fn encode_segment(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates the envelope and returns the payload bytes.
pub fn decode_segment(bytes: &[u8]) -> Result<&[u8], SegmentError> {
    if bytes.len() < HEADER_LEN {
        return Err(SegmentError::Torn {
            expected: None,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SEGMENT_VERSION {
        return Err(SegmentError::BadVersion(version));
    }
    let mut len = [0u8; 8];
    len.copy_from_slice(&bytes[12..20]);
    let expected_len = u64::from_le_bytes(len);
    let mut digest = [0u8; 8];
    digest.copy_from_slice(&bytes[20..28]);
    let expected_digest = u64::from_le_bytes(digest);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != expected_len {
        return Err(SegmentError::Torn {
            expected: Some(expected_len),
            actual: payload.len() as u64,
        });
    }
    let actual_digest = fnv64(payload);
    if actual_digest != expected_digest {
        return Err(SegmentError::ChecksumMismatch {
            expected: expected_digest,
            actual: actual_digest,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"{\"a\":1}", &[0u8; 4096]] {
            let encoded = encode_segment(payload);
            assert_eq!(decode_segment(&encoded).unwrap(), payload);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_torn_or_header_error() {
        let encoded = encode_segment(b"some checkpoint payload");
        for cut in 0..encoded.len() {
            let err = decode_segment(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(err, SegmentError::Torn { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_is_checksum_mismatch() {
        let mut encoded = encode_segment(b"some checkpoint payload");
        let last = encoded.len() - 1;
        encoded[last] ^= 0x01;
        assert!(matches!(
            decode_segment(&encoded),
            Err(SegmentError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_distinct() {
        let mut encoded = encode_segment(b"p");
        encoded[0] = b'X';
        assert_eq!(decode_segment(&encoded), Err(SegmentError::BadMagic));
        let mut encoded = encode_segment(b"p");
        encoded[8] = 9;
        assert_eq!(decode_segment(&encoded), Err(SegmentError::BadVersion(9)));
    }

    #[test]
    fn trailing_bytes_are_torn_not_ignored() {
        let mut encoded = encode_segment(b"abc");
        encoded.push(b'!');
        assert_eq!(
            decode_segment(&encoded),
            Err(SegmentError::Torn {
                expected: Some(3),
                actual: 4
            })
        );
    }

    #[test]
    fn errors_name_their_shape() {
        let cases = [
            (
                SegmentError::Torn {
                    expected: None,
                    actual: 5,
                },
                "torn segment: 5-byte file is shorter than the header",
            ),
            (
                SegmentError::Torn {
                    expected: Some(9),
                    actual: 4,
                },
                "torn segment: expected 9 payload bytes, found 4",
            ),
            (SegmentError::BadMagic, "not a segment file (bad magic)"),
            (
                SegmentError::BadVersion(7),
                "segment format version 7, expected 1",
            ),
            (
                SegmentError::ChecksumMismatch {
                    expected: 1,
                    actual: 2,
                },
                "segment checksum mismatch: header says 0x0000000000000001, \
                 payload hashes to 0x0000000000000002",
            ),
        ];
        for (err, text) in cases {
            assert_eq!(err.to_string(), text);
        }
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis; "a" is the
        // published reference vector.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
