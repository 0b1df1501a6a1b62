//! Typed decode/transport errors.

use std::fmt;

/// Everything that can go wrong decoding a frame or running a transfer.
///
/// Corrupt bytes must surface as values, never panics: the device fleet in
/// the paper's deployment runs over flaky cellular links, and a malformed
/// frame on one device must not take down the cloud ingest loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The buffer ended before the announced content did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// The frame does not start with the `NZRF` magic.
    BadMagic([u8; 4]),
    /// The frame's protocol version is not one this decoder speaks.
    UnsupportedVersion(u8),
    /// The CRC-32 trailer does not match the frame contents.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum recomputed over the received bytes.
        actual: u32,
    },
    /// The message-type byte names no known message.
    UnknownMessageType(u8),
    /// A field violated the wire contract (context in the message).
    Malformed(&'static str),
    /// A string field was not valid UTF-8.
    Utf8,
    /// A deploy chunk declared a payload longer than
    /// [`crate::wire::MAX_DEPLOY_PAYLOAD`].
    PayloadTooLarge {
        /// The total length the chunk declared.
        declared: u32,
        /// The largest total length a device accepts.
        max: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated { needed, remaining } => {
                write!(f, "truncated frame: needed {needed} bytes, had {remaining}")
            }
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#010x}, computed {actual:#010x}"
                )
            }
            NetError::UnknownMessageType(t) => write!(f, "unknown message type {t:#04x}"),
            NetError::Malformed(what) => write!(f, "malformed field: {what}"),
            NetError::Utf8 => write!(f, "string field is not valid UTF-8"),
            NetError::PayloadTooLarge { declared, max } => {
                write!(
                    f,
                    "deploy payload of {declared} bytes exceeds the {max}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
