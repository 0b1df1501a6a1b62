//! Persistent chunked drift-log store.
//!
//! The in-memory [`DriftLog`](nazar_log::DriftLog) vanishes with the
//! process, but Nazar's cloud side is a long-horizon service: diagnosis
//! and adaptation decisions are made over *accumulated* fleet drift
//! history spanning weeks to months. This crate gives that history a
//! durable, larger-than-RAM home (DESIGN.md §13), zarrs-style:
//!
//! * [`Storage`] — a flat key → bytes backend trait, with
//!   [`MemoryBackend`] (exactly today's process-lifetime behavior) and
//!   [`FsBackend`] (atomic write-temp-then-rename, fsync before rename).
//! * A codec pipeline ([`codec`]) persisting sealed row blocks as
//!   compressed columnar chunks: dict codes bitpacked or run-length
//!   encoded (whichever is smaller), drift flags as an LSB-first bitmap,
//!   timestamps delta-encoded — behind
//!   a versioned, CRC-32-checksummed chunk format ([`chunk`]) whose
//!   decoder returns typed errors and never panics.
//! * A JSON [`Manifest`] recording per-chunk row ranges, timestamp
//!   bounds, checksums and dictionary high-water marks, rewritten
//!   atomically so every crash point recovers to a consistent store.
//! * [`DriftStore`] — the log itself: ingest into an in-memory tail,
//!   [`DriftStore::flush`] seals chunks (replacing the partial tail
//!   chunk append-only), and the query API streams the chunks through
//!   the *same* block scans and merge rules as the in-memory log
//!   ([`nazar_log::probe`]), fanned out with the
//!   order-preserving [`nazar_tensor::parallel::par_map_with`] once they
//!   hold enough rows — so out-of-core results are bitwise identical to
//!   in-memory ones at any `NAZAR_NUM_THREADS`.
//!
//! # Example
//!
//! ```
//! use nazar_log::{Attribute, DriftLogEntry};
//! use nazar_store::{DriftStore, StoreConfig};
//!
//! let mut store = DriftStore::open_config(&["weather"], StoreConfig::memory())?;
//! store.push(DriftLogEntry::new(7, &[("weather", "snow")], true))?;
//! store.flush()?;
//! let counts = store.count_matching(&[Attribute::new("weather", "snow")], None)?;
//! assert_eq!((counts.occurrences, counts.drifted), (1, 1));
//! # Ok::<(), nazar_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod codec;
mod config;
pub mod manifest;
mod storage;
mod store;

pub use config::{StoreConfig, DEFAULT_CACHE_CHUNKS, DEFAULT_CHUNK_ROWS};
pub use manifest::{ChunkMeta, Manifest, MANIFEST_KEY};
pub use storage::{FsBackend, MemoryBackend, Storage};
pub use store::{DriftStore, FlushReport, RecoveryReport};

use nazar_log::LogError;

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Everything that can go wrong in the persistent store.
///
/// Per the workspace's typed-error policy (DESIGN.md §9), *every*
/// malformed byte on the backend — torn writes, bit flips, truncations,
/// hostile manifests — surfaces as one of these variants; decode paths
/// never panic.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An operating-system I/O failure (message carried as text so the
    /// error stays `Clone + PartialEq` for tests).
    Io {
        /// The failed operation (`"read"`, `"rename"`, ...).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// A storage key that could escape the flat namespace.
    InvalidKey {
        /// The offending key.
        key: String,
    },
    /// A chunk's bytes are structurally invalid.
    Corrupt {
        /// The chunk's storage key.
        key: String,
        /// What was wrong.
        reason: String,
    },
    /// A chunk was written by a newer format version.
    UnsupportedVersion {
        /// The chunk's storage key.
        key: String,
        /// The version found.
        version: u16,
    },
    /// A chunk's CRC-32 footer disagrees with its bytes (torn write or
    /// bit rot).
    ChecksumMismatch {
        /// The chunk's storage key.
        key: String,
        /// The checksum stored in the footer.
        expected: u32,
        /// The checksum of the bytes actually present.
        actual: u32,
    },
    /// The manifest lists a chunk the backend does not have.
    MissingChunk {
        /// The missing chunk's storage key.
        key: String,
    },
    /// The manifest itself is unreadable or internally inconsistent.
    ManifestCorrupt {
        /// What was wrong.
        reason: String,
    },
    /// The store on the backend was built over a different schema.
    SchemaMismatch {
        /// The schema the caller opened with.
        expected: Vec<String>,
        /// The schema the manifest records.
        found: Vec<String>,
    },
    /// An underlying drift-log error (bad entry, unknown key, ...).
    Log(LogError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "i/o failure during {op} on {path}: {message}")
            }
            StoreError::InvalidKey { key } => write!(f, "invalid storage key {key:?}"),
            StoreError::Corrupt { key, reason } => write!(f, "corrupt chunk {key}: {reason}"),
            StoreError::UnsupportedVersion { key, version } => {
                write!(f, "chunk {key} has unsupported format version {version}")
            }
            StoreError::ChecksumMismatch {
                key,
                expected,
                actual,
            } => write!(
                f,
                "chunk {key} checksum mismatch: footer {expected:#010x}, bytes {actual:#010x}"
            ),
            StoreError::MissingChunk { key } => {
                write!(
                    f,
                    "manifest lists chunk {key} but the backend has no such key"
                )
            }
            StoreError::ManifestCorrupt { reason } => write!(f, "corrupt manifest: {reason}"),
            StoreError::SchemaMismatch { expected, found } => write!(
                f,
                "store schema mismatch: opened with {expected:?}, manifest has {found:?}"
            ),
            StoreError::Log(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LogError> for StoreError {
    fn from(e: LogError) -> Self {
        StoreError::Log(e)
    }
}
