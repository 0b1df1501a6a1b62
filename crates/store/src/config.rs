//! Store configuration.

use serde::{Deserialize, Serialize};

/// Default rows per sealed chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 8192;
/// Default decoded-chunk cache capacity.
pub const DEFAULT_CACHE_CHUNKS: usize = 8;

/// Configuration for one [`DriftStore`](crate::DriftStore).
///
/// Embedded in `CloudConfig::persist`, so it round-trips through the same
/// serde config files as the rest of the cloud configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Directory for the filesystem backend; `None` selects the in-memory
    /// backend (exactly today's process-lifetime behavior).
    #[serde(default)]
    pub dir: Option<String>,
    /// Rows per sealed chunk; flushes seal full chunks of this size plus
    /// at most one partial tail chunk. `0` (also what a config file that
    /// omits the field deserializes to) means [`DEFAULT_CHUNK_ROWS`].
    #[serde(default)]
    pub chunk_rows: usize,
    /// Decoded chunks kept in the in-memory cache; `0` disables caching
    /// (every probe re-reads and re-decodes its chunks). A hit moves its
    /// chunk to the most-recently-used end; a miss enters at the
    /// least-recently-used end, so a query scanning more chunks than this
    /// keeps all but one slot for the next query instead of flushing
    /// them.
    #[serde(default)]
    pub cache_chunks: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            dir: None,
            chunk_rows: DEFAULT_CHUNK_ROWS,
            cache_chunks: DEFAULT_CACHE_CHUNKS,
        }
    }
}

impl StoreConfig {
    /// An in-memory store configuration (the default).
    pub fn memory() -> StoreConfig {
        StoreConfig::default()
    }

    /// A filesystem store rooted at `dir`.
    pub fn at(dir: impl Into<String>) -> StoreConfig {
        StoreConfig {
            dir: Some(dir.into()),
            ..StoreConfig::default()
        }
    }

    /// `chunk_rows` with `0` mapped to the built-in default.
    pub(crate) fn chunk_rows_clamped(&self) -> usize {
        if self.chunk_rows == 0 {
            DEFAULT_CHUNK_ROWS
        } else {
            self.chunk_rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_serde_round_trip() {
        let config = StoreConfig {
            dir: Some("/tmp/nazar".into()),
            chunk_rows: 1024,
            cache_chunks: 2,
        };
        let json = serde_json::to_string(&config).expect("serializable");
        let back: StoreConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, config);
    }

    #[test]
    fn config_deserializes_with_all_fields_defaulted() {
        let back: StoreConfig = serde_json::from_str("{}").expect("defaults fill in");
        assert_eq!(back.dir, None);
        // Omitted numeric fields land on 0; 0 chunk rows means "default".
        assert_eq!(back.chunk_rows_clamped(), DEFAULT_CHUNK_ROWS);
    }
}
