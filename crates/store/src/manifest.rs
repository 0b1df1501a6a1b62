//! The JSON manifest: the store's single source of truth.
//!
//! The manifest lists every live chunk in row order with its integrity
//! metadata, plus the global column dictionaries all chunk codes index
//! into. It is rewritten atomically (via [`Storage::put`]'s per-key
//! atomicity) *after* new chunks land and *before* superseded ones are
//! deleted, so every crash point leaves either the old or the new
//! manifest pointing exclusively at chunks that exist — anything else on
//! the backend is an orphan, swept at open.
//!
//! Numbers ride JSON through the vendored serde's `f64` funnel, exact up
//! to 2^53 — far beyond any row count, byte size or CRC the store
//! produces. Timestamps are the exception: the log accepts arbitrary
//! `u64` timestamps (nanosecond epochs live above 2^53), and a perturbed
//! `ts_min`/`ts_max` would fail recovery's exact cross-check against the
//! chunk header — so those two fields serialize as decimal *strings*,
//! exact at full `u64` range.
//!
//! The manifest is written by one writer, `write_json`, straight from
//! borrowed state — the store's own chunk list and dictionaries — into a
//! buffer the caller keeps; its bytes are what `serde_json::to_string`
//! writes for the equal [`Manifest`], numbers through the same `f64`
//! funnel.

use std::fmt::Write;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::storage::Storage;
use crate::{Result, StoreError};

/// The manifest's storage key.
pub const MANIFEST_KEY: &str = "MANIFEST.json";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// One live chunk's metadata.
///
/// Serialized by hand (not derived) so `ts_min`/`ts_max` can ride JSON
/// as decimal strings: every other field is far below 2^53, but
/// timestamps span the full `u64` range and must round-trip exactly for
/// recovery's header cross-check and manifest pruning to be sound.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Storage key of the chunk blob.
    pub key: String,
    /// Global row index of the chunk's first row.
    pub start_row: u64,
    /// Rows in the chunk.
    pub rows: u64,
    /// Drift-flagged rows in the chunk.
    pub drifted: u64,
    /// Minimum timestamp in the chunk (0 when empty).
    pub ts_min: u64,
    /// Maximum timestamp in the chunk (0 when empty).
    pub ts_max: u64,
    /// CRC-32 of the chunk bytes (the chunk's own footer value; recovery
    /// cross-checks blob against manifest).
    pub crc32: u32,
    /// Encoded size of the chunk blob in bytes.
    pub encoded_bytes: u64,
    /// Raw (pre-codec) size of the chunk's columns in bytes.
    pub raw_bytes: u64,
    /// Per-column dictionary lengths at seal time. Dictionaries only ever
    /// grow, so when recovery drops a chunk suffix it truncates the global
    /// dictionaries back to the last survivor's lengths — reproducing
    /// exactly the first-use interning state of a log that saw only the
    /// surviving rows.
    pub dict_lens: Vec<u64>,
}

impl Serialize for ChunkMeta {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("key".to_string(), self.key.to_value()),
            ("start_row".to_string(), self.start_row.to_value()),
            ("rows".to_string(), self.rows.to_value()),
            ("drifted".to_string(), self.drifted.to_value()),
            ("ts_min".to_string(), Value::Str(self.ts_min.to_string())),
            ("ts_max".to_string(), Value::Str(self.ts_max.to_string())),
            ("crc32".to_string(), self.crc32.to_value()),
            ("encoded_bytes".to_string(), self.encoded_bytes.to_value()),
            ("raw_bytes".to_string(), self.raw_bytes.to_value()),
            ("dict_lens".to_string(), self.dict_lens.to_value()),
        ])
    }
}

/// Parses a `u64` that may arrive as a decimal string (the exact wire
/// form) or a plain JSON number (exact only below 2^53).
fn u64_lossless(v: &Value) -> std::result::Result<u64, DeError> {
    match v {
        Value::Str(s) => s
            .parse()
            .map_err(|_| DeError::custom(format!("`{s}` is not a u64"))),
        other => u64::from_value(other),
    }
}

impl Deserialize for ChunkMeta {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let entries = v.as_map().ok_or_else(|| DeError::type_mismatch("map", v))?;
        let field = |name: &'static str| {
            serde::value_get(entries, name).ok_or_else(|| DeError::missing_field(name, "ChunkMeta"))
        };
        Ok(ChunkMeta {
            key: String::from_value(field("key")?)?,
            start_row: u64::from_value(field("start_row")?)?,
            rows: u64::from_value(field("rows")?)?,
            drifted: u64::from_value(field("drifted")?)?,
            ts_min: u64_lossless(field("ts_min")?)?,
            ts_max: u64_lossless(field("ts_max")?)?,
            crc32: u32::from_value(field("crc32")?)?,
            encoded_bytes: u64::from_value(field("encoded_bytes")?)?,
            raw_bytes: u64::from_value(field("raw_bytes")?)?,
            dict_lens: Vec::<u64>::from_value(field("dict_lens")?)?,
        })
    }
}

/// The manifest document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version.
    pub version: u32,
    /// Attribute schema, in column order.
    pub schema: Vec<String>,
    /// Global per-column dictionaries (value strings in code order).
    pub dicts: Vec<Vec<String>>,
    /// Live chunks in row order.
    pub chunks: Vec<ChunkMeta>,
    /// Next chunk id to allocate (monotone; never reused, so a replaced
    /// tail chunk and its successor can never collide on a key).
    pub next_chunk_id: u64,
}

impl Manifest {
    /// An empty manifest over `schema`.
    pub fn new(schema: &[String]) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            schema: schema.to_vec(),
            dicts: vec![Vec::new(); schema.len()],
            chunks: Vec::new(),
            next_chunk_id: 0,
        }
    }

    /// Total rows across the listed chunks.
    pub fn total_rows(&self) -> u64 {
        self.chunks.iter().map(|c| c.rows).sum()
    }

    /// Serializes and atomically writes the manifest to `storage`.
    pub fn write_to(&self, storage: &dyn Storage) -> Result<()> {
        let mut json = String::new();
        write_json(
            &mut json,
            self.version,
            &self.schema,
            self.dicts.iter().map(Vec::as_slice),
            &self.chunks,
            self.next_chunk_id,
        );
        storage.put(MANIFEST_KEY, json.as_bytes())
    }

    /// Reads the manifest from `storage`; `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Unparsable bytes, an unknown version, or internally inconsistent
    /// metadata (wrong dict arity, non-contiguous rows) return
    /// [`StoreError::ManifestCorrupt`].
    pub fn read_from(storage: &dyn Storage) -> Result<Option<Manifest>> {
        let Some(bytes) = storage.get(MANIFEST_KEY)? else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&bytes).map_err(|_| StoreError::ManifestCorrupt {
            reason: "not utf-8".to_string(),
        })?;
        let manifest: Manifest =
            serde_json::from_str(text).map_err(|e| StoreError::ManifestCorrupt {
                reason: format!("parse: {e}"),
            })?;
        manifest.validate()?;
        Ok(Some(manifest))
    }

    fn validate(&self) -> Result<()> {
        let fail = |reason: &str| {
            Err(StoreError::ManifestCorrupt {
                reason: reason.to_string(),
            })
        };
        if self.version != MANIFEST_VERSION {
            return fail("unsupported manifest version");
        }
        if self.dicts.len() != self.schema.len() {
            return fail("dictionary arity disagrees with schema");
        }
        let mut next_row = 0u64;
        for meta in &self.chunks {
            if meta.start_row != next_row {
                return fail("chunk rows are not contiguous");
            }
            next_row += meta.rows;
            if meta.dict_lens.len() != self.schema.len() {
                return fail("chunk dict_lens arity disagrees with schema");
            }
            for (lens, dict) in meta.dict_lens.iter().zip(&self.dicts) {
                if *lens > dict.len() as u64 {
                    return fail("chunk dict_lens exceed dictionary length");
                }
            }
        }
        Ok(())
    }
}

/// Writes the manifest document made of these fields into `out`, emptied
/// first: byte for byte `serde_json::to_string` of the equal
/// [`Manifest`], with nothing cloned and no `Value` tree built.
pub(crate) fn write_json<'d>(
    out: &mut String,
    version: u32,
    schema: &[String],
    dicts: impl IntoIterator<Item = &'d [String]>,
    chunks: &[ChunkMeta],
    next_chunk_id: u64,
) {
    out.clear();
    out.push_str("{\"version\":");
    push_num(out, version as f64);
    out.push_str(",\"schema\":");
    push_list(out, schema, |out, s| push_str(out, s));
    out.push_str(",\"dicts\":");
    push_list(out, dicts, |out, dict| {
        push_list(out, dict, |out, s| push_str(out, s));
    });
    out.push_str(",\"chunks\":");
    push_list(out, chunks, |out, c| {
        out.push_str("{\"key\":");
        push_str(out, &c.key);
        for (name, n) in [
            (",\"start_row\":", c.start_row),
            (",\"rows\":", c.rows),
            (",\"drifted\":", c.drifted),
        ] {
            out.push_str(name);
            push_num(out, n as f64);
        }
        // The exact decimal strings of `ChunkMeta`'s `Serialize`.
        let _ = write!(
            out,
            ",\"ts_min\":\"{}\",\"ts_max\":\"{}\"",
            c.ts_min, c.ts_max
        );
        for (name, n) in [
            (",\"crc32\":", c.crc32 as f64),
            (",\"encoded_bytes\":", c.encoded_bytes as f64),
            (",\"raw_bytes\":", c.raw_bytes as f64),
        ] {
            out.push_str(name);
            push_num(out, n);
        }
        out.push_str(",\"dict_lens\":");
        push_list(out, &c.dict_lens, |out, &n| push_num(out, n as f64));
        out.push('}');
    });
    out.push_str(",\"next_chunk_id\":");
    push_num(out, next_chunk_id as f64);
    out.push('}');
}

/// A number as serde's `f64` funnel writes it (shortest round-trip form,
/// no fraction on integral values).
fn push_num(out: &mut String, n: f64) {
    let _ = write!(out, "{n}");
}

/// A JSON array, `push` writing each item.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// A JSON string, escaped as `serde_json` escapes it.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (at, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        out.push_str(&s[plain..at]);
        plain = at + 1;
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryBackend;

    fn sample() -> Manifest {
        let schema = vec!["weather".to_string(), "location".to_string()];
        let mut m = Manifest::new(&schema);
        m.dicts = vec![vec!["snow".into(), "clear".into()], vec!["nyc".into()]];
        m.chunks.push(ChunkMeta {
            key: "chunk-00000000.nzc".into(),
            start_row: 0,
            rows: 100,
            drifted: 7,
            ts_min: 10,
            ts_max: 990,
            crc32: 0xDEAD_BEEF,
            encoded_bytes: 321,
            raw_bytes: 1300,
            dict_lens: vec![2, 1],
        });
        m.next_chunk_id = 1;
        m
    }

    /// The writer against `serde_json::to_string`: escaped and non-ASCII
    /// strings, an empty dictionary and an empty schema, no chunks,
    /// timestamps and counts above 2^53.
    #[test]
    fn the_writer_writes_what_serde_json_writes() {
        let mut escaped = sample();
        escaped.schema = vec!["we\"ather".into(), "loc\\ation\n".into()];
        escaped.dicts = vec![
            vec!["snow\u{1}\t\r".into(), "\u{1f}ü✓".into(), String::new()],
            vec![],
        ];
        escaped.chunks[0].key = "chunk-\u{7f}\"0.nzc".into();
        let mut huge = sample();
        let chunk = &mut huge.chunks[0];
        chunk.ts_min = (1u64 << 53) + 1;
        chunk.ts_max = u64::MAX;
        (chunk.start_row, chunk.encoded_bytes) = ((1u64 << 53) + 3, u64::MAX);
        chunk.crc32 = u32::MAX;
        chunk.dict_lens = vec![u64::MAX - 1, 0];
        huge.next_chunk_id = 1u64 << 60;
        huge.chunks.push(huge.chunks[0].clone());
        let mut empty = Manifest::new(&[]);
        empty.version = 7;
        let mut json = String::from("stale");
        for manifest in [sample(), escaped, huge, empty, Manifest::new(&["a".into()])] {
            write_json(
                &mut json,
                manifest.version,
                &manifest.schema,
                manifest.dicts.iter().map(Vec::as_slice),
                &manifest.chunks,
                manifest.next_chunk_id,
            );
            assert_eq!(json, serde_json::to_string(&manifest).expect("serialize"));
        }
    }

    #[test]
    fn manifest_round_trips_through_storage() {
        let storage = MemoryBackend::new();
        assert_eq!(Manifest::read_from(&storage), Ok(None));
        let manifest = sample();
        manifest.write_to(&storage).expect("write");
        assert_eq!(Manifest::read_from(&storage), Ok(Some(manifest)));
    }

    #[test]
    fn timestamps_above_2_pow_53_round_trip_exactly() {
        // Nanosecond epochs overflow JSON's f64-exact integer range; the
        // string wire form must keep every bit, or recovery's ts-range
        // cross-check would drop perfectly healthy chunks at reopen.
        let storage = MemoryBackend::new();
        let mut manifest = sample();
        manifest.chunks[0].ts_min = (1u64 << 53) + 1;
        manifest.chunks[0].ts_max = u64::MAX;
        manifest.write_to(&storage).expect("write");
        assert_eq!(Manifest::read_from(&storage), Ok(Some(manifest)));
    }

    #[test]
    fn numeric_timestamps_are_still_accepted() {
        // Back-compat: a manifest whose ts fields are plain JSON numbers
        // (the pre-string wire form) still parses.
        let storage = MemoryBackend::new();
        let manifest = sample();
        let json = serde_json::to_string(&manifest)
            .expect("serialize")
            .replace("\"ts_min\":\"10\"", "\"ts_min\":10")
            .replace("\"ts_max\":\"990\"", "\"ts_max\":990");
        assert!(
            json.contains("\"ts_min\":10") && json.contains("\"ts_max\":990"),
            "wire form changed; this test no longer exercises numeric back-compat"
        );
        storage.put(MANIFEST_KEY, json.as_bytes()).expect("put");
        assert_eq!(Manifest::read_from(&storage), Ok(Some(manifest)));
    }

    #[test]
    fn unparsable_manifest_is_a_typed_error() {
        let storage = MemoryBackend::new();
        storage.put(MANIFEST_KEY, b"{ not json").expect("put");
        assert!(matches!(
            Manifest::read_from(&storage),
            Err(StoreError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn inconsistent_manifest_is_rejected() {
        let storage = MemoryBackend::new();
        let mut manifest = sample();
        manifest.chunks[0].start_row = 5; // not contiguous from 0
        manifest.write_to(&storage).expect("write");
        assert!(matches!(
            Manifest::read_from(&storage),
            Err(StoreError::ManifestCorrupt { .. })
        ));
        let mut manifest = sample();
        manifest.chunks[0].dict_lens = vec![99, 1]; // exceeds dict len
        manifest.write_to(&storage).expect("write");
        assert!(matches!(
            Manifest::read_from(&storage),
            Err(StoreError::ManifestCorrupt { .. })
        ));
    }
}
