//! Output sinks: JSONL record streaming or in-memory retention.
//!
//! The JSONL sink appends one JSON object per line — `event`, `span` and
//! `run_report` records — to the file named by `NAZAR_OBS=jsonl:<path>`.
//! With `NAZAR_OBS=mem`, records are retained in memory (tests, ad-hoc
//! probes).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Parsed `NAZAR_OBS` directives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SinkConfig {
    /// Target of `jsonl:<path>`, if given.
    pub(crate) jsonl: Option<PathBuf>,
}

impl SinkConfig {
    /// Parses the `NAZAR_OBS` value. `Ok(None)` means observability stays
    /// disabled; `Ok(Some(default))` (no paths) means in-memory collection.
    ///
    /// # Errors
    ///
    /// Names the first directive that is not `jsonl:<path>` with a
    /// non-empty path, `mem`, `on` or `1`.
    pub(crate) fn parse(spec: &str) -> Result<Option<SinkConfig>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        let mut config = SinkConfig::default();
        for directive in spec.split(',') {
            let directive = directive.trim();
            match directive.strip_prefix("jsonl:") {
                Some(path) if !path.is_empty() => config.jsonl = Some(PathBuf::from(path)),
                None if matches!(directive, "mem" | "on" | "1") => {}
                _ => return Err(format!("{directive:?} is not one of jsonl:<path>, mem")),
            }
        }
        Ok(Some(config))
    }
}

struct Sink {
    jsonl: Option<BufWriter<File>>,
    /// Line retention for `mem` mode (only when no JSONL file is set, so
    /// long streaming runs don't accumulate unbounded memory).
    memory: Vec<String>,
}

fn sink_slot() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs sinks from a parsed config (replacing any previous sinks).
///
/// # Errors
///
/// Names a JSONL file that cannot be created. No sink is installed then,
/// so records neither reach a file nor pile up in memory.
pub(crate) fn install(config: SinkConfig) -> Result<(), String> {
    let mut slot = sink_slot().lock().expect("sink poisoned");
    *slot = None;
    let jsonl = config.jsonl.map(|path| open_jsonl(&path)).transpose()?;
    *slot = Some(Sink {
        jsonl,
        memory: Vec::new(),
    });
    Ok(())
}

fn open_jsonl(path: &Path) -> Result<BufWriter<File>, String> {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot open jsonl sink {}: {e}", path.display()))
}

/// Removes all sinks (test teardown).
pub(crate) fn uninstall() {
    *sink_slot().lock().expect("sink poisoned") = None;
}

/// Appends one pre-rendered JSON line to the active sink.
pub(crate) fn write_line(line: &str) {
    let mut slot = sink_slot().lock().expect("sink poisoned");
    let Some(sink) = slot.as_mut() else {
        return;
    };
    match sink.jsonl.as_mut() {
        Some(w) => {
            let _ = writeln!(w, "{line}");
        }
        None => sink.memory.push(line.to_string()),
    }
}

/// Lines retained by the in-memory sink (empty when a JSONL file is set).
pub fn memory_lines() -> Vec<String> {
    sink_slot()
        .lock()
        .expect("sink poisoned")
        .as_ref()
        .map(|s| s.memory.clone())
        .unwrap_or_default()
}

/// Flushes the JSONL sink.
pub fn flush() {
    let mut slot = sink_slot().lock().expect("sink poisoned");
    if let Some(w) = slot.as_mut().and_then(|s| s.jsonl.as_mut()) {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn parse_recognizes_directives() {
        assert_eq!(SinkConfig::parse(""), Ok(None));
        assert_eq!(SinkConfig::parse("0"), Ok(None));
        assert_eq!(SinkConfig::parse("off"), Ok(None));
        let both = SinkConfig::parse("jsonl:/tmp/a.jsonl, mem")
            .unwrap()
            .unwrap();
        assert_eq!(
            both.jsonl.as_deref(),
            Some(std::path::Path::new("/tmp/a.jsonl"))
        );
        assert_eq!(SinkConfig::parse("mem"), Ok(Some(SinkConfig::default())));
        // A misspelt or retired sink is an error, not a silent in-memory run.
        let err = SinkConfig::parse("mem,json:/tmp/x").unwrap_err();
        assert!(err.contains("\"json:/tmp/x\""), "{err}");
        let err = SinkConfig::parse("jsonl:/tmp/a.jsonl,prom:/tmp/b.prom").unwrap_err();
        assert!(err.contains("\"prom:/tmp/b.prom\""), "{err}");
        // So is an empty path, which no file can be created at.
        let err = SinkConfig::parse("mem, jsonl:").unwrap_err();
        assert!(err.contains("\"jsonl:\""), "{err}");
    }

    #[test]
    fn jsonl_sink_writes_lines_to_disk() {
        let _guard = TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("nazar-obs-sink-test");
        let path = dir.join("out.jsonl");
        crate::testing::enable_jsonl_sink(&path).expect("sink opens");
        crate::event_fields("hello", &[("k", "v".to_string())]);
        flush();
        let text = std::fs::read_to_string(&path).expect("sink file written");
        assert!(text.contains("\"name\":\"hello\""));
        crate::testing::disable();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
