//! Scoped span timers assembling a hierarchical span tree per pipeline run.
//!
//! A [`span`] guard measures the wall-clock time between its creation and
//! drop. Spans nest through a thread-local stack: a span opened while
//! another is active becomes its child. Work fanned out across threads (the
//! `nazar_tensor::parallel` helpers) attaches to the spawning span
//! explicitly: capture [`current_span_id`] before the fan-out and open
//! worker spans with [`span_child`].
//!
//! Completed spans are streamed to the JSONL sink as they close and retained
//! in memory until [`crate::finish_run`] drains them into a span tree.
//!
//! Span taxonomy (DESIGN.md §7): `run` → `window` → { `detect`,
//! `log_ingest`, `analysis` → { `fim`, `reduction`, `counterfactual` },
//! `adapt` → { `adapt_job`, `adapt_clean` }, `deploy` }.

use crate::json;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Stage name (from the span taxonomy).
    pub name: String,
    /// Free-form qualifier (e.g. a window index or cause label).
    pub detail: Option<String>,
    /// Start, in nanoseconds since the observability epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The id of the innermost active span on this thread, if any.
///
/// Capture this before fanning work out to other threads and pass it to
/// [`span_child`] so worker spans attach under the spawning span.
pub fn current_span_id() -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

/// An active span; records itself on drop. Not `Send` — a span must close
/// on the thread that opened it.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: Option<String>,
    start: Instant,
    start_ns: u64,
}

fn open(name: &'static str, detail: Option<String>, parent: Option<u64>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            inner: None,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        inner: Some(ActiveSpan {
            id,
            parent,
            name,
            detail,
            start: Instant::now(),
            start_ns: crate::now_ns(),
        }),
        _not_send: PhantomData,
    }
}

/// Opens a span under the innermost active span on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    let parent = current_span_id();
    open(name, None, parent)
}

/// Opens a span with a free-form detail string (window index, cause label).
///
/// The detail closure runs only when observability is enabled.
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            inner: None,
            _not_send: PhantomData,
        };
    }
    let parent = current_span_id();
    open(name, Some(detail()), parent)
}

/// Opens a span under an explicit parent (for worker threads; pass the
/// [`current_span_id`] captured on the spawning thread).
pub fn span_child(name: &'static str, parent: Option<u64>) -> SpanGuard {
    open(name, None, parent)
}

impl SpanGuard {
    /// This span's id (`None` when observability is disabled).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|a| a.id)
    }

    /// Attaches a detail string after opening.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if let Some(active) = self.inner.as_mut() {
            active.detail = Some(detail.into());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                // Out-of-order drop (spans closed non-lexically): remove
                // wherever it is so the stack stays consistent.
                stack.retain(|&id| id != active.id);
            }
        });
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name.to_string(),
            detail: active.detail,
            start_ns: active.start_ns,
            dur_ns: u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        stream(&record);
        collector()
            .lock()
            .expect("span collector poisoned")
            .push(record);
    }
}

/// Writes one span as a JSONL record.
fn stream(r: &SpanRecord) {
    let mut line = String::with_capacity(96);
    line.push_str("{\"type\":\"span\",\"id\":");
    line.push_str(&r.id.to_string());
    if let Some(p) = r.parent {
        line.push_str(",\"parent\":");
        line.push_str(&p.to_string());
    }
    line.push_str(",\"name\":");
    json::write_str(&mut line, &r.name);
    if let Some(d) = &r.detail {
        line.push_str(",\"detail\":");
        json::write_str(&mut line, d);
    }
    line.push_str(",\"start_ns\":");
    line.push_str(&r.start_ns.to_string());
    line.push_str(",\"dur_ns\":");
    line.push_str(&r.dur_ns.to_string());
    line.push('}');
    crate::sink::write_line(&line);
}

/// Takes all completed spans collected so far.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *collector().lock().expect("span collector poisoned"))
}

/// Renders completed spans as a JSON forest, children nested under parents
/// and ordered by start time.
///
/// Spans whose parent is absent from `spans` (e.g. closed in an earlier
/// run) become roots.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
    let present: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for &i in &order {
        match spans[i].parent {
            Some(p) if present.contains(&p) => children.entry(p).or_default().push(i),
            _ => roots.push(i),
        }
    }
    let mut out = String::from("[");
    for (j, &i) in roots.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        render_node(spans, &children, i, &mut out);
    }
    out.push(']');
    out
}

fn render_node(
    spans: &[SpanRecord],
    children: &std::collections::HashMap<u64, Vec<usize>>,
    i: usize,
    out: &mut String,
) {
    let s = &spans[i];
    out.push_str("{\"name\":");
    json::write_str(out, &s.name);
    if let Some(d) = &s.detail {
        out.push_str(",\"detail\":");
        json::write_str(out, d);
    }
    out.push_str(",\"start_ns\":");
    out.push_str(&s.start_ns.to_string());
    out.push_str(",\"dur_ns\":");
    out.push_str(&s.dur_ns.to_string());
    if let Some(kids) = children.get(&s.id) {
        out.push_str(",\"children\":[");
        for (j, &k) in kids.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            render_node(spans, children, k, out);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn disabled_spans_are_free_and_anonymous() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::disable();
        let s = span("nothing");
        assert!(s.id().is_none());
        assert!(current_span_id().is_none());
        drop(s);
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_follows_scope() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        let _ = drain();
        {
            let outer = span("window");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("fim");
                assert_eq!(current_span_id(), inner.id());
            }
            assert_eq!(current_span_id(), Some(outer_id));
        }
        let spans = drain();
        assert_eq!(spans.len(), 2);
        let fim = spans.iter().find(|s| s.name == "fim").unwrap();
        let window = spans.iter().find(|s| s.name == "window").unwrap();
        assert_eq!(fim.parent, Some(window.id));
        assert!(window.dur_ns >= fim.dur_ns);
        crate::testing::disable();
    }

    #[test]
    fn explicit_parent_attaches_cross_thread_spans() {
        let _guard = TEST_LOCK.lock().unwrap();
        crate::testing::enable_memory_sink();
        let _ = drain();
        let parent = span("adapt");
        let parent_id = parent.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _job = span_child("adapt_job", parent_id);
            });
        });
        drop(parent);
        let spans = drain();
        let job = spans.iter().find(|s| s.name == "adapt_job").unwrap();
        assert_eq!(job.parent, parent_id);
        crate::testing::disable();
    }

    #[test]
    fn tree_nests_and_orphans_become_roots() {
        let records = vec![
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "fim".into(),
                detail: None,
                start_ns: 10,
                dur_ns: 5,
            },
            SpanRecord {
                id: 1,
                parent: None,
                name: "window".into(),
                detail: Some("w=0".into()),
                start_ns: 0,
                dur_ns: 100,
            },
            SpanRecord {
                id: 9,
                parent: Some(777),
                name: "orphan".into(),
                detail: None,
                start_ns: 50,
                dur_ns: 1,
            },
        ];
        let tree = render_tree(&records);
        assert!(tree.starts_with("[{\"name\":\"window\""));
        assert!(tree.contains("\"detail\":\"w=0\""));
        assert!(tree.contains("\"children\":[{\"name\":\"fim\""));
        assert!(tree.contains("{\"name\":\"orphan\""));
    }
}
