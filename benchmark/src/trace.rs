//! In-memory span recorder for the staged replay.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (the program itself carries no spans for this), kept in memory
//! and written out once at the end. A span's *self time* is its duration
//! minus the part its sequential children cover; children that ran in
//! parallel under one group span (the adapt jobs) are recorded for their
//! busy time but never subtracted — the group is charged by its wall.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. `parent` is 0 for the root; ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: usize,
    pub name: &'static str,
    /// Window index, or -1 outside the window loop.
    pub window: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ran concurrently with its siblings: excluded from the parent's
    /// self-time subtraction.
    pub parallel: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch (what worker threads stamp
    /// their own start/end with).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, window: i64) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            window,
            start_ns,
            end_ns: start_ns,
            parallel: false,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost-first");
        self.spans[span.0 - 1].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, window: i64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, window);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-finished span that ran on a worker thread,
    /// concurrently with its siblings, under the innermost open span.
    pub fn add_parallel(&mut self, name: &'static str, window: i64, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            window,
            start_ns,
            end_ns,
            parallel: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span id: duration minus sequential children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != 0 && !s.parallel {
                own[s.parent - 1] = own[s.parent - 1].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Durations of the spans named `name`, milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time in seconds, summed under `key(span)`. Parallel spans
    /// carry no self time of their own (their group span is charged).
    fn self_by_s(&self, key: impl Fn(&Span) -> &'static str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            if !s.parallel {
                *out.entry(key(s)).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// Self time summed by layer, seconds.
    pub fn self_by_layer_s(&self) -> BTreeMap<&'static str, f64> {
        self.self_by_s(|s| layer_of(s.name))
    }

    /// Self time summed by span name, seconds, largest first.
    pub fn self_by_name_s(&self) -> Vec<(&'static str, f64)> {
        let mut v: Vec<_> = self.self_by_s(|s| s.name).into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"window\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parallel\":{}}}",
                s.id,
                s.parent,
                s.name,
                layer_of(s.name),
                s.window,
                s.start_ns,
                s.end_ns,
                s.parallel
            )?;
        }
        out.flush()
    }
}

/// The crate a span's time is charged to: the prefix of its name. The
/// replay's own glue (`replay`, `window`, `cloud.*`) belongs to
/// `nazar-cloud`, whose orchestrator the replay mirrors.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or(name) {
        "device" => "nazar-device",
        "net" => "nazar-net",
        "log" => "nazar-log",
        "store" => "nazar-store",
        "analysis" => "nazar-analysis",
        "adapt" => "nazar-adapt",
        _ => "nazar-cloud",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_and_skip_parallel_children() {
        let mut t = Tracer::new();
        let root = t.enter("replay", -1);
        t.span("device.window", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let group = t.enter("adapt.jobs", 0);
        let (a, b) = (t.now_ns(), t.now_ns() + 5);
        t.add_parallel("adapt.job", 0, a, b);
        t.exit(group);
        t.exit(root);
        let own = t.self_times_ns();
        let sequential: u64 = t
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| !s.parallel)
            .map(|(_, o)| *o)
            .sum();
        assert_eq!(sequential, t.spans()[0].duration_ns());
        // The group keeps its whole wall: its parallel child is not subtracted.
        assert_eq!(own[2], t.spans()[2].duration_ns());
        assert_eq!(layer_of("adapt.jobs"), "nazar-adapt");
        assert_eq!(layer_of("window"), "nazar-cloud");
    }
}
