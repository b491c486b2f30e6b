//! Spans recorded around calls into the engine's public functions.
//!
//! A span is named `<layer>.<call>` and holds its start, end, parent span
//! and round id. Spans are kept in memory and written out when the run
//! ends. They are taken per statement and per call, never per tuple, and
//! only in this benchmark's own code: nothing inside the engine is
//! instrumented.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The engine layers, named after their crates.
pub const LAYERS: [&str; 6] = ["datagen", "storage", "query", "core", "lineage", "server"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `bench.<step>` for the harness's own grouping spans.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round the span belongs to (0 = set-up).
    pub round: u32,
    /// The recording thread (0 = main; server clients are 1 and 2).
    pub thread: u32,
}

/// An in-memory span recorder. A disabled tracer runs the same code path
/// and records nothing, which is what the untraced loop uses.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self {
            enabled: true,
            origin,
            thread,
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now(), 0)
        }
    }

    /// A tracer for another thread: same origin, same recording state.
    #[must_use]
    pub fn child(&self, thread: u32) -> Self {
        Self {
            enabled: self.enabled,
            ..Self::new(self.origin, thread)
        }
    }

    /// Sets the round id of the spans that follow.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`end`](Self::end). Spans opened while it
    /// is open become its children.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            thread: self.thread,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Runs `f` inside a span and also returns its duration in
    /// milliseconds. The duration is measured whether or not the tracer
    /// records, so callers can use it for their own accounting.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.end();
        (out, ms)
    }

    /// Moves the spans of another tracer (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in milliseconds of every span named `name`.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(duration_ms)
            .sum()
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// part its direct children cover, summed by the layer prefix of its
    /// name. Harness spans (`bench.*`) are left out.
    #[must_use]
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or("");
            if let Some(total) = out.get_mut(layer) {
                let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
                *total += own as f64 / 1e6;
            }
        }
        out
    }

    /// Writes the spans as tab-separated lines:
    /// `id parent round thread name start_us end_us`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tround\tthread\tname\tstart_us\tend_us")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.round,
                s.thread,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

fn duration_ms(s: &Span) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_harness_spans() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.begin("bench.round");
        t.begin("query.exec");
        t.span("core.join", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["core"] >= 5.0);
        assert!(by_layer["query"] < by_layer["core"]);
        assert!(!by_layer.contains_key("bench"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let (v, ms) = t.timed("core.join", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
