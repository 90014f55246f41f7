//! In-memory span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library's public functions — nothing inside the program is
//! instrumented. Each span has a name, a start and end on a common
//! clock, and the id of the span that caused it. Spans stay in memory
//! until the run ends and are then written out as JSON lines; the
//! per-layer numbers come from their self times (duration minus the part
//! covered by child spans).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `stp.run_block.splitck`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Number of spans with this name.
    pub count: usize,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

impl SpanStats {
    /// Mean self time per span, seconds (`NaN` when none was recorded).
    pub fn mean_self_s(&self) -> f64 {
        self.self_s / self.count as f64
    }
}

/// The span recorder. A disabled recorder runs every closure untouched
/// and keeps nothing, so the untraced and traced runs share one code
/// path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs closures (`!on`).
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A recorder thread that panicked left only whole spans behind:
        // every push and end-stamp is a single write under the lock.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to parent its own spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let start = self.ns(Instant::now());
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns: start,
                end_ns: start,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.spans()[id].end_ns = end;
        out
    }

    /// Records a span whose boundaries were stamped by the caller (for
    /// intervals between callbacks, such as steps inside
    /// `Engine::advance_until`).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let span = Span {
            name: name.to_string(),
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans();
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Every recorded span, in recording order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }

    /// Every span with its self time in seconds (duration minus the
    /// part its child spans cover).
    fn with_self_s(&self) -> Vec<(Span, f64)> {
        let spans = self.snapshot();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        spans
            .into_iter()
            .zip(child_ns)
            .map(|(s, c)| {
                let self_s = s.duration_ns().saturating_sub(c) as f64 * 1e-9;
                (s, self_s)
            })
            .collect()
    }

    /// Count and summed self time per span name.
    pub fn stats(&self) -> BTreeMap<String, SpanStats> {
        let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
        for (s, self_s) in self.with_self_s() {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_s += self_s;
        }
        out
    }

    /// Self times (seconds) of every span named `name`, in recording
    /// order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.with_self_s()
            .into_iter()
            .filter(|(s, _)| s.name == name)
            .map(|(_, self_s)| self_s)
            .collect()
    }

    /// Writes every span as one JSON object per line after `header`
    /// (itself one JSON line).
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                crate::json::quote(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let tr = Tracer::new(true);
        let t0 = Instant::now();
        let t = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let root = tr.record("root", None, t(0), t(10));
        tr.record("child", root, t(1), t(4));
        tr.record("child", root, t(5), t(7));
        let stats = tr.stats();
        assert!((stats["root"].self_s - 0.005).abs() < 1e-9);
        assert_eq!(stats["child"].count, 2);
        assert!((stats["child"].self_s - 0.005).abs() < 1e-9);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, |p| p), None);
        assert!(off.stats().is_empty());
    }
}
