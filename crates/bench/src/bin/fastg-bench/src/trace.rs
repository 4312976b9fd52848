//! In-memory spans around the benchmark's calls into the simulator, the
//! Chrome trace-event export Perfetto opens, and the per-span table.
//!
//! Spans are recorded only in the benchmark's own code, never inside the
//! program: each names the public function it wraps (`platform.run_for`,
//! `replay.des`, …). Every span of one repetition shares its `rep` id.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// A span recorder that is either on (collects spans) or off (every call
/// is a no-op), so traced and untraced repetitions run the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts tagging new spans with repetition id `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The spans in Chrome trace-event format (complete events, µs).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":");
        out.push_str(&fastg_json::Value::from(workload).to_string_compact());
        out.push_str("},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep,
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Per span name: count, total and self time (total minus the time
    /// covered by direct children).
    pub fn table(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = table.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        table
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("platform.run_for");
        t.span("platform.run_for.slice", || std::hint::black_box(0));
        t.end(outer);
        let table = t.table();
        let run = table["platform.run_for"];
        let slice = table["platform.run_for.slice"];
        assert_eq!(run.count, 1);
        assert_eq!(run.self_ns + slice.total_ns, run.total_ns);
        assert!(t.chrome_json("w").contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.table().is_empty());
    }
}
