//! Host-time measurement: the one wall-clock source of the benchmark, and
//! the in-memory span recorder of traced runs.
//!
//! A span is `(name, start, end, parent, unit)`. Spans nest strictly (the
//! benchmark is single-threaded), so a span's self time is its duration minus
//! the durations of its direct children. With tracing off every call is a
//! no-op that reads no clock, so untraced runs pay nothing for the hooks.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Nanoseconds elapsed since `origin`, saturating at `u64::MAX`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(clock().duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// The benchmark's only monotonic clock read.
pub fn clock() -> Instant {
    // ddelint::allow(wallclock, "benchmark timing: host time is the measured quantity, never an input to the simulation")
    Instant::now()
}

/// Sentinel parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or unit name, e.g. `ring.probe`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Id of the timed unit this span belongs to.
    pub unit: u64,
}

/// Per-layer totals folded from the span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
}

/// Records spans and named counters when enabled.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: clock(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "cannot toggle tracing inside a span");
        self.on = on;
    }

    /// Tags the spans opened from now on with unit id `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start = ns_since(self.origin);
        self.spans.push(Span { name, start, end: start, parent, unit: self.unit });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("close without open");
        self.spans[idx as usize].end = ns_since(self.origin);
    }

    /// Adds `n` to the counter `key` (a `<layer>.<what>` name).
    pub fn add(&mut self, key: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(key).or_default() += n;
        }
    }

    /// The counter `key`, 0 if never touched.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the spans into per-name calls, self time and total time.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        assert!(self.stack.is_empty(), "spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as a tab-separated line
    /// `index name start_ns end_ns parent unit` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tunit")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "-".to_string() } else { s.parent.to_string() };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.unit)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("unit");
        t.open("child");
        t.close();
        t.close();
        let totals = t.layer_totals();
        let unit = totals["unit"];
        let child = totals["child"];
        assert_eq!(unit.calls, 1);
        assert_eq!(unit.self_ns + child.total_ns, unit.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("unit");
        t.add("x", 3);
        t.close();
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("x"), 0);
    }
}
