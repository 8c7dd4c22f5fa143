//! The traced run's span recorder.
//!
//! A span (`name`, `start_ns`, `end_ns`, `parent`, `op`) is recorded
//! from the benchmark's own files around every call into a layer's
//! public function: the op call itself and, on sampled ops, the stage
//! probes replayed on a copy of the live state. Spans stay in memory,
//! are written out once at exit, and reduce to a stage table with
//! *self time = span − the part of it its children cover*. No timer or
//! counter is added inside any crate. Span times are read on the
//! benchmark's clock ([`crate::clock`]): nanoseconds of CPU time the
//! process has consumed since the tracer was created.

use crate::clock::CpuInstant;
use std::collections::BTreeMap;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer.function` of the call the span wraps.
    pub name: &'static str,
    /// Nanoseconds of process CPU time since the tracer was created.
    pub start_ns: u64,
    /// The same clock at the span's end; `0` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// In-memory span recorder. Disabled, every call is a branch and a
/// return, so the untraced run can share the traced run's code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: CpuInstant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `enabled` is the run's `--trace` flag.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: CpuInstant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between passes (the traced run
    /// alternates traced and plain passes to price its own overhead).
    /// Never changes whether the *run* is a traced one.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "recording toggles between ops, not inside a span");
        self.enabled = on;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, op });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The stage table: per span name, call count, total time and self
    /// time, sorted by name.
    pub fn stage_table(&self) -> Vec<Stage> {
        stage_table(&self.spans)
    }

    /// The spans as a JSON document (`{"spans": [...]}`), one object
    /// per span in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// One row of the stage table.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's.
    pub self_ns: u64,
}

/// Reduce spans to per-name totals and self times.
pub fn stage_table(spans: &[Span]) -> Vec<Stage> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut rows: BTreeMap<&'static str, Stage> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let row =
            rows.entry(s.name).or_insert(Stage { name: s.name, calls: 0, total_ns: 0, self_ns: 0 });
        row.calls += 1;
        row.total_ns += total;
        row.self_ns += total.saturating_sub(child_ns[i]);
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100) -> repair [10,60) -> polish [20,50); verify [60,90)
        let spans = [
            span("op", 0, 100, None),
            span("repair", 10, 60, Some(0)),
            span("polish", 20, 50, Some(1)),
            span("verify", 60, 90, Some(0)),
        ];
        let table = stage_table(&spans);
        let by = |n: &str| table.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("op").self_ns, 100 - 50 - 30);
        assert_eq!(by("repair").self_ns, 50 - 30);
        assert_eq!(by("polish").self_ns, 30);
        assert_eq!(by("verify"), Stage { name: "verify", calls: 1, total_ns: 30, self_ns: 30 });
        // self times partition the root span
        assert_eq!(table.iter().map(|s| s.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.to_json("w", 1).contains("\"name\": \"inner\""));

        let mut off = Tracer::new(false);
        let o = off.begin("outer", 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
