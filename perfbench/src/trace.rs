//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer in spans: a name, a
//! start and end in nanoseconds since the tracer started, the span that
//! was open when it began (its parent), and the cell, job or request-batch
//! id it belongs to. Spans stay in memory and are written out once, when
//! the run ends. A disabled tracer reads no clock and records nothing.

use std::path::Path;

use dlrm_gpu_repro::perf_envelope::json::Json;

use crate::clock::Stopwatch;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified span name, e.g. `gpu_sim.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell, job or batch the span belongs to.
    pub id: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer {
            clock: Some(Stopwatch::start()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.clock.is_some()
    }

    /// Runs `f` inside a span named `name` for item `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(clock) = self.clock else {
            return f(self);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: clock.nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = clock.nanos();
        value
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON to `path`, with each span name's count,
    /// total time and self time.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut layers = Json::object();
        for name in names {
            let mut doc = Json::object();
            doc.set(
                "count",
                Json::UInt(self.spans.iter().filter(|s| s.name == name).count() as u64),
            )
            .set("total_s", Json::Num(total_s(&self.spans, name)))
            .set("self_s", Json::Num(self_s(&self.spans, name)));
            layers.set(name, doc);
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut doc = Json::object();
                doc.set("name", Json::Str(s.name.to_string()))
                    .set("start_ns", Json::UInt(s.start_ns))
                    .set("end_ns", Json::UInt(s.end_ns))
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    )
                    .set("id", Json::UInt(s.id));
                doc
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut doc = Json::object();
        doc.set("layers", layers).set("spans", Json::Arr(spans));
        std::fs::write(path, doc.render())
    }
}

/// Total seconds spent in spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |total, s| total + s.duration_ns() as f64 * 1e-9)
}

/// Self time of span `index` in nanoseconds: its duration minus the part
/// of its interval that its child spans cover (overlapping children count
/// once, and the parts of children outside the parent count not at all).
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Total self time, in seconds, of the spans named `name`.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .fold(0.0, |total, i| total + self_ns(spans, i) as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("runner.run", 0, 100, None),
            // Two overlapping children: [10, 40) and [30, 50) cover 40 ns.
            span("gpu_sim.run", 10, 40, Some(0)),
            span("gpu_sim.run", 30, 50, Some(0)),
            // A child that ends after its parent counts only inside it.
            span("kernels.build", 90, 120, Some(0)),
            // A grandchild is covered by its own parent, not by the root.
            span("gpu_sim.mem_new", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 30 - 8);
        assert_eq!(self_ns(&spans, 4), 8);
        assert!((self_s(&spans, "gpu_sim.run") - (22.0 + 20.0) * 1e-9).abs() < 1e-18);
        assert!((total_s(&spans, "gpu_sim.run") - 50.0 * 1e-9).abs() < 1e-18);
    }

    #[test]
    fn nested_spans_record_their_parent_and_order() {
        let mut tracer = Tracer::on();
        let value = tracer.span("runner.run", 7, |t| {
            t.span("gpu_sim.run", 7, |_| 3) + t.span("gpu_sim.run", 7, |_| 4)
        });
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        assert!(self_ns(spans, 0) <= spans[0].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.span("runner.run", 0, |_| 1), 1);
        assert!(tracer.spans().is_empty());
        assert!(!tracer.enabled());
    }
}
