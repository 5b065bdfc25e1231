//! Spans recorded by the harness around every call it makes into a layer.
//!
//! A [`Spans`] recorder belongs to one rank. Every op opens a root span and
//! each call into a layer (`mpi.*`, `mpi.osc.*`, `runtime.*`) opens a child,
//! so a span has a name, a start, an end, the span that caused it and the op
//! it belongs to. Spans stay in memory until the run ends. Disabled, a
//! recorder costs one branch per call: the untraced run executes the same
//! code, and the difference between the two runs is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;
/// The JSONL file holds whole ops up to this many spans; the statistics use
/// every span recorded.
const FILE_SPAN_LIMIT: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `mpi.send`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for an op's root span.
    pub parent: u32,
    /// Sequence number of the op this span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A rank's span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    op: u64,
}

impl Spans {
    /// A recorder; disabled, it records nothing and [`Spans::span`] only
    /// calls its closure.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Run `f` as the root span of op number `op`.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.op = op;
        self.span("op", f)
    }

    /// Run `f` inside a span called `name`, a child of whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Forget everything recorded so far (warm-up ops are not reported).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// The spans recorded so far, in start order.
    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the time its children cover.
/// Children run one after another inside their parent, so they never
/// overlap and never exceed it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != ROOT {
            own[span.parent as usize] -= span.duration_ns();
        }
    }
    own
}

/// Per span name: how many, and each one's duration in ns.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
    }
    by_name
}

/// Write spans as JSON lines: name, start, end, self time, parent index, op
/// and rank. Stops at an op boundary once [`FILE_SPAN_LIMIT`] is reached.
pub fn write_jsonl(out: &mut dyn Write, rank: u32, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times_ns(spans);
    for (i, (span, self_ns)) in spans.iter().zip(own).enumerate() {
        if i >= FILE_SPAN_LIMIT && span.parent == ROOT {
            break;
        }
        let parent = if span.parent == ROOT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"rank\":{rank},\"op\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.op, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    fn record() -> Spans {
        let mut sp = Spans::new(true);
        for op in 0..3 {
            sp.op(op, |sp| {
                busy(2_000);
                sp.span("mpi.send", |_| busy(5_000));
                sp.span("burst", |sp| {
                    sp.span("mpi.isend", |_| busy(3_000));
                    sp.span("mpi.wait", |_| busy(3_000));
                    busy(1_000);
                });
            });
        }
        sp
    }

    #[test]
    fn children_never_exceed_their_parent_and_self_times_sum_to_the_root() {
        let sp = record();
        let spans = sp.recorded();
        assert_eq!(spans.len(), 15);
        let own = self_times_ns(spans);
        for (i, span) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == i as u32)
                .map(Span::duration_ns)
                .sum();
            assert!(children <= span.duration_ns(), "children exceed {span:?}");
            assert_eq!(own[i], span.duration_ns() - children);
        }
        for op in 0..3u64 {
            let of_op = |s: &&Span| s.op == op;
            let root = spans
                .iter()
                .filter(of_op)
                .find(|s| s.parent == ROOT)
                .unwrap();
            let total: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.op == op)
                .map(|(_, o)| *o)
                .sum();
            assert_eq!(total, root.duration_ns(), "self times sum to the root");
            assert!(own[spans.iter().position(|s| s == root).unwrap()] >= 2_000);
        }
    }

    #[test]
    fn parents_and_names_follow_the_nesting() {
        let sp = record();
        let s = sp.recorded();
        assert_eq!(s[0].name, "op");
        assert_eq!(s[0].parent, ROOT);
        assert_eq!((s[1].name, s[1].parent), ("mpi.send", 0));
        assert_eq!((s[2].name, s[2].parent), ("burst", 0));
        assert_eq!((s[3].name, s[3].parent), ("mpi.isend", 2));
        assert_eq!((s[4].name, s[4].parent), ("mpi.wait", 2));
        assert_eq!(s[5].op, 1);
        assert_eq!(durations_by_name(s)["mpi.isend"].len(), 3);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.op(0, |sp| sp.span("mpi.send", |_| 7)), 7);
        assert!(sp.recorded().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let sp = record();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, 1, sp.recorded()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 15);
        assert!(text.lines().next().unwrap().starts_with(
            "{\"id\":0,\"name\":\"op\",\"rank\":1,\"op\":0,\"parent\":null,\"start_ns\":"
        ));
    }
}
