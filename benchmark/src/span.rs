//! In-memory spans around the harness's calls into each layer.
//!
//! The product is not instrumented: every span here is opened and closed
//! by benchmark code around a public function of one crate, so a layer's
//! name is its crate's name. Spans are kept in memory while the run
//! measures and written out (JSON lines) after it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn begin_op(&mut self, op: u32) {
        debug_assert!(self.open.is_empty(), "op {op} begun inside an open span");
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the tracer back so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, op: self.op, parent, start_ns: 0, end_ns: 0 });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children clipped to the parent, overlaps between
/// siblings counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let a = by_name.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.duration_ns();
        a.self_ns += self_ns;
    }
    by_name
}

/// Mean µs per op of the spans named `name`.
pub fn span_us(agg: &BTreeMap<&'static str, Aggregate>, name: &str, ops: u64) -> f64 {
    agg.get(name).map_or(0.0, |a| a.total_ns as f64 / 1_000.0 / ops.max(1) as f64)
}

/// One JSON object per span, in the order the spans were opened.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a by 10
            span("a.leaf", Some(1), 15, 25),
            span("late", Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 10, 30, 10, 30]);
    }

    #[test]
    fn tracer_nests_and_orders() {
        let mut t = Tracer::new();
        t.begin_op(7);
        let v = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1)) + t.span("inner", |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s[2].end_ns <= s[0].end_ns);
        let agg = aggregate(s);
        assert_eq!(agg["inner"].count, 2);
        assert_eq!(agg["outer"].self_ns, s[0].duration_ns() - agg["inner"].total_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![span("root", None, 0, 5), span("kid", Some(0), 1, 2)];
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).unwrap();
        assert_eq!(v.get("parent").and_then(crate::json::Value::as_f64), Some(0.0));
        assert_eq!(v.get("name").and_then(crate::json::Value::as_str), Some("kid"));
    }
}
