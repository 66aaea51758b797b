//! In-memory span recording for the traced pass.
//!
//! Every span is one timed call into a layer's public API: a name, start
//! and end on a clock shared by all threads of the run, the span that
//! caused it, and the request it belongs to. Each thread records into its
//! own [`Recorder`]; the recorders are merged once the traced phase ends
//! and written out as JSONL, one span per line.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `wire.frame_encode`.
    pub name: &'static str,
    /// The request (one wire command, or one inventory run) it serves.
    pub req: u64,
    /// Nanoseconds since the run's shared origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's shared origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count observed at a layer boundary (bytes on the wire, trace
/// events, driver steps…), attached to a request like a span.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// Layer-qualified name, e.g. `wire.bytes_per_op`.
    pub name: &'static str,
    /// The request it belongs to.
    pub req: u64,
    /// The observed amount.
    pub value: f64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    id_base: u64,
    next: u64,
    open: Vec<(u64, &'static str, u64, u64)>,
    /// Closed spans, in closing order.
    pub spans: Vec<Span>,
    /// Observed counts.
    pub counts: Vec<Count>,
}

impl Recorder {
    /// A recorder whose span ids are unique among recorders with distinct
    /// `thread` numbers sharing `origin`.
    pub fn new(origin: Instant, thread: u64) -> Recorder {
        Recorder {
            enabled: true,
            origin,
            id_base: thread << 40,
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A recorder that keeps nothing: the untraced phases time the same
    /// calls through it without growing memory.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        self.next += 1;
        let now = self.now_ns();
        self.open.push((self.id_base | self.next, name, req, now));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let (id, name, req, start_ns) = self.open.pop().expect("span exit without enter");
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|o| o.0),
            name,
            req,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a span under the innermost open one.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Records a count for `req`.
    pub fn count(&mut self, name: &'static str, req: u64, value: f64) {
        if self.enabled {
            self.counts.push(Count { name, req, value });
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Per-operation totals: for every operation `op_of` maps a request to,
/// the summed duration of each span name (as `<name>_us`, in µs), its
/// summed self time (as `self.<name>_us`), and the summed value of each
/// count name. Requests `op_of` does not know are left out.
pub fn per_op_totals(
    spans: &[Span],
    counts: &[Count],
    op_of: impl Fn(u64) -> Option<u64>,
) -> BTreeMap<u64, BTreeMap<String, f64>> {
    let self_ns = self_times(spans);
    let mut totals: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    for s in spans {
        if let Some(op) = op_of(s.req) {
            let op_totals = totals.entry(op).or_default();
            *op_totals.entry(format!("{}_us", s.name)).or_default() += s.duration_ns() as f64 / 1e3;
            *op_totals.entry(format!("self.{}_us", s.name)).or_default() +=
                self_ns[&s.id] as f64 / 1e3;
        }
    }
    for c in counts {
        if let Some(op) = op_of(c.req) {
            *totals
                .entry(op)
                .or_default()
                .entry(c.name.to_string())
                .or_default() += c.value;
        }
    }
    totals
}

/// The median over operations of one per-operation total (an operation
/// without the key counts as 0).
pub fn median_over_ops(totals: &BTreeMap<u64, BTreeMap<String, f64>>, key: &str) -> f64 {
    let values: Vec<f64> = totals
        .values()
        .map(|t| t.get(key).copied().unwrap_or(0.0))
        .collect();
    crate::stats::median(&values)
}

/// Writes `spans` as JSONL: `{"id","parent","name","req","start_ns",
/// "end_ns"}` per line, in start order.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in ordered {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),  // overlaps 2: union 10..50
            span(4, Some(1), 90, 130), // clipped to 90..100
            span(5, Some(2), 12, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 8);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&5], 8);
    }

    #[test]
    fn children_outside_the_parent_interval_cover_nothing() {
        let spans = [span(1, None, 0, 10), span(2, Some(1), 20, 30)];
        assert_eq!(self_times(&spans)[&1], 10);
    }

    #[test]
    fn totals_group_requests_into_operations() {
        let mut spans = [
            span(1, None, 0, 4000),
            span(2, Some(1), 0, 1000),
            span(3, None, 0, 2000),
        ];
        spans[2].req = 9;
        let counts = [
            Count {
                name: "bytes",
                req: 0,
                value: 5.0,
            },
            Count {
                name: "bytes",
                req: 9,
                value: 7.0,
            },
        ];
        // Requests 0 and 9 are two operations; request 9 has no child span.
        let totals = per_op_totals(&spans, &counts, |req| Some(req % 2));
        assert_eq!(totals[&0]["x_us"], 5.0);
        assert_eq!(totals[&0]["self.x_us"], 4.0);
        assert_eq!(totals[&1]["x_us"], 2.0);
        assert_eq!(totals[&1]["bytes"], 7.0);
        assert_eq!(median_over_ops(&totals, "bytes"), 5.0);
        assert_eq!(median_over_ops(&totals, "absent"), 0.0);
        assert!(per_op_totals(&spans, &counts, |_| None).is_empty());
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut r = Recorder::new(Instant::now(), 3);
        r.enter("outer", 7);
        r.time("inner", 7, || ());
        r.exit();
        assert_eq!(r.spans.len(), 2);
        let outer = r.spans[1].id;
        assert_eq!(r.spans[0].parent, Some(outer));
        assert_eq!(r.spans[1].parent, None);
        assert_eq!(outer >> 40, 3);
        assert!(r.spans.iter().all(|s| s.start_ns <= s.end_ns && s.req == 7));

        let mut off = Recorder::off();
        off.enter("outer", 7);
        assert_eq!(off.time("inner", 7, || 5), 5);
        off.count("n", 7, 1.0);
        off.exit();
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
