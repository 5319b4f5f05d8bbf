//! Spans recorded from outside the program: the benchmark times each
//! call it makes into a crate's public functions. Spans are held in
//! memory and written out once, at the end of the traced pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One timed call. Times are nanoseconds since the trace's clock origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// A clock shared by every thread that records spans for one trace.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A span recorded on a worker thread, attached to its parent later.
pub type Leaf = (&'static str, u64, u64);

#[derive(Debug)]
pub struct Tracer {
    pub clock: Clock,
    pub spans: Vec<Span>,
    /// `(start, end)` of every op, in op-id order.
    pub ops: Vec<(u64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            clock: Clock(Instant::now()),
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }
}

impl Tracer {
    /// Start the next op; returns its id.
    pub fn begin_op(&mut self) -> u32 {
        let now = self.clock.now();
        self.ops.push((now, now));
        self.ops.len() as u32 - 1
    }

    pub fn end_op(&mut self, op: u32) {
        self.ops[op as usize].1 = self.clock.now();
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        let start = self.clock.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.spans.len() as u32 - 1
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.clock.now();
    }

    /// Time `f` as a span with no children.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Attach spans recorded on worker threads under `parent`.
    pub fn adopt(&mut self, op: u32, parent: u32, leaves: impl IntoIterator<Item = Leaf>) {
        for (name, start, end) in leaves {
            self.spans.push(Span {
                name,
                op,
                parent,
                start,
                end,
            });
        }
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its children cover (children on other threads
    /// included, so a parent waiting on a parallel section has little
    /// self time while each worker's children carry theirs).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end - s.start).saturating_sub(covered(s.start, s.end, kids)))
            .collect()
    }

    /// Per-layer call counts, total and self time.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += s.end - s.start;
            l.self_ns += self_ns;
        }
        out
    }

    /// Op time not covered by any top-level span: the harness's own work.
    pub fn uncovered_ns(&self) -> u64 {
        self.op_wall_ns() - self.covered_ns()
    }

    /// Op time covered by the op's top-level spans.
    pub fn covered_ns(&self) -> u64 {
        let mut tops: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.ops.len()];
        for s in self.spans.iter().filter(|s| s.parent == ROOT) {
            tops[s.op as usize].push((s.start, s.end));
        }
        self.ops
            .iter()
            .zip(tops)
            .map(|(&(a, b), spans)| covered(a, b, spans))
            .sum()
    }

    /// Time the layers' own calls account for: per op, the union of its
    /// spans, less the top-level spans that wrap others. A wrapper's
    /// self time is the harness's glue around the replayed calls, so a
    /// call the replay leaves out shows as time no counted span covers.
    pub fn layer_ns(&self) -> u64 {
        let mut is_parent = vec![false; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.parent != ROOT) {
            is_parent[s.parent as usize] = true;
        }
        let mut counted: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.ops.len()];
        for (s, wraps) in self.spans.iter().zip(is_parent) {
            if s.parent != ROOT || !wraps {
                counted[s.op as usize].push((s.start, s.end));
            }
        }
        counted.into_iter().map(|c| covered(0, u64::MAX, c)).sum()
    }

    pub fn op_wall_ns(&self) -> u64 {
        self.ops.iter().map(|(a, b)| b - a).sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                r#"{{"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.name, s.op, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Aggregate of one layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(0, 100, vec![(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered(0, 100, vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_parallel_children_once() {
        let mut t = Tracer::default();
        let op = t.begin_op();
        t.spans.push(Span {
            name: "parent",
            op,
            parent: ROOT,
            start: 0,
            end: 100,
        });
        t.adopt(op, 0, [("a", 10, 60), ("b", 10, 70)]);
        assert_eq!(t.self_times(), vec![40, 50, 60]);
        assert_eq!(t.layer_ns(), 60, "the wrapper's own time is not a layer's");
    }
}
