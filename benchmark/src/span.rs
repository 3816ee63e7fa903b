//! Spans recorded from outside the library: every timed call into a layer
//! goes through [`Tracer::enter`]/[`Tracer::exit`]. The duration is always
//! measured (the metrics need it); the span is kept only in a traced run,
//! in memory, and written out when the workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span. `parent` is 0 for a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span, handed back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open {
    name: &'static str,
    parent: u32,
    id: u32,
    start: Instant,
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
    next_id: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Switches recording on or off between repetitions (the traced run
    /// times some repetitions untraced to report its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = on;
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        let (id, parent) = if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            let parent = self.open.last().copied().unwrap_or(0);
            self.open.push(id);
            (id, parent)
        } else {
            (0, 0)
        };
        Open {
            name,
            parent,
            id,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns how long it was open.
    #[inline]
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if open.id != 0 {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(open.id), "spans must nest");
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        end - open.start
    }

    /// Times `f` as one span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span, in closing order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by direct children.
    pub self_ns: u64,
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the durations of its direct children (children nest and never
/// overlap one another, so the subtraction is exact).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rep [0,100] ⊃ run [10,70] ⊃ {drive [20,30], drive [40,55]}; check [75,95].
        let spans = [
            span(3, 2, "drive", 20, 30),
            span(4, 2, "drive", 40, 55),
            span(2, 1, "run", 10, 70),
            span(5, 1, "check", 75, 95),
            span(1, 0, "rep", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["rep"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["run"],
            NameTotals {
                count: 1,
                total_ns: 60,
                self_ns: 35
            }
        );
        assert_eq!(
            t["drive"],
            NameTotals {
                count: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        // Self times of a tree sum to the root's duration.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        let (_, inner) = tr.time("inner", || std::hint::black_box(1 + 1));
        let outer = tr.exit(outer);
        assert!(outer >= inner);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[0].name, "inner");
        assert_eq!(tr.spans()[0].parent, tr.spans()[1].id);
        assert_eq!(tr.spans()[1].parent, 0);
        let line = tr.to_jsonl("w");
        assert!(line.starts_with("{\"id\":2,\"parent\":1,\"workload\":\"w\",\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let (_, d) = off.time("x", || ());
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(off.spans().is_empty());
    }
}
