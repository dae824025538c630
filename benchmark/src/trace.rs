//! The benchmark's own span recorder.
//!
//! Spans are taken around the calls the benchmark makes into each layer, kept
//! in memory, and written out as one JSON object per line when the run ends.
//! A recorder that is off reads no clock and stores nothing, so the untraced
//! pass runs the same code without paying for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by all spans of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Client thread that recorded the span (0 = main or reader, 1 = writer).
    pub thread: u8,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` inside when the recorder is off.
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

pub struct Recorder {
    on: bool,
    origin: Instant,
    thread: u8,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording recorder; every recorder of one run shares `origin`.
    pub fn on(origin: Instant, thread: u8) -> Recorder {
        Recorder {
            on: true,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost span still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            thread: self.thread,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; spans close in the reverse order of opening.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Time `f` as a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Add children of the span `open` whose durations are known but whose
    /// start times are not (the engine reports element walls only): they are
    /// laid end to end from the parent's start.
    pub fn add_sequential(&mut self, open: &Open, op: u64, children: &[(&'static str, u64)]) {
        let Some(parent) = open.0 else { return };
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, dur_ns) in children {
            self.spans.push(Span {
                name,
                op,
                start_ns: at,
                end_ns: at + dur_ns,
                parent: Some(parent),
                thread: self.thread,
            });
            at += dur_ns;
        }
    }

    /// Take over the spans of another recorder of the same run.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"thread\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.thread, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Overlapping children are counted once, and a child is
/// clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals of all spans that share a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotal {
    /// Mean duration in microseconds (0 when the name never occurred).
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations in milliseconds of every span called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Sum of all self times over the sum of all root-span durations: 1 when
/// every child lies inside its parent, which is what makes the per-layer self
/// times of a trace add up to the traced operations' wall time.
pub fn self_time_coverage(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let selfs: u64 = self_times(spans).iter().sum();
    selfs as f64 / roots.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            op: 0,
            start_ns,
            end_ns,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // op: 100 - (30 + 40); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_time_coverage(&spans), 1.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span("op", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)),    // overlaps x by 10
            span("z", 145, 148, Some(0)),    // inside x
            span("late", 190, 260, Some(0)), // overhangs the parent by 60
            span("before", 0, 50, Some(0)),  // entirely outside
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_open_order_and_off_records_nothing() {
        let mut rec = Recorder::on(Instant::now(), 0);
        let op = rec.begin("op", 7);
        let a = rec.begin("a", 7);
        rec.end(a);
        rec.leaf("b", 7, || ());
        rec.add_sequential(&op, 7, &[("e1", 5), ("e2", 6)]);
        rec.end(op);
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("e1", Some(0)),
                ("e2", Some(0))
            ]
        );
        assert_eq!(rec.spans()[4].start_ns, rec.spans()[3].end_ns);
        assert!(rec.spans().iter().all(|s| s.op == 7));

        let mut off = Recorder::off();
        let t = off.begin("op", 1);
        off.add_sequential(&t, 1, &[("e", 5)]);
        off.end(t);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links_and_totals_group_by_name() {
        let origin = Instant::now();
        let mut a = Recorder::on(origin, 0);
        let t = a.begin("req", 1);
        a.end(t);
        let mut b = Recorder::on(origin, 1);
        let t = b.begin("req", 2);
        b.leaf("send", 2, || ());
        b.end(t);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].thread, 1);
        let totals = totals_by_name(a.spans());
        assert_eq!(totals["req"].count, 2);
        assert_eq!(totals["send"].count, 1);

        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\": 1"));
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
    }
}
