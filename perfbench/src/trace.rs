//! In-memory span recorder for the traced pass, and self-time arithmetic.
//!
//! A span is `(name, start, end, parent, pass)`; spans stay in memory on the
//! recording thread and are written out once the run ends.  A span's self
//! time is its duration minus the part of its interval that its direct
//! children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer or driver step the span times.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` until the span closes).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Pass the span belongs to.
    pub pass: u32,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (dropping anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        });
    });
}

/// Stops recording and returns every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Tags the spans opened from now on with pass id `pass`.
pub fn set_pass(pass: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.pass = pass;
        }
    });
}

/// An open span; closes when dropped.
pub struct Guard {
    index: Option<u32>,
}

/// Opens a span named `name` under the innermost open span.  A no-op when
/// the thread is not recording.
pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.origin.elapsed().as_nanos() as u64;
        let index = u32::try_from(rec.spans.len()).expect("fewer than 2^32 spans per run");
        rec.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: rec.stack.last().copied(),
            pass: rec.pass,
        });
        rec.stack.push(index);
        Some(index)
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.origin.elapsed().as_nanos() as u64;
                rec.spans[index as usize].end = now;
                if rec.stack.last() == Some(&index) {
                    rec.stack.pop();
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].start);
    // Per parent: the furthest point its children have covered so far.
    let mut covered_to: Vec<u64> = spans.iter().map(|s| s.start).collect();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for &i in &order {
        let Some(parent) = spans[i].parent else {
            continue;
        };
        let p = parent as usize;
        let from = spans[i].start.max(covered_to[p]);
        let to = spans[i].end.min(spans[p].end);
        if to > from {
            own[p] -= to - from;
            covered_to[p] = to;
        }
    }
    own
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Sums self time, duration and count per span name.
pub fn totals(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, &own) in spans.iter().zip(self_ns) {
        let entry = out.entry(span.name).or_default();
        entry.self_ns += own;
        entry.total_ns += span.end - span.start;
        entry.count += 1;
    }
    out
}

/// Durations of the spans named `name`, ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Writes spans as tab-separated `pass name start end parent` lines.
pub fn write_tsv(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "pass\tname\tstart_ns\tend_ns\tparent")?;
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}",
            span.pass, span.name, span.start, span.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn nested_children_count_only_against_their_direct_parent() {
        let spans = [
            span("pass", 0, 100, None),
            span("chunk", 10, 60, Some(0)),
            span("count", 20, 50, Some(1)),
            span("sampler", 50, 55, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 15, 30, 5]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn adjacent_and_overlapping_children_are_covered_once() {
        let adjacent = [
            span("parent", 0, 10, None),
            span("a", 0, 5, Some(0)),
            span("b", 5, 10, Some(0)),
        ];
        assert_eq!(self_times(&adjacent), vec![0, 5, 5]);
        // Overlap [4, 6] is covered by both children but subtracted once; a
        // child running past its parent is clipped.
        let overlapping = [
            span("parent", 0, 10, None),
            span("b", 4, 12, Some(0)),
            span("a", 0, 6, Some(0)),
        ];
        assert_eq!(self_times(&overlapping)[0], 0);
        let gap = [
            span("parent", 0, 20, None),
            span("a", 2, 5, Some(0)),
            span("b", 5, 9, Some(0)),
            span("c", 15, 16, Some(0)),
        ];
        assert_eq!(self_times(&gap)[0], 20 - 3 - 4 - 1);
    }

    #[test]
    fn recorder_nests_spans_by_scope() {
        start();
        set_pass(3);
        {
            let _outer = super::span("outer");
            let _inner = super::span("inner");
        }
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end >= s.start));
        let t = totals(&spans, &self_times(&spans));
        assert_eq!(t["inner"].count, 1);
        // Recording is off again: spans are no-ops.
        drop(super::span("ignored"));
        assert!(stop().is_empty());
    }
}
