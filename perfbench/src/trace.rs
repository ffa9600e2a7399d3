//! In-memory span recorder and the self-time arithmetic behind the
//! per-layer metrics.
//!
//! A span is one call into a layer, recorded by the benchmark around the
//! public call it makes (or by a timing wrapper the library calls back
//! into). Spans live in a thread-local buffer while recording is on and
//! cost one thread-local branch while it is off. The traced passes run
//! on one thread, so every span of a pass lands in the same buffer and
//! nests strictly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `pfs.run_until_app`.
    pub name: &'static str,
    /// Start, nanoseconds since recording began.
    pub start_ns: u64,
    /// End, nanoseconds since recording began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id: the scenario or window index the call served.
    pub req: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Closes its span when dropped; inert when recording is off.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    idx: Option<usize>,
}

/// Open a span named `name` for request `req`; it closes when the
/// returned guard drops. Spans opened while it is alive become its
/// children.
pub fn span(name: &'static str, req: u64) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard { idx: None };
        };
        let now = rec.epoch.elapsed().as_nanos() as u64;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
            req,
        });
        rec.open.push(idx);
        Guard { idx: Some(idx) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if let Some(s) = rec.spans.get_mut(idx) {
                    s.end_ns = rec.epoch.elapsed().as_nanos() as u64;
                }
                if let Some(pos) = rec.open.iter().rposition(|&i| i == idx) {
                    rec.open.truncate(pos);
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once, so nested, adjacent and
/// overlapping children all subtract exactly the covered time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
        .collect();
    kids.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < kids.len() {
        let p = kids[i].0;
        let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
        let mut run: Option<(u64, u64)> = None;
        while i < kids.len() && kids[i].0 == p {
            let (a, b) = (kids[i].1.max(lo), kids[i].2.min(hi));
            i += 1;
            if b <= a {
                continue;
            }
            run = match run {
                Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                Some((ra, rb)) => {
                    covered[p] += rb - ra;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ra, rb)) = run {
            covered[p] += rb - ra;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Write spans as JSON lines: one object per span, in recording order,
/// with the span's own index as `id`.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_direct_children() {
        // root [0,100) ⊃ a [10,50) ⊃ b [20,30); root ⊃ c [60,70)
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 50, Some(0)),
            sp("b", 20, 30, Some(1)),
            sp("c", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
        // Self times of a strictly nested tree sum to the root's span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn adjacent_children_are_both_subtracted() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlapping each other, and one sticking out past the
        // parent's end: only the covered part inside the parent counts.
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 60, Some(0)),
            sp("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("x", 0, 10, Some(0)),
            sp("x", 20, 50, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["x"],
            NameTotal {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(t["root"].self_ns, 60);
    }

    #[test]
    fn recorder_nests_guards_and_is_inert_when_off() {
        drop(span("off", 0));
        start();
        {
            let _a = span("a", 1);
            let _b = span("b", 2);
        }
        let _c = span("c", 3);
        drop(_c);
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(stop().is_empty());
    }
}
