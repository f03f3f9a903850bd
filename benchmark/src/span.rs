//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! are kept in memory while measuring and written out once at the end.
//! A span's *self time* is its duration minus the part of its interval
//! its children cover; children may overlap each other or stick out of
//! the parent, so the covered part is the clipped union, not the sum.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Units of work the call handled (ids in a frame, lanes in a batch),
    /// so self times can be normalised per unit.
    pub units: u64,
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rollup {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub units: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Runs `f` inside a span counting one unit of work (the call). With
    /// tracing off this is just `f()`, so the same driver code serves the
    /// traced and the untraced pass.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_units(name, |t| (f(t), 1))
    }

    /// Like [`span`](Self::span); `f` also returns the units of work done.
    pub fn span_units<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            units: 0,
        });
        self.open.push(id);
        let (out, units) = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].units = units;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        rollup(&self.spans)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("units", Json::Num(s.units as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let r = out.entry(s.name).or_default();
        r.calls += 1;
        r.total_ns += s.end_ns - s.start_ns;
        r.self_ns += self_ns;
        r.units += s.units;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            units: 1,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root [0,100] > a [10,60] > b [20,30]; root > c [70,90]
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's interval");
    }

    #[test]
    fn overlapping_children_count_their_union_not_their_sum() {
        // Children [10,50] and [30,70] overlap on [30,50]: 60 covered.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("inside-x", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_sticking_out_of_the_parent_are_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 260, Some(0)),
            span("outside", 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn rollup_groups_by_name_and_tracer_records_parents() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span_units("inner", |_| ((), 7));
            t.span_units("inner", |_| ((), 5));
        });
        let r = t.rollup();
        assert_eq!(r["inner"].calls, 2);
        assert_eq!(r["inner"].units, 12);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(r["outer"].self_ns <= r["outer"].total_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
