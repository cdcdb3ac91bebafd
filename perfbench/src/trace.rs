//! In-memory spans for the traced round: one span around every call
//! the benchmark makes into a layer, kept in memory and written out as
//! JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed layer call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Program index, or injection index for `sim.inject` spans.
    pub request: u64,
}

/// Records nested spans; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.close_to(self.open.len() - 1);
        out
    }

    /// Open spans, for [`Tracer::close_to`] after a caught panic.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Ends every span opened above `depth` — the ones a panic unwound
    /// through — at the current time.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span above depth");
            self.spans[id].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's duration minus the part of it that its child spans
/// cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    out
}

/// The spans as a JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \
             \"parent\": {parent}, \"request\": {}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("]}\n");
    out
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("round", 0, 100, None),
            span("program", 10, 90, Some(0)),
            span("core.pipeline", 20, 50, Some(1)),
            span("sim.campaign", 50, 80, Some(1)),
            span("sim.inject", 55, 60, Some(3)),
            span("sim.inject", 58, 70, Some(3)), // overlaps its sibling
            span("sim.inject", 75, 95, Some(3)), // runs past its parent
        ];
        // The campaign's children cover 55..70 and 75..80 of 50..80.
        assert_eq!(self_times(&spans), vec![20, 20, 30, 10, 5, 12, 20]);
        let t = totals(&spans);
        assert_eq!(t["sim.inject"], (3, 37, 37));
        assert_eq!(t["program"], (1, 80, 20));
    }

    #[test]
    fn tracer_nests_and_closes_after_a_panic() {
        let mut t = Tracer::new(true);
        t.span("round", 0, |t| {
            t.span("program", 1, |t| t.span("sim.inject", 7, |_| ()));
            let depth = t.depth();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.span("program", 2, |_| panic!("step failed"))
            }));
            assert!(caught.is_err());
            t.close_to(depth);
        });
        let s = t.spans();
        let shape: Vec<_> = s.iter().map(|s| (s.name, s.parent, s.request)).collect();
        assert_eq!(
            shape,
            [
                ("round", None, 0),
                ("program", Some(0), 1),
                ("sim.inject", Some(1), 7),
                ("program", Some(0), 2)
            ]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.depth(), 0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("round", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
