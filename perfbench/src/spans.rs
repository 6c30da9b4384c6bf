//! Host-time spans recorded by the benchmark around each public call it
//! makes into the simulator. Spans are kept in memory and written out once,
//! when the run ends; a disabled recorder records nothing.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use bard::report::json::Json;

/// One closed span: a named interval of host time inside one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers ("system.run", "trace.record", ...).
    pub name: &'static str,
    /// Cell (or set-up round) the span belongs to.
    pub cell: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; `begin` opens a child of the innermost open span.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Starts or stops recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, cell: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Number of open spans (to close them after a cell panics).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, cell: &str, f: impl FnOnce() -> R) -> R {
        self.begin(name, cell);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, each with its self time.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let selfs = self_times_ns(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj(vec![
                        ("id", Json::num(id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                        ("cell", Json::str(&s.cell)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::num(s.start_ns as f64)),
                        ("end_ns", Json::num(s.end_ns as f64)),
                        ("self_ns", Json::num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
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
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name over the spans in `range`, in seconds.
#[must_use]
pub fn self_seconds_by_name(spans: &[Span], range: Range<usize>) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for i in range {
        *out.entry(spans[i].name).or_insert(0.0) += selfs[i] as f64 * 1e-9;
    }
    out
}
