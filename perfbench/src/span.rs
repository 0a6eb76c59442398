//! The benchmark's own tracing: spans recorded around calls into each
//! layer's public functions, kept in memory and written out at the end.
//!
//! A disabled [`Tracer`] records nothing and never reads the clock, so the
//! untraced runs that produce the end-to-end metrics pay no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in [`Tracer::spans`].
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Workload repetition the span belongs to (spans of one run share it).
    pub run: u32,
    /// Layer metric name, e.g. `kernel.run`.
    pub name: &'static str,
    /// Free-form detail (table cell label, phase).
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in host seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every later span with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, label: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            label: label.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, label);
        let r = f();
        self.exit(open);
        r
    }

    /// Closes every span left open by an unwinding repetition.
    pub fn close_all(&mut self) {
        while let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .map(|s| ((s.end_ns - s.start_ns) as f64 - child_ns[s.id] as f64) / 1e9)
        .collect()
}

/// Nesting violations: a child outside its parent's interval, or a
/// negative self time. Empty when the span tree is well formed.
pub fn nesting_errors(spans: &[Span]) -> Vec<String> {
    let mut errs = Vec::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            errs.push(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent.map(|p| &spans[p]) {
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                errs.push(format!(
                    "span {} ({}) escapes parent {} ({})",
                    s.id, s.name, p.id, p.name
                ));
            }
        }
    }
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if t < 0.0 {
            errs.push(format!(
                "span {} ({}) has negative self time {t}",
                s.id, s.name
            ));
        }
    }
    errs
}

/// Total and self seconds per span name, in name order.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += t;
        e.2 += 1;
    }
    out
}

/// Total seconds of every span named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}
