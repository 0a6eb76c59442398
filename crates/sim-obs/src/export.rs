//! Exporters: Chrome trace-event JSON (loadable in Perfetto or
//! `about:tracing`) and a plain-text summary. Both are pure functions of
//! the [`Recorder`] state — timestamps are sim-cycles, never wall time —
//! so identical runs export byte-identical output.

use crate::{Event, EventKind, Hist, Recorder};
use sjson::Value;
use std::fmt::Write as _;

impl Recorder {
    /// All ring events merged into one deterministic order: sorted by
    /// `(clock, pid, tid, seq)`. The recorder-wide sequence number breaks
    /// clock ties, so a begin/end pair emitted at the same clock (e.g. a
    /// zero-latency SyscallExit followed by the next SyscallEnter) keeps
    /// its emission order regardless of which rings the events sat in.
    pub fn merged_events(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = self
            .rings
            .values()
            .flat_map(|r| r.events.iter().copied())
            .collect();
        evs.sort_by_key(|e| (e.clock, e.pid, e.tid, e.seq));
        evs
    }

    /// Chrome trace-event JSON object (`{"traceEvents": [...]}`).
    /// Syscalls become "B"/"E" duration pairs on the issuing thread's
    /// track; everything else becomes thread-scoped "i" instants.
    pub fn chrome_trace(&self) -> Value {
        let trace_events: Vec<Value> = self
            .merged_events()
            .iter()
            .map(|e| self.trace_event(e))
            .collect();
        Value::object(vec![
            ("traceEvents", Value::Array(trace_events)),
            ("displayTimeUnit", Value::Str("ns".into())),
            (
                "otherData",
                Value::object(vec![
                    ("clock_unit", Value::Str("sim-cycles".into())),
                    ("recorded_events", Value::UInt(self.total_events())),
                    ("dropped_events", Value::UInt(self.total_dropped())),
                    (
                        "paths",
                        Value::Array(
                            self.paths
                                .iter()
                                .map(|p| Value::Str(p.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// [`Recorder::chrome_trace`] pretty-printed to a string.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace().to_string_pretty()
    }

    fn trace_event(&self, e: &Event) -> Value {
        let (ph, name, cat, args): (&str, String, &str, Vec<(&str, Value)>) = match e.kind {
            EventKind::SyscallEnter {
                nr,
                site,
                path,
                name,
            } => (
                "B",
                name.to_string(),
                "syscall",
                vec![
                    ("nr", Value::UInt(nr)),
                    ("site", Value::UInt(site)),
                    ("path", Value::Str(self.path_label(path).to_string())),
                ],
            ),
            EventKind::SyscallExit {
                ret, latency, name, ..
            } => (
                "E",
                name.to_string(),
                "syscall",
                vec![
                    ("ret", Value::UInt(ret)),
                    ("latency", Value::UInt(latency)),
                ],
            ),
            EventKind::Sigsys { nr, site } => (
                "i",
                "SIGSYS".to_string(),
                "signal",
                vec![("nr", Value::UInt(nr)), ("site", Value::UInt(site))],
            ),
            EventKind::TracerStop { kind } => (
                "i",
                format!("ptrace-stop:{kind}"),
                "ptrace",
                vec![],
            ),
            EventKind::ContextSwitch => ("i", "ctx-switch".to_string(), "sched", vec![]),
            EventKind::SudArm { selector_addr } => (
                "i",
                "sud-arm".to_string(),
                "sud",
                vec![("selector_addr", Value::UInt(selector_addr))],
            ),
            EventKind::SudSelectorFlip { value } => (
                "i",
                "sud-selector-flip".to_string(),
                "sud",
                vec![("value", Value::UInt(value as u64))],
            ),
            EventKind::PkuFault { addr } => (
                "i",
                "pku-fault".to_string(),
                "signal",
                vec![("addr", Value::UInt(addr))],
            ),
            EventKind::FaultErrno { nr, kind } => (
                "i",
                format!("fault-errno:{kind}"),
                "fault",
                vec![("nr", Value::UInt(nr))],
            ),
            EventKind::FaultSignal { signo, delivered } => (
                "i",
                "fault-signal".to_string(),
                "fault",
                vec![
                    ("signo", Value::UInt(signo)),
                    ("delivered", Value::UInt(delivered as u64)),
                ],
            ),
            EventKind::FaultPermFlip { page, restore } => (
                "i",
                "fault-perm-flip".to_string(),
                "fault",
                vec![
                    ("page", Value::UInt(page)),
                    ("restore", Value::UInt(restore as u64)),
                ],
            ),
            EventKind::TlbFill { page } => (
                "i",
                "tlb-fill".to_string(),
                "engine",
                vec![("page", Value::UInt(page))],
            ),
            EventKind::IcacheRevalidate { rip } => (
                "i",
                "icache-revalidate".to_string(),
                "engine",
                vec![("rip", Value::UInt(rip))],
            ),
            EventKind::IcacheInvalidate { addr, entries } => (
                "i",
                "icache-invalidate".to_string(),
                "engine",
                vec![
                    ("addr", Value::UInt(addr)),
                    ("entries", Value::UInt(entries)),
                ],
            ),
            EventKind::AuditBypass { nr, site, sig } => (
                "i",
                format!("audit-bypass:{sig}"),
                "audit",
                vec![("nr", Value::UInt(nr)), ("site", Value::UInt(site))],
            ),
            EventKind::SpanEnter { stage } => (
                "B",
                self.stage_label(stage).to_string(),
                "stage",
                vec![],
            ),
            EventKind::SpanExit { stage, dur } => (
                "E",
                self.stage_label(stage).to_string(),
                "stage",
                vec![("dur", Value::UInt(dur))],
            ),
        };
        let mut pairs = vec![
            ("name", Value::Str(name)),
            ("cat", Value::Str(cat.into())),
            ("ph", Value::Str(ph.into())),
            ("ts", Value::UInt(e.clock)),
            ("pid", Value::UInt(e.pid)),
            ("tid", Value::UInt(e.tid)),
        ];
        if ph == "i" {
            pairs.push(("s", Value::Str("t".into())));
        }
        if !args.is_empty() {
            pairs.push(("args", Value::object(args)));
        }
        Value::object(pairs)
    }

    /// Counter snapshot as JSON, for embedding in benchmark payloads so
    /// perf changes regress-check hit rates, not just throughput.
    pub fn counters_json(&self) -> Value {
        let c = &self.counters;
        let hist = |h: &Hist| {
            Value::object(vec![
                ("count", Value::UInt(h.count)),
                ("mean", Value::Float(h.mean())),
                ("max", Value::UInt(h.max)),
            ])
        };
        let latency: Vec<Value> = self
            .latency
            .iter()
            .map(|(path, h)| {
                Value::object(vec![
                    ("path", Value::Str(self.path_label(*path).to_string())),
                    ("count", Value::UInt(h.count)),
                    ("mean_cycles", Value::Float(h.mean())),
                    ("p50_cycles", Value::UInt(h.quantile(0.5))),
                    ("max_cycles", Value::UInt(h.max)),
                ])
            })
            .collect();
        Value::object(vec![
            ("tlb_hits", Value::UInt(c.tlb_hits)),
            ("tlb_fills", Value::UInt(c.tlb_fills)),
            ("tlb_hit_rate", Value::Float(c.tlb_hit_rate())),
            ("page_runs", hist(&c.page_runs)),
            ("icache_fresh_hits", Value::UInt(c.icache_fresh_hits)),
            ("icache_revalidations", Value::UInt(c.icache_revalidations)),
            ("icache_decodes", Value::UInt(c.icache_decodes)),
            ("icache_reuse_rate", Value::Float(c.icache_reuse_rate())),
            ("icache_invalidations", Value::UInt(c.icache_invalidations)),
            (
                "icache_invalidated_entries",
                Value::UInt(c.icache_invalidated_entries),
            ),
            ("icache_flushes", Value::UInt(c.icache_flushes)),
            (
                "icache_flush_coalesced",
                Value::UInt(c.icache_flush_coalesced),
            ),
            ("block_lengths", hist(&c.block_lengths)),
            ("trace_forms", Value::UInt(c.trace_forms)),
            ("trace_entries", Value::UInt(c.trace_entries)),
            ("trace_links", Value::UInt(c.trace_links)),
            ("trace_side_exits", Value::UInt(c.trace_side_exits)),
            ("trace_revalidations", Value::UInt(c.trace_revalidations)),
            ("trace_unlinks", Value::UInt(c.trace_unlinks)),
            ("trace_aborts", Value::UInt(c.trace_aborts)),
            ("trace_lengths", hist(&c.trace_lengths)),
            ("syscalls", Value::UInt(c.syscalls)),
            ("sigsys", Value::UInt(c.sigsys)),
            ("tracer_stops", Value::UInt(c.tracer_stops)),
            ("ctx_switches", Value::UInt(c.ctx_switches)),
            ("sud_arms", Value::UInt(c.sud_arms)),
            ("sud_selector_flips", Value::UInt(c.sud_selector_flips)),
            ("pku_faults", Value::UInt(c.pku_faults)),
            ("faults_errno", Value::UInt(c.faults_errno)),
            ("faults_signal", Value::UInt(c.faults_signal)),
            ("faults_flip", Value::UInt(c.faults_flip)),
            ("ptrace_hooks", Value::UInt(c.ptrace_hooks)),
            ("audit_interposed", Value::UInt(c.audit_interposed)),
            ("audit_bypassed", Value::UInt(c.audit_bypassed)),
            ("audit_double", Value::UInt(c.audit_double)),
            ("recorded_events", Value::UInt(self.total_events())),
            ("dropped_events", Value::UInt(self.total_dropped())),
            ("syscall_latency", Value::Array(latency)),
        ])
    }

    /// Human-readable summary: engine hit rates, event totals, and the
    /// per-interposer syscall latency table.
    pub fn summary(&self) -> String {
        let c = &self.counters;
        let mut s = String::new();
        let _ = writeln!(s, "sim-obs summary");
        let _ = writeln!(s, "===============");
        let _ = writeln!(
            s,
            "events: {} recorded, {} dropped across {} cpu ring(s)",
            self.total_events(),
            self.total_dropped(),
            self.rings.len()
        );
        let _ = writeln!(
            s,
            "kernel: {} syscalls, {} sigsys, {} tracer stops, {} ctx switches",
            c.syscalls, c.sigsys, c.tracer_stops, c.ctx_switches
        );
        let _ = writeln!(
            s,
            "sud/pku: {} arms, {} selector flips, {} pku faults, {} ptrace hooks",
            c.sud_arms, c.sud_selector_flips, c.pku_faults, c.ptrace_hooks
        );
        let _ = writeln!(
            s,
            "injected: {} errno faults, {} signals, {} perm flips",
            c.faults_errno, c.faults_signal, c.faults_flip
        );
        let _ = writeln!(
            s,
            "tlb: {} hits, {} fills ({:.2}% hit rate)",
            c.tlb_hits,
            c.tlb_fills,
            100.0 * c.tlb_hit_rate()
        );
        let _ = writeln!(
            s,
            "icache: {} fresh, {} revalidated, {} decoded ({:.2}% reuse), {} invalidations ({} entries), {} flushes",
            c.icache_fresh_hits,
            c.icache_revalidations,
            c.icache_decodes,
            100.0 * c.icache_reuse_rate(),
            c.icache_invalidations,
            c.icache_invalidated_entries,
            c.icache_flushes
        );
        if c.icache_flush_coalesced > 0 {
            let _ = writeln!(
                s,
                "icache: {} serialization points coalesced (unchanged write stamp)",
                c.icache_flush_coalesced
            );
        }
        let _ = writeln!(
            s,
            "blocks: {} executed, mean {:.1} steps, max {}",
            c.block_lengths.count,
            c.block_lengths.mean(),
            c.block_lengths.max
        );
        // Always emitted (zero on the stepwise oracle) so the counter
        // snapshot has a stable shape tools can diff across engines.
        let _ = writeln!(
            s,
            "traces: {} formed (mean {:.1} ops, max {}), {} entered, {} linked, {} side exits",
            c.trace_forms,
            c.trace_lengths.mean(),
            c.trace_lengths.max,
            c.trace_entries,
            c.trace_links,
            c.trace_side_exits
        );
        let _ = writeln!(
            s,
            "traces: {} revalidated, {} unlinked, {} recordings aborted",
            c.trace_revalidations, c.trace_unlinks, c.trace_aborts
        );
        let _ = writeln!(
            s,
            "page runs: {} accesses, mean {:.1} bytes, max {}",
            c.page_runs.count,
            c.page_runs.mean(),
            c.page_runs.max
        );
        if c.audit_interposed + c.audit_bypassed + c.audit_double > 0 {
            let _ = writeln!(
                s,
                "audit: {} interposed, {} bypassed, {} double-interposed",
                c.audit_interposed, c.audit_bypassed, c.audit_double
            );
            let _ = writeln!(
                s,
                "  {:<24} {:>10} {:>10} {:>10}",
                "path", "interposed", "bypassed", "double"
            );
            for (path, [ip, by, db]) in &self.audit_by_path {
                let _ = writeln!(
                    s,
                    "  {:<24} {:>10} {:>10} {:>10}",
                    self.path_label(*path),
                    ip,
                    by,
                    db
                );
            }
        }
        if !self.latency.is_empty() {
            let _ = writeln!(s, "per-path syscall latency (sim-cycles):");
            let _ = writeln!(
                s,
                "  {:<24} {:>8} {:>10} {:>8} {:>8}",
                "path", "count", "mean", "p50", "max"
            );
            for (path, h) in &self.latency {
                let _ = writeln!(
                    s,
                    "  {:<24} {:>8} {:>10.1} {:>8} {:>8}",
                    self.path_label(*path),
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.max
                );
            }
        }
        s
    }

    /// Profiler samples in folded-stack format (`a;b;c count` lines,
    /// root first), the input format of flamegraph tooling. Aggregated
    /// into a BTreeMap so the output is sorted and deterministic.
    pub fn folded_stacks(&self) -> String {
        let mut agg: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for sample in &self.samples {
            let stack = sample
                .frames
                .iter()
                .rev()
                .map(|&f| self.frame_names[f as usize].as_str())
                .collect::<Vec<_>>()
                .join(";");
            *agg.entry(stack).or_insert(0) += 1;
        }
        let mut s = String::new();
        for (stack, n) in &agg {
            let _ = writeln!(s, "{stack} {n}");
        }
        s
    }

    /// Per-stage cycle table decomposing interposer round-trips (paper
    /// Tables 3/5): explicit spans, guest-range spans (trampolines,
    /// handler regions), and the per-path `/kernel` stages, sorted by
    /// stage name so each interposer's stages group together.
    pub fn stage_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "per-stage critical path (sim-cycles):");
        let _ = writeln!(
            s,
            "  {:<36} {:>8} {:>14} {:>10} {:>10}",
            "stage", "count", "total", "mean", "max"
        );
        let mut rows: Vec<(&str, &Hist)> = self
            .stage_cycles
            .iter()
            .map(|(id, h)| (self.stage_label(*id), h))
            .collect();
        rows.sort_by_key(|r| r.0);
        for (stage, h) in rows {
            let _ = writeln!(
                s,
                "  {:<36} {:>8} {:>14} {:>10.1} {:>10}",
                stage,
                h.count,
                h.sum,
                h.mean(),
                h.max
            );
        }
        s
    }

    /// Minimal flamegraph SVG built from the profiler samples: a trie of
    /// frames drawn as stacked rects, widths proportional to sample
    /// counts. Fully deterministic — colors are a pure hash of the frame
    /// name; no randomness or wall time.
    pub fn flamegraph_svg(&self) -> String {
        struct Node {
            children: std::collections::BTreeMap<String, Node>,
            total: u64,
        }
        impl Node {
            fn new() -> Node {
                Node {
                    children: std::collections::BTreeMap::new(),
                    total: 0,
                }
            }
            fn depth(&self) -> usize {
                1 + self
                    .children
                    .values()
                    .map(Node::depth)
                    .max()
                    .unwrap_or(0)
            }
        }
        let mut root = Node::new();
        for sample in &self.samples {
            root.total += 1;
            let mut node = &mut root;
            for &f in sample.frames.iter().rev() {
                let name = self.frame_names[f as usize].clone();
                node = node.children.entry(name).or_insert_with(Node::new);
                node.total += 1;
            }
        }
        const W: f64 = 1200.0;
        const ROW: usize = 16;
        let rows = root.depth();
        let height = (rows + 1) * ROW;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{height}\" \
             font-family=\"monospace\" font-size=\"11\">"
        );
        let _ = writeln!(
            s,
            "<text x=\"4\" y=\"12\">simprof flamegraph — {} samples (widths in samples, not wall time)</text>",
            root.total
        );
        // FNV-1a of the frame name picks a stable warm hue.
        fn color(name: &str) -> String {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let r = 200 + (h % 56) as u8;
            let g = 80 + ((h >> 8) % 120) as u8;
            let b = 40 + ((h >> 16) % 40) as u8;
            format!("rgb({r},{g},{b})")
        }
        fn draw(s: &mut String, node: &Node, x: f64, width: f64, depth: usize, root_total: u64) {
            let mut cx = x;
            for (name, child) in &node.children {
                let w = width * child.total as f64 / node.total.max(1) as f64;
                let y = (depth + 1) * ROW;
                let _ = writeln!(
                    s,
                    "<rect x=\"{cx:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{h}\" \
                     fill=\"{fill}\" stroke=\"white\"><title>{name} ({n} of {t} samples)</title></rect>",
                    h = ROW - 1,
                    fill = color(name),
                    n = child.total,
                    t = root_total,
                );
                if w > 40.0 {
                    let _ = writeln!(
                        s,
                        "<text x=\"{tx:.1}\" y=\"{ty}\">{label}</text>",
                        tx = cx + 2.0,
                        ty = y + ROW - 4,
                        label = svg_escape_truncate(name, w),
                    );
                }
                draw(s, child, cx, w, depth + 1, root_total);
                cx += w;
            }
        }
        draw(&mut s, &root, 0.0, W, 0, root.total);
        let _ = writeln!(s, "</svg>");
        s
    }
}

/// Escapes XML specials and truncates to what fits in `width` pixels.
fn svg_escape_truncate(name: &str, width: f64) -> String {
    let max_chars = (width / 7.0) as usize;
    let mut out = String::new();
    for ch in name.chars().take(max_chars) {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{
        disable, enable, profile_sample, span_enter, span_exit, syscall_enter, syscall_exit,
        tracer_stop, EventKind, ObsConfig,
    };

    #[test]
    fn chrome_trace_round_trips_through_sjson() {
        enable(ObsConfig::default());
        crate::set_cpu(1, 1);
        syscall_enter(100, 0, 0x1000, "app", "read");
        syscall_exit(250, 0, 42, "read");
        tracer_stop(300, "syscall-enter");
        let rec = disable().expect("recorder");
        let json = rec.chrome_trace_json();
        let parsed = sjson::parse(json.as_bytes()).expect("valid json");
        let evs = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents");
        assert_eq!(evs.len(), 3);
        let begins = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .count();
        assert_eq!(begins, 1, "one syscall span opens");
        assert_eq!(
            evs[0].get("ts").and_then(|t| t.as_u64()),
            Some(100),
            "timestamps are sim-cycles"
        );
        // Exporting twice is byte-identical (pure function of state).
        assert_eq!(json, rec.chrome_trace_json());
    }

    /// Zero-latency syscalls and back-to-back spans produce B/E events
    /// at equal clocks; the seq tiebreak must keep every track's begin/
    /// end stream properly paired (depth never goes negative).
    #[test]
    fn merged_events_keep_begin_end_pairs_ordered_at_equal_clocks() {
        enable(ObsConfig::default());
        crate::set_cpu(1, 1);
        // Exit and the next enter share clock 100; two CPUs interleave.
        syscall_enter(100, 0, 0x1000, "app", "read");
        syscall_exit(100, 0, 0, "read");
        crate::set_cpu(2, 1);
        syscall_enter(100, 1, 0x2000, "app", "write");
        syscall_exit(100, 1, 0, "write");
        crate::set_cpu(1, 1);
        syscall_enter(100, 2, 0x1000, "app", "close");
        syscall_exit(100, 2, 0, "close");
        span_enter(100, "stage-x");
        span_exit(100);
        let rec = disable().expect("recorder");
        let mut depth: std::collections::BTreeMap<(u64, u64), i64> =
            std::collections::BTreeMap::new();
        let mut prev_key = (0, 0, 0, 0);
        for e in rec.merged_events() {
            let key = (e.clock, e.pid, e.tid, e.seq);
            assert!(key > prev_key, "total order with seq tiebreak");
            prev_key = key;
            let d = depth.entry((e.pid, e.tid)).or_insert(0);
            match e.kind {
                EventKind::SyscallEnter { .. } | EventKind::SpanEnter { .. } => *d += 1,
                EventKind::SyscallExit { .. } | EventKind::SpanExit { .. } => {
                    *d -= 1;
                    assert!(*d >= 0, "an E preceded its B on track {:?}", (e.pid, e.tid));
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "all pairs closed");
    }

    #[test]
    fn folded_stacks_and_flamegraph_are_deterministic() {
        enable(ObsConfig::default());
        crate::set_cpu(1, 1);
        let a = vec!["app:main".to_string(), "app:_start".to_string()];
        let b = vec![
            "libk23.so:k23_handler".to_string(),
            "app:main".to_string(),
            "app:_start".to_string(),
        ];
        profile_sample(10, &a);
        profile_sample(20, &b);
        profile_sample(30, &a);
        span_enter(5, "K23-default/handler");
        span_exit(45);
        let rec = disable().expect("recorder");
        let folded = rec.folded_stacks();
        assert_eq!(
            folded,
            "app:_start;app:main 2\napp:_start;app:main;libk23.so:k23_handler 1\n"
        );
        assert_eq!(folded, rec.folded_stacks(), "pure function of state");
        let svg = rec.flamegraph_svg();
        assert!(svg.starts_with("<svg "));
        assert!(svg.contains("k23_handler"));
        assert_eq!(svg, rec.flamegraph_svg());
        let table = rec.stage_table();
        assert!(table.contains("K23-default/handler"));
        assert!(table.contains("40"), "span duration totalled");
    }

    #[test]
    fn summary_contains_latency_table() {
        enable(ObsConfig::default());
        crate::set_cpu(1, 1);
        syscall_enter(10, 1, 0x1000, "app", "write");
        syscall_exit(90, 1, 1, "write");
        let rec = disable().expect("recorder");
        let s = rec.summary();
        assert!(s.contains("per-path syscall latency"));
        assert!(s.contains("direct"));
        let c = rec.counters_json();
        assert_eq!(c.get("syscalls").and_then(|v| v.as_u64()), Some(1));
    }
}
