//! Smoke self-test: every workload at tiny sizes, once untraced and once
//! traced. Every metric must print with its unit, every output check must
//! pass, and the traced run's spans must nest.

use perfbench::{clock, run, span, Sizes, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

/// `clock::reference_kernel()`'s result.
const REFERENCE_DIGEST: u64 = 0x5c2b_c6b9_ac2d_056a;

fn assert_metrics(line: &str, want: &[(&str, &str)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for (name, unit) in want {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let body = &rest[..rest.find('}').expect("metric closes")];
        let (value, unit_field) = body.split_once(", ").expect("value, unit");
        let value: f64 = value.parse().expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(unit_field, format!("\"unit\": \"{unit}\""), "{name}");
    }
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    for w in Workload::ALL {
        let plain = run(w, DEFAULT_SEED, 0.01, false, Sizes::tiny());
        assert!(
            plain.correct,
            "{} untraced failed:\n{}",
            w.name(),
            plain.report.join("\n")
        );
        assert!(plain.attempted >= 1 && plain.failed == 0);
        assert!(plain.spans.is_empty(), "untraced runs record no spans");
        assert_metrics(&plain.result_json(), &END_TO_END);
        for (name, value, _) in &plain.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end {name} reads {value}",
                w.name()
            );
        }

        let traced = run(w, DEFAULT_SEED, 0.01, true, Sizes::tiny());
        assert!(
            traced.correct,
            "{} traced failed:\n{}",
            w.name(),
            traced.report.join("\n")
        );
        assert_metrics(&traced.result_json(), &PER_LAYER);
        assert_eq!(
            traced.sim_digest,
            plain.sim_digest,
            "{}: tracing changed the simulation",
            w.name()
        );
        assert!(!traced.spans.is_empty(), "{}: no spans", w.name());
        assert_eq!(span::nesting_errors(&traced.spans), Vec::<String>::new());
        for (s, own) in traced.spans.iter().zip(span::self_times(&traced.spans)) {
            assert!(own >= 0.0, "{}: span {} self time {own}", w.name(), s.name);
            if let Some(p) = s.parent.map(|p| &traced.spans[p]) {
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        assert!(traced
            .report
            .iter()
            .any(|l| l.starts_with("tracing overhead:")));
    }
}

#[test]
fn spans_compute_self_time_and_catch_escapes() {
    let mut tr = span::Tracer::new(true);
    let outer = tr.enter("outer", "");
    tr.span("inner", "", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    tr.exit(outer);
    let spans = tr.spans().to_vec();
    let own = span::self_times(&spans);
    assert_eq!(spans[1].parent, Some(0));
    assert!(own[1] >= 0.002 && own[0] >= 0.0 && own[0] < spans[0].secs());
    let mut broken = spans.clone();
    broken[1].start_ns = broken[0].start_ns;
    broken[1].end_ns = broken[0].end_ns + 1;
    assert_eq!(
        span::nesting_errors(&broken).len(),
        2,
        "escape and negative self time"
    );
    assert!(span::Tracer::new(false).spans().is_empty());
}

#[test]
fn reference_kernel_stays_fixed() {
    // The kernel defines the unit of the scaled times: any edit to it
    // breaks comparisons with earlier results, so its digest is pinned.
    assert_eq!(clock::reference_kernel(), REFERENCE_DIGEST);
    let speed = clock::host_speed();
    assert!(speed.is_finite() && speed > 0.0, "host_speed {speed}");
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json beside the benchmark")
        .split_whitespace()
        .collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = Workload::ALL
        .iter()
        .filter(|w| json.contains(&format!("{{\"name\":\"{}\",\"why\"", w.name())))
        .count();
    assert!(listed >= 2, "BENCHMARK.json lists {listed} known workloads");
    let declared = json.matches("{\"name\":").count();
    assert_eq!(declared, listed + END_TO_END.len() + PER_LAYER.len());
}
