//! Small-scale shape assertions mirroring the headline results of the
//! paper's evaluation (the full regenerations live in `cargo run -p bench`).

use interpose::Native;

/// Table 5 shape: the overhead ordering of the microbenchmark.
#[test]
fn micro_overheads_are_ordered_like_table5() {
    let n = 4_000;
    let native = bench::micro::per_iteration_cycles(bench::Config::Native, n);
    let zp = bench::micro::per_iteration_cycles(bench::Config::ZpolineDefault, n) / native;
    let zpu = bench::micro::per_iteration_cycles(bench::Config::ZpolineUltra, n) / native;
    let lp = bench::micro::per_iteration_cycles(bench::Config::Lazypoline, n) / native;
    let k23 = bench::micro::per_iteration_cycles(bench::Config::K23Default, n) / native;
    let k23u = bench::micro::per_iteration_cycles(bench::Config::K23Ultra, n) / native;
    let sudni = bench::micro::per_iteration_cycles(bench::Config::SudNoInterpose, n) / native;
    let sud = bench::micro::per_iteration_cycles(bench::Config::Sud, n) / native;

    // zpoline fastest; K23-default between SUD-no-interposition and
    // lazypoline; K23-ultra slightly above lazypoline; SUD an order of
    // magnitude out — exactly the Table 5 ordering.
    assert!(zp < zpu, "zpoline default < ultra");
    assert!(zpu < k23, "zpoline-ultra < K23-default ({zpu:.3} vs {k23:.3})");
    assert!(sudni < k23, "slow path alone < K23-default");
    assert!(k23 < lp, "K23-default beats lazypoline ({k23:.3} vs {lp:.3})");
    assert!(lp < k23u * 1.1, "lazypoline ~ K23-ultra");
    assert!(sud > 10.0, "SUD is an order of magnitude slower ({sud:.1})");
    // And absolute closeness to the paper (±0.05 on the small ratios).
    for (got, paper) in [
        (zp, 1.1267),
        (zpu, 1.1576),
        (lp, 1.3801),
        (k23, 1.2788),
        (k23u, 1.3919),
        (sudni, 1.2269),
    ] {
        assert!((got - paper).abs() < 0.08, "got {got:.4}, paper {paper:.4}");
    }
}

/// Table 6 shape on one row: rewriting-based interposers stay near native;
/// SUD collapses.
#[test]
fn macro_relative_throughput_shape() {
    let specs = apps::table6_specs(60);
    let spec = &specs[0]; // nginx 1 worker 0KB
    let thr = |c: bench::Config| {
        let log = if c.needs_offline() {
            Some(bench::macros_::collect_offline_log(spec))
        } else {
            None
        };
        bench::macros_::macro_throughput(spec, c, &log)
    };
    let native = {
        let mut k = sim_loader::boot_kernel();
        apps::install_world(&mut k.vfs);
        apps::run_macro(&mut k, &Native, spec, 40_000_000_000_000)
            .unwrap()
            .throughput()
    };
    let zp = thr(bench::Config::ZpolineDefault) / native;
    let k23 = thr(bench::Config::K23Default) / native;
    let sud = thr(bench::Config::Sud) / native;
    assert!(zp > 0.97, "zpoline near native: {zp:.3}");
    assert!(k23 > 0.95, "K23 near native: {k23:.3}");
    assert!(sud < 0.70, "SUD collapses: {sud:.3}");
    assert!(zp > k23, "zpoline above K23 on the fast path");
}

/// Table 2: every row's site count matches the paper exactly. The logs
/// record sites, not load, so the servers are driven at scale 200.
#[test]
fn offline_site_counts_match_table2() {
    for (app, expected) in apps::EXPECTED_SITES {
        let got = bench::table2::sites_for_simple(app);
        assert_eq!(got, expected, "{app}");
    }
    assert_eq!(bench::table2::sites_for_sqlite(200), 20, "sqlite-sim");
    let specs = apps::table6_specs(200);
    for (idx, server, expected) in [
        (2, "nginx-sim", 43),
        (6, "lighttpd-sim", 44),
        (9, "redis-sim", 92),
    ] {
        assert_eq!(
            bench::table2::sites_for_server(&specs[idx]),
            expected,
            "{server}"
        );
    }
}
