//! # apps — the guest workloads
//!
//! Every application the paper evaluates, rebuilt as guest programs:
//! five coreutils ([`coreutils`]), the four macrobenchmark servers
//! ([`servers`]: nginx-sim, lighttpd-sim, redis-sim, sqlite-sim), the load
//! generators ([`clients`]: wrk-sim, redis-bench-sim), and the measurement
//! harness ([`workloads`]).

pub mod clients;
pub mod coreutils;
pub mod servers;
pub mod workloads;

use std::sync::OnceLock;

pub use clients::{build_loadgen, build_redis_bench, build_wrk, install_clients};
pub use coreutils::{install_coreutils, COREUTILS, EXPECTED_SITES};
pub use servers::{
    build_epoll_server, build_lighttpd, build_nginx, build_poll_server, build_redis, build_sqlite,
    install_servers, EPOLL_PORT, POLL_PORT, SCALE_MAX_CONNS,
};
pub use workloads::{
    install_spec_config, run_macro, run_scale, run_sqlite, scale_spec, sqlite_cfg, table6_specs,
    MacroError, MacroResult, MacroSpec, ScaleRun, CONNECTED_MARKER, RX_LOG,
};

/// Installs every application and its data into a VFS. The world is
/// built and serialized once per process; every VFS shares its file bytes
/// until it writes them ([`sim_kernel::Vfs::overlay`]).
///
/// # Panics
///
/// Panics if the VFS rejects one of the world's paths (an immutable
/// target).
pub fn install_world(vfs: &mut sim_kernel::Vfs) {
    static WORLD: OnceLock<sim_kernel::Vfs> = OnceLock::new();
    let world = WORLD.get_or_init(|| {
        let mut world = sim_kernel::Vfs::new();
        coreutils::install_coreutils(&mut world);
        servers::install_servers(&mut world);
        clients::install_clients(&mut world);
        world
    });
    vfs.overlay(world)
        .unwrap_or_else(|e| panic!("installing the guest world failed: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use interpose::Native;
    use sim_loader::boot_kernel;

    #[test]
    fn world_files_stay_private_to_the_vfs_that_writes_them() {
        let nginx = "/usr/bin/nginx-sim";
        let mut a = sim_kernel::Vfs::new();
        install_world(&mut a);
        let mut b = sim_kernel::Vfs::new();
        install_world(&mut b);
        let image = b.read_file(nginx).unwrap().to_vec();
        assert_eq!(a.read_file(nginx).unwrap().as_ptr(), b.read_file(nginx).unwrap().as_ptr());
        a.write_at(nginx, 0, b"X").unwrap();
        a.append_file(nginx, b"Y").unwrap();
        a.write_file("/home/user/a.txt", b"Z").unwrap();
        assert_eq!(b.read_file(nginx).unwrap(), &image[..]);
        let mut c = sim_kernel::Vfs::new();
        install_world(&mut c);
        assert_eq!(c.read_file(nginx).unwrap(), &image[..]);
        assert_eq!(c.read_file("/home/user/a.txt").unwrap(), b"alpha file contents\n");
        assert!(c.is_dir("/data"));
    }

    #[test]
    fn nginx_serves_wrk_natively() {
        let mut k = boot_kernel();
        install_world(&mut k.vfs);
        let specs = table6_specs(100); // small request counts
        let spec = &specs[0];
        let res = run_macro(&mut k, &Native, spec, 2_000_000_000_000).expect("macro run");
        assert!(res.requests >= 8);
        assert!(res.cycles > 0);
        assert!(res.throughput() > 0.0);
    }

    #[test]
    fn nginx_multi_worker_serves_all_clients() {
        let mut k = boot_kernel();
        install_world(&mut k.vfs);
        let specs = table6_specs(100);
        let spec = &specs[2]; // 10 workers
        assert_eq!(spec.clients, 10);
        let res = run_macro(&mut k, &Native, spec, 2_000_000_000_000).expect("macro run");
        assert_eq!(res.requests, spec.total_requests);
    }

    #[test]
    fn lighttpd_and_4kb_responses_work() {
        let mut k = boot_kernel();
        install_world(&mut k.vfs);
        let specs = table6_specs(100);
        let spec = &specs[5]; // lighttpd 1 worker 4KB
        let res = run_macro(&mut k, &Native, spec, 2_000_000_000_000).expect("macro run");
        assert!(res.cycles > 0);
    }

    #[test]
    fn redis_single_and_six_io_threads() {
        for idx in [8usize, 9] {
            let mut k = boot_kernel();
            install_world(&mut k.vfs);
            let specs = table6_specs(100);
            let spec = &specs[idx];
            let res =
                run_macro(&mut k, &Native, spec, 2_000_000_000_000).unwrap_or_else(|e| {
                    panic!("{}: {e:?}", spec.name);
                });
            assert_eq!(res.requests, spec.total_requests, "{}", spec.name);
        }
    }

    #[test]
    fn epoll_server_serves_scaled_load() {
        let mut k = boot_kernel();
        install_world(&mut k.vfs);
        let spec = scale_spec(true, 1, 64, 16, 128, 2, 2, true);
        let run = run_scale(&mut k, &Native, &spec, 2_000_000_000_000).expect("scale run");
        assert_eq!(run.requests, 128);
        assert!(run.t1 > run.t0);
        // Every response was recorded: 128 requests x 2x64 bytes.
        assert_eq!(k.vfs.read_file(CONNECTED_MARKER).map(|f| f.len()).ok(), Some(0));
        assert_eq!(k.vfs.read_file(RX_LOG).map(|f| f.len()).ok(), Some(128 * 128));
    }

    #[test]
    fn epoll_server_prefork_workers_share_listener() {
        let mut k = boot_kernel();
        install_world(&mut k.vfs);
        let spec = scale_spec(true, 4, 32, 32, 96, 1, 2, true);
        let run = run_scale(&mut k, &Native, &spec, 2_000_000_000_000).expect("scale run");
        assert_eq!(run.requests, 96);
        assert_eq!(k.vfs.read_file(RX_LOG).map(|f| f.len()).ok(), Some(96 * 64));
    }

    #[test]
    fn poll_server_serves_identical_byte_stream() {
        let stream = |epoll: bool| {
            let mut k = boot_kernel();
            install_world(&mut k.vfs);
            let spec = scale_spec(epoll, 1, 48, 8, 64, 3, 2, true);
            run_scale(&mut k, &Native, &spec, 2_000_000_000_000).expect("scale run");
            k.vfs.read_file(RX_LOG).expect("rx log").to_vec()
        };
        let ep = stream(true);
        let po = stream(false);
        assert_eq!(ep.len(), 64 * 192);
        // Same response protocol, different multiplexing: the client-side
        // byte stream must not be able to tell the variants apart.
        assert_eq!(ep, po);
    }

    #[test]
    fn sqlite_completes() {
        let mut k = boot_kernel();
        install_world(&mut k.vfs);
        let cycles = run_sqlite(&mut k, &Native, &sqlite_cfg(20), 2_000_000_000_000).unwrap();
        assert!(cycles > 0);
        assert!(k.vfs.exists("/data/test.db"));
    }

    #[test]
    fn bigger_responses_cost_more_cycles_per_request() {
        // 0 KB vs 4 KB nginx: absolute throughput must drop with size, as
        // in Table 6's native column.
        let thr = |idx: usize| {
            let mut k = boot_kernel();
            install_world(&mut k.vfs);
            let specs = table6_specs(50);
            run_macro(&mut k, &Native, &specs[idx], 2_000_000_000_000)
                .unwrap()
                .throughput()
        };
        let t0 = thr(0);
        let t4 = thr(1);
        assert!(t4 < t0, "0KB {t0:.1} vs 4KB {t4:.1}");
    }
}
