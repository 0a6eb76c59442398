//! # interpose — the common interposition API and baseline interposers
//!
//! Defines the [`Interposer`] trait every mechanism in this reproduction
//! implements (native, SUD, ptrace, zpoline, lazypoline, K23, and K23's
//! offline-phase logger), plus the shared guest-assembly emitters for SUD
//! signal handlers and constructors ([`handler_asm`]).
//!
//! Per the paper's methodology (§6.2), every interposer's hook is the
//! *empty interposition function*: it simply forwards the original syscall
//! and returns its result, isolating the cost of the mechanism itself.

pub mod handler_asm;
pub mod ptrace;
pub mod registry;
pub mod stack;
pub mod sud;

pub use ptrace::PtraceInterposer;
pub use registry::{all, by_name_spec, names, register, SpecError};
pub use stack::InterposerStack;
pub use sud::{SudInterposer, SudMode};

use sim_kernel::{Kernel, Pid};

/// A system call interposition mechanism (object-safe: benches, the
/// pitfalls matrix, and the fault explorer all drive
/// `Box<dyn Interposer>` instances obtained from the [`registry`]).
///
/// Implementers: the registered mechanisms ([`Native`], [`SudInterposer`]
/// and [`PtraceInterposer`] here; zpoline, lazypoline and the three K23
/// variants in their own crates); [`InterposerStack`], which a composed
/// spec resolves to; and `k23::OfflineSession`, K23's offline-phase
/// logger, which is not registered: workload drivers run the offline
/// phase through it exactly as they run a measured mechanism.
pub trait Interposer {
    /// Canonical registry name (lowercase; the key
    /// [`registry::by_name_spec`] resolves and the name replay commands
    /// use). For a composed stack this is the full spec
    /// (`"k23+tracer+recorder"`).
    fn name(&self) -> &'static str;

    /// Display label matching the paper's configuration labels
    /// (e.g. `"K23-ultra+"`, `"SUD-no-interposition"`).
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Installs guest libraries into the VFS and registers hostcalls.
    /// Must be called at least once per kernel before
    /// [`Interposer::spawn`].
    ///
    /// **Idempotency contract:** `install` must be safe to call multiple
    /// times on the same kernel — library files overwrite identically,
    /// hostcall registrations replace their previous closure, and no
    /// per-call state accumulates. Drivers rely on this to re-install
    /// after reconfiguring a kernel without tracking whether a mechanism
    /// was installed before.
    fn install(&self, k: &mut Kernel);

    /// Spawns `path` under this interposer.
    ///
    /// # Errors
    ///
    /// Returns `-errno` when the image cannot be loaded.
    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64>;

    /// Fully-qualified symbol names (`"lib basename:symbol"`) of the
    /// handler's *forwarding* `syscall` instructions. Every interposed call
    /// is re-issued from one of these exact sites, so counting executions at
    /// them measures interposition precisely (setup syscalls excluded).
    fn forward_symbols(&self) -> Vec<String> {
        Vec::new()
    }

    /// The forwarding symbols at which a composed stack's chain
    /// dispatches. Defaults to [`Interposer::forward_symbols`];
    /// mechanisms whose forward list includes interposer-internal sites
    /// (fake control syscalls, internal sigreturns) override this to just
    /// the sites that carry *application* syscalls. An empty list means
    /// the chain intercepts every site of a covered process (ptrace,
    /// native).
    fn chain_symbols(&self) -> Vec<String> {
        self.forward_symbols()
    }

    /// How many of `pid`'s executed syscalls were demonstrably interposed.
    fn interposed_count(&self, k: &Kernel, pid: Pid) -> u64 {
        count_at_symbols(k, pid, &self.forward_symbols())
    }

    /// What this mechanism claims to cover — the expectation the
    /// kernel-side audit ledger (`sim_kernel::audit`) checks every
    /// retired syscall against. The default claims nothing: every
    /// syscall audits as `uncovered`, which is correct for the native
    /// baseline and any mechanism that has not yet declared its
    /// coverage.
    fn coverage(&self) -> sim_kernel::AuditSpec {
        sim_kernel::AuditSpec::none(self.name())
    }
}

/// Sums the executed-syscall counts at the sites named by `symbols`,
/// resolved through `pid`'s symbol table. Sites are deduplicated by
/// address first: two stack layers (or two aliases) sharing a forward
/// symbol must not double-count the syscalls issued there.
pub fn count_at_symbols(k: &Kernel, pid: Pid, symbols: &[String]) -> u64 {
    let Some(p) = k.process(pid) else {
        return 0;
    };
    let mut addrs: Vec<u64> = symbols
        .iter()
        .filter_map(|s| p.symbols.get(s).copied())
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs
        .into_iter()
        .map(|addr| p.stats.syscalls_at_site(addr))
        .sum()
}

/// No interposition at all — the native baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Native;

impl Interposer for Native {
    fn name(&self) -> &'static str {
        "native"
    }

    fn install(&self, _k: &mut Kernel) {}

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        k.spawn(path, argv, env, None)
    }
}

/// Registers the handler library's mapped extent as a profiler span
/// range (`"<label>/handler"`), so sampled time spent inside the
/// interposition handler is attributed to the mechanism on the
/// critical-path table. Called from each interposer's init hostcall,
/// once the library is mapped; a no-op when observability is off and
/// idempotent across repeated init calls.
pub fn register_handler_span(k: &Kernel, pid: Pid, lib_path: &str, label: &str) {
    if !sim_obs::enabled() {
        return;
    }
    let Some(p) = k.process(pid) else {
        return;
    };
    let base = lib_path.rsplit('/').next().unwrap_or(lib_path);
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for m in p.space.mappings() {
        if m.name.rsplit('/').next().unwrap_or(&m.name) == base {
            lo = lo.min(m.start);
            hi = hi.max(m.end);
        }
    }
    if lo < hi {
        sim_obs::register_span_range(pid, lo, hi, &format!("{label}/handler"));
    }
}

/// Adds (or extends) `LD_PRELOAD` in an environment vector.
pub fn env_with_preload(env: &[String], lib: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(env.len() + 1);
    let mut done = false;
    for e in env {
        if let Some(v) = e.strip_prefix("LD_PRELOAD=") {
            if v.split(':').any(|p| p == lib) {
                out.push(e.clone());
            } else {
                out.push(format!("LD_PRELOAD={v}:{lib}"));
            }
            done = true;
        } else {
            out.push(e.clone());
        }
    }
    if !done {
        out.push(format!("LD_PRELOAD={lib}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_with_preload_inserts_and_extends() {
        assert_eq!(env_with_preload(&[], "/lib/a.so"), vec!["LD_PRELOAD=/lib/a.so"]);
        let e = vec!["PATH=/bin".to_string(), "LD_PRELOAD=/lib/a.so".to_string()];
        assert_eq!(
            env_with_preload(&e, "/lib/b.so"),
            vec!["PATH=/bin", "LD_PRELOAD=/lib/a.so:/lib/b.so"]
        );
        // Idempotent.
        let e2 = env_with_preload(&e, "/lib/a.so");
        assert_eq!(e2[1], "LD_PRELOAD=/lib/a.so");
    }
}
