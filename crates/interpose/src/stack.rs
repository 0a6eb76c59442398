//! Composed interposition: [`InterposerStack`] layers host-side hooks
//! over one base mechanism.
//!
//! A stack is written as a registry spec — `base+layer+layer` — and
//! resolves through [`crate::registry::by_name_spec`] exactly like a bare
//! mechanism. The base does the actual interposition (SUD, ptrace,
//! rewriting, K23); the layers are priority-ordered hooks the kernel runs
//! at the base's forwarding sites, each receiving a
//! [`sim_kernel::stack::Chain`] handle with `call_next()` (invoke the
//! next layer) and `call_real()` (forward to the kernel, skipping the
//! rest). Per-layer propagation flags decide whether a layer follows
//! `fork` children and survives `execve` — the P1a env-clearing bypass
//! applies to the *base*: when the preloaded handler library is gone
//! after an exec, no forwarding sites resolve and the whole chain is
//! inert regardless of the masks.
//!
//! Built-in layers:
//!
//! | layer | priority | fork | exec | behavior |
//! |---|---|---|---|---|
//! | `sandbox` | 200 | ✓ | ✓ | denies syscall 500 with `EPERM`, short-circuiting the chain |
//! | `tracer` | 100 | ✓ | ✓ | counts per-(pid, nr) entries, passes everything through |
//! | `recorder` | 50 | ✓ | ✗ | logs (nr, ret); **naively marshals control transfers** — the nested-sigreturn composition hazard |
//! | `recorder-safe` | 50 | ✓ | ✗ | logs (nr, ret); control-transfer aware |
//! | `passthrough` | 0 | ✓ | ✓ | nothing: zero overhead, no span — observationally invisible |

use crate::Interposer;
use sim_kernel::nr;
use sim_kernel::stack::{Chain, ChainFilter, LayerHook, StackLayer, StackSession, SysResult, SyscallCtx};
use sim_kernel::{Kernel, Pid};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{LazyLock, Mutex};

/// The sentinel a naive recorder "reads back" after a control transfer —
/// the poisoned value that triggers the composition-hazard kill.
pub const RECORD_POISON: u64 = 0xdead_beef_0bad_f00d;

/// Static metadata of one built-in layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerInfo {
    /// Spec segment name.
    pub name: &'static str,
    /// Dispatch priority: higher runs earlier (outermost).
    pub priority: i32,
    /// Follows forked children.
    pub propagate_fork: bool,
    /// Survives `execve`.
    pub propagate_exec: bool,
    /// Wrapper cycles charged per chained syscall.
    pub overhead: u64,
    /// Emits a `stack/<name>` simprof span per chained syscall.
    pub span: bool,
}

/// All built-in layers (spec-resolvable via [`crate::by_name_spec`]).
pub const LAYERS: [LayerInfo; 5] = [
    LayerInfo {
        name: "sandbox",
        priority: 200,
        propagate_fork: true,
        propagate_exec: true,
        overhead: 30,
        span: true,
    },
    LayerInfo {
        name: "tracer",
        priority: 100,
        propagate_fork: true,
        propagate_exec: true,
        overhead: 40,
        span: true,
    },
    LayerInfo {
        name: "recorder",
        priority: 50,
        propagate_fork: true,
        propagate_exec: false,
        overhead: 60,
        span: true,
    },
    LayerInfo {
        name: "recorder-safe",
        priority: 50,
        propagate_fork: true,
        propagate_exec: false,
        overhead: 60,
        span: true,
    },
    LayerInfo {
        name: "passthrough",
        priority: 0,
        propagate_fork: true,
        propagate_exec: true,
        overhead: 0,
        span: false,
    },
];

/// Whether `name` is a known layer.
pub fn layer_known(name: &str) -> bool {
    LAYERS.iter().any(|l| l.name == name)
}

fn layer_info(name: &str) -> Option<LayerInfo> {
    LAYERS.iter().copied().find(|l| l.name == name)
}

// ---- layer implementations ----------------------------------------------

/// Counts chained syscalls per (pid, nr); never touches the result.
#[derive(Debug, Default)]
pub struct TracerLayer {
    /// (pid, nr) → chained-entry count.
    pub counts: RefCell<BTreeMap<(Pid, u64), u64>>,
}

impl TracerLayer {
    /// Chained entries of syscall `nr` by `pid`.
    pub fn count(&self, pid: Pid, nr_: u64) -> u64 {
        self.counts.borrow().get(&(pid, nr_)).copied().unwrap_or(0)
    }

    /// All chained entries by `pid`.
    pub fn total(&self, pid: Pid) -> u64 {
        self.counts
            .borrow()
            .iter()
            .filter(|((p, _), _)| *p == pid)
            .map(|(_, c)| *c)
            .sum()
    }
}

impl LayerHook for TracerLayer {
    fn on_syscall(&self, k: &mut Kernel, ctx: &mut SyscallCtx, chain: &mut Chain) -> SysResult {
        *self.counts.borrow_mut().entry((ctx.pid, ctx.nr)).or_insert(0) += 1;
        chain.call_next(k, ctx)
    }
}

/// Logs (pid, nr, ret) per chained syscall. In naive mode it treats
/// *every* outcome as a value to marshal: after a control transfer
/// (`rt_sigreturn`) it still "reads back a return value", reproducing the
/// nested-sigreturn composition hazard (its epilogue runs on the frame
/// the sigreturn abandoned — the kernel kills the process). The safe
/// variant passes control transfers through untouched.
#[derive(Debug)]
pub struct RecorderLayer {
    safe: bool,
    /// Logged completions: (pid, nr, ret).
    pub log: RefCell<Vec<(Pid, u64, u64)>>,
}

impl RecorderLayer {
    fn new(safe: bool) -> RecorderLayer {
        RecorderLayer {
            safe,
            log: RefCell::new(Vec::new()),
        }
    }

    /// Logged entries for `pid`.
    pub fn entries(&self, pid: Pid) -> usize {
        self.log.borrow().iter().filter(|(p, _, _)| *p == pid).count()
    }
}

impl LayerHook for RecorderLayer {
    fn on_syscall(&self, k: &mut Kernel, ctx: &mut SyscallCtx, chain: &mut Chain) -> SysResult {
        match chain.call_next(k, ctx) {
            SysResult::Value(v) => {
                self.log.borrow_mut().push((ctx.pid, ctx.nr, v));
                SysResult::Value(v)
            }
            SysResult::Control if self.safe => SysResult::Control,
            SysResult::Control => {
                self.log.borrow_mut().push((ctx.pid, ctx.nr, RECORD_POISON));
                SysResult::Value(RECORD_POISON)
            }
        }
    }
}

/// Denies one syscall number with `EPERM`, short-circuiting the chain
/// (the layers below it and the kernel never see the call); everything
/// else passes through. The default policy denies the unknown-syscall
/// probe nr 500.
#[derive(Debug)]
pub struct SandboxLayer {
    /// The denied syscall number.
    pub deny_nr: u64,
}

impl LayerHook for SandboxLayer {
    fn on_syscall(&self, k: &mut Kernel, ctx: &mut SyscallCtx, chain: &mut Chain) -> SysResult {
        if ctx.nr == self.deny_nr {
            return SysResult::Value(nr::err(nr::EPERM));
        }
        chain.call_next(k, ctx)
    }
}

/// Does nothing at all: `call_next` immediately, zero overhead, no span.
/// The byte-identity proptest's layer — a single-passthrough stack must
/// be observationally indistinguishable from the bare base.
#[derive(Debug, Default)]
pub struct PassthroughLayer;

impl LayerHook for PassthroughLayer {
    fn on_syscall(&self, k: &mut Kernel, ctx: &mut SyscallCtx, chain: &mut Chain) -> SysResult {
        chain.call_next(k, ctx)
    }
}

/// A built layer instance: shared between the kernel session (which
/// dispatches it) and the stack (which exposes its state to callers).
#[derive(Clone)]
pub enum LayerHandle {
    /// See [`PassthroughLayer`].
    Passthrough(Rc<PassthroughLayer>),
    /// See [`TracerLayer`].
    Tracer(Rc<TracerLayer>),
    /// See [`RecorderLayer`] (both variants).
    Recorder(Rc<RecorderLayer>),
    /// See [`SandboxLayer`].
    Sandbox(Rc<SandboxLayer>),
}

impl LayerHandle {
    fn build(name: &str) -> LayerHandle {
        match name {
            "passthrough" => LayerHandle::Passthrough(Rc::new(PassthroughLayer)),
            "tracer" => LayerHandle::Tracer(Rc::new(TracerLayer::default())),
            "recorder" => LayerHandle::Recorder(Rc::new(RecorderLayer::new(false))),
            "recorder-safe" => LayerHandle::Recorder(Rc::new(RecorderLayer::new(true))),
            "sandbox" => LayerHandle::Sandbox(Rc::new(SandboxLayer {
                deny_nr: nr::SYS_NONEXISTENT,
            })),
            other => panic!("unknown layer {other:?} (parse_spec admits only known layers)"),
        }
    }

    fn hook(&self) -> Rc<dyn LayerHook> {
        match self {
            LayerHandle::Passthrough(h) => h.clone(),
            LayerHandle::Tracer(h) => h.clone(),
            LayerHandle::Recorder(h) => h.clone(),
            LayerHandle::Sandbox(h) => h.clone(),
        }
    }
}

/// A priority-ordered stack of layers over one base mechanism, itself an
/// [`Interposer`]: `install` installs the base and the kernel-side
/// [`StackSession`]; `spawn` spawns under the base and binds every layer
/// to the new process.
pub struct InterposerStack {
    base: Box<dyn Interposer>,
    spec: String,
    layers: Vec<(String, LayerHandle)>,
}

impl InterposerStack {
    /// Wraps `base` with `layer_names` (must all be known — resolve specs
    /// through [`crate::registry::by_name_spec`] for typed errors).
    pub fn new(base: Box<dyn Interposer>, layer_names: &[String]) -> InterposerStack {
        let spec = std::iter::once(base.name().to_string())
            .chain(layer_names.iter().cloned())
            .collect::<Vec<_>>()
            .join("+");
        let layers = layer_names
            .iter()
            .map(|n| (n.clone(), LayerHandle::build(n)))
            .collect();
        InterposerStack { base, spec, layers }
    }

    /// Builds the stack a spec describes (concrete type, so callers keep
    /// access to the layer handles).
    ///
    /// # Errors
    ///
    /// [`crate::SpecError`] when the spec does not parse or names no
    /// layers (a bare mechanism is not a stack).
    pub fn from_spec(spec: &str) -> Result<InterposerStack, crate::SpecError> {
        let (base, layers) = crate::registry::parse_spec(spec)?;
        if layers.is_empty() {
            return Err(crate::SpecError::Empty);
        }
        let base_ip = crate::registry::by_name_spec(&base)?;
        Ok(InterposerStack::new(base_ip, &layers))
    }

    /// The base mechanism.
    pub fn base(&self) -> &dyn Interposer {
        self.base.as_ref()
    }

    /// The tracer layer's handle, when the spec carries one.
    pub fn tracer(&self) -> Option<Rc<TracerLayer>> {
        self.layers.iter().find_map(|(_, h)| match h {
            LayerHandle::Tracer(t) => Some(t.clone()),
            _ => None,
        })
    }

    /// The recorder layer's handle (either variant), when present.
    pub fn recorder(&self) -> Option<Rc<RecorderLayer>> {
        self.layers.iter().find_map(|(_, h)| match h {
            LayerHandle::Recorder(r) => Some(r.clone()),
            _ => None,
        })
    }

    /// The sandbox layer's handle, when present.
    pub fn sandbox(&self) -> Option<Rc<SandboxLayer>> {
        self.layers.iter().find_map(|(_, h)| match h {
            LayerHandle::Sandbox(s) => Some(s.clone()),
            _ => None,
        })
    }
}

impl Interposer for InterposerStack {
    fn name(&self) -> &'static str {
        intern(&self.spec)
    }

    fn label(&self) -> String {
        self.spec.clone()
    }

    fn install(&self, k: &mut Kernel) {
        self.base.install(k);
        let defs: Vec<StackLayer> = self
            .layers
            .iter()
            .map(|(name, handle)| {
                let info = layer_info(name).expect("layers validated at construction");
                StackLayer {
                    name: name.clone(),
                    priority: info.priority,
                    propagate_fork: info.propagate_fork,
                    propagate_exec: info.propagate_exec,
                    overhead: info.overhead,
                    span: info.span,
                    hook: handle.hook(),
                }
            })
            .collect();
        let syms = self.base.chain_symbols();
        let filter = if syms.is_empty() {
            ChainFilter::All
        } else {
            ChainFilter::Sites(Rc::new(syms))
        };
        k.install_stack(StackSession::new(self.spec.clone(), defs, filter));
    }

    fn spawn(
        &self,
        k: &mut Kernel,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> Result<Pid, i64> {
        let pid = self.base.spawn(k, path, argv, env)?;
        k.bind_stack(pid);
        Ok(pid)
    }

    fn forward_symbols(&self) -> Vec<String> {
        self.base.forward_symbols()
    }

    fn chain_symbols(&self) -> Vec<String> {
        self.base.chain_symbols()
    }

    fn interposed_count(&self, k: &Kernel, pid: Pid) -> u64 {
        self.base.interposed_count(k, pid)
    }

    fn coverage(&self) -> sim_kernel::AuditSpec {
        // Layers add behavior on top of the base's interception — they
        // never widen which syscalls are caught — so the stack's coverage
        // claim is the base's, relabeled with the full spec. Per-layer
        // participation is accounted separately via the ledger's
        // `layer_hits`.
        sim_kernel::AuditSpec {
            mechanism: self.spec.clone(),
            ..self.base.coverage()
        }
    }
}

/// Interns a spec so [`Interposer::name`] can hand out `&'static str` for
/// dynamically composed names. Bounded by the number of distinct specs a
/// process resolves.
fn intern(s: &str) -> &'static str {
    static INTERNED: LazyLock<Mutex<Vec<&'static str>>> = LazyLock::new(|| Mutex::new(Vec::new()));
    let mut v = INTERNED.lock().unwrap();
    if let Some(e) = v.iter().find(|e| **e == s) {
        return e;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    v.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_is_consistent() {
        for info in LAYERS {
            assert!(layer_known(info.name));
            // Every layer builds.
            let _ = LayerHandle::build(info.name);
        }
        assert!(!layer_known("nope"));
        // The invisibility layer really is invisible.
        let p = layer_info("passthrough").unwrap();
        assert_eq!(p.overhead, 0);
        assert!(!p.span);
    }

    #[test]
    fn stack_composes_spec_and_handles() {
        let s = InterposerStack::from_spec("sud+tracer+recorder").expect("parses");
        assert_eq!(s.label(), "sud+tracer+recorder");
        assert_eq!(s.name(), "sud+tracer+recorder");
        assert!(s.tracer().is_some());
        assert!(s.recorder().is_some());
        assert!(s.sandbox().is_none());
        assert_eq!(s.base().name(), "sud");
        // A bare mechanism is not a stack.
        assert!(InterposerStack::from_spec("sud").is_err());
    }
}
