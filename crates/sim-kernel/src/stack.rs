//! Stackable interposer chains: the kernel half of composed interposition.
//!
//! A [`StackSession`] holds a priority-ordered list of [`StackLayer`]s
//! sharing one underlying interposition mechanism (the *base*). When a
//! syscall reaches the dispatch step of the slow path from one of the
//! base's forwarding sites (or from anywhere, for bases like ptrace that
//! interpose every site), the kernel routes it through the chain instead
//! of dispatching directly: the outermost active layer's hook runs with a
//! [`Chain`] handle whose [`Chain::call_next`] invokes the next layer
//! (falling through to the real kernel dispatch below the last layer) and
//! whose [`Chain::call_real`] forwards to the kernel immediately,
//! skipping the remaining layers.
//!
//! Chain dispatch preserves the architectural contract of the bare slow
//! path: the real dispatch — including any injected fault — runs **at
//! most once** per chained syscall, at the position in the chain where
//! the first `call_real` (or the fall-through below the innermost layer)
//! reaches it. A layer that never calls down short-circuits the syscall
//! with skip-syscall semantics. Control transfers (`rt_sigreturn`,
//! `execve`, exits, in-kernel blocking) surface to the layers as
//! [`SysResult::Control`]; a layer that "marshals" such an outcome into a
//! value reproduces the nested-sigreturn composition hazard — its
//! epilogue runs on a frame the control transfer already abandoned — and
//! the kernel kills the process with SIGSEGV, deterministically.
//!
//! Per-process layer membership is a bitmask ([`Process::stack_mask`]):
//! bit *i* set means layer *i* of the session is active for that process.
//! `fork` propagates the mask filtered by each layer's
//! [`StackLayer::propagate_fork`]; `execve` filters by
//! [`StackLayer::propagate_exec`] and invalidates the cached chain-site
//! resolution (the new image may not even carry the base's handler
//! library — the P1a env-clearing gap then leaves the chain inert).
//!
//! [`Process::stack_mask`]: crate::process::Process::stack_mask

use crate::kernel::Kernel;
use crate::process::{Pid, Tid};
use crate::sys::Disp;
use sim_fault::FaultKind;
use std::rc::Rc;

/// What a layer hook (or the real dispatch, seen through the chain)
/// produces for the layer above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysResult {
    /// An ordinary return value: the caller resumes after the syscall
    /// instruction with this in `rax`.
    Value(u64),
    /// A control transfer or in-kernel continuation (`rt_sigreturn`,
    /// `execve`, thread exit, a blocked syscall): there is no return
    /// value to marshal, and the saved frame below the chain is gone.
    Control,
}

/// One layer's syscall hook.
///
/// Hooks run on the host, with full mutable kernel access, exactly once
/// per chained syscall (in priority order). A hook that wants the layers
/// below it (and ultimately the kernel) to run calls
/// [`Chain::call_next`]; one that wants to bypass the remaining layers
/// calls [`Chain::call_real`]; one that calls neither short-circuits the
/// syscall with the [`SysResult::Value`] it returns. Returning
/// [`SysResult::Control`] without having called down is a contract
/// violation; the kernel falls back to the real dispatch to preserve
/// forward progress.
pub trait LayerHook {
    /// Handles one syscall flowing through the chain.
    fn on_syscall(&self, k: &mut Kernel, ctx: &mut SyscallCtx, chain: &mut Chain) -> SysResult;
}

/// The syscall being dispatched through the chain.
#[derive(Debug, Clone, Copy)]
pub struct SyscallCtx {
    /// Issuing process.
    pub pid: Pid,
    /// Issuing thread.
    pub tid: Tid,
    /// Syscall number (post tracer-rewrite).
    pub nr: u64,
    /// Arguments (rdi, rsi, rdx, r10, r8, r9).
    pub args: [u64; 6],
    /// Guest address of the `syscall` instruction.
    pub site: u64,
}

/// One layer of a composed interposer stack.
pub struct StackLayer {
    /// Layer name (registry spec segment; also the simprof span suffix).
    pub name: String,
    /// Dispatch priority: higher runs earlier (outermost).
    pub priority: i32,
    /// Whether forked children inherit this layer.
    pub propagate_fork: bool,
    /// Whether the layer survives `execve` of a covered process.
    pub propagate_exec: bool,
    /// Cycles charged on entry per chained syscall (the wrapper cost the
    /// layer adds to every round trip).
    pub overhead: u64,
    /// Whether the chain emits a `stack/<name>` simprof span around the
    /// hook (disabled for layers that must be observationally invisible).
    pub span: bool,
    /// The hook itself.
    pub hook: Rc<dyn LayerHook>,
}

/// Which syscall sites the chain intercepts.
#[derive(Debug, Clone)]
pub enum ChainFilter {
    /// Every dispatch of a covered process (ptrace/native bases, which
    /// have no in-process forwarding sites).
    All,
    /// Only syscalls issued from the base mechanism's forwarding sites,
    /// named as `"lib basename:symbol"` and resolved (then cached) per
    /// process against its symbol table.
    Sites(Rc<Vec<String>>),
}

/// An installed stack: the shared session state the kernel consults on
/// every slow-path dispatch.
pub struct StackSession {
    /// Display label (the full registry spec, e.g. `"k23+tracer+recorder"`).
    pub label: String,
    pub(crate) layers: Rc<Vec<StackLayer>>,
    pub(crate) filter: ChainFilter,
}

impl StackSession {
    /// A session over `layers` (sorted here by descending priority, so
    /// index order is dispatch order) intercepting at `filter`.
    pub fn new(label: String, mut layers: Vec<StackLayer>, filter: ChainFilter) -> StackSession {
        assert!(layers.len() <= 64, "at most 64 layers per stack");
        layers.sort_by_key(|l| std::cmp::Reverse(l.priority));
        StackSession {
            label,
            layers: Rc::new(layers),
            filter,
        }
    }

    /// Bitmask with one bit per layer.
    pub fn full_mask(&self) -> u64 {
        if self.layers.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.layers.len()) - 1
        }
    }

    /// Mask of layers that propagate across `fork`.
    pub fn fork_mask(&self) -> u64 {
        self.flag_mask(|l| l.propagate_fork)
    }

    /// Mask of layers that survive `execve`.
    pub fn exec_mask(&self) -> u64 {
        self.flag_mask(|l| l.propagate_exec)
    }

    fn flag_mask(&self, f: impl Fn(&StackLayer) -> bool) -> u64 {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| f(l))
            .fold(0u64, |m, (i, _)| m | (1u64 << i))
    }

    /// Layer names in dispatch order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name.clone()).collect()
    }
}

/// The dispatch handle a layer hook drives.
///
/// Owns a clone of the session's layer list (so hooks may mutate the
/// kernel freely) plus the position cursor and the not-yet-consumed
/// injected fault destined for the real dispatch.
pub struct Chain {
    layers: Rc<Vec<StackLayer>>,
    /// Indices of the layers active for this process, in dispatch order.
    order: Vec<usize>,
    /// Cursor into `order`: the next layer `call_next` invokes.
    pos: usize,
    injected: Option<FaultKind>,
    /// What the real dispatch completed, once it ran.
    pub(crate) real: Option<Disp>,
    obs: bool,
}

impl Chain {
    pub(crate) fn new(
        layers: Rc<Vec<StackLayer>>,
        order: Vec<usize>,
        injected: Option<FaultKind>,
        obs: bool,
    ) -> Chain {
        Chain {
            layers,
            order,
            pos: 0,
            injected,
            real: None,
            obs,
        }
    }

    /// Invokes the next active layer below the caller; below the last
    /// layer, falls through to the real kernel dispatch.
    pub fn call_next(&mut self, k: &mut Kernel, ctx: &mut SyscallCtx) -> SysResult {
        let Some(&idx) = self.order.get(self.pos) else {
            return self.call_real(k, ctx);
        };
        self.pos += 1;
        let layers = self.layers.clone();
        let layer = &layers[idx];
        if layer.overhead > 0 {
            k.charge(layer.overhead);
        }
        let span = self.obs && layer.span;
        if span {
            sim_obs::span_enter(k.clock, &format!("stack/{}", layer.name));
        }
        let r = layer.hook.on_syscall(k, ctx, self);
        if span {
            sim_obs::span_exit(k.clock);
        }
        r
    }

    /// Forwards to the real kernel dispatch immediately, skipping every
    /// remaining layer. Idempotent per chained syscall: the real dispatch
    /// (and its injected fault, if any) runs exactly once; later calls
    /// return the cached outcome instead of re-executing the syscall.
    pub fn call_real(&mut self, k: &mut Kernel, ctx: &mut SyscallCtx) -> SysResult {
        let injected = &mut self.injected;
        let disp = *self.real.get_or_insert_with(|| {
            k.chain_real_dispatch(
                ctx.pid,
                ctx.tid,
                ctx.nr,
                ctx.args,
                ctx.site,
                injected.take(),
            )
        });
        match disp {
            Disp::Ret(v) => SysResult::Value(v),
            Disp::Block(_) | Disp::NoReturn => SysResult::Control,
        }
    }
}
