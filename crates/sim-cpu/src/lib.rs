//! # sim-cpu — guest execution cores
//!
//! Fetch/decode/execute for the [`sim_isa`] instruction set over a
//! [`sim_mem::AddressSpace`], with the two properties the paper's pitfall
//! analysis depends on:
//!
//! * **Deterministic cycle accounting** ([`cost`]): every instruction and
//!   kernel event has a documented cost. Experiments report overhead
//!   *ratios*, so the model is calibrated once (against the paper's Table 5
//!   native baseline) and then left alone.
//! * **A per-core decoded-instruction cache** with x86-like self-modifying
//!   code semantics: a core sees its *own* code writes immediately, but other
//!   cores may keep executing stale decodes until they serialize (`cpuid`,
//!   `fence`, or any kernel entry). Combined with non-atomic two-byte
//!   rewrites this is pitfall **P5**.

pub mod cost;
pub mod cpu;
pub mod fasthash;
pub mod trace;

pub use cost::CostModel;
pub use cpu::{BlockExit, Cpu, HookAction, Step, StepEvent};
pub use fasthash::FastMap;
pub use trace::TraceStat;
