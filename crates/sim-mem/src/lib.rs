//! # sim-mem — the guest address space
//!
//! A paged, lazily-materialized virtual address space with per-page
//! permissions and Protection Keys for Userspace (PKU), mirroring the Linux
//! x86-64 facilities the paper's interposers rely on:
//!
//! * pages are 4 KiB; mappings are named (so `/proc/$PID/maps` can be
//!   rendered for K23's offline logger);
//! * PKU: sixteen protection keys, a per-thread PKRU rights register with
//!   access-disable / write-disable bits per key. **Instruction fetch is not
//!   subject to PKU** — which is exactly how eXecute-Only Memory (XOM) is
//!   built for the page-0 trampoline (paper §4.4, §5.3);
//! * mappings reserve virtual space without allocating backing pages, so a
//!   zpoline-style bitmap spanning the whole canonical address space can be
//!   "mapped" cheaply and its *materialized* footprint measured (pitfall
//!   P4b).
//!
//! The [`Bitmap`] type is the measurement-friendly host-side twin of that
//! guest bitmap, used by the P4b ablation bench.

pub mod bitmap;
pub mod perms;
pub mod space;

pub use bitmap::Bitmap;
pub use perms::{Access, Perms, Pkru, NO_PKEY};
pub use space::{AddressSpace, Fault, FaultReason, MapError, Mapping, PAGE_SIZE};
