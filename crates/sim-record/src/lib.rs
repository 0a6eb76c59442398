//! # sim-record — the record/replay log format
//!
//! The portable half of the record/replay subsystem (DESIGN.md §11). A
//! [`Recording`] is what `simrecord` writes to disk: a self-describing
//! header (workload, engine, seed, fault plan), the nondeterminism log —
//! every syscall result, injected fault/signal/permission flip, and
//! scheduler decision, keyed by the retired-instruction count at which
//! it happened — and the canonicalized sim-obs event stream the recording
//! run produced. Retired-instruction keys are the engine-invariant
//! addressing scheme the fault planner already uses: a log recorded under
//! either engine (stepwise, block) replays byte-identically under the
//! other, because both agree on which instruction is the Nth to retire.
//!
//! The kernel-side half (the record and verify sessions, and the stop
//! target navigation seeks with) lives in `sim-kernel`; this crate stays
//! dependency-light so exporters and offline tooling can parse logs
//! without linking the simulator.

use sim_obs::{EventKind, Recorder};

/// Log format magic + version. Bumped on any framing change.
pub const MAGIC: &[u8; 6] = b"SREC1\n";

/// One logged nondeterminism event, keyed by the retired-instruction
/// count at which it took effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rec {
    /// A syscall completed: the guest observed `ret` at `retired`.
    /// `cycles` is the full kernel residency (entry to return, blocking
    /// waits included), so a replay whose kernel charges differently
    /// diverges at that syscall.
    Syscall {
        retired: u64,
        nr: u64,
        site: u64,
        ret: u64,
        cycles: u64,
    },
    /// An injected asynchronous signal at an instruction boundary.
    Signal {
        retired: u64,
        signo: u64,
        delivered: bool,
    },
    /// An injected transient page-permission flip (or its restore).
    Flip {
        retired: u64,
        page: u64,
        perms: u8,
        restore: bool,
    },
    /// A scheduler decision: the runnable list of length `n` was rotated
    /// by `rot` in scheduling round `round`. Logged only when more than
    /// one thread was runnable (single-threaded phases are decision-free).
    Sched {
        retired: u64,
        round: u64,
        rot: u64,
        n: u64,
    },
    /// A process exited with `status`.
    Exit {
        retired: u64,
        pid: u64,
        status: u64,
    },
}

impl Rec {
    /// The retired-instruction coordinate this record is keyed by.
    pub fn retired(&self) -> u64 {
        match *self {
            Rec::Syscall { retired, .. }
            | Rec::Signal { retired, .. }
            | Rec::Flip { retired, .. }
            | Rec::Sched { retired, .. }
            | Rec::Exit { retired, .. } => retired,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Rec::Syscall { .. } => 1,
            Rec::Signal { .. } => 2,
            Rec::Flip { .. } => 3,
            Rec::Sched { .. } => 4,
            Rec::Exit { .. } => 5,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        let at = out.len();
        out.extend_from_slice(&[0; 4]); // length patched below
        match self {
            Rec::Syscall {
                retired,
                nr,
                site,
                ret,
                cycles,
            } => {
                for v in [retired, nr, site, ret, cycles] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                // The frame's page-write count, always 0 (see `decode`).
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            Rec::Signal {
                retired,
                signo,
                delivered,
            } => {
                out.extend_from_slice(&retired.to_le_bytes());
                out.extend_from_slice(&signo.to_le_bytes());
                out.push(u8::from(*delivered));
            }
            Rec::Flip {
                retired,
                page,
                perms,
                restore,
            } => {
                out.extend_from_slice(&retired.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.push(*perms);
                out.push(u8::from(*restore));
            }
            Rec::Sched {
                retired,
                round,
                rot,
                n,
            } => {
                for v in [retired, round, rot, n] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Rec::Exit {
                retired,
                pid,
                status,
            } => {
                for v in [retired, pid, status] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn decode(cur: &mut Cursor) -> Result<Rec, String> {
        let tag = cur.u8()?;
        let len = cur.u32()? as usize;
        let end = cur.pos + len;
        let rec = match tag {
            1 => {
                let retired = cur.u64()?;
                let nr = cur.u64()?;
                let site = cur.u64()?;
                let ret = cur.u64()?;
                let cycles = cur.u64()?;
                // The page-write count: always 0, kept so `SREC1` frames
                // stay byte-identical. A frame with page writes is from a
                // format this decoder does not read.
                let writes = cur.u32()?;
                if writes != 0 {
                    return Err(format!(
                        "syscall frame at retired instruction {retired} carries {writes} page writes (expected 0)"
                    ));
                }
                Rec::Syscall {
                    retired,
                    nr,
                    site,
                    ret,
                    cycles,
                }
            }
            2 => Rec::Signal {
                retired: cur.u64()?,
                signo: cur.u64()?,
                delivered: cur.u8()? != 0,
            },
            3 => Rec::Flip {
                retired: cur.u64()?,
                page: cur.u64()?,
                perms: cur.u8()?,
                restore: cur.u8()? != 0,
            },
            4 => Rec::Sched {
                retired: cur.u64()?,
                round: cur.u64()?,
                rot: cur.u64()?,
                n: cur.u64()?,
            },
            5 => Rec::Exit {
                retired: cur.u64()?,
                pid: cur.u64()?,
                status: cur.u64()?,
            },
            t => return Err(format!("unknown record tag {t}")),
        };
        if cur.pos != end {
            return Err(format!(
                "record tag {tag}: length {len} does not match payload"
            ));
        }
        Ok(rec)
    }
}

/// Self-describing log header: everything needed to re-create the
/// recording run (and therefore to replay-verify it on another engine).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Header {
    /// Engine label the log was recorded under (`stepwise`/`block`; logs
    /// written before the trace engine merged into the block engine may
    /// say `trace`) — informational; replay may pick any engine.
    pub engine: String,
    /// Workload name, interpreted by the `simrecord` driver.
    pub workload: String,
    /// Workload seed/scale knob (driver-interpreted).
    pub seed: u64,
    /// `FaultPlan::encode()` string of the injected plan, if any.
    pub fault_plan: Option<String>,
    /// Written as 0 and read by nothing; kept so the `SREC1` header
    /// layout, and every digest that folds its bytes, stay unchanged.
    pub checkpoint_period: u64,
}

/// A complete recording: header + nondeterminism log + the canonicalized
/// sim-obs event stream of the recording run (the byte-compare target for
/// cross-engine replay).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recording {
    pub header: Header,
    pub recs: Vec<Rec>,
    pub obs: Vec<String>,
}

impl Recording {
    /// Serializes to the length-prefixed binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.recs.len() * 48);
        out.extend_from_slice(MAGIC);
        put_str(&mut out, &self.header.engine);
        put_str(&mut out, &self.header.workload);
        out.extend_from_slice(&self.header.seed.to_le_bytes());
        match &self.header.fault_plan {
            Some(p) => {
                out.push(1);
                put_str(&mut out, p);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.header.checkpoint_period.to_le_bytes());
        out.extend_from_slice(&(self.recs.len() as u64).to_le_bytes());
        for r in &self.recs {
            r.encode_into(&mut out);
        }
        out.extend_from_slice(&(self.obs.len() as u64).to_le_bytes());
        for line in &self.obs {
            put_str(&mut out, line);
        }
        out
    }

    /// Parses the binary format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing violation (bad magic,
    /// truncated field, unknown tag, length mismatch, a syscall frame with
    /// page writes, trailing bytes), naming the record it is in.
    pub fn decode(data: &[u8]) -> Result<Recording, String> {
        let mut cur = Cursor { data, pos: 0 };
        if cur.bytes(MAGIC.len())? != MAGIC {
            return Err("bad magic: not a simrecord log".into());
        }
        let engine = cur.string()?;
        let workload = cur.string()?;
        let seed = cur.u64()?;
        let fault_plan = if cur.u8()? != 0 {
            Some(cur.string()?)
        } else {
            None
        };
        let checkpoint_period = cur.u64()?;
        let nrecs = cur.u64()? as usize;
        let mut recs = Vec::with_capacity(nrecs.min(1 << 20));
        for i in 0..nrecs {
            recs.push(Rec::decode(&mut cur).map_err(|e| format!("record {i}: {e}"))?);
        }
        let nobs = cur.u64()? as usize;
        let mut obs = Vec::with_capacity(nobs.min(1 << 20));
        for _ in 0..nobs {
            obs.push(cur.string()?);
        }
        if cur.pos != data.len() {
            return Err(format!("{} trailing bytes", data.len() - cur.pos));
        }
        Ok(Recording {
            header: Header {
                engine,
                workload,
                seed,
                fault_plan,
                checkpoint_period,
            },
            recs,
            obs,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("truncated log at byte {}", self.pos))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.bytes(n)?.to_vec()).map_err(|e| e.to_string())
    }
}

// ===== Obs-stream canonicalization =====

/// Renders every recorded sim-obs event into one line of stable text —
/// `clock pid/tid kind{fields}` with interposer-path and span-stage ids
/// resolved to their registered labels. Two runs are byte-identical iff
/// their canonicalized streams compare equal line-for-line, which makes
/// this the cross-engine replay-verification target.
pub fn obs_lines(rec: &Recorder) -> Vec<String> {
    rec.merged_events()
        .iter()
        .map(|e| {
            let kind = match e.kind {
                EventKind::SyscallEnter {
                    nr,
                    site,
                    path,
                    name,
                } => format!(
                    "syscall_enter nr={nr} site={site:#x} path={} name={name}",
                    rec.path_label(path)
                ),
                EventKind::SyscallExit {
                    nr,
                    ret,
                    path,
                    latency,
                    name,
                } => format!(
                    "syscall_exit nr={nr} ret={ret:#x} path={} latency={latency} name={name}",
                    rec.path_label(path)
                ),
                EventKind::Sigsys { nr, site } => format!("sigsys nr={nr} site={site:#x}"),
                EventKind::TracerStop { kind } => format!("tracer_stop kind={kind}"),
                EventKind::ContextSwitch => "context_switch".into(),
                EventKind::SudArm { selector_addr } => {
                    format!("sud_arm selector={selector_addr:#x}")
                }
                EventKind::SudSelectorFlip { value } => format!("sud_selector_flip value={value}"),
                EventKind::PkuFault { addr } => format!("pku_fault addr={addr:#x}"),
                EventKind::FaultErrno { nr, kind } => format!("fault_errno nr={nr} kind={kind}"),
                EventKind::FaultSignal { signo, delivered } => {
                    format!("fault_signal signo={signo} delivered={delivered}")
                }
                EventKind::FaultPermFlip { page, restore } => {
                    format!("fault_perm_flip page={page:#x} restore={restore}")
                }
                EventKind::TlbFill { page } => format!("tlb_fill page={page:#x}"),
                EventKind::IcacheRevalidate { rip } => format!("icache_revalidate rip={rip:#x}"),
                EventKind::IcacheInvalidate { addr, entries } => {
                    format!("icache_invalidate addr={addr:#x} entries={entries}")
                }
                EventKind::AuditBypass { nr, site, sig } => {
                    format!("audit_bypass nr={nr} site={site:#x} sig={sig}")
                }
                EventKind::SpanEnter { stage } => {
                    format!("span_enter stage={}", rec.stage_label(stage))
                }
                EventKind::SpanExit { stage, dur } => {
                    format!("span_exit stage={} dur={dur}", rec.stage_label(stage))
                }
            };
            format!("{} {}/{} {}", e.clock, e.pid, e.tid, kind)
        })
        .collect()
}

// ===== Divergences =====

/// A located divergence between an expected (recorded) stream and a live
/// (replayed) one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first mismatched record.
    pub index: usize,
    /// Retired-instruction coordinate of the mismatch — the target to
    /// give `simrecord --navigate --seek` for a state dump there.
    pub retired: u64,
    /// What the log said should happen (`None`: the live stream ran past
    /// the end of the log).
    pub expected: Option<Rec>,
    /// What actually happened (`None`: the live stream ended early).
    pub got: Option<Rec>,
}

/// Index of the first line where two canonicalized obs streams (see
/// [`obs_lines`]) differ — the shorter length when one is a strict prefix
/// of the other. `None` when byte-identical.
pub fn first_obs_divergence(expected: &[String], live: &[String]) -> Option<usize> {
    expected
        .iter()
        .zip(live)
        .position(|(a, b)| a != b)
        .or_else(|| (expected.len() != live.len()).then(|| expected.len().min(live.len())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(retired: u64, ret: u64) -> Rec {
        Rec::Syscall {
            retired,
            nr: 500,
            site: 0x40_1000,
            ret,
            cycles: 321,
        }
    }

    fn sample() -> Recording {
        Recording {
            header: Header {
                engine: "trace".into(),
                workload: "nginx".into(),
                seed: 7,
                fault_plan: Some("v1;seed=7".into()),
                checkpoint_period: 0,
            },
            recs: vec![
                sys(10, 0),
                Rec::Signal {
                    retired: 64,
                    signo: 10,
                    delivered: true,
                },
                Rec::Flip {
                    retired: 65,
                    page: 0x1000,
                    perms: 3,
                    restore: false,
                },
                Rec::Sched {
                    retired: 90,
                    round: 4,
                    rot: 1,
                    n: 3,
                },
                Rec::Syscall {
                    retired: 120,
                    nr: 0,
                    site: 0x40_2000,
                    ret: 4096,
                    cycles: 900,
                },
                Rec::Exit {
                    retired: 150,
                    pid: 1,
                    status: 0,
                },
            ],
            obs: vec!["1 1/1 syscall_enter nr=500".into(), "2 1/1 syscall_exit".into()],
        }
    }

    #[test]
    fn codec_round_trips() {
        let r = sample();
        let bytes = r.encode();
        assert_eq!(&bytes[..MAGIC.len()], MAGIC);
        let back = Recording::decode(&bytes).expect("decode");
        assert_eq!(back, r);
    }

    #[test]
    fn codec_rejects_corruption() {
        let r = sample();
        let mut bytes = r.encode();
        bytes[0] ^= 0xff;
        assert!(Recording::decode(&bytes).is_err(), "bad magic accepted");
        let bytes = r.encode();
        assert!(
            Recording::decode(&bytes[..bytes.len() - 3]).is_err(),
            "truncation accepted"
        );
    }

    /// A syscall frame is its five words plus a zero page-write count; a
    /// non-zero count fails to decode, naming the frame.
    #[test]
    fn codec_rejects_a_syscall_frame_with_page_writes() {
        let r = Recording {
            recs: vec![sys(10, 0), sys(20, 0)],
            ..Recording::default()
        };
        let mut bytes = r.encode();
        // The last frame's count sits right before the obs count (8 bytes).
        let count = bytes.len() - 8 - 4;
        assert_eq!(
            bytes[count - 45..count - 40],
            [1, 44, 0, 0, 0],
            "tag and length"
        );
        assert_eq!(bytes[count..count + 4], [0; 4], "page-write count");
        bytes[count] = 1;
        let err = Recording::decode(&bytes).unwrap_err();
        assert!(
            err.contains("record 1") && err.contains("retired instruction 20"),
            "{err}"
        );
    }

    #[test]
    fn obs_divergence_finds_first_line() {
        let a: Vec<String> = (0..1000).map(|i| format!("{i} 1/1 syscall_enter")).collect();
        let mut b = a.clone();
        b[617].push('!');
        assert_eq!(first_obs_divergence(&a, &b), Some(617));
        assert_eq!(first_obs_divergence(&a, &a[..400]), Some(400));
        assert_eq!(first_obs_divergence(&a[..400], &a), Some(400));
        assert_eq!(first_obs_divergence(&a, &a), None);
    }
}
