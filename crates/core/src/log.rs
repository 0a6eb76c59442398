//! The K23 *site log* — the offline phase's persisted set of syscall
//! sites (paper §5.1, Figure 3). This is **not** a logging/telemetry
//! facility: for runtime tracing and metrics of the simulation itself
//! (event streams, counters, per-interposer latency) see the `sim-obs`
//! crate.
//!
//! Each entry is a *(region, offset)* pair: the mapping that contained a
//! trapping `syscall`/`sysenter` instruction and the instruction's offset
//! within it. Offsets within a region are stable across runs even under
//! ASLR, so the online phase can map entries back to virtual addresses.

use sim_kernel::Vfs;
use std::collections::BTreeSet;

/// Directory holding offline logs; marked immutable once the offline phase
/// completes (§5.3).
pub const LOG_DIR: &str = "/k23/logs";

/// One logged site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteEntry {
    /// Mapping name, e.g. `/usr/lib/libc-sim.so.6`.
    pub region: String,
    /// Byte offset of the instruction within the mapping.
    pub offset: u64,
}

/// The offline log for one application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteLog {
    /// Application path the log was collected for.
    pub app: String,
    /// Unique logged sites.
    pub entries: BTreeSet<SiteEntry>,
}

impl SiteLog {
    /// A fresh, empty log for `app`.
    pub fn new(app: &str) -> SiteLog {
        SiteLog {
            app: app.to_string(),
            entries: BTreeSet::new(),
        }
    }

    /// Canonical VFS path of the log for `app`.
    pub fn path_for(app: &str) -> String {
        let base = app.rsplit('/').next().unwrap_or(app);
        format!("{LOG_DIR}/{base}.log")
    }

    /// Number of unique sites (the Table 2 metric).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Saves the log into the VFS, as [`SiteLog::file`].
    ///
    /// # Errors
    ///
    /// Propagates VFS errors (e.g. `-EPERM` if the log dir is immutable).
    pub fn save(&self, vfs: &mut Vfs) -> Result<(), u64> {
        let (path, data) = self.file();
        vfs.write_file(&path, &data)
    }

    /// The log's file: its path under [`LOG_DIR`] and its bytes, the form
    /// a log is transplanted in.
    pub fn file(&self) -> (String, Vec<u8>) {
        let json = sjson::Value::object(vec![
            ("app", self.app.as_str().into()),
            (
                "entries",
                sjson::Value::Array(
                    self.entries
                        .iter()
                        .map(|e| {
                            sjson::Value::object(vec![
                                ("region", e.region.as_str().into()),
                                ("offset", e.offset.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let data = json.to_string_pretty().into_bytes();
        (Self::path_for(&self.app), data)
    }

    /// Loads the log for `app`, if present and well-formed.
    ///
    /// The stored `app` field must match the requested `app`: a log file
    /// collected for a different application (e.g. after a basename
    /// collision under [`LOG_DIR`]) is rejected rather than silently
    /// applied, since its sites would rewrite the wrong addresses.
    pub fn load(vfs: &Vfs, app: &str) -> Option<SiteLog> {
        let data = vfs.read_file(&Self::path_for(app)).ok()?;
        let v = sjson::parse(data).ok()?;
        let logged_app = v.get("app")?.as_str()?;
        if logged_app != app {
            return None;
        }
        let entries = v
            .get("entries")?
            .as_array()?
            .iter()
            .map(|e| {
                Some(SiteEntry {
                    region: e.get("region")?.as_str()?.to_string(),
                    offset: e.get("offset")?.as_u64()?,
                })
            })
            .collect::<Option<BTreeSet<SiteEntry>>>()?;
        Some(SiteLog {
            app: logged_app.to_string(),
            entries,
        })
    }

    /// Renders the Figure 3 textual form: `region,offset` per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&format!("{},{}\n", e.region, e.offset));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip() {
        let mut log = SiteLog::new("/usr/bin/ls-sim");
        log.entries.insert(SiteEntry {
            region: "/usr/lib/libc-sim.so.6".into(),
            offset: 1153562,
        });
        log.entries.insert(SiteEntry {
            region: "/usr/lib/libc-sim.so.6".into(),
            offset: 943685,
        });
        let mut vfs = Vfs::new();
        log.save(&mut vfs).unwrap();
        let back = SiteLog::load(&vfs, "/usr/bin/ls-sim").unwrap();
        assert_eq!(back, log);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn entries_deduplicate() {
        let mut log = SiteLog::new("x");
        for _ in 0..5 {
            log.entries.insert(SiteEntry {
                region: "libc".into(),
                offset: 7,
            });
        }
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn render_matches_figure3_shape() {
        let mut log = SiteLog::new("ls");
        log.entries.insert(SiteEntry {
            region: "/usr/lib/libc-sim.so.6".into(),
            offset: 11536,
        });
        let r = log.render();
        assert_eq!(r, "/usr/lib/libc-sim.so.6,11536\n");
    }

    #[test]
    fn load_rejects_mismatched_app() {
        // Two apps with the same basename collide on the same log path;
        // the log records the full path, so the second load must fail.
        let mut vfs = Vfs::new();
        let mut log = SiteLog::new("/usr/bin/ls-sim");
        log.entries.insert(SiteEntry {
            region: "libc".into(),
            offset: 42,
        });
        log.save(&mut vfs).unwrap();
        assert!(SiteLog::load(&vfs, "/usr/bin/ls-sim").is_some());
        assert_eq!(
            SiteLog::path_for("/opt/other/ls-sim"),
            SiteLog::path_for("/usr/bin/ls-sim")
        );
        assert!(
            SiteLog::load(&vfs, "/opt/other/ls-sim").is_none(),
            "log for a different app must be rejected"
        );
    }

    #[test]
    fn immutable_dir_blocks_save() {
        let mut vfs = Vfs::new();
        let log = SiteLog::new("app");
        log.save(&mut vfs).unwrap();
        vfs.set_immutable(LOG_DIR, true).unwrap();
        assert!(log.save(&mut vfs).is_err());
    }
}
