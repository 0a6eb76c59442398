//! An in-memory virtual filesystem.
//!
//! Holds guest binaries (serialized SimElf images), configuration, workload
//! data, and K23's offline log directory — which can be marked **immutable**
//! once the offline phase completes, exactly as the paper hardens its logs
//! (§5.3).
//!
//! A file's bytes are a shared buffer, copied on its first write: cloning
//! a `Vfs`, or grafting a prebuilt tree into one ([`Vfs::overlay`]),
//! copies no file bytes, and no VFS's write reaches another.

use crate::nr::{self, err};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Node identifier within a [`Vfs`].
pub type NodeId = usize;

/// The largest size a write may grow a file to (256 MiB, far above any
/// file the workloads write). A guest chooses its file offset, so a write
/// that would end past this fails with `-EFBIG` instead of making the
/// host zero-fill the gap.
pub const MAX_FILE_SIZE: usize = 1 << 28;

#[derive(Debug, Clone)]
enum Node {
    File { data: Arc<Vec<u8>>, immutable: bool },
    Dir { entries: BTreeMap<String, NodeId>, immutable: bool },
}

/// The in-memory filesystem.
#[derive(Debug, Clone)]
pub struct Vfs {
    nodes: Vec<Node>,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

fn split_path(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".").collect()
}

impl Vfs {
    /// A filesystem containing only the root directory.
    pub fn new() -> Vfs {
        Vfs {
            nodes: vec![Node::Dir {
                entries: BTreeMap::new(),
                immutable: false,
            }],
        }
    }

    fn resolve(&self, path: &str) -> Option<NodeId> {
        let mut cur = 0;
        for comp in split_path(path) {
            match &self.nodes[cur] {
                Node::Dir { entries, .. } => cur = *entries.get(comp)?,
                Node::File { .. } => return None,
            }
        }
        Some(cur)
    }

    fn resolve_parent(&self, path: &str) -> Option<(NodeId, String)> {
        let comps = split_path(path);
        let (last, dirs) = comps.split_last()?;
        let mut cur = 0;
        for comp in dirs {
            match &self.nodes[cur] {
                Node::Dir { entries, .. } => cur = *entries.get(*comp)?,
                Node::File { .. } => return None,
            }
        }
        Some((cur, last.to_string()))
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_some()
    }

    /// True if `path` is a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        matches!(
            self.resolve(path).map(|id| &self.nodes[id]),
            Some(Node::Dir { .. })
        )
    }

    /// Creates a directory (and any missing ancestors).
    ///
    /// # Errors
    ///
    /// Returns `-ENOTDIR` if a path component already exists as a file.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), u64> {
        let mut cur = 0;
        for comp in split_path(path) {
            let next = match &self.nodes[cur] {
                Node::Dir { entries, .. } => entries.get(comp).copied(),
                Node::File { .. } => return Err(err(nr::ENOTDIR)),
            };
            cur = match next {
                Some(id) => id,
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(Node::Dir {
                        entries: BTreeMap::new(),
                        immutable: false,
                    });
                    match &mut self.nodes[cur] {
                        Node::Dir { entries, .. } => {
                            entries.insert(comp.to_string(), id);
                        }
                        Node::File { .. } => unreachable!(),
                    }
                    id
                }
            };
        }
        Ok(())
    }

    /// The buffer behind `path`, created empty (with any missing
    /// ancestors) when the file does not exist.
    fn file_mut(&mut self, path: &str) -> Result<&mut Arc<Vec<u8>>, u64> {
        if self.resolve_parent(path).is_none() {
            let comps = split_path(path);
            if comps.len() > 1 {
                self.mkdir_p(&comps[..comps.len() - 1].join("/"))?;
            }
        }
        let (dir, name) = self.resolve_parent(path).ok_or(err(nr::ENOENT))?;
        let id = match &self.nodes[dir] {
            Node::Dir { immutable: true, .. } => return Err(err(nr::EPERM)),
            Node::Dir { entries, .. } => entries.get(&name).copied(),
            Node::File { .. } => return Err(err(nr::ENOTDIR)),
        };
        let id = id.unwrap_or_else(|| {
            let id = self.nodes.len();
            self.nodes.push(Node::File {
                data: Arc::default(),
                immutable: false,
            });
            if let Node::Dir { entries, .. } = &mut self.nodes[dir] {
                entries.insert(name, id);
            }
            id
        });
        match &mut self.nodes[id] {
            Node::File { immutable: true, .. } => Err(err(nr::EPERM)),
            Node::File { data, .. } => Ok(data),
            Node::Dir { .. } => Err(err(nr::EISDIR)),
        }
    }

    /// Writes (creates or truncates) a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns `-EPERM` if the file or its directory is immutable,
    /// `-EISDIR` for a directory.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> Result<(), u64> {
        *self.file_mut(path)? = Arc::new(data.to_vec());
        Ok(())
    }

    /// Writes `data` at byte `offset` of a file, in place: a gap past the
    /// end fills with zeros, and a missing file is created as
    /// [`Vfs::write_file`] creates it.
    ///
    /// # Errors
    ///
    /// Returns `-EFBIG`, before touching the file, when the write would end
    /// past [`MAX_FILE_SIZE`]; otherwise as [`Vfs::write_file`].
    pub fn write_at(&mut self, path: &str, offset: usize, data: &[u8]) -> Result<(), u64> {
        let end = offset
            .checked_add(data.len())
            .filter(|&end| end <= MAX_FILE_SIZE)
            .ok_or(err(nr::EFBIG))?;
        let file = Arc::make_mut(self.file_mut(path)?);
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Appends to a file, creating it if missing.
    ///
    /// # Errors
    ///
    /// Returns `-EPERM` on immutable targets.
    pub fn append_file(&mut self, path: &str, data: &[u8]) -> Result<(), u64> {
        if let Some(id) = self.resolve(path) {
            match &mut self.nodes[id] {
                Node::File { data: d, immutable } => {
                    if *immutable {
                        return Err(err(nr::EPERM));
                    }
                    Arc::make_mut(d).extend_from_slice(data);
                    Ok(())
                }
                Node::Dir { .. } => Err(err(nr::EISDIR)),
            }
        } else {
            self.write_file(path, data)
        }
    }

    /// Grafts every directory and file of `set` into this VFS at the same
    /// paths, sharing the files' buffers: a prebuilt tree installs without
    /// copying its bytes. Existing files at those paths are replaced.
    ///
    /// # Errors
    ///
    /// The first error [`Vfs::write_file`] or [`Vfs::mkdir_p`] returns for
    /// one of `set`'s paths.
    pub fn overlay(&mut self, set: &Vfs) -> Result<(), u64> {
        let mut stack = vec![(0, String::new())];
        while let Some((id, path)) = stack.pop() {
            match &set.nodes[id] {
                Node::File { data, .. } => *self.file_mut(&path)? = Arc::clone(data),
                Node::Dir { entries, .. } => {
                    self.mkdir_p(&path)?;
                    stack.extend(entries.iter().map(|(n, &c)| (c, format!("{path}/{n}"))));
                }
            }
        }
        Ok(())
    }

    /// Reads a file's contents.
    ///
    /// # Errors
    ///
    /// `-ENOENT` if missing, `-EISDIR` for directories.
    pub fn read_file(&self, path: &str) -> Result<&[u8], u64> {
        let id = self.resolve(path).ok_or(err(nr::ENOENT))?;
        match &self.nodes[id] {
            Node::File { data, .. } => Ok(data),
            Node::Dir { .. } => Err(err(nr::EISDIR)),
        }
    }

    /// Directory entries (names) of `path`.
    ///
    /// # Errors
    ///
    /// `-ENOENT`/`-ENOTDIR`.
    pub fn read_dir(&self, path: &str) -> Result<Vec<String>, u64> {
        let id = self.resolve(path).ok_or(err(nr::ENOENT))?;
        match &self.nodes[id] {
            Node::Dir { entries, .. } => Ok(entries.keys().cloned().collect()),
            Node::File { .. } => Err(err(nr::ENOTDIR)),
        }
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// `-ENOENT`, `-EPERM` (immutable), `-EISDIR`.
    pub fn unlink(&mut self, path: &str) -> Result<(), u64> {
        let (dir, name) = self.resolve_parent(path).ok_or(err(nr::ENOENT))?;
        let id = match &self.nodes[dir] {
            Node::Dir {
                entries,
                immutable,
            } => {
                if *immutable {
                    return Err(err(nr::EPERM));
                }
                *entries.get(&name).ok_or(err(nr::ENOENT))?
            }
            Node::File { .. } => return Err(err(nr::ENOTDIR)),
        };
        match &self.nodes[id] {
            Node::File { immutable: true, .. } => return Err(err(nr::EPERM)),
            Node::Dir { .. } => return Err(err(nr::EISDIR)),
            Node::File { .. } => {}
        }
        match &mut self.nodes[dir] {
            Node::Dir { entries, .. } => {
                entries.remove(&name);
            }
            Node::File { .. } => unreachable!(),
        }
        Ok(())
    }

    /// Marks a file or directory (recursively) immutable — the `chattr +i`
    /// K23 applies to its offline log directory (§5.3).
    pub fn set_immutable(&mut self, path: &str, value: bool) -> Result<(), u64> {
        let id = self.resolve(path).ok_or(err(nr::ENOENT))?;
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            match &mut self.nodes[id] {
                Node::File { immutable, .. } => *immutable = value,
                Node::Dir {
                    immutable,
                    entries,
                } => {
                    *immutable = value;
                    stack.extend(entries.values().copied());
                }
            }
        }
        Ok(())
    }

    /// File length.
    ///
    /// # Errors
    ///
    /// `-ENOENT`/`-EISDIR`.
    pub fn file_len(&self, path: &str) -> Result<u64, u64> {
        Ok(self.read_file(path)?.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut v = Vfs::new();
        v.write_file("/etc/nginx/nginx.conf", b"worker_processes 1;")
            .unwrap();
        assert_eq!(v.read_file("/etc/nginx/nginx.conf").unwrap(), b"worker_processes 1;");
        assert!(v.is_dir("/etc/nginx"));
        assert!(v.exists("/etc"));
    }

    #[test]
    fn missing_file_enoent() {
        let v = Vfs::new();
        assert_eq!(v.read_file("/nope").unwrap_err(), err(nr::ENOENT));
    }

    #[test]
    fn append_creates_and_extends() {
        let mut v = Vfs::new();
        v.append_file("/log", b"a").unwrap();
        v.append_file("/log", b"b").unwrap();
        assert_eq!(v.read_file("/log").unwrap(), b"ab");
    }

    #[test]
    fn immutable_blocks_writes_unlink_and_creation() {
        let mut v = Vfs::new();
        v.write_file("/k23/logs/ls.log", b"x").unwrap();
        v.set_immutable("/k23/logs", true).unwrap();
        assert_eq!(v.write_file("/k23/logs/ls.log", b"y").unwrap_err(), err(nr::EPERM));
        assert_eq!(v.append_file("/k23/logs/ls.log", b"y").unwrap_err(), err(nr::EPERM));
        assert_eq!(v.unlink("/k23/logs/ls.log").unwrap_err(), err(nr::EPERM));
        assert_eq!(v.write_file("/k23/logs/new.log", b"z").unwrap_err(), err(nr::EPERM));
        // Contents untouched.
        assert_eq!(v.read_file("/k23/logs/ls.log").unwrap(), b"x");
        // And can be lifted.
        v.set_immutable("/k23/logs", false).unwrap();
        assert!(v.write_file("/k23/logs/ls.log", b"y").is_ok());
    }

    #[test]
    fn read_dir_lists() {
        let mut v = Vfs::new();
        v.write_file("/dir/a", b"").unwrap();
        v.write_file("/dir/b", b"").unwrap();
        assert_eq!(v.read_dir("/dir").unwrap(), vec!["a", "b"]);
        assert_eq!(v.read_dir("/dir/a").unwrap_err(), err(nr::ENOTDIR));
    }

    #[test]
    fn shared_buffers_are_copied_on_first_write() {
        const ORIG: &[u8] = b"shared image bytes";
        type Write = fn(&mut Vfs) -> Result<(), u64>;
        let writes: [Write; 3] = [
            |v| v.write_file("/lib/img", b"replaced"),
            |v| v.append_file("/lib/img", b"+tail"),
            |v| v.write_at("/lib/img", 3, b"X"),
        ];
        let ptr = |v: &Vfs| v.read_file("/lib/img").unwrap().as_ptr();
        let mut set = Vfs::new();
        set.write_file("/lib/img", ORIG).unwrap();
        for write in writes {
            let mut cloned = set.clone();
            let mut grafted = Vfs::new();
            grafted.overlay(&set).unwrap();
            assert_eq!(ptr(&cloned), ptr(&set));
            assert_eq!(ptr(&grafted), ptr(&set));
            write(&mut cloned).unwrap();
            write(&mut grafted).unwrap();
            assert_ne!(ptr(&cloned), ptr(&set));
            assert_ne!(cloned.read_file("/lib/img").unwrap(), ORIG);
            assert_eq!(cloned.read_file("/lib/img"), grafted.read_file("/lib/img"));
            assert_eq!(set.read_file("/lib/img").unwrap(), ORIG);
            // A writer's copy is its own: the next write needs no copy.
            let before = ptr(&grafted);
            grafted.write_at("/lib/img", 0, b"Y").unwrap();
            assert_eq!(ptr(&grafted), before);
        }
    }

    /// Besides `write_file`'s refusals, an end past `MAX_FILE_SIZE`, or
    /// one that overflows, fails with `-EFBIG` before the file is touched:
    /// no zero fill, no creation.
    #[test]
    fn write_at_fills_holes_recreates_and_refuses_like_write_file() {
        let mut v = Vfs::new();
        v.write_at("/d/f", 3, b"ab").unwrap();
        assert_eq!(v.read_file("/d/f").unwrap(), b"\0\0\0ab");
        v.write_at("/d/f", 1, b"xyzw").unwrap();
        assert_eq!(v.read_file("/d/f").unwrap(), b"\0xyzw");
        v.unlink("/d/f").unwrap();
        v.write_at("/d/f", 0, b"again").unwrap();
        assert_eq!(v.read_file("/d/f").unwrap(), b"again");
        assert_eq!(v.write_at("/d", 0, b"x").unwrap_err(), err(nr::EISDIR));
        v.set_immutable("/d/f", true).unwrap();
        assert_eq!(v.write_at("/d/f", 0, b"x").unwrap_err(), err(nr::EPERM));
        v.set_immutable("/d/f", false).unwrap();
        v.set_immutable("/d", true).unwrap();
        assert_eq!(v.write_at("/d/f", 0, b"x").unwrap_err(), err(nr::EPERM));
        assert_eq!(v.write_at("/d/g", 0, b"x").unwrap_err(), err(nr::EPERM));
        assert_eq!(v.read_file("/d/f").unwrap(), b"again");
        assert!(!v.exists("/d/g"));
        v.set_immutable("/d", false).unwrap();
        for (path, offset) in [
            ("/d/f", usize::MAX - 1),
            ("/d/f", MAX_FILE_SIZE - 2),
            ("/d/g", usize::MAX),
        ] {
            let e = v.write_at(path, offset, b"abcd").unwrap_err();
            assert_eq!(e, err(nr::EFBIG), "{offset}");
        }
        assert_eq!(v.read_file("/d/f").unwrap(), b"again");
        assert!(!v.exists("/d/g"));
    }

    #[test]
    fn overlay_grafts_files_and_empty_directories() {
        let mut set = Vfs::new();
        set.write_file("/usr/bin/app", b"image").unwrap();
        set.mkdir_p("/data").unwrap();
        let mut v = Vfs::new();
        v.write_file("/usr/bin/app", b"stale").unwrap();
        v.write_file("/usr/bin/other", b"kept").unwrap();
        v.overlay(&set).unwrap();
        assert_eq!(v.read_file("/usr/bin/app").unwrap(), b"image");
        assert_eq!(v.read_file("/usr/bin/other").unwrap(), b"kept");
        assert!(v.is_dir("/data"));
        v.set_immutable("/usr/bin", true).unwrap();
        assert_eq!(v.overlay(&set).unwrap_err(), err(nr::EPERM));
    }

    #[test]
    fn unlink_removes() {
        let mut v = Vfs::new();
        v.write_file("/f", b"1").unwrap();
        v.unlink("/f").unwrap();
        assert!(!v.exists("/f"));
        assert_eq!(v.unlink("/f").unwrap_err(), err(nr::ENOENT));
    }
}
