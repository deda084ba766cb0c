//! The store's view of a directory: named byte files with append,
//! atomic replace, and removal.
//!
//! Neither durable log — [`SegmentStore`](crate::store::SegmentStore)
//! nor the single-segment [`WalWriter`](crate::wal::WalWriter) — touches
//! the filesystem directly; both go through [`StoreFs`], so the exact
//! same logic runs over a real fsynced directory ([`DirFs`]), an
//! in-memory map for tests ([`MemFs`]), and a crash-injecting wrapper
//! ([`FailingFs`]) that kills the "process" at an arbitrary byte
//! budget.
//!
//! Durability discipline in [`DirFs`]: appends `sync_data` before
//! returning, file creation and removal fsync the directory (the *name*
//! must survive power loss, not just the bytes), and [`StoreFs::write_atomic`] is temp-file + fsync +
//! rename + directory fsync — the only way the manifest is ever
//! replaced, so a crash leaves either the old manifest or the new one,
//! never a torn hybrid.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::wal::{io_err, WalError};

/// A directory of named byte files, as the segmented store consumes it.
///
/// Mutating operations must be durable when they return `Ok` (data
/// synced; names synced on create/remove/rename). A failed operation
/// may leave a *prefix* of an append behind (a torn write) but must
/// never tear [`StoreFs::write_atomic`] — that one is all-or-nothing by
/// contract.
pub trait StoreFs: fmt::Debug + Send {
    /// Read a whole file; `Ok(None)` when it does not exist.
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError>;
    /// Append `bytes` (creating the file if needed), synced before `Ok`.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
    /// Discard everything past `len` bytes of `name`.
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError>;
    /// Atomically replace `name` with `bytes`: after a crash the file
    /// holds either its previous content or exactly `bytes`.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
    /// Remove `name` (an error if it does not exist — guard with
    /// [`StoreFs::read`]), with the removal itself made durable.
    fn remove(&mut self, name: &str) -> Result<(), WalError>;
    /// Names of every file present.
    fn list(&mut self) -> Result<Vec<String>, WalError>;
    /// Flush `name` (and the directory) to stable storage.
    fn sync(&mut self, name: &str) -> Result<(), WalError>;
}

/// [`StoreFs`] over a real directory, with the fsync discipline
/// described in the module docs.
#[derive(Debug, Clone)]
pub struct DirFs {
    dir: PathBuf,
}

impl DirFs {
    /// Open `dir` (creating it, and durably recording its name in the
    /// parent, if needed).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        if let (Some(parent), Ok(d)) = (dir.parent(), fs::File::open(dir)) {
            drop(d);
            if let Ok(p) = fs::File::open(parent) {
                p.sync_all().map_err(|e| io_err("sync parent dir", e))?;
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// The underlying directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn sync_dir(&self) -> Result<(), WalError> {
        let d = fs::File::open(&self.dir).map_err(|e| io_err("open dir", e))?;
        d.sync_all().map_err(|e| io_err("sync dir", e))
    }
}

impl StoreFs for DirFs {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
        match fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.dir.join(name);
        let fresh = !path.exists();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("append", e))?;
        file.write_all(bytes).map_err(|e| io_err("append", e))?;
        file.sync_data().map_err(|e| io_err("append", e))?;
        if fresh {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(name))
            .map_err(|e| io_err("truncate", e))?;
        file.set_len(len).map_err(|e| io_err("truncate", e))?;
        file.sync_data().map_err(|e| io_err("truncate", e))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let path = self.dir.join(name);
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("write tmp", e))?;
            file.write_all(bytes).map_err(|e| io_err("write tmp", e))?;
            file.sync_all().map_err(|e| io_err("write tmp", e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", e))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        fs::remove_file(self.dir.join(name)).map_err(|e| io_err("remove", e))?;
        self.sync_dir()
    }

    fn list(&mut self) -> Result<Vec<String>, WalError> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("list", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", e))?;
            if entry.file_type().map_err(|e| io_err("list", e))?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        match fs::File::open(self.dir.join(name)) {
            Ok(file) => file.sync_all().map_err(|e| io_err("sync", e))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("sync", e)),
        }
        self.sync_dir()
    }
}

/// In-memory [`StoreFs`] for tests. Clones share the same map, so a
/// harness can keep a handle, hand a clone to the store, "crash" it,
/// and inspect exactly what survived.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemFs {
    /// An empty in-memory directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// A directory seeded with `files` (e.g. what survived a simulated
    /// crash).
    pub fn from_map(files: BTreeMap<String, Vec<u8>>) -> Self {
        Self {
            files: Arc::new(Mutex::new(files)),
        }
    }

    /// A copy of the current directory contents — the unit the
    /// fault-injection harness compares for bit-identical recovery.
    pub fn snapshot(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().expect("memfs lock").clone()
    }
}

impl StoreFs for MemFs {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
        Ok(self.files.lock().expect("memfs lock").get(name).cloned())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.files
            .lock()
            .expect("memfs lock")
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        if let Some(buf) = self.files.lock().expect("memfs lock").get_mut(name) {
            if (len as usize) < buf.len() {
                buf.truncate(len as usize);
            }
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.files
            .lock()
            .expect("memfs lock")
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        match self.files.lock().expect("memfs lock").remove(name) {
            Some(_) => Ok(()),
            None => Err(WalError::Io {
                op: "remove",
                message: format!("no such file `{name}`"),
            }),
        }
    }

    fn list(&mut self) -> Result<Vec<String>, WalError> {
        Ok(self
            .files
            .lock()
            .expect("memfs lock")
            .keys()
            .cloned()
            .collect())
    }

    fn sync(&mut self, _name: &str) -> Result<(), WalError> {
        Ok(())
    }
}

/// Crash-injection [`StoreFs`]: forwards to `inner` until a byte budget
/// runs out, then dies — tearing the offending *append* mid-write
/// (exactly what a crash during `write(2)` leaves), while
/// [`StoreFs::write_atomic`], truncation and removal either complete
/// within the budget or crash having done **nothing** (they are atomic
/// on a real filesystem: rename either lands or it does not).
///
/// Costs: an append costs its byte length and can tear; `write_atomic`
/// costs its byte length, all-or-nothing; `truncate` and `remove` cost
/// one unit each, all-or-nothing; reads, listing and syncs are free.
/// Enumerating every budget from 0 to an uninterrupted run's total cost
/// therefore kills the store at every byte of every record append and
/// at every boundary inside rotation, compaction and GC.
#[derive(Debug)]
pub struct FailingFs<F: StoreFs> {
    inner: F,
    remaining: u64,
    crashed: bool,
}

impl<F: StoreFs> FailingFs<F> {
    /// Crash once `budget` cost units have been consumed.
    pub fn new(inner: F, budget: u64) -> Self {
        Self {
            inner,
            remaining: budget,
            crashed: false,
        }
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Unwrap the inner fs (to inspect what survived the crash).
    pub fn into_inner(self) -> F {
        self.inner
    }

    fn dead(op: &'static str) -> WalError {
        WalError::Io {
            op,
            message: "injected crash: process already dead".to_string(),
        }
    }

    /// Charge an all-or-nothing operation costing `cost`.
    fn charge(&mut self, op: &'static str, cost: u64) -> Result<(), WalError> {
        if self.crashed {
            return Err(Self::dead(op));
        }
        if cost > self.remaining {
            self.crashed = true;
            self.remaining = 0;
            return Err(WalError::Io {
                op,
                message: "injected crash: budget exhausted".to_string(),
            });
        }
        self.remaining -= cost;
        Ok(())
    }
}

impl<F: StoreFs> StoreFs for FailingFs<F> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
        if self.crashed {
            return Err(Self::dead("read"));
        }
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        if self.crashed {
            return Err(Self::dead("append"));
        }
        if (bytes.len() as u64) <= self.remaining {
            self.remaining -= bytes.len() as u64;
            return self.inner.append(name, bytes);
        }
        // Torn write: persist only the prefix the budget covers, then die.
        let keep = self.remaining as usize;
        self.crashed = true;
        self.remaining = 0;
        if keep > 0 {
            self.inner.append(name, &bytes[..keep])?;
        }
        Err(WalError::Io {
            op: "append",
            message: format!("injected crash: write torn after {keep} bytes"),
        })
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        self.charge("truncate", 1)?;
        self.inner.truncate(name, len)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.charge("write_atomic", bytes.len() as u64)?;
        self.inner.write_atomic(name, bytes)
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        self.charge("remove", 1)?;
        self.inner.remove(name)
    }

    fn list(&mut self) -> Result<Vec<String>, WalError> {
        if self.crashed {
            return Err(Self::dead("list"));
        }
        self.inner.list()
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        if self.crashed {
            return Err(Self::dead("sync"));
        }
        self.inner.sync(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_round_trips_and_shares_between_clones() {
        let mut fs = MemFs::new();
        assert_eq!(fs.read("a").unwrap(), None);
        fs.append("a", b"he").unwrap();
        fs.append("a", b"llo").unwrap();
        let mut twin = fs.clone();
        assert_eq!(twin.read("a").unwrap().unwrap(), b"hello");
        twin.truncate("a", 2).unwrap();
        assert_eq!(fs.read("a").unwrap().unwrap(), b"he");
        fs.write_atomic("b", b"x").unwrap();
        assert_eq!(fs.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        fs.remove("a").unwrap();
        assert!(fs.remove("a").is_err(), "double remove must error");
        assert_eq!(fs.list().unwrap(), vec!["b".to_string()]);
    }

    #[test]
    fn failingfs_tears_appends_but_never_atomic_writes() {
        let mem = MemFs::new();
        let mut failing = FailingFs::new(mem.clone(), 10);
        failing.append("seg", b"123456").unwrap(); // 6 spent, 4 left
        assert!(failing.write_atomic("MANIFEST", b"12345").is_err());
        assert!(failing.crashed());
        // The atomic write did NOT land torn — it did not land at all.
        assert_eq!(mem.snapshot().get("MANIFEST"), None);
        assert_eq!(mem.snapshot().get("seg").unwrap(), b"123456");

        // An append over budget tears at exactly the remaining bytes.
        let mem = MemFs::new();
        let mut failing = FailingFs::new(mem.clone(), 4);
        assert!(failing.append("seg", b"123456").is_err());
        assert_eq!(mem.snapshot().get("seg").unwrap(), b"1234");
        // The dead process stays dead.
        assert!(failing.read("seg").is_err());
        assert!(failing.append("seg", b"x").is_err());
    }

    #[test]
    fn dirfs_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-dirfs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut d = DirFs::open(&dir).unwrap();
        assert_eq!(d.read("a").unwrap(), None);
        d.append("a", b"he").unwrap();
        d.append("a", b"llo").unwrap();
        assert_eq!(d.read("a").unwrap().unwrap(), b"hello");
        d.truncate("a", 2).unwrap();
        d.write_atomic("m", b"manifest").unwrap();
        d.write_atomic("m", b"manifest2").unwrap();
        assert_eq!(d.read("m").unwrap().unwrap(), b"manifest2");
        assert_eq!(d.list().unwrap(), vec!["a".to_string(), "m".to_string()]);
        d.sync("a").unwrap();
        d.remove("a").unwrap();
        assert_eq!(d.read("a").unwrap(), None);
        assert!(d.remove("a").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
