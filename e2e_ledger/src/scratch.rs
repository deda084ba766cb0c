//! The benchmark's scratch space: one directory per process under the
//! crate's own `target/`, on the repo's real filesystem (durable
//! workloads must pay a real `fsync`, so never tmpfs).

use std::path::{Path, PathBuf};

/// The benchmark crate's directory. The binary is always built from the
/// checkout it runs in, so the compile-time path is the run-time one.
pub fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn tmp_root() -> PathBuf {
    crate_dir().join("target").join("e2e_ledger-tmp")
}

/// Where result files are written.
pub fn results_dir() -> PathBuf {
    crate_dir().join("target").join("bench-json")
}

/// A per-process scratch directory, removed on drop — which a panic or a
/// failed check unwinding through `main` also reaches. A leftover WAL
/// would silently turn a measured create into recovery + resume.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Remove directories whose process is gone, then create this
    /// process's own.
    pub fn create(workload: &str) -> Result<Self, String> {
        let root = tmp_root();
        if let Ok(entries) = std::fs::read_dir(&root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let pid = name
                    .to_string_lossy()
                    .rsplit('-')
                    .next()
                    .map(str::to_string);
                let alive = pid.is_some_and(|pid| Path::new("/proc").join(pid).exists());
                if !alive {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create scratch `{}`: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        if dir.exists() {
            return Err(format!("scratch `{}` already exists", dir.display()));
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create `{}`: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_unique_fresh_and_removed() {
        let stale = tmp_root().join("unit-test-4194305"); // above pid_max
        std::fs::create_dir_all(&stale).unwrap();
        let scratch = Scratch::create("unit-test").unwrap();
        assert!(
            !stale.exists(),
            "stale scratch of a dead process is removed"
        );
        let sub = scratch.fresh("w0").unwrap();
        assert!(sub.is_dir());
        assert!(scratch.fresh("w0").is_err(), "a world never reuses a dir");
        let path = scratch.path().to_path_buf();
        drop(scratch);
        assert!(!path.exists());
    }
}
