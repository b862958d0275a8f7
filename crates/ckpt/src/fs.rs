//! The injectable filesystem boundary.
//!
//! Every byte the checkpoint layer reads or writes flows through the
//! [`FaultFs`] trait, so tests can substitute a hermetic in-memory store
//! ([`MemFs`]) and wrap either backend in a seeded fault injector
//! ([`ChaosFs`]). [`RealFs`] is the single sanctioned `std::fs` write site
//! in the workspace — dlint rule D13 flags direct filesystem writes
//! anywhere else in library code precisely so that fault injection can
//! never be bypassed by accident.

use dcfail_chaos::{IoFault, IoFaultInjector, IoFaultPlan};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// What kind of failure an I/O operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsErrorKind {
    /// Retry may succeed (injected `EIO`/`ENOSPC`, or a real `Interrupted`).
    Transient,
    /// The path does not exist.
    NotFound,
    /// The process was hard-killed by an injected fault at operation `op`.
    Killed {
        /// 0-based index of the fatal I/O operation.
        op: u64,
    },
    /// Any other persistent failure (permissions, real ENOSPC, …).
    Other,
}

/// A failed filesystem operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsError {
    /// Failure classification, driving the retry decision.
    pub kind: FsErrorKind,
    /// Human-oriented description including the operation and path.
    pub message: String,
}

impl FsError {
    fn new(kind: FsErrorKind, message: impl Into<String>) -> Self {
        FsError {
            kind,
            message: message.into(),
        }
    }

    /// True when the retry policy is allowed to re-attempt the operation.
    pub fn is_transient(&self) -> bool {
        self.kind == FsErrorKind::Transient
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for FsError {}

/// The filesystem operations the checkpoint layer needs, as an injectable
/// boundary. Paths are plain strings with `/` separators, relative to
/// whatever root the backend was given.
pub trait FaultFs {
    /// Reads the whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError>;
    /// Creates/truncates the file with `bytes` and makes it durable
    /// (fsync or backend equivalent) before returning.
    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), FsError>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &str, to: &str) -> Result<(), FsError>;
    /// Removes the file; removing a missing file reports `NotFound`.
    fn remove(&self, path: &str) -> Result<(), FsError>;
    /// Whether the path currently exists.
    fn exists(&self, path: &str) -> Result<bool, FsError>;
    /// Creates the directory and all parents; existing directories are fine.
    fn create_dir_all(&self, path: &str) -> Result<(), FsError>;
}

/// A shared backend: the store can own one handle while its creator keeps
/// another, e.g. to read a [`ChaosFs`]'s op counters after the run.
impl<F: FaultFs + ?Sized> FaultFs for Arc<F> {
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        (**self).read(path)
    }
    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        (**self).write(path, bytes)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        (**self).rename(from, to)
    }
    fn remove(&self, path: &str) -> Result<(), FsError> {
        (**self).remove(path)
    }
    fn exists(&self, path: &str) -> Result<bool, FsError> {
        (**self).exists(path)
    }
    fn create_dir_all(&self, path: &str) -> Result<(), FsError> {
        (**self).create_dir_all(path)
    }
}

/// The real `std::fs` backend — the one sanctioned write site (D13).
#[derive(Debug, Clone, Default)]
pub struct RealFs;

impl RealFs {
    fn map_io(op: &str, path: &str, e: &std::io::Error) -> FsError {
        let kind = match e.kind() {
            std::io::ErrorKind::NotFound => FsErrorKind::NotFound,
            std::io::ErrorKind::Interrupted => FsErrorKind::Transient,
            _ => FsErrorKind::Other,
        };
        FsError::new(kind, format!("{op} {path}: {e}"))
    }
}

impl FaultFs for RealFs {
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        std::fs::read(path).map_err(|e| Self::map_io("read", path, &e))
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        use std::io::Write;
        // dlint::allow(D13): RealFs is the sanctioned checkpoint write site; all other code goes through FaultFs
        let mut file = std::fs::File::create(path).map_err(|e| Self::map_io("create", path, &e))?;
        file.write_all(bytes)
            .map_err(|e| Self::map_io("write", path, &e))?;
        // Durability before publish: the atomic-rename argument only holds
        // if the temp file's bytes hit the disk before the rename does.
        file.sync_all().map_err(|e| Self::map_io("fsync", path, &e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        // dlint::allow(D13): RealFs is the sanctioned checkpoint write site; all other code goes through FaultFs
        std::fs::rename(from, to).map_err(|e| Self::map_io("rename", from, &e))?;
        // Best-effort directory fsync so the rename itself is durable; not
        // all platforms allow opening a directory, so failures are ignored.
        if let Some(parent) = std::path::Path::new(to).parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        // dlint::allow(D13): RealFs is the sanctioned checkpoint write site; all other code goes through FaultFs
        std::fs::remove_file(path).map_err(|e| Self::map_io("remove", path, &e))
    }

    fn exists(&self, path: &str) -> Result<bool, FsError> {
        Ok(std::path::Path::new(path).exists())
    }

    fn create_dir_all(&self, path: &str) -> Result<(), FsError> {
        // dlint::allow(D13): RealFs is the sanctioned checkpoint write site; all other code goes through FaultFs
        std::fs::create_dir_all(path).map_err(|e| Self::map_io("mkdir", path, &e))
    }
}

/// Hermetic in-memory backend for tests and the crash-matrix harness.
///
/// Clones share the same underlying map, so a "killed" run and the resume
/// that follows it can observe the same surviving files without touching
/// the real disk.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemFs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemFs::default()
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        // A poisoned lock only means a test thread panicked mid-operation;
        // the map itself is still structurally sound.
        self.files
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Direct snapshot of a file's bytes (test hook).
    pub fn snapshot(&self, path: &str) -> Option<Vec<u8>> {
        self.files().get(path).cloned()
    }

    /// Paths currently stored, in sorted order (test hook).
    #[cfg(test)]
    pub(crate) fn paths(&self) -> Vec<String> {
        self.files().keys().cloned().collect()
    }
}

impl FaultFs for MemFs {
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| FsError::new(FsErrorKind::NotFound, format!("read {path}: not found")))
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        self.files().insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let mut files = self.files();
        let Some(bytes) = files.remove(from) else {
            return Err(FsError::new(
                FsErrorKind::NotFound,
                format!("rename {from}: not found"),
            ));
        };
        files.insert(to.to_string(), bytes);
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.files()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| FsError::new(FsErrorKind::NotFound, format!("remove {path}: not found")))
    }

    fn exists(&self, path: &str) -> Result<bool, FsError> {
        Ok(self.files().contains_key(path))
    }

    fn create_dir_all(&self, _path: &str) -> Result<(), FsError> {
        Ok(())
    }
}

/// Fault-injecting wrapper: forwards every operation to the inner backend
/// unless the seeded [`IoFaultPlan`] says otherwise.
///
/// Every trait call counts as one I/O operation, in call order — the
/// checkpointed pipeline performs its I/O in deterministic order, so the
/// operation index is reproducible and `kill_at_op = K` names the same
/// logical operation on every run of the same configuration.
#[derive(Debug)]
pub struct ChaosFs<F: FaultFs> {
    inner: F,
    injector: Mutex<IoFaultInjector>,
}

impl<F: FaultFs> ChaosFs<F> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: F, plan: IoFaultPlan) -> Self {
        ChaosFs {
            inner,
            injector: Mutex::new(IoFaultInjector::new(plan)),
        }
    }

    /// Total operations decided so far (test/harness hook).
    pub fn ops(&self) -> u64 {
        self.injector().ops()
    }

    /// Transient faults injected so far (test/harness hook).
    pub fn transients(&self) -> u64 {
        self.injector().transients()
    }

    fn injector(&self) -> std::sync::MutexGuard<'_, IoFaultInjector> {
        self.injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Decides the next operation's fate; `Err` means the operation must
    /// not reach the inner backend (except the torn prefix of a kill).
    fn gate(&self, op_name: &str, path: &str, write: Option<&[u8]>) -> Result<(), FsError> {
        let mut injector = self.injector();
        let op = injector.ops();
        match injector.decide(write.map(<[u8]>::len)) {
            None => Ok(()),
            Some(IoFault::TransientEio) => {
                dcfail_obs::add("ckpt.faults_injected", 1);
                Err(FsError::new(
                    FsErrorKind::Transient,
                    format!("{op_name} {path}: injected EIO (op {op})"),
                ))
            }
            Some(IoFault::TransientEnospc) => {
                dcfail_obs::add("ckpt.faults_injected", 1);
                Err(FsError::new(
                    FsErrorKind::Transient,
                    format!("{op_name} {path}: injected ENOSPC (op {op})"),
                ))
            }
            Some(IoFault::Kill { torn_keep_bytes }) => {
                if let (Some(bytes), Some(keep)) = (write, torn_keep_bytes) {
                    // The dying process got part of the payload to disk:
                    // exactly the torn file the checksum layer must catch.
                    let _ = self.inner.write(path, &bytes[..keep]);
                }
                Err(FsError::new(
                    FsErrorKind::Killed { op },
                    format!("{op_name} {path}: killed at op {op}"),
                ))
            }
        }
    }
}

impl<F: FaultFs> FaultFs for ChaosFs<F> {
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.gate("read", path, None)?;
        self.inner.read(path)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        self.gate("write", path, Some(bytes))?;
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        self.gate("rename", from, None)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.gate("remove", path, None)?;
        self.inner.remove(path)
    }

    fn exists(&self, path: &str) -> Result<bool, FsError> {
        self.gate("exists", path, None)?;
        self.inner.exists(path)
    }

    fn create_dir_all(&self, path: &str) -> Result<(), FsError> {
        self.gate("mkdir", path, None)?;
        self.inner.create_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_roundtrip_and_rename() {
        let fs = MemFs::new();
        fs.create_dir_all("ckpt").unwrap();
        fs.write("ckpt/a.tmp", b"hello").unwrap();
        assert!(fs.exists("ckpt/a.tmp").unwrap());
        fs.rename("ckpt/a.tmp", "ckpt/a.seg").unwrap();
        assert!(!fs.exists("ckpt/a.tmp").unwrap());
        assert_eq!(fs.read("ckpt/a.seg").unwrap(), b"hello");
        fs.remove("ckpt/a.seg").unwrap();
        assert_eq!(
            fs.read("ckpt/a.seg").unwrap_err().kind,
            FsErrorKind::NotFound
        );
    }

    #[test]
    fn memfs_clones_share_state() {
        let fs = MemFs::new();
        let other = fs.clone();
        fs.write("x", b"1").unwrap();
        assert_eq!(other.read("x").unwrap(), b"1");
    }

    #[test]
    fn arc_backend_forwards_every_op() {
        let mem = MemFs::new();
        // Boxed as the store holds it, so each call goes through the Arc impl.
        let fs: Box<dyn FaultFs> = Box::new(Arc::new(mem.clone()));
        fs.create_dir_all("ckpt").unwrap();
        fs.write("ckpt/a.tmp", b"hello").unwrap();
        assert!(fs.exists("ckpt/a.tmp").unwrap());
        fs.rename("ckpt/a.tmp", "ckpt/a.seg").unwrap();
        assert_eq!(mem.snapshot("ckpt/a.seg"), Some(b"hello".to_vec()));
        assert_eq!(fs.read("ckpt/a.seg").unwrap(), b"hello");
        fs.remove("ckpt/a.seg").unwrap();
        assert!(!mem.exists("ckpt/a.seg").unwrap());
        assert_eq!(
            fs.read("ckpt/a.seg").unwrap_err().kind,
            FsErrorKind::NotFound
        );
    }

    #[test]
    fn chaosfs_kill_leaves_torn_prefix() {
        let mem = MemFs::new();
        let plan = IoFaultPlan {
            kill_at_op: Some(0),
            torn_writes: true,
            ..IoFaultPlan::quiet(5)
        };
        let fs = ChaosFs::new(mem.clone(), plan);
        let payload = vec![7u8; 64];
        let err = fs.write("seg", &payload).unwrap_err();
        assert_eq!(err.kind, FsErrorKind::Killed { op: 0 });
        let torn = mem.snapshot("seg").expect("torn prefix must be present");
        assert!(torn.len() < payload.len(), "file must be truncated");
        assert!(torn.iter().all(|&b| b == 7));
    }

    #[test]
    fn chaosfs_transient_is_injected_then_clears() {
        // Rate 1.0 faults every op; rate 0 forwards everything.
        let fs = ChaosFs::new(MemFs::new(), IoFaultPlan::transient(3, 1.0));
        assert!(fs.write("x", b"1").unwrap_err().is_transient());
        let quiet = ChaosFs::new(MemFs::new(), IoFaultPlan::quiet(3));
        quiet.write("x", b"1").unwrap();
        assert_eq!(quiet.ops(), 1);
    }
}
