//! The checkpoint store: segments + manifest over an injectable filesystem.

use crate::fs::{FaultFs, FsErrorKind};
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_VERSION};
use crate::retry::RetryPolicy;
use crate::segment::{decode_segment, encode_segment};
use crate::CkptError;
use dcfail_stats::digest::fnv1a;
use serde::{Deserialize, Value};

/// File name of the manifest inside the checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// A checkpoint directory bound to a filesystem backend and retry policy.
///
/// The store never caches state between calls: the [`Manifest`] returned by
/// [`CheckpointStore::open`] is the caller's cursor, mutated by
/// [`CheckpointStore::load_segment`] (drops invalid entries) and
/// [`CheckpointStore::write_segment`] (adds published entries and persists
/// the manifest).
pub struct CheckpointStore {
    fs: Box<dyn FaultFs>,
    dir: String,
    retry: RetryPolicy,
}

impl CheckpointStore {
    /// A store rooted at `dir` on the given backend, with the default
    /// retry policy.
    pub fn new(fs: Box<dyn FaultFs>, dir: impl Into<String>) -> Self {
        CheckpointStore {
            fs,
            dir: dir.into(),
            retry: RetryPolicy::default(),
        }
    }

    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.dir)
    }

    /// Opens (or initializes) the checkpoint directory for a run described
    /// by `config_digest` and `num_shards`.
    ///
    /// A readable, current-version manifest for the same run is returned
    /// as-is (resume). A missing, torn or checksum-invalid manifest yields
    /// a fresh one — an interrupted first manifest write loses nothing but
    /// the in-flight segment. A manifest with a different schema version,
    /// config digest or shard count is an error: silently recomputing over
    /// someone else's checkpoint directory would be data loss.
    pub fn open(&self, config_digest: u64, num_shards: u64) -> Result<Manifest, CkptError> {
        self.retry.run(|| self.fs.create_dir_all(&self.dir))?;
        let manifest_path = self.path(MANIFEST_FILE);
        let bytes = match self.retry.run(|| self.fs.read(&manifest_path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind == FsErrorKind::NotFound => {
                return Ok(Manifest::new(config_digest, num_shards));
            }
            Err(e) => return Err(e.into()),
        };
        let payload = match decode_segment(&bytes) {
            Ok(payload) => payload,
            Err(err) => {
                // A torn manifest can only be the crash we are designed to
                // absorb; its segments are unreachable, so start over.
                dcfail_obs::warn(format!(
                    "ckpt: discarding unreadable manifest {manifest_path}: {err}"
                ));
                return Ok(Manifest::new(config_digest, num_shards));
            }
        };
        let text = String::from_utf8_lossy(payload);
        let value: Value = serde_json::from_str(&text).map_err(|e| CkptError::Io {
            message: format!("manifest {manifest_path} passed checksum but is not JSON: {e}"),
        })?;
        let found = value
            .get("version")
            .and_then(|v| u32::from_value(v).ok())
            .unwrap_or_default();
        if found != MANIFEST_VERSION {
            return Err(CkptError::ManifestVersion {
                found,
                expected: MANIFEST_VERSION,
            });
        }
        let manifest: Manifest = serde_json::from_value(&value).map_err(|e| CkptError::Io {
            message: format!("manifest {manifest_path} has version {found} but bad shape: {e}"),
        })?;
        if manifest.config_digest != config_digest {
            return Err(CkptError::Mismatch {
                message: format!(
                    "config digest {:#018x} on disk vs {config_digest:#018x} requested",
                    manifest.config_digest
                ),
            });
        }
        if manifest.num_shards != num_shards {
            return Err(CkptError::Mismatch {
                message: format!(
                    "{} shards on disk vs {num_shards} requested",
                    manifest.num_shards
                ),
            });
        }
        Ok(manifest)
    }

    /// Loads a published segment's payload, or `None` when it must be
    /// recomputed.
    ///
    /// `None` covers: no manifest entry, file missing, torn file, checksum
    /// or length mismatch against either the envelope or the manifest. An
    /// invalid file is removed and its entry dropped — corrupt state is
    /// re-derived, never ingested. Only real I/O failures (and injected
    /// kills) are errors.
    pub fn load_segment(
        &self,
        manifest: &mut Manifest,
        name: &str,
    ) -> Result<Option<Vec<u8>>, CkptError> {
        let Some(meta) = manifest.segments.get(name).cloned() else {
            return Ok(None);
        };
        let path = self.path(name);
        let bytes = match self.retry.run(|| self.fs.read(&path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind == FsErrorKind::NotFound => {
                manifest.segments.remove(name);
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        let reason = if bytes.len() as u64 == meta.len {
            match decode_segment(&bytes) {
                Ok(payload) if fnv1a([payload]) == meta.checksum => {
                    if dcfail_obs::enabled() {
                        dcfail_obs::add("ckpt.segments_loaded", 1);
                    }
                    return Ok(Some(payload.to_vec()));
                }
                Ok(_) => Some("payload digest differs from manifest".to_string()),
                Err(err) => Some(err.to_string()),
            }
        } else {
            Some(format!(
                "length {} differs from manifest ({})",
                bytes.len(),
                meta.len
            ))
        };
        if let Some(reason) = reason {
            dcfail_obs::warn(format!(
                "ckpt: discarding segment {path}: {reason}; recomputing"
            ));
            if dcfail_obs::enabled() {
                dcfail_obs::add("ckpt.segments_discarded", 1);
            }
            manifest.segments.remove(name);
            // Best-effort cleanup: the rewrite will replace the file, but a
            // kill mid-removal must still surface as a kill.
            if let Err(e) = self.retry.run(|| self.fs.remove(&path)) {
                if matches!(e.kind, FsErrorKind::Killed { .. }) {
                    return Err(e.into());
                }
            }
        }
        Ok(None)
    }

    /// Publishes a segment: envelope, temp write, fsync, atomic rename,
    /// manifest entry, manifest rewrite — in that order, so the manifest
    /// never references an incomplete file.
    pub fn write_segment(
        &self,
        manifest: &mut Manifest,
        name: &str,
        payload: &[u8],
    ) -> Result<(), CkptError> {
        let bytes = encode_segment(payload);
        let tmp = self.path(&format!("{name}.tmp"));
        let path = self.path(name);
        self.retry.run(|| self.fs.write(&tmp, &bytes))?;
        self.retry.run(|| self.fs.rename(&tmp, &path))?;
        manifest.segments.insert(
            name.to_string(),
            SegmentMeta {
                len: bytes.len() as u64,
                checksum: fnv1a([payload]),
            },
        );
        self.write_manifest(manifest)?;
        if dcfail_obs::enabled() {
            dcfail_obs::add("ckpt.segments_written", 1);
        }
        Ok(())
    }

    fn write_manifest(&self, manifest: &Manifest) -> Result<(), CkptError> {
        let json = serde_json::to_string(manifest).map_err(|e| CkptError::Io {
            message: format!("manifest serialization failed: {e}"),
        })?;
        let bytes = encode_segment(json.as_bytes());
        let tmp = self.path(&format!("{MANIFEST_FILE}.tmp"));
        let path = self.path(MANIFEST_FILE);
        self.retry.run(|| self.fs.write(&tmp, &bytes))?;
        self.retry.run(|| self.fs.rename(&tmp, &path))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{ChaosFs, MemFs};

    fn mem_store(fs: &MemFs) -> CheckpointStore {
        CheckpointStore::new(Box::new(fs.clone()), "ckpt")
    }

    #[test]
    fn write_then_resume_roundtrip() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let mut manifest = store.open(11, 4).unwrap();
        store
            .write_segment(&mut manifest, "norms-0000.seg", b"alpha")
            .unwrap();
        store
            .write_segment(&mut manifest, "norms-0001.seg", b"beta")
            .unwrap();

        // A second store (fresh process) sees both segments.
        let store2 = mem_store(&fs);
        let mut resumed = store2.open(11, 4).unwrap();
        assert_eq!(resumed.segments.len(), 2);
        assert_eq!(
            store2.load_segment(&mut resumed, "norms-0000.seg").unwrap(),
            Some(b"alpha".to_vec())
        );
        assert_eq!(
            store2.load_segment(&mut resumed, "norms-0001.seg").unwrap(),
            Some(b"beta".to_vec())
        );
        assert_eq!(
            store2.load_segment(&mut resumed, "norms-0002.seg").unwrap(),
            None
        );
        // No temp files survive a clean publish.
        assert!(fs.paths().iter().all(|p| !p.contains(".tmp")));
    }

    #[test]
    fn store_owning_an_arc_leaves_chaos_counters_readable() {
        use dcfail_chaos::IoFaultPlan;
        use std::sync::Arc;
        let chaos = Arc::new(ChaosFs::new(MemFs::new(), IoFaultPlan::quiet(3)));
        let store = CheckpointStore::new(Box::new(Arc::clone(&chaos)), "ckpt");
        let mut manifest = store.open(1, 1).unwrap();
        let opened = chaos.ops();
        assert!(opened > 0, "open goes through the shared backend");
        store.write_segment(&mut manifest, "s.seg", b"x").unwrap();
        // Segment write + rename, then manifest write + rename.
        assert_eq!(chaos.ops() - opened, 4);
        assert_eq!(chaos.transients(), 0);
    }

    #[test]
    fn torn_segment_is_discarded_not_ingested() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let mut manifest = store.open(1, 2).unwrap();
        store
            .write_segment(&mut manifest, "pass2-0000.seg", b"full payload")
            .unwrap();

        // Truncate the published file behind the store's back.
        let full = fs.snapshot("ckpt/pass2-0000.seg").unwrap();
        fs.write("ckpt/pass2-0000.seg", &full[..full.len() / 2])
            .unwrap();

        let store2 = mem_store(&fs);
        let mut resumed = store2.open(1, 2).unwrap();
        assert_eq!(
            store2.load_segment(&mut resumed, "pass2-0000.seg").unwrap(),
            None
        );
        assert!(!resumed.segments.contains_key("pass2-0000.seg"));
        assert!(
            fs.snapshot("ckpt/pass2-0000.seg").is_none(),
            "torn file removed"
        );
    }

    #[test]
    fn bitflipped_segment_is_discarded() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let mut manifest = store.open(1, 2).unwrap();
        store
            .write_segment(&mut manifest, "s.seg", b"payload bytes")
            .unwrap();
        let mut bytes = fs.snapshot("ckpt/s.seg").unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs.write("ckpt/s.seg", &bytes).unwrap();
        let mut resumed = mem_store(&fs).open(1, 2).unwrap();
        assert_eq!(
            mem_store(&fs).load_segment(&mut resumed, "s.seg").unwrap(),
            None
        );
    }

    #[test]
    fn stale_manifest_version_is_rejected() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let mut manifest = store.open(5, 2).unwrap();
        store.write_segment(&mut manifest, "s.seg", b"x").unwrap();

        // Rewrite the manifest claiming a future schema version.
        let payload = decode_segment(&fs.snapshot("ckpt/MANIFEST").unwrap())
            .unwrap()
            .to_vec();
        let text = String::from_utf8(payload).unwrap();
        let bumped = text.replace("\"version\":1", "\"version\":999");
        assert_ne!(text, bumped, "version field must be present to bump");
        fs.write("ckpt/MANIFEST", &encode_segment(bumped.as_bytes()))
            .unwrap();

        let err = mem_store(&fs).open(5, 2).unwrap_err();
        assert_eq!(
            err,
            CkptError::ManifestVersion {
                found: 999,
                expected: MANIFEST_VERSION
            }
        );
    }

    #[test]
    fn torn_manifest_starts_fresh() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let mut manifest = store.open(5, 2).unwrap();
        store.write_segment(&mut manifest, "s.seg", b"x").unwrap();
        let bytes = fs.snapshot("ckpt/MANIFEST").unwrap();
        fs.write("ckpt/MANIFEST", &bytes[..bytes.len() - 3])
            .unwrap();
        let fresh = mem_store(&fs).open(5, 2).unwrap();
        assert!(fresh.segments.is_empty(), "torn manifest resets the run");
    }

    #[test]
    fn mismatched_run_is_refused() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let manifest = store.open(5, 2).unwrap();
        store
            .write_manifest(&manifest)
            .expect("persist empty manifest");
        assert!(matches!(
            mem_store(&fs).open(6, 2),
            Err(CkptError::Mismatch { .. })
        ));
        assert!(matches!(
            mem_store(&fs).open(5, 3),
            Err(CkptError::Mismatch { .. })
        ));
    }

    #[test]
    fn only_segments_the_manifest_lists_are_loaded() {
        let fs = MemFs::new();
        let store = mem_store(&fs);
        let mut manifest = store.open(1, 2).unwrap();
        fs.write("ckpt/norms-0000.seg", &encode_segment(b"stray"))
            .unwrap();
        assert_eq!(
            store.load_segment(&mut manifest, "norms-0000.seg").unwrap(),
            None
        );

        store
            .write_segment(&mut manifest, "norms-0001.seg", b"listed")
            .unwrap();
        fs.remove("ckpt/norms-0001.seg").unwrap();
        assert_eq!(
            store.load_segment(&mut manifest, "norms-0001.seg").unwrap(),
            None
        );
        assert!(
            manifest.segments.is_empty(),
            "a vanished file loses its entry"
        );
    }

    #[test]
    fn a_checksummed_manifest_that_is_not_json_is_an_error() {
        let fs = MemFs::new();
        fs.write("ckpt/MANIFEST", &encode_segment(b"not json"))
            .unwrap();
        match mem_store(&fs).open(1, 2) {
            Err(CkptError::Io { message }) => {
                assert!(
                    message.contains("passed checksum but is not JSON"),
                    "{message}"
                );
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }
}
