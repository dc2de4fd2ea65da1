//! [`WorldStore`] — the directory-level durability manager: the
//! manifest, loaded once at open and rewritten whole after every
//! batch of admin ops, plus per-world snapshot files.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use biorank_obs::{Counter, Histogram, MetricsRegistry};

use crate::container::{read_container, write_container, FileKind};
use crate::manifest::{Manifest, ManifestEntry, WalOp};
use crate::StoreError;

/// Manifest file name inside a data directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// What [`WorldStore::recover`] returns: the manifest, each world with
/// its snapshot file when one is on disk.
pub type Recovery = Manifest;

/// One world of a [`Recovery`].
pub type RecoveredWorld = ManifestEntry;

/// Percent-escapes a world name into a filesystem-safe snapshot stem:
/// ASCII alphanumerics plus `.`, `_`, `-` pass through, everything
/// else becomes `%XX` per byte. Injective, so distinct world names
/// never collide on disk.
pub fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn snapshot_file(world: &str) -> String {
    format!("{}.snap", escape_name(world))
}

/// A durable world store rooted at one data directory.
#[derive(Debug)]
pub struct WorldStore {
    dir: PathBuf,
    /// The manifest as last written (or as an unwritten fold after a
    /// failed write). Its lock ([`WorldStore::begin`]) is held from
    /// before the caller's change through the whole-file write, so
    /// two writers never share `MANIFEST.tmp` and writes land in the
    /// order the changes were made.
    manifest: Mutex<Manifest>,
    manifest_write: Arc<Counter>,
    snapshot_write: Arc<Counter>,
    snapshot_load: Arc<Counter>,
    snapshot_bytes: Arc<Histogram>,
    load_ns: Arc<Histogram>,
}

impl WorldStore {
    /// Opens (creating if needed) a data directory and reads its
    /// manifest, if any; a leftover `MANIFEST.tmp` (a crash before its
    /// rename) is ignored. Persistence telemetry is published into
    /// `registry` under `store.*` names.
    pub fn open(dir: impl Into<PathBuf>, registry: &MetricsRegistry) -> crate::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        retire_legacy_wal(&dir)?;
        let manifest = match read_container(&dir.join(MANIFEST_FILE), FileKind::Manifest) {
            Ok(payload) => Manifest::decode(&payload)?,
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Manifest::default()
            }
            Err(e) => return Err(e),
        };
        Ok(Self {
            dir,
            manifest: Mutex::new(manifest),
            manifest_write: registry.counter("store.manifest_write"),
            snapshot_write: registry.counter("store.snapshot_write"),
            snapshot_load: registry.counter("store.snapshot_load"),
            snapshot_bytes: registry.histogram("store.snapshot_bytes"),
            load_ns: registry.histogram("store.load_ns"),
        })
    }

    /// The registry state the manifest records. Each world gets its own
    /// `<escaped name>.snap` when that file exists (a `world.save` or a
    /// checkpoint wrote it) and no snapshot otherwise, whatever pointer
    /// an older manifest carries; the loader verifies the file's spec
    /// before trusting it.
    pub fn recover(&self) -> crate::Result<Recovery> {
        let mut recovery = self.begin().manifest.clone();
        for (name, world) in &mut recovery.worlds {
            let file = snapshot_file(name);
            world.snapshot = self.dir.join(&file).exists().then_some(file);
        }
        Ok(recovery)
    }

    /// Takes the manifest lock. A caller that changes the state the
    /// manifest records takes it before its own lock on that state and
    /// commits after releasing it, so manifest writes land in the order
    /// the changes were made.
    pub fn begin(&self) -> ManifestTxn<'_> {
        ManifestTxn {
            store: self,
            manifest: self.manifest.lock().expect("store manifest"),
        }
    }

    /// [`begin`](WorldStore::begin) then [`commit`](ManifestTxn::commit)
    /// `ops`; with no ops it rewrites the manifest as folded so far.
    pub fn apply(&self, ops: &[WalOp]) -> crate::Result<()> {
        self.begin().commit(ops)
    }

    /// [`apply`](WorldStore::apply) of one op.
    pub fn append(&self, op: &WalOp) -> crate::Result<()> {
        self.apply(std::slice::from_ref(op))
    }

    /// Writes a world snapshot payload atomically, returning the
    /// snapshot file name (manifest-relative) and its size in bytes.
    pub fn save_snapshot(&self, world: &str, payload: &[u8]) -> crate::Result<(String, u64)> {
        let file = snapshot_file(world);
        let bytes = write_container(&self.dir.join(&file), FileKind::Snapshot, payload)?;
        self.snapshot_write.inc();
        self.snapshot_bytes.record(bytes);
        Ok((file, bytes))
    }

    /// Reads and verifies a snapshot file, returning its payload.
    pub fn load_snapshot(&self, file: &str) -> crate::Result<Vec<u8>> {
        let start = Instant::now();
        let payload = read_container(&self.dir.join(file), FileKind::Snapshot)?;
        self.snapshot_load.inc();
        self.load_ns.record(start.elapsed().as_nanos() as u64);
        Ok(payload)
    }

    /// Removes the snapshot file for `world`, if present. Called on
    /// evict so a later world under the same name cannot resurrect
    /// stale cached results.
    pub fn remove_snapshot(&self, world: &str) -> crate::Result<()> {
        match fs::remove_file(self.dir.join(snapshot_file(world))) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(StoreError::Io(e)),
            _ => Ok(()),
        }
    }
}

/// The held manifest lock of one admin transition, from
/// [`WorldStore::begin`] to [`commit`](ManifestTxn::commit). Dropping
/// it uncommitted writes nothing.
#[derive(Debug)]
pub struct ManifestTxn<'a> {
    store: &'a WorldStore,
    manifest: MutexGuard<'a, Manifest>,
}

impl ManifestTxn<'_> {
    /// Folds `ops` into the manifest and writes it whole, atomically
    /// and fsync'd: a crash leaves the state before the batch or after
    /// it. Callers acknowledge the ops only after this succeeds; after
    /// a failed write the ops stay folded in memory for the next one.
    pub fn commit(mut self, ops: &[WalOp]) -> crate::Result<()> {
        for op in ops {
            self.manifest.apply(op);
        }
        write_container(
            &self.store.dir.join(MANIFEST_FILE),
            FileKind::Manifest,
            &self.manifest.encode(),
        )?;
        self.store.manifest_write.inc();
        Ok(())
    }
}

/// Removes an empty `wal.log`, the admin log of older releases, and
/// refuses a non-empty one: its ops are acknowledged but in no
/// manifest, and only the release that wrote it can fold them in.
fn retire_legacy_wal(dir: &Path) -> crate::Result<()> {
    let path = dir.join("wal.log");
    match fs::metadata(&path) {
        Ok(meta) if meta.len() == 0 => Ok(fs::remove_file(&path)?),
        Ok(meta) => Err(StoreError::Corrupt(format!(
            "{}: {} bytes of admin log from an older release; checkpoint it with \
             the previous binary (`biorank admin checkpoint`, or stop that server \
             with SIGTERM), then reopen",
            path.display(),
            meta.len()
        ))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoredSpec;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("biorank-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> StoredSpec {
        StoredSpec {
            seed,
            extended: false,
            cache_capacity: 8,
        }
    }

    fn load(world: &str, seed: u64, generation: u64) -> WalOp {
        WalOp::Load {
            world: world.into(),
            spec: spec(seed),
            generation,
        }
    }

    /// A one-world manifest as older checkpoints wrote it, snapshot
    /// pointer included, written straight into `dir`.
    fn write_checkpointed(dir: &Path, seed: u64, snapshot: &str) {
        let entry = ManifestEntry {
            spec: spec(seed),
            generation: 1,
            snapshot: Some(snapshot.into()),
        };
        let manifest = Manifest {
            next_generation: 2,
            worlds: [("default".to_string(), entry)].into(),
        };
        fs::create_dir_all(dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        write_container(&path, FileKind::Manifest, &manifest.encode()).unwrap();
    }

    /// The manifest as it is on disk, without recovery's file lookup.
    fn on_disk(dir: &Path) -> Manifest {
        let payload = read_container(&dir.join(MANIFEST_FILE), FileKind::Manifest).unwrap();
        Manifest::decode(&payload).unwrap()
    }

    #[test]
    fn escape_name_is_injective_and_safe() {
        for name in ["default", "a/b", "a%b", "../../etc", "w–2", "a b"] {
            let escaped = escape_name(name);
            assert!(
                escaped
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() | matches!(b, b'.' | b'_' | b'-' | b'%')),
                "{escaped}"
            );
            assert!(!escaped.contains('/'));
        }
        assert_ne!(escape_name("a/b"), escape_name("a%2Fb"));
        assert_eq!(escape_name("world-1.x"), "world-1.x");
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmpdir("fresh");
        let store = WorldStore::open(&dir, &registry()).unwrap();
        assert_eq!(store.recover().unwrap(), Recovery::default());
        // Opening writes nothing: the first op writes the manifest.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_appends_survive_reopen() {
        let dir = tmpdir("wal");
        let reg = registry();
        {
            let store = WorldStore::open(&dir, &reg).unwrap();
            store.append(&load("default", 1, 1)).unwrap();
            store.append(&load("w2", 2, 2)).unwrap();
            store.append(&WalOp::Evict { world: "w2".into() }).unwrap();
        }
        let rec = WorldStore::open(&dir, &reg).unwrap().recover().unwrap();
        assert_eq!(rec.next_generation, 3);
        assert_eq!(rec.worlds.len(), 1);
        assert_eq!(rec.worlds["default"].spec, spec(1));
        assert_eq!(rec.worlds["default"].generation, 1);
        assert_eq!(reg.snapshot().counters["store.manifest_write"], 3);
        assert!(!dir.join("wal.log").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash inside an op's manifest write leaves the previous
    /// manifest beside a torn `MANIFEST.tmp`; reopening recovers every
    /// acknowledged op and loses only the one whose write never landed.
    #[test]
    fn torn_wal_tail_loses_only_unacked_op() {
        let dir = tmpdir("torn");
        let reg = registry();
        let store = WorldStore::open(&dir, &reg).unwrap();
        store.append(&load("default", 1, 1)).unwrap();
        store.append(&load("w2", 2, 2)).unwrap();
        let acked = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        store.append(&load("w3", 3, 3)).unwrap();
        let unacked = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        // Roll the directory back to a crash five bytes short of the
        // third write's end, before its rename.
        fs::write(dir.join(MANIFEST_FILE), &acked).unwrap();
        let tmp = dir.join(MANIFEST_FILE).with_extension("tmp");
        fs::write(&tmp, &unacked[..unacked.len() - 5]).unwrap();
        let rec = WorldStore::open(&dir, &reg).unwrap().recover().unwrap();
        assert_eq!(rec.next_generation, 3);
        assert_eq!(rec.worlds.keys().collect::<Vec<_>>(), ["default", "w2"]);
        assert_eq!(rec.worlds["w2"].spec, spec(2));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A manifest that an older checkpoint wrote, pointer included,
    /// still opens, and recovery ignores the pointer: a world gets its
    /// own `<name>.snap` if and only if that file exists. A checkpoint —
    /// every world's snapshot, then the fold rewritten — is one
    /// manifest write that keeps the recorded worlds.
    #[test]
    fn checkpoint_compacts_wal_into_manifest() {
        let dir = tmpdir("ckpt");
        write_checkpointed(&dir, 7, "gone.snap");
        let reg = registry();
        let store = WorldStore::open(&dir, &reg).unwrap();
        // The pointer names an existing file, but not the world's own.
        store.save_snapshot("gone", b"payload").unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.worlds["default"].spec, spec(7));
        assert_eq!(rec.worlds["default"].snapshot, None);

        store.save_snapshot("default", b"payload").unwrap();
        store.apply(&[]).unwrap();
        assert_eq!(reg.snapshot().counters["store.manifest_write"], 1);
        let rec = WorldStore::open(&dir, &reg).unwrap().recover().unwrap();
        assert_eq!(rec.next_generation, 2);
        assert_eq!(rec.worlds.keys().collect::<Vec<_>>(), ["default"]);
        let file = rec.worlds["default"].snapshot.as_deref();
        assert_eq!(file, Some("default.snap"));

        store.remove_snapshot("default").unwrap();
        assert_eq!(store.recover().unwrap().worlds["default"].snapshot, None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A swap records its world without a pointer, so an older
    /// checkpoint's pointer is gone from the file after it. The
    /// world's own snapshot file, written under the old spec, is still
    /// reported by name: the importer's spec check is what refuses it.
    #[test]
    fn wal_op_after_checkpoint_clears_stale_snapshot_pointer() {
        let dir = tmpdir("stale");
        write_checkpointed(&dir, 7, "default.snap");
        let store = WorldStore::open(&dir, &registry()).unwrap();
        store.save_snapshot("default", b"payload").unwrap();
        store
            .append(&WalOp::Swap {
                world: "default".into(),
                spec: spec(8),
                generation: 5,
            })
            .unwrap();
        let recorded = &on_disk(&dir).worlds["default"];
        assert_eq!((recorded.spec, recorded.snapshot.as_ref()), (spec(8), None));
        let rec = store.recover().unwrap();
        assert_eq!(rec.worlds["default"].spec, spec(8));
        assert_eq!(rec.worlds["default"].generation, 5);
        let file = rec.worlds["default"].snapshot.as_deref();
        assert_eq!(file, Some("default.snap"));
        assert_eq!(rec.next_generation, 6);
        store.remove_snapshot("default").unwrap();
        assert_eq!(store.recover().unwrap().worlds["default"].snapshot, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_save_load_remove() {
        let dir = tmpdir("snap");
        let reg = registry();
        let store = WorldStore::open(&dir, &reg).unwrap();
        let payload = vec![42u8; 1000];
        let (file, bytes) = store.save_snapshot("my/world", &payload).unwrap();
        assert_eq!(file, "my%2Fworld.snap");
        assert!(bytes > 1000);
        assert_eq!(store.load_snapshot(&file).unwrap(), payload);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["store.snapshot_write"], 1);
        assert_eq!(snap.counters["store.snapshot_load"], 1);
        assert_eq!(snap.histograms["store.snapshot_bytes"].count, 1);
        assert_eq!(snap.histograms["store.load_ns"].count, 1);
        store.remove_snapshot("my/world").unwrap();
        assert!(store.load_snapshot(&file).is_err());
        // Removing again is a no-op, not an error.
        store.remove_snapshot("my/world").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// An older release's admin log: empty (checkpointed or drained)
    /// it is removed at open; with records in it the open is refused
    /// by name and the manifest beside it stays byte-for-byte.
    #[test]
    fn an_empty_legacy_wal_is_removed_and_a_full_one_refused() {
        let dir = tmpdir("legacy");
        let reg = registry();
        WorldStore::open(&dir, &reg)
            .unwrap()
            .append(&load("default", 7, 1))
            .unwrap();
        let manifest = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let wal = dir.join("wal.log");

        fs::write(&wal, b"").unwrap();
        let rec = WorldStore::open(&dir, &reg).unwrap().recover().unwrap();
        assert!(!wal.exists(), "an empty wal.log outlived the open");
        assert_eq!(rec.worlds["default"].spec, spec(7));

        fs::write(&wal, [0u8; 29]).unwrap();
        let err = WorldStore::open(&dir, &reg).unwrap_err().to_string();
        assert!(err.contains(&wal.display().to_string()), "{err}");
        let advice = "checkpoint it with the previous binary";
        assert!(err.contains(advice), "{err}");
        assert!(wal.exists());
        assert_eq!(fs::read(dir.join(MANIFEST_FILE)).unwrap(), manifest);
        let _ = fs::remove_dir_all(&dir);
    }
}
