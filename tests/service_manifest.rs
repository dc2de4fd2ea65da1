//! The manifest as the registry's only durable record: a fresh durable
//! boot writes it once before its first answer, and a manifest write
//! that fails leaves the admin op standing in memory, acknowledged
//! with a persistence error, until the next write carries it to disk.

use std::path::{Path, PathBuf};

use biorank::service::{
    MetricsRegistry, TenancyError, WorldManager, WorldSpec, WorldStore, DEFAULT_WORLD,
};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "biorank-service-manifest-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64) -> WorldSpec {
    WorldSpec {
        seed,
        extended: false,
        cache_capacity: 8,
    }
}

fn on_disk(dir: &Path) -> Vec<String> {
    let store = WorldStore::open(dir, &MetricsRegistry::new()).expect("reopen");
    store
        .recover()
        .expect("recover")
        .worlds
        .into_keys()
        .collect()
}

#[test]
fn a_fresh_durable_boot_writes_the_manifest_once() {
    let dir = fresh_dir("boot");
    let boot = WorldManager::open_durable(&dir, spec(1), 4).expect("boot");
    let writes = boot.manager.metrics().counter("store.manifest_write");
    assert_eq!(writes.get(), 1, "the default world's load, nothing else");
    assert_eq!(on_disk(&dir), [DEFAULT_WORLD]);
    assert!(!dir.join("wal.log").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_manifest_write_keeps_the_op_and_acks_persist() {
    let dir = fresh_dir("failed");
    let boot = WorldManager::open_durable(&dir, spec(1), 4).expect("boot");
    // A directory where the temp file goes makes the next write fail.
    let blocker = dir.join("MANIFEST.tmp");
    std::fs::create_dir(&blocker).expect("block the temp file");
    let err = boot
        .manager
        .load("aux", spec(2))
        .expect_err("write blocked");
    assert!(matches!(err, TenancyError::Persist(_)), "{err:?}");
    assert!(boot.manager.resolve(Some("aux")).is_ok(), "the op stands");
    assert_eq!(on_disk(&dir), [DEFAULT_WORLD]);

    std::fs::remove_dir(&blocker).expect("unblock");
    boot.manager.load("aux2", spec(3)).expect("load aux2");
    assert_eq!(on_disk(&dir), ["aux", "aux2", DEFAULT_WORLD]);
    let _ = std::fs::remove_dir_all(&dir);
}
