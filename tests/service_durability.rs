//! Durable state is what was acknowledged. A store-backed registry
//! writes its manifest in the order the registry changed, and a
//! checkpoint adds snapshot files without rewriting the registry from
//! a copy taken before it started. So an evict or a load acknowledged
//! while a checkpoint runs survives a reboot, and after concurrent
//! swaps of one name the manifest holds the swap the registry kept.
//! A snapshot file is found by name alone, so the spec check at import
//! is what keeps a file saved under an older spec out of a swapped
//! world: that world restores cold and answers like a fresh engine.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use biorank::service::persist::world_spec;
use biorank::service::{
    Method, QueryRequest, QueryResponse, RankerSpec, WorldManager, WorldSpec, WorldState,
    WorldStore,
};

/// Worlds resident beside the default before each race starts.
const WORLDS: usize = 12;
/// Rounds of the checkpoint races, each checked on disk.
const CHECKPOINT_ROUNDS: usize = 3;
/// Rounds of three concurrent swaps of one name.
const SWAP_ROUNDS: usize = 200;
/// Room for every world the tests load, so no LRU victim muddles them.
const BUDGET: usize = 32;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "biorank-service-durability-{tag}-{}",
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

/// Boots a store-backed registry over `dir` as `biorank serve
/// --data-dir` does and waits until every recovered world serves.
fn reboot(dir: &Path) -> Arc<WorldManager> {
    let manager = WorldManager::open_durable(dir, spec(0), BUDGET)
        .expect("durable boot")
        .manager;
    let deadline = Instant::now() + Duration::from_secs(120);
    while manager
        .list()
        .iter()
        .any(|w| w.state == WorldState::Loading)
    {
        assert!(
            Instant::now() < deadline,
            "a world never finished restoring"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    manager
}

/// A fresh boot over `dir` with `w0`..`w11` loaded.
fn twelve_worlds(dir: &Path) -> Arc<WorldManager> {
    let manager = reboot(dir);
    for i in 0..WORLDS {
        manager
            .load(&format!("w{i}"), spec(1 + i as u64))
            .expect("load");
    }
    manager
}

/// The registry's world names.
fn listed(manager: &WorldManager) -> BTreeSet<String> {
    manager.list().into_iter().map(|w| w.name).collect()
}

/// The world names a reboot would restore: the manifest on disk, read
/// by a store of its own.
fn on_disk(dir: &Path) -> BTreeSet<String> {
    let store = WorldStore::open(dir, &Default::default()).expect("reopen");
    store
        .recover()
        .expect("recover")
        .worlds
        .into_keys()
        .collect()
}

#[test]
fn an_evict_acknowledged_during_a_checkpoint_survives_a_reboot() {
    let dir = fresh_dir("evict");
    let manager = twelve_worlds(&dir);
    for round in 0..CHECKPOINT_ROUNDS {
        let checkpointer = Arc::clone(&manager);
        let checkpoint = std::thread::spawn(move || checkpointer.checkpoint());
        std::thread::sleep(Duration::from_micros(300));
        manager.evict(&format!("w{round}")).expect("evict");
        checkpoint
            .join()
            .expect("checkpoint thread")
            .expect("checkpoint");
        assert_eq!(on_disk(&dir), listed(&manager), "round {round}");
    }
    let acknowledged = listed(&manager);
    drop(manager);
    assert_eq!(listed(&reboot(&dir)), acknowledged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_load_acknowledged_during_a_checkpoint_survives_a_reboot() {
    let dir = fresh_dir("load");
    let manager = twelve_worlds(&dir);
    // Time one build and one checkpoint, so the load's install can be
    // aimed at the middle of a checkpoint.
    let start = Instant::now();
    drop(spec(100).build());
    let build = start.elapsed();
    let start = Instant::now();
    manager.checkpoint().expect("warm-up checkpoint");
    let checkpoint = start.elapsed();
    for round in 0..CHECKPOINT_ROUNDS {
        let name = format!("n{round}");
        let loader = Arc::clone(&manager);
        let seed = 100 + round as u64;
        let load = std::thread::spawn(move || loader.load(&name, spec(seed)));
        // Later by a quarter of a checkpoint each round: jitter in the
        // build time moves the install anyway.
        let lead = (build + checkpoint * round as u32 / 4).saturating_sub(checkpoint / 2);
        std::thread::sleep(lead);
        manager.checkpoint().expect("checkpoint");
        load.join().expect("load thread").expect("load");
        assert_eq!(on_disk(&dir), listed(&manager), "round {round}");
    }
    let acknowledged = listed(&manager);
    drop(manager);
    assert_eq!(listed(&reboot(&dir)), acknowledged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_swaps_of_one_name_leave_the_manifest_at_the_registry() {
    let dir = fresh_dir("swap");
    let manager = reboot(&dir);
    let store = Arc::clone(manager.store().expect("durable"));
    for round in 0..SWAP_ROUNDS {
        // Three specs that differ only in cache size build in the same
        // time, so the three installs arrive together.
        let barrier = Arc::new(Barrier::new(3));
        let swaps: Vec<_> = (0..3)
            .map(|i| {
                let (manager, barrier) = (Arc::clone(&manager), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let spec = WorldSpec {
                        cache_capacity: 8 + i,
                        ..spec(7)
                    };
                    barrier.wait();
                    manager.swap("s", spec, 0).expect("swap")
                })
            })
            .collect();
        for swap in swaps {
            swap.join().expect("swap thread");
        }
        let registry = manager.list().into_iter().find(|w| w.name == "s");
        let registry = registry.expect("s is resident");
        let recorded = store.recover().expect("recover").worlds["s"].clone();
        let recorded = (
            recorded.generation,
            world_spec(recorded.spec).expect("spec"),
        );
        assert_eq!(
            recorded,
            (registry.generation, registry.spec),
            "round {round}"
        );
    }
    drop(manager);
    let _ = std::fs::remove_dir_all(&dir);
}

fn galt() -> QueryRequest {
    QueryRequest::protein_functions("GALT", RankerSpec::new(Method::InEdge))
}

fn assert_bit_identical(want: &QueryResponse, got: &QueryResponse) {
    assert_eq!(want.total_answers, got.total_answers);
    assert_eq!(want.answers.len(), got.answers.len());
    for (w, g) in want.answers.iter().zip(&got.answers) {
        assert_eq!(w.key, g.key);
        assert_eq!((w.rank_lo, w.rank_hi), (g.rank_lo, g.rank_hi));
        assert_eq!(w.score.to_bits(), g.score.to_bits(), "{}", w.key);
    }
    assert_eq!(want.certificate, got.certificate);
}

/// `world.save` under spec A, `world.swap` to spec B, then a reboot
/// with no checkpoint: the file is still `w.snap`, found by name, and
/// the importer refuses it for its spec.
#[test]
fn a_snapshot_saved_before_a_swap_restores_cold_after_a_reboot() {
    let dir = fresh_dir("guard");
    let (a, b) = (spec(1), spec(2));
    let manager = reboot(&dir);
    manager.load("w", a).expect("load under A");
    let engine = manager.resolve(Some("w")).expect("resolve");
    engine.execute(&galt()).expect("fill A's result cache");
    drop(engine);
    manager.save("w").expect("save under A");
    manager.swap("w", b, 0).expect("swap to B");
    drop(manager);

    let manager = reboot(&dir);
    let restore = |outcome: &str| manager.metrics().counter(outcome).get();
    assert_eq!(restore("tenancy.restore.cold"), 1);
    assert_eq!(restore("tenancy.restore.snapshot"), 0);
    let engine = manager.resolve(Some("w")).expect("w restored");
    let first = engine.execute(&galt()).expect("first answer");
    assert!(!first.cached_scores, "a snapshot of spec A answered for B");
    assert_bit_identical(&b.build().execute(&galt()).expect("fresh B"), &first);
    drop((engine, manager));
    let _ = std::fs::remove_dir_all(&dir);
}
