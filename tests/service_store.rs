//! Durable persistence over the wire: worlds loaded into a server
//! with an attached [`WorldStore`] survive a full server restart —
//! the recovered registry lists the same worlds under the same
//! generations, and the restarted server answers bit-identically
//! *from its snapshots* (result-cache hits with
//! `snapshot.results_imported > 0`),
//! never by re-running Monte Carlo. A snapshot holds the result cache
//! only: the graph cache refills on the first miss per query.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use biorank::service::{
    AdaptiveConfig, Client, Estimator, Method, MetricsRegistry, QueryRequest, QueryResponse,
    RankerSpec, Recovery, ServeOptions, Server, ServerHandle, Trials, WorldManager, WorldSpec,
    WorldState, WorldStore,
};

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "biorank-service-store-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn default_spec() -> WorldSpec {
    WorldSpec {
        seed: 41,
        extended: false,
        cache_capacity: 256,
    }
}

fn aux_spec() -> WorldSpec {
    WorldSpec {
        seed: 42,
        extended: false,
        cache_capacity: 256,
    }
}

/// The query mix replayed on both sides of the restart: a
/// deterministic ranker, a fixed-trial word-parallel MC run, and an
/// adaptive top-k run that carries a certificate.
fn requests() -> Vec<QueryRequest> {
    let mut out = vec![
        QueryRequest::protein_functions("GALT", RankerSpec::new(Method::InEdge)),
        QueryRequest::protein_functions(
            "GALT",
            RankerSpec {
                method: Method::TraversalMc,
                trials: Trials::Fixed(2_000),
                seed: 7,
                parallel: false,
                estimator: Some(Estimator::Word),
            },
        ),
    ];
    let mut certified = QueryRequest::protein_functions(
        "GALT",
        RankerSpec {
            method: Method::TraversalMc,
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            seed: 11,
            parallel: false,
            estimator: Some(Estimator::Word),
        },
    );
    certified.top = Some(5);
    certified.certify_top = true;
    out.push(certified);
    // The same deterministic query routed at the auxiliary world.
    let mut aux = QueryRequest::protein_functions("GALT", RankerSpec::new(Method::InEdge));
    aux.world = Some("aux".to_string());
    out.push(aux);
    out
}

fn start(manager: Arc<WorldManager>) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind_manager(
        "127.0.0.1:0",
        manager,
        ServeOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

/// Boots a store-backed manager over `dir` exactly as `biorank serve
/// --data-dir` does; returns once the default world resolves.
fn reboot(dir: &Path, budget: usize) -> (Arc<WorldManager>, Recovery) {
    let boot = WorldManager::open_durable(dir, default_spec(), budget).expect("durable boot");
    (boot.manager, boot.recovery)
}

/// A default-world manager over `dir`, its default recorded in the
/// manifest.
fn first_life(dir: &Path) -> Arc<WorldManager> {
    let spec = default_spec();
    let manager = WorldManager::with_default(Arc::new(spec.build()), spec, 4);
    let store = Arc::new(WorldStore::open(dir, manager.metrics()).expect("open data dir"));
    Arc::new(manager.with_store(store).expect("attach store"))
}

fn counter(manager: &WorldManager, name: &str) -> u64 {
    manager.metrics().counter(name).get()
}

fn assert_bit_identical(before: &QueryResponse, after: &QueryResponse) {
    assert_eq!(before.total_answers, after.total_answers);
    assert_eq!(before.answers.len(), after.answers.len());
    for (b, a) in before.answers.iter().zip(&after.answers) {
        assert_eq!(b.key, a.key);
        assert_eq!((b.rank_lo, b.rank_hi), (a.rank_lo, a.rank_hi));
        assert_eq!(
            b.score.to_bits(),
            a.score.to_bits(),
            "score drifted across restart for {}",
            b.key
        );
    }
    assert_eq!(before.certificate, after.certificate);
}

#[test]
fn restarted_server_answers_bit_identically_from_snapshots() {
    let dir = fresh_dir();

    // ---- First life: durable server, two worlds, queries, checkpoint.
    let (handle, join) = start(first_life(&dir));
    let mut client = Client::connect(handle.addr()).expect("connect");

    let aux_generation = client.world_load("aux", aux_spec()).expect("load aux");
    let mut baseline = Vec::new();
    for req in requests() {
        baseline.push(client.query(&req).expect("first-life query"));
    }
    // The adaptive run must actually carry a certificate, or the
    // round-trip below proves nothing about certificate persistence.
    assert!(baseline.iter().any(|r| r.certificate.is_some()));

    let (worlds, bytes) = client.checkpoint().expect("checkpoint");
    assert_eq!(worlds, 2, "default + aux should both snapshot");
    assert!(bytes > 0);
    let listed: Vec<_> = client.world_list().expect("list");
    drop(client);
    handle.shutdown();
    join.join().expect("first server exits");

    // ---- Second life: recover the directory, restore in background.
    let (manager2, recovery) = reboot(&dir, 4);
    assert_eq!(recovery.worlds.len(), 2);
    // The checkpoint wrote both worlds' snapshot files.
    assert!(recovery.worlds.values().all(|w| w.snapshot.is_some()));
    let deadline = Instant::now() + Duration::from_secs(120);
    while manager2.resolve(Some("aux")).is_err() {
        assert!(Instant::now() < deadline, "aux never finished restoring");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (handle2, join2) = start(Arc::clone(&manager2));
    let mut client2 = Client::connect(handle2.addr()).expect("reconnect");

    // Registry identity survived: same names, same generations, same
    // spec hashes as the pre-restart listing.
    let relisted = client2.world_list().expect("relist");
    assert_eq!(relisted.len(), listed.len());
    for (before, after) in listed.iter().zip(&relisted) {
        assert_eq!(before.name, after.name);
        assert_eq!(before.generation, after.generation);
        assert_eq!(before.spec.spec_hash(), after.spec.spec_hash());
    }
    let aux_after = relisted.iter().find(|w| w.name == "aux").expect("aux");
    assert_eq!(aux_after.generation, aux_generation);

    // Every answer comes back bit-identical — certificate included —
    // and *from the result cache*: the snapshot replay, not a re-run.
    for (req, before) in requests().iter().zip(&baseline) {
        let after = client2.query(req).expect("second-life query");
        assert!(
            after.cached_scores,
            "restarted server recomputed {req:?} instead of serving the snapshot"
        );
        assert_bit_identical(before, &after);
    }

    // A request the snapshot never held misses both layers — the graph
    // cache is not part of a snapshot — and computes the same bits as
    // a fresh engine.
    let mut unseen = requests()[1].clone();
    unseen.spec.seed = 8;
    let after = client2.query(&unseen).expect("post-restore miss");
    assert!(!after.cached_graph && !after.cached_scores, "{after:?}");
    let fresh = default_spec()
        .build()
        .execute_uncached(&unseen)
        .expect("fresh engine");
    assert_bit_identical(&fresh, &after);
    for req in requests() {
        assert!(
            client2
                .query(&req)
                .expect("snapshotted query")
                .cached_scores
        );
    }

    // The warm-restart counter proves the cache came back from disk.
    let report = client2.metrics(false).expect("metrics");
    let replayed: u64 = report
        .worlds
        .iter()
        .filter_map(|w| w.metrics.counters.get("snapshot.results_imported"))
        .sum();
    assert!(replayed > 0, "no snapshot.results_imported: {report:?}");
    let restored = report
        .service
        .counters
        .get("tenancy.restore.snapshot")
        .copied()
        .unwrap_or(0);
    assert_eq!(restored, 2, "both worlds should restore from snapshots");

    // Generations handed out after recovery never collide with
    // recovered ones.
    let fresh_generation = client2
        .world_load(
            "fresh",
            WorldSpec {
                seed: 43,
                ..default_spec()
            },
        )
        .expect("post-recovery load");
    assert!(relisted.iter().all(|w| w.generation < fresh_generation));

    drop(client2);
    handle2.shutdown();
    join2.join().expect("second server exits");

    // The post-recovery load of "fresh" reached the manifest (no
    // checkpoint ran since): a third recovery reads it back.
    let registry = biorank::service::MetricsRegistry::new();
    let store3 = WorldStore::open(&dir, &registry).expect("third open");
    let recovery3 = store3.recover().expect("third recover");
    assert_eq!(recovery3.worlds.len(), 3);
    assert_eq!(recovery3.next_generation, fresh_generation + 1);
    assert_eq!(
        recovery3.worlds.get("fresh").map(|w| w.generation),
        Some(fresh_generation)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reboot under a smaller budget evicts the recovered worlds that no
/// longer fit, and those evictions are as durable as any other: the
/// next reboot recovers exactly what the shrunken one kept, instead of
/// resurrecting the evicted world.
#[test]
fn restore_evictions_survive_the_next_reboot() {
    let dir = fresh_dir();
    {
        let manager = first_life(&dir);
        for (seed, name) in (50..).zip(["a", "b", "c"]) {
            manager
                .load(
                    name,
                    WorldSpec {
                        seed,
                        ..default_spec()
                    },
                )
                .expect("load");
        }
    }

    // Budget 2: beside the pinned default, two of the three restores
    // must evict (or be) a victim.
    let (manager, recovery) = reboot(&dir, 2);
    assert_eq!(recovery.worlds.len(), 4);
    let deadline = Instant::now() + Duration::from_secs(60);
    let resident: Vec<String> = loop {
        // Settled: nothing loading, every victim counted, and every
        // counted victim on disk (the manifest write follows the count).
        let listed = manager.list();
        let evicted = counter(&manager, "tenancy.evict.lru");
        if listed.iter().all(|w| w.state == WorldState::Ready)
            && listed.len() as u64 + evicted == 4
            && WorldStore::open(&dir, &MetricsRegistry::new())
                .and_then(|store| store.recover())
                .map(|on_disk| on_disk.worlds.into_keys().collect::<Vec<_>>())
                .ok()
                == Some(listed.iter().map(|w| w.name.clone()).collect())
        {
            break listed.into_iter().map(|w| w.name).collect();
        }
        assert!(
            Instant::now() < deadline,
            "restores never settled with their victims counted and logged: \
             {listed:?}, tenancy.evict.lru = {evicted}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(resident.len(), 2);
    drop(manager);

    let registry = MetricsRegistry::new();
    let store = WorldStore::open(&dir, &registry).expect("third open");
    let recovered: Vec<String> = store
        .recover()
        .expect("third recover")
        .worlds
        .into_keys()
        .collect();
    assert_eq!(recovered, resident, "an evicted world came back");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `world.save` made before a `world.swap` of the same spec, then a
/// reboot with no checkpoint: the swap left the manifest entry without
/// a snapshot pointer, so recovery must re-attach `<name>.snap` from
/// the directory, and the first answer comes back bit-identical from
/// that snapshot rather than from a recomputation.
#[test]
fn recovery_reattaches_a_saved_snapshot_after_a_swap() {
    let dir = fresh_dir();
    let (handle, join) = start(first_life(&dir));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let req = requests().swap_remove(1);
    let before = client.query(&req).expect("first-life query");
    client.world_save("default").expect("save");
    client.world_swap("default", default_spec()).expect("swap");
    drop(client);
    handle.shutdown();
    join.join().expect("first server exits");

    let (manager2, recovery) = reboot(&dir, 4);
    assert_eq!(
        recovery.worlds["default"].snapshot.as_deref(),
        Some("default.snap"),
        "the saved snapshot was not re-attached"
    );
    let (handle2, join2) = start(manager2);
    let mut client2 = Client::connect(handle2.addr()).expect("reconnect");
    let after = client2.query(&req).expect("first answer after reboot");
    assert!(after.cached_scores, "recomputed instead of restored");
    assert_bit_identical(&before, &after);
    drop(client2);
    handle2.shutdown();
    join2.join().expect("second server exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot in the pre-result-only layout (container version 1) is
/// refused by name, never misparsed, and its world still restores —
/// cold, with the answers a never-restarted engine gives.
#[test]
fn old_format_snapshot_restores_cold() {
    let dir = fresh_dir();
    let (handle, join) = start(first_life(&dir));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let local: Vec<QueryRequest> = requests()
        .into_iter()
        .filter(|r| r.world.is_none())
        .collect();
    let baseline: Vec<QueryResponse> = local
        .iter()
        .map(|r| client.query(r).expect("first-life query"))
        .collect();
    client.world_save("default").expect("save");
    client.checkpoint().expect("checkpoint");
    drop(client);
    handle.shutdown();
    join.join().expect("first server exits");

    let snap = dir.join("default.snap");
    let mut raw = std::fs::read(&snap).expect("snapshot file");
    raw[4..8].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&snap, &raw).expect("rewrite version");

    let (manager2, recovery) = reboot(&dir, 4);
    let file = recovery.worlds["default"]
        .snapshot
        .clone()
        .expect("snapshot pointer");
    let err = manager2
        .store()
        .expect("store attached")
        .load_snapshot(&file)
        .expect_err("v1 snapshot accepted");
    assert!(
        err.to_string().contains("unsupported format version 1"),
        "{err}"
    );
    let (handle2, join2) = start(Arc::clone(&manager2));
    let mut client2 = Client::connect(handle2.addr()).expect("reconnect");
    for (req, before) in local.iter().zip(&baseline) {
        let after = client2.query(req).expect("cold query");
        assert!(!after.cached_scores, "nothing was restored for {req:?}");
        assert_bit_identical(before, &after);
    }
    let report = client2.metrics(false).expect("metrics");
    let replayed: u64 = report
        .worlds
        .iter()
        .filter_map(|w| w.metrics.counters.get("snapshot.results_imported"))
        .sum();
    assert_eq!(replayed, 0);
    drop(client2);
    handle2.shutdown();
    join2.join().expect("second server exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drain started by a thread that holds no connection — the CLI's
/// SIGTERM monitor — still finishes before `run()` returns, so a
/// process that exits when `run()` does keeps its checkpoint.
#[test]
fn run_returns_only_after_a_drain_has_checkpointed() {
    let dir = fresh_dir();
    let (manager, _) = reboot(&dir, 4);
    let (handle, join) = start(Arc::clone(&manager));
    let drainer = std::thread::spawn(move || handle.drain().expect("drain"));
    join.join().expect("server exits");
    assert_eq!(counter(&manager, "drain.completed"), 1, "mid-drain");
    assert!(dir.join("MANIFEST").exists());
    assert_eq!(drainer.join().expect("drainer"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
