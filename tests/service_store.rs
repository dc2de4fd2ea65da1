//! Durable persistence over the wire: worlds loaded into a server
//! with an attached [`WorldStore`] survive a full server restart —
//! the recovered registry lists the same worlds under the same
//! generations, and the restarted server answers bit-identically
//! *from its snapshots* (result-cache hits with `warm.replayed > 0`),
//! never by re-running Monte Carlo. A snapshot holds the result cache
//! only: the graph cache refills on the first miss per query.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use biorank::service::persist;
use biorank::service::{
    AdaptiveConfig, Client, Estimator, Method, MetricsRegistry, QueryRequest, QueryResponse,
    RankerSpec, Recovery, ServeOptions, Server, ServerHandle, TenancyError, Trials, WorldManager,
    WorldSpec, WorldState, WorldStore,
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

/// Polls until `world` resolves (restores install on worker threads).
fn wait_ready(manager: &WorldManager, world: Option<&str>) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match manager.resolve(world) {
            Ok(_) => return,
            Err(TenancyError::WorldLoading(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("world {world:?} never became ready: {e}"),
        }
    }
}

/// Boots a store-backed manager over `dir` the way `biorank serve
/// --data-dir` does: replay manifest + WAL, then restore every
/// recovered world in the background, warm from its snapshot when
/// that loads and cold when it does not.
fn reboot(dir: &Path, budget: usize) -> (Arc<WorldManager>, Arc<WorldStore>, Recovery) {
    let manager = WorldManager::new(budget);
    let store = Arc::new(WorldStore::open(dir, manager.metrics()).expect("reopen data dir"));
    let recovery = store.recover().expect("recover");
    let manager = Arc::new(manager.with_store(Arc::clone(&store)).expect("reattach"));
    manager.set_generation_floor(recovery.next_generation);
    for (name, world) in &recovery.worlds {
        let wspec = persist::world_spec(world.spec).expect("recovered spec");
        let snapshot = world
            .snapshot
            .as_deref()
            .and_then(|f| store.load_snapshot(f).ok());
        manager
            .restore_background(name, wspec, world.generation, snapshot)
            .expect("restore");
    }
    (manager, store, recovery)
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
    let spec = default_spec();
    let manager = WorldManager::with_default(Arc::new(spec.build()), spec, 4);
    let store = Arc::new(WorldStore::open(&dir, manager.metrics()).expect("open data dir"));
    // Attaching the store WAL-logs the already-resident default world.
    let manager = Arc::new(
        manager
            .with_store(Arc::clone(&store))
            .expect("attach store"),
    );
    let (handle, join) = start(Arc::clone(&manager));
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
    let (manager2, _store2, recovery) = reboot(&dir, 4);
    assert_eq!(recovery.worlds.len(), 2);
    // The checkpoint compacted the log: nothing left to replay.
    assert_eq!(recovery.wal_ops_replayed, 0);
    wait_ready(&manager2, None);
    wait_ready(&manager2, Some("aux"));

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
        .filter_map(|w| w.metrics.counters.get("warm.replayed"))
        .sum();
    assert!(replayed > 0, "no warm.replayed recorded: {report:?}");
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

    // The post-recovery load of "fresh" was WAL-logged (no checkpoint
    // ran since): a third recovery replays it on top of the manifest.
    let registry = biorank::service::MetricsRegistry::new();
    let store3 = WorldStore::open(&dir, &registry).expect("third open");
    let recovery3 = store3.recover().expect("third recover");
    assert_eq!(recovery3.worlds.len(), 3);
    assert!(recovery3.wal_ops_replayed > 0);
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
        let manager = WorldManager::new(4);
        let store = Arc::new(WorldStore::open(&dir, manager.metrics()).expect("open data dir"));
        let manager = manager.with_store(store).expect("attach store");
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

    // Budget 2: one of the three restores must evict (or be) a victim.
    let (manager, _store, recovery) = reboot(&dir, 2);
    assert_eq!(recovery.worlds.len(), 3);
    let deadline = Instant::now() + Duration::from_secs(60);
    let resident: Vec<String> = loop {
        // Settled: nothing loading, every victim counted, and every
        // counted victim on disk (the WAL append follows the count).
        let listed = manager.list();
        let evicted = counter(&manager, "tenancy.evict.lru");
        if listed.iter().all(|w| w.state == WorldState::Ready)
            && listed.len() as u64 + evicted == 3
            && counter(&manager, "store.wal_append") == evicted
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

/// A snapshot in the pre-result-only layout (container version 1) is
/// refused by name, never misparsed, and its world still restores —
/// cold, with the answers a never-restarted engine gives.
#[test]
fn old_format_snapshot_restores_cold() {
    let dir = fresh_dir();
    let spec = default_spec();
    let manager = WorldManager::with_default(Arc::new(spec.build()), spec, 4);
    let store = Arc::new(WorldStore::open(&dir, manager.metrics()).expect("open data dir"));
    let manager = Arc::new(manager.with_store(store).expect("attach store"));
    let (handle, join) = start(manager);
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

    let (manager2, store2, recovery) = reboot(&dir, 4);
    let file = recovery.worlds["default"]
        .snapshot
        .clone()
        .expect("snapshot pointer");
    let err = store2
        .load_snapshot(&file)
        .expect_err("v1 snapshot accepted");
    assert!(
        err.to_string().contains("unsupported format version 1"),
        "{err}"
    );
    wait_ready(&manager2, None);
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
        .filter_map(|w| w.metrics.counters.get("warm.replayed"))
        .sum();
    assert_eq!(replayed, 0);
    drop(client2);
    handle2.shutdown();
    join2.join().expect("second server exits");
    let _ = std::fs::remove_dir_all(&dir);
}
