//! Multi-world tenancy, end to end over the wire: the admin control
//! plane (`world.load` / `world.swap` / `world.evict` / `world.list` /
//! `stats`) driven through a real `Client`, swap invalidation of both
//! cache layers, LRU eviction under the resident budget, and
//! determinism for concurrent clients pinned to distinct worlds.

use std::sync::Arc;

use biorank::service::{
    Client, Method, QueryRequest, RankerSpec, ServeOptions, Server, ServerHandle, Trials,
    WorldManager, WorldSpec, DEFAULT_WORLD,
};

fn spec_with_seed(seed: u64) -> WorldSpec {
    WorldSpec {
        seed,
        ..WorldSpec::default()
    }
}

fn start_server(budget: usize, workers: usize) -> ServerHandle {
    let manager = Arc::new(WorldManager::new(budget));
    manager
        .load(DEFAULT_WORLD, WorldSpec::default())
        .expect("load default world");
    let server = Server::bind_manager(
        "127.0.0.1:0",
        manager,
        ServeOptions {
            workers,
            ..Default::default()
        },
    )
    .expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}

fn galt(world: Option<&str>) -> QueryRequest {
    let mut req = QueryRequest::protein_functions(
        "GALT",
        RankerSpec {
            method: Method::Reliability,
            trials: Trials::Fixed(300),
            seed: 11,
            parallel: false,
            estimator: None,
        },
    );
    req.world = world.map(str::to_string);
    req
}

#[test]
fn admin_commands_round_trip_over_the_wire() {
    let handle = start_server(4, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Load a second world and see it in the registry listing.
    let staging = spec_with_seed(0xFEED);
    // Generations come from one registry-wide counter; the default
    // world took 1, so the first extra world gets 2.
    let generation = client.world_load("staging", staging).expect("world.load");
    assert_eq!(generation, 2);
    let worlds = client.world_list().expect("world.list");
    let names: Vec<&str> = worlds.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, vec![DEFAULT_WORLD, "staging"]);
    assert_eq!(worlds[1].spec, staging);

    // Loading again with the identical spec is an idempotent no-op...
    assert_eq!(
        client.world_load("staging", staging).expect("reload"),
        generation
    );
    // ...but with a different spec it is a refused replacement.
    let err = client
        .world_load("staging", spec_with_seed(0xBEEF))
        .expect_err("spec mismatch");
    assert!(err.to_string().contains("world.swap"), "{err}");

    // Queries route by world name; unknown names are domain errors.
    let on_staging = client.query(&galt(Some("staging"))).expect("routed query");
    assert_eq!(on_staging.total_answers, 15, "Table 1 holds in any world");
    let err = client
        .query(&galt(Some("nope")))
        .expect_err("unknown world");
    assert!(err.to_string().contains("not resident"), "{err}");

    // Stats name every resident world and count the traffic above.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.budget, 4);
    assert_eq!(stats.resident, 2);
    let staging_stats = stats
        .worlds
        .iter()
        .find(|w| w.name == "staging")
        .expect("staging in stats");
    assert_eq!(staging_stats.engine.results.misses, 1);
    assert_eq!(staging_stats.engine.results.hits, 0);
    assert_eq!(staging_stats.engine.results.hit_rate(), 0.0);

    // Evict and confirm it is gone; the default world is pinned.
    client.world_evict("staging").expect("world.evict");
    let names: Vec<String> = client
        .world_list()
        .expect("world.list")
        .into_iter()
        .map(|w| w.name)
        .collect();
    assert_eq!(names, vec![DEFAULT_WORLD.to_string()]);
    assert!(client.query(&galt(Some("staging"))).is_err());
    let err = client.world_evict(DEFAULT_WORLD).expect_err("pinned");
    assert!(err.to_string().contains("pinned"), "{err}");

    handle.shutdown();
}

/// The acceptance criterion: after `world.swap`, identical queries must
/// recompute — a swap atomically invalidates BOTH cache layers of the
/// replaced engine, so no stale ranked answer can survive it.
#[test]
fn swap_invalidates_both_cache_layers() {
    let handle = start_server(4, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let g1 = client
        .world_load("live", spec_with_seed(0xA11CE))
        .expect("load");

    // Warm both layers.
    let cold = client.query(&galt(Some("live"))).expect("cold");
    assert!(!cold.cached_graph && !cold.cached_scores);
    let warm = client.query(&galt(Some("live"))).expect("warm");
    assert!(
        warm.cached_graph && warm.cached_scores,
        "both layers must be warm before the swap"
    );
    assert_eq!(warm.answers, cold.answers);

    // Swap to the *same* spec: the data is identical, but the caches
    // must not be — the very same query recomputes from scratch.
    let g2 = client
        .world_swap("live", spec_with_seed(0xA11CE))
        .expect("swap");
    assert!(g2 > g1, "swap must bump the generation");
    let post_swap = client.query(&galt(Some("live"))).expect("post-swap");
    assert!(
        !post_swap.cached_graph && !post_swap.cached_scores,
        "post-swap query must recompute both layers, got graph={} scores={}",
        post_swap.cached_graph,
        post_swap.cached_scores
    );
    // Same world spec + content-derived seeds ⇒ recomputation agrees.
    assert_eq!(post_swap.answers, cold.answers);

    // Swap to a different seed: fresh results, not the old world's.
    client
        .world_swap("live", spec_with_seed(0xB0B))
        .expect("swap data");
    let other_world = client.query(&galt(Some("live"))).expect("new data");
    assert!(!other_world.cached_scores);
    let scores =
        |r: &biorank::service::QueryResponse| r.answers.iter().map(|a| a.score).collect::<Vec<_>>();
    assert_ne!(
        scores(&other_world),
        scores(&cold),
        "a different world seed must produce different evidence scores"
    );

    handle.shutdown();
}

/// Distinct worlds, concurrent clients: every client sees exactly the
/// rankings its world would produce single-threaded, regardless of
/// interleaving on the shared worker pool.
#[test]
fn concurrent_clients_on_distinct_worlds_are_deterministic() {
    let handle = start_server(4, 8);
    let mut admin = Client::connect(handle.addr()).expect("connect admin");
    admin.world_load("w1", spec_with_seed(1)).expect("w1");
    admin.world_load("w2", spec_with_seed(2)).expect("w2");

    let request = |world: &str| {
        let mut req = QueryRequest::protein_functions(
            "CFTR",
            RankerSpec {
                method: Method::TraversalMc,
                trials: Trials::Fixed(200),
                seed: 3,
                parallel: false,
                estimator: None,
            },
        );
        req.world = Some(world.to_string());
        req
    };

    // Single-threaded reference rankings, one per world.
    let reference: Vec<_> = ["w1", "w2"]
        .iter()
        .map(|w| admin.query(&request(w)).expect("reference").answers)
        .collect();
    assert_ne!(
        reference[0], reference[1],
        "different world seeds must rank differently"
    );

    let addr = handle.addr();
    std::thread::scope(|s| {
        for t in 0..6usize {
            let world = if t % 2 == 0 { "w1" } else { "w2" };
            let expected = reference[t % 2].clone();
            let request = request(world);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..3 {
                    let resp = client.query(&request).expect("routed query");
                    assert_eq!(resp.answers, expected, "world {world}");
                }
            });
        }
    });

    handle.shutdown();
}

/// Admin commands are a per-connection barrier: a client may write
/// `query, world.swap, query` in one burst without waiting, and the
/// second query must still see the post-swap (cold-cache) world —
/// never a stale pre-swap cached answer.
#[test]
fn pipelined_swap_is_a_barrier_between_queries() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let handle = start_server(4, 4);
    let mut admin = Client::connect(handle.addr()).expect("connect admin");
    admin.world_load("live", spec_with_seed(7)).expect("load");
    // Warm both cache layers so a barrier violation would be visible
    // as cached_scores=true on the post-swap query.
    admin.query(&galt(Some("live"))).expect("warm 1");
    let warm = admin.query(&galt(Some("live"))).expect("warm 2");
    assert!(warm.cached_scores);

    let stream = TcpStream::connect(handle.addr()).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let query_line = |id: u64| {
        format!(
            "{{\"id\":{id},\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
             \"value\":\"GALT\",\"outputs\":[\"AmiGO\"],\"method\":\"rel\",\
             \"trials\":300,\"seed\":\"11\",\"world\":\"live\"}}"
        )
    };
    // One write, three pipelined lines: cached query, swap (with
    // warm-up off, so the post-swap cold recompute is observable),
    // query.
    let burst = format!(
        "{}\n{{\"id\":2,\"cmd\":\"world.swap\",\"world\":\"live\",\"seed\":\"7\",\"warm\":0}}\n{}\n",
        query_line(1),
        query_line(3)
    );
    (&stream).write_all(burst.as_bytes()).expect("write burst");
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line
    };
    let first = read();
    assert!(
        first.contains("\"id\":1") && first.contains("\"cached_scores\":true"),
        "pre-swap query should hit the warm cache: {first}"
    );
    let swap = read();
    assert!(
        swap.contains("\"id\":2") && swap.contains("\"ok\":true"),
        "{swap}"
    );
    let second = read();
    assert!(
        second.contains("\"id\":3") && second.contains("\"cached_scores\":false"),
        "post-swap pipelined query must recompute, not see the old cache: {second}"
    );

    handle.shutdown();
}

#[test]
fn lru_eviction_respects_budget_over_the_wire() {
    // Budget 2: the pinned default plus one evictable slot.
    let handle = start_server(2, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.world_load("a", spec_with_seed(1)).expect("a");
    client
        .world_load("b", spec_with_seed(2))
        .expect("b evicts a");
    let names: Vec<String> = client
        .world_list()
        .expect("list")
        .into_iter()
        .map(|w| w.name)
        .collect();
    assert_eq!(names, vec!["b".to_string(), DEFAULT_WORLD.to_string()]);
    assert!(client.query(&galt(Some("a"))).is_err(), "a was evicted");
    assert!(client.query(&galt(Some("b"))).is_ok());
    // The pinned default keeps serving throughout.
    assert!(client.query(&galt(None)).is_ok());

    handle.shutdown();
}

/// `world.load` with `background: true` answers immediately, lists the
/// world as `loading`, and installs it from a worker thread; queries
/// routed to it fail with a dedicated error until then.
#[test]
fn background_load_over_the_wire() {
    use biorank::service::WorldState;

    let handle = start_server(4, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let started = client
        .world_load_background("bg", spec_with_seed(0xCC))
        .expect("accepted");
    assert_eq!(started, None, "a fresh build is accepted, not resident");

    // Either we catch the loading window (state listed, queries
    // refused with "still loading") or the worker already finished —
    // both are legal; what matters is the world eventually serves.
    if let Some(info) = client
        .world_list()
        .expect("list")
        .into_iter()
        .find(|w| w.name == "bg")
    {
        if info.state == WorldState::Loading {
            assert_eq!(info.generation, 0);
            let err = client
                .query(&galt(Some("bg")))
                .expect_err("loading world refuses queries");
            assert!(err.to_string().contains("loading"), "{err}");
        }
    }

    let mut ready = false;
    for _ in 0..600 {
        let info = client
            .world_list()
            .expect("list")
            .into_iter()
            .find(|w| w.name == "bg");
        if matches!(&info, Some(w) if w.state == WorldState::Ready) {
            ready = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(ready, "background load must eventually install the world");
    assert_eq!(
        client
            .query(&galt(Some("bg")))
            .expect("serves")
            .total_answers,
        15
    );
    // Re-issuing the background load now reports the live generation.
    assert!(client
        .world_load_background("bg", spec_with_seed(0xCC))
        .expect("resident")
        .is_some());

    handle.shutdown();
}
