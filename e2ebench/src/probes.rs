//! Per-layer probes: each layer is measured **from outside**, by
//! timing calls into its crate's public functions on the inputs the
//! workload generates (its world, its proteins in the seed's order).
//! Nothing here touches the socket; the traced run covers that.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use biorank_graph::csr::CsrGraph;
use biorank_mediator::{ExploratoryQuery, IntegrationResult};
use biorank_rank::{
    plan, AdaptiveRunner, ClosedReliability, CostModel, GraphFeatures, PlanFeatures, Ranker,
    Strategy, TrialsPolicy, WordMc,
};
use biorank_schema::{biorank_schema_full, biorank_schema_with_ontology};
use biorank_service::wire::{self, Response, ResponseBody};
use biorank_service::{
    export_snapshot, import_snapshot, persist, query_schema_reducible, run_adaptive,
    AdaptiveConfig, Estimator, Method, MetricsRegistry, QueryEngine, QueryRequest, RankerSpec,
    ShardedLru, WorkerPool, WorldManager, WorldSpec, WorldStore, FUSION_LANES,
};
use biorank_sources::{World, WorldParams};
use biorank_store::WalOp;

use crate::check::{decode_query, server_defaults};
use crate::defs::Report;
use crate::harness;
use crate::stats::median;
use crate::workload::{first_shape, hit_shape, query_line, Generator, Horizon, OpKind, Workload};

/// Repetitions a probe aims for (the median is reported).
const REPS: usize = 200;
/// At `--seconds 10` a probe stops early once it has run this long
/// (and has ≥ 3 samples); shorter runs scale the budget down.
const BUDGET_AT_10S: Duration = Duration::from_millis(60);

/// Median ns per call of `f`. Calls too short to time alone are timed
/// in batches; slow calls stop at the time budget.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as u64;
    let batch = (20_000 / one).clamp(1, 10_000);
    let started = Instant::now();
    let mut samples = Vec::with_capacity(REPS);
    while samples.len() < REPS && (samples.len() < 3 || started.elapsed() < budget) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Like [`time_ns`] for calls that consume a fresh input: `setup` is
/// untimed.
fn time_with_ns<I>(budget: Duration, mut setup: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(REPS);
    while samples.len() < REPS && (samples.len() < 3 || started.elapsed() < budget) {
        let input = setup();
        let t = Instant::now();
        f(input);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

fn default_request(protein: &str) -> QueryRequest {
    decode_query(&query_line(0, protein, None, hit_shape(), false)).expect("generated line")
}

/// Runs every in-process probe and records its metric.
pub fn run(
    workload: Workload,
    seed: u64,
    canonical: &[String],
    tmp: &Path,
    seconds: f64,
    report: &mut Report,
) {
    let started = Instant::now();
    #[allow(non_snake_case)]
    let BUDGET = BUDGET_AT_10S.mul_f64((seconds / 10.0).clamp(0.05, 1.0));
    let proteins = crate::workload::permute(canonical.to_vec(), seed);
    let spec = workload.spec();
    let queries: Vec<ExploratoryQuery> = proteins
        .iter()
        .map(|p| ExploratoryQuery::protein_functions(p))
        .collect();
    let mut next = 0usize;
    let n_queries = queries.len();
    let mut pick = move || {
        next += 1;
        next % n_queries
    };

    // --- biorank-sources -------------------------------------------------
    for (name, extended) in [
        ("sources.world_generate_ms", false),
        ("sources.world_generate_ext_ms", true),
    ] {
        let ns = time_ns(BUDGET, || {
            black_box(World::generate(WorldParams {
                extended,
                ..WorldParams::default()
            }));
        });
        report.set(name, ns / 1e6);
    }

    // --- biorank-mediator ------------------------------------------------
    // Both federations are timed whatever the workload; the workload's
    // own world supplies the graphs every later probe runs on.
    let plain = WorldSpec::default().build();
    let extended = WorldSpec {
        extended: true,
        ..WorldSpec::default()
    }
    .build();
    for (name, engine, budget) in [
        ("mediator.execute_us", &plain, BUDGET),
        ("mediator.execute_ext_us", &extended, 4 * BUDGET),
    ] {
        let ns = time_ns(budget, || {
            black_box(
                engine
                    .mediator()
                    .execute(&queries[pick()])
                    .expect("integrates"),
            );
        });
        report.set(name, ns / 1e3);
    }
    let world_engine = if spec.extended { &extended } else { &plain };
    let graphs: Vec<IntegrationResult> = queries
        .iter()
        .map(|q| world_engine.mediator().execute(q).expect("integrates"))
        .collect();
    let features: Vec<GraphFeatures> = graphs
        .iter()
        .map(|g| GraphFeatures::extract(&g.query))
        .collect();
    report.set(
        "mediator.graph_nodes",
        features.iter().map(|f| f64::from(f.nodes)).sum(),
    );
    report.set(
        "mediator.graph_edges",
        features.iter().map(|f| f64::from(f.edges)).sum(),
    );

    // --- biorank-schema --------------------------------------------------
    // The planner's Theorem 3.2 check, run once per query the feature
    // cache has not seen: all of a cold query's `plan` stage.
    let bundle = if spec.extended {
        biorank_schema_full()
    } else {
        biorank_schema_with_ontology()
    };
    let ns = time_ns(3 * BUDGET, || {
        black_box(query_schema_reducible(
            &bundle.schema,
            &bundle.hints,
            &queries[pick()],
        ));
    });
    report.set("schema.query_reducible_us", ns / 1e3);

    // --- biorank-graph ---------------------------------------------------
    let ns = time_ns(BUDGET, || {
        black_box(CsrGraph::from_graph(graphs[pick()].query.graph()));
    });
    report.set("graph.csr_build_us", ns / 1e3);

    // --- biorank-rank ----------------------------------------------------
    let ns = time_ns(BUDGET, || {
        black_box(GraphFeatures::extract(&graphs[pick()].query));
    });
    report.set("rank.features_extract_us", ns / 1e3);
    let adaptive = TrialsPolicy::Adaptive { max_trials: 10_000 };
    let model = CostModel::default();
    let ns = time_ns(BUDGET, || {
        black_box(plan(
            &PlanFeatures::for_request(features[pick()], None, adaptive),
            &model,
        ));
    });
    report.set("rank.plan_ns", ns);

    // The seeds a default-policy request would run under.
    let base = RankerSpec::new(Method::TraversalMc);
    let seeds: Vec<u64> = queries.iter().map(|q| base.effective_seed(q)).collect();
    for g in &graphs {
        g.query.csr(); // built once per query in the engine, too
    }
    let mut per_element = Vec::new();
    let ns = time_ns(3 * BUDGET, || {
        let i = pick();
        let t = Instant::now();
        black_box(
            WordMc::<FUSION_LANES>::wide(10_000, seeds[i])
                .score(&graphs[i].query)
                .expect("word mc"),
        );
        let elements = f64::from(features[i].nodes + features[i].edges);
        per_element.push(t.elapsed().as_nanos() as f64 / (10_000.0 * elements));
    });
    report.set("rank.word_fixed_us", ns / 1e3);
    report.set("rank.word_ns_per_trial_element", median(&per_element));

    let cfg = AdaptiveConfig::default();
    let runner = |i: usize, top_k: Option<usize>| {
        let runner = AdaptiveRunner::new(
            WordMc::<FUSION_LANES>::wide(cfg.max_trials, seeds[i]),
            cfg.epsilon,
            cfg.delta,
        );
        match top_k {
            Some(k) => runner.with_top_k(k),
            None => runner,
        }
        .run(&graphs[i].query)
        .expect("adaptive run")
    };
    for (time_name, trials_name, top_k) in [
        ("rank.adaptive_word_us", "rank.adaptive_trials_used", None),
        (
            "rank.adaptive_topk_us",
            "rank.adaptive_topk_trials_used",
            Some(10),
        ),
    ] {
        let ns = time_ns(2 * BUDGET, || {
            black_box(runner(pick(), top_k));
        });
        report.set(time_name, ns / 1e3);
        let outcomes: Vec<_> = (0..graphs.len())
            .map(|i| runner(i, top_k).certificate)
            .collect();
        report.set(
            trials_name,
            outcomes.iter().map(|c| f64::from(c.trials_used)).sum(),
        );
        if top_k.is_none() {
            report.set(
                "rank.certified_share",
                outcomes.iter().filter(|c| c.certified).count() as f64 / outcomes.len() as f64,
            );
        }
    }

    // Forced strategies on the same graphs: the planner's
    // earn-or-delete evidence. One timed run per (graph, strategy) —
    // the slow ones take tens of ms — over as many graphs as fit.
    let forced = |strategy: Strategy, i: usize| -> f64 {
        let q = &graphs[i].query;
        let t = Instant::now();
        match strategy {
            Strategy::Exact => {
                black_box(
                    ClosedReliability::default()
                        .score(q)
                        .expect("closed solution"),
                );
            }
            Strategy::ReducedMc => {
                black_box(
                    run_adaptive(
                        Method::Reliability,
                        Estimator::Traversal,
                        cfg,
                        seeds[i],
                        None,
                        q,
                    )
                    .expect("reduced mc"),
                );
            }
            Strategy::WordMc => {
                black_box(runner(i, None));
            }
            Strategy::TraversalMc => {
                black_box(
                    run_adaptive(
                        Method::TraversalMc,
                        Estimator::Traversal,
                        cfg,
                        seeds[i],
                        None,
                        q,
                    )
                    .expect("traversal mc"),
                );
            }
        }
        t.elapsed().as_nanos() as f64
    };
    let mut by_strategy: [Vec<f64>; 4] = Default::default();
    let mut regret = Vec::new();
    let forced_started = Instant::now();
    for (i, graph_features) in features.iter().enumerate() {
        if i >= 4 && forced_started.elapsed() > 10 * BUDGET {
            break;
        }
        let times = Strategy::ALL.map(|s| forced(s, i));
        for s in Strategy::ALL {
            by_strategy[s.index()].push(times[s.index()]);
        }
        let chosen = plan(
            &PlanFeatures::for_request(*graph_features, None, adaptive),
            &model,
        )
        .strategy;
        let best = times.iter().copied().fold(f64::INFINITY, f64::min);
        regret.push(times[chosen.index()] / best);
    }
    report.set(
        "rank.exact_us",
        median(&by_strategy[Strategy::Exact.index()]) / 1e3,
    );
    report.set(
        "rank.reduced_us",
        median(&by_strategy[Strategy::ReducedMc.index()]) / 1e3,
    );
    report.set(
        "rank.traversal_us",
        median(&by_strategy[Strategy::TraversalMc.index()]) / 1e3,
    );
    report.set("rank.planner_regret", median(&regret));

    // --- biorank-service: wire -------------------------------------------
    let lines: Vec<String> = Generator::new(
        workload,
        seed,
        0,
        canonical,
        false,
        Some(Horizon {
            warmup_us: 0,
            measure_us: 1_000_000,
        }),
    )
    .filter(|op| matches!(op.kind, OpKind::Query { .. }))
    .take(64)
    .map(|op| op.line)
    .collect();
    let defaults = server_defaults();
    let mut i = 0;
    let ns = time_ns(BUDGET, || {
        i += 1;
        black_box(wire::decode_request_with(&lines[i % lines.len()], &defaults).expect("decodes"));
    });
    report.set("wire.decode_request_ns", ns);

    // A warm engine over the workload's world: every protein answered
    // once under the default policy.
    let warm = Arc::new(spec.build());
    let responses = |top: Option<usize>| -> Vec<Response> {
        proteins
            .iter()
            .map(|p| {
                let mut req = default_request(p);
                req.top = top;
                let mut resp = warm.execute(&req).expect("query");
                // Fixed, so the byte counts repeat exactly.
                (resp.micros, resp.cached_graph, resp.cached_scores) = (0, true, true);
                Response {
                    id: 1,
                    outcome: Ok(ResponseBody::Query(resp)),
                }
            })
            .collect()
    };
    for (time_name, bytes_name, top) in [
        (
            "wire.encode_response_top10_ns",
            "wire.response_top10_bytes",
            Some(10),
        ),
        (
            "wire.encode_response_full_ns",
            "wire.response_full_bytes",
            None,
        ),
    ] {
        let responses = responses(top);
        let ns = time_ns(BUDGET, || {
            black_box(wire::encode_response(&responses[pick()]));
        });
        report.set(time_name, ns);
        report.set(
            bytes_name,
            responses
                .iter()
                .map(|r| wire::encode_response(r).len() as f64)
                .sum(),
        );
    }
    let encoded: Vec<String> = responses(Some(10))
        .iter()
        .map(wire::encode_response)
        .collect();
    let decode_ns = time_ns(BUDGET, || {
        black_box(wire::decode_response(&encoded[pick()]).expect("decodes"));
    });
    let encode_ns = time_ns(BUDGET, || {
        black_box(query_line(
            7,
            &proteins[pick()],
            workload.world(),
            first_shape(workload),
            false,
        ));
    });
    report.set("loadgen.client_codec_ns", decode_ns + encode_ns);

    // --- biorank-service: cache ------------------------------------------
    // The engine's result-cache key type at the default capacity, full.
    let key = |n: u64| {
        (
            queries[(n % 31) as usize].clone(),
            RankerSpec { seed: n, ..base },
        )
    };
    let lru: ShardedLru<(ExploratoryQuery, RankerSpec), Arc<u64>> = ShardedLru::new(512, 16);
    for n in 0..4_096 {
        lru.insert(key(n), Arc::new(n));
    }
    let resident: Vec<_> = (0..4_096)
        .map(key)
        .filter(|k| lru.get(k).is_some())
        .collect();
    let mut n = 0;
    let ns = time_ns(BUDGET, || {
        n += 1;
        black_box(lru.get(&resident[n % resident.len()]));
    });
    report.set("cache.get_hit_ns", ns);
    let mut n = 1u64 << 32;
    let ns = time_with_ns(
        BUDGET,
        || {
            n += 1;
            (key(n), Arc::new(n))
        },
        |(k, v)| lru.insert_if(k, v, |_| true),
    );
    report.set("cache.insert_evict_ns", ns);

    // --- biorank-service: engine -----------------------------------------
    let hit = default_request(&proteins[0]);
    let ns = time_ns(BUDGET, || {
        black_box(warm.execute(&hit).expect("hit"));
    });
    report.set("engine.execute_hit_ns", ns);
    let execute_hit_ns = ns;
    let mut fresh = 1u64 << 40;
    let ns = time_ns(2 * BUDGET, || {
        fresh += 1;
        let mut req = default_request(&proteins[pick()]);
        req.spec = RankerSpec {
            trials: biorank_service::Trials::Fixed(10_000),
            seed: fresh,
            estimator: Some(Estimator::Word),
            ..req.spec
        };
        req.top = Some(10);
        black_box(warm.execute(&req).expect("rescore"));
    });
    report.set("engine.execute_rescore_us", ns / 1e3);
    let uncached = WorldSpec {
        cache_capacity: 0,
        ..spec
    }
    .build();
    let ns = time_ns(
        if spec.extended {
            4 * BUDGET
        } else {
            2 * BUDGET
        },
        || {
            black_box(
                uncached
                    .execute(&default_request(&proteins[pick()]))
                    .expect("cold"),
            );
        },
    );
    report.set("engine.execute_cold_us", ns / 1e3);

    // --- biorank-service: pool -------------------------------------------
    let pool = WorkerPool::new(harness::WORKERS);
    let ns = time_ns(BUDGET, || {
        black_box(pool.run_batch(&warm, vec![hit.clone()]));
    });
    report.set("pool.dispatch_ns", (ns - execute_hit_ns).max(0.0));

    // --- biorank-service: tenancy ----------------------------------------
    let manager = WorldManager::with_default(Arc::clone(&warm), spec, 4);
    let ns = time_ns(BUDGET, || {
        black_box(manager.resolve(None).expect("default world"));
    });
    report.set("tenancy.resolve_ns", ns);
    let ns = time_ns(BUDGET, || {
        black_box(WorldManager::new(4).load("w", spec).expect("load"));
    });
    report.set("tenancy.load_ms", ns / 1e6);
    let ns = time_ns(BUDGET, || {
        black_box(manager.swap("scratch", spec, 0).expect("swap"));
    });
    report.set("tenancy.swap_cold_ms", ns / 1e6);
    // Swapping the warm default world replays its 8 hottest keys.
    let ns = time_with_ns(
        2 * BUDGET,
        || {
            for p in proteins.iter().take(8) {
                let engine = manager.resolve(None).expect("default world");
                engine.execute(&default_request(p)).expect("warm");
            }
        },
        |()| {
            black_box(manager.swap("default", spec, 8).expect("warm swap"));
        },
    );
    report.set("tenancy.swap_warm_ms", ns / 1e6);

    // --- biorank-service: persist, biorank-store -------------------------
    let payload = export_snapshot(&warm, spec);
    let ns = time_ns(BUDGET, || {
        black_box(export_snapshot(&warm, spec));
    });
    report.set("persist.export_snapshot_ms", ns / 1e6);
    report.set("persist.snapshot_bytes", payload.len() as f64);
    let cold_engine: QueryEngine = spec.build();
    let ns = time_ns(BUDGET, || {
        black_box(import_snapshot(&cold_engine, &payload, spec).expect("import"));
    });
    report.set("persist.import_snapshot_ms", ns / 1e6);
    let dir = tmp.join("probe-store");
    let registry = MetricsRegistry::new();
    let store = WorldStore::open(&dir, &registry).expect("open store");
    let ns = time_ns(BUDGET, || {
        black_box(store.save_snapshot("probe", &payload).expect("save"));
    });
    report.set("store.save_snapshot_ms", ns / 1e6);
    let ns = time_ns(BUDGET, || {
        black_box(store.load_snapshot("probe.snap").expect("load"));
    });
    report.set("store.load_snapshot_ms", ns / 1e6);
    let op = WalOp::Load {
        world: "probe".into(),
        spec: persist::stored_spec(spec),
        generation: 1,
    };
    let ns = time_ns(BUDGET, || store.append(&op).expect("append"));
    report.set("store.wal_append_us", ns / 1e3);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // --- biorank-obs -----------------------------------------------------
    // A registry as populated as a serving engine's.
    let populated = warm.metrics();
    let histogram = populated.histogram("stage_ns.cache");
    let mut v = 0u64;
    let ns = time_ns(BUDGET, || {
        v += 97;
        histogram.record(v);
    });
    report.set("obs.histogram_record_ns", ns);
    let ns = time_ns(BUDGET, || {
        black_box(populated.histogram("stage_ns.serialize"));
    });
    report.set("obs.registry_lookup_ns", ns);
    let ns = time_ns(BUDGET, || {
        black_box(populated.snapshot());
    });
    report.set("obs.snapshot_us", ns / 1e3);

    report.set("loadgen.probe_seconds", started.elapsed().as_secs_f64());
}
