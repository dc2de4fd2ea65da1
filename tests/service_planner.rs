//! The cost-based query planner end to end: `estimator: "auto"`
//! resolves to a concrete strategy before any cache key is formed, the
//! chosen plan is echoed on the response (and only observed — it is
//! never a cache-key dimension), a plan is a pure function of the
//! request and its graph (nothing an engine served before can move
//! it), and a planned execution is byte-identical to a client naming
//! the chosen strategy outright.

mod common;

use biorank::prelude::*;
use biorank::service::{
    spec_for_strategy, AdaptiveConfig, Client, Estimator, Method, QueryRequest, RankerSpec,
    ServeOptions, Trials, WorldSpec, DEFAULT_CACHE_CAPACITY,
};
use common::engine as fresh_engine;

/// An adaptive Monte Carlo request that asks the planner to choose.
fn auto_spec() -> RankerSpec {
    RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        seed: 11,
        parallel: false,
        estimator: Some(Estimator::Auto),
    }
}

const STRATEGIES: [&str; 4] = ["exact", "reduced", "word", "traversal"];

#[test]
fn auto_resolves_to_a_strategy_and_echoes_the_plan() {
    let engine = fresh_engine();
    let resp = engine
        .execute(&QueryRequest::protein_functions("GALT", auto_spec()))
        .expect("auto query");
    let plan = resp.plan.expect("auto responses carry a plan echo");
    assert!(plan.predicted_ns > 0);
    assert!(plan.features.graph.nodes > 0);
    assert!(plan.features.graph.edges > 0);
    assert!(plan.features.graph.reduced_edges <= plan.features.graph.edges);

    // Exactly one planner decision was counted, under the chosen
    // strategy's name.
    let snap = engine.metrics_snapshot();
    let chosen: u64 = STRATEGIES
        .iter()
        .map(|s| snap.counter(&format!("planner.chosen.{s}")))
        .sum();
    assert_eq!(chosen, 1);
    assert_eq!(
        snap.counter(&format!("planner.chosen.{}", plan.strategy.wire_name())),
        1
    );
}

#[test]
fn a_teacher_engine_and_a_fresh_engine_plan_identically() {
    // One engine that has served planned traffic, one that has served
    // nothing: the same request must plan the same way on both —
    // strategy, prediction, and features.
    let teacher = fresh_engine();
    for protein in ["GALT", "CFTR", "LPL"] {
        teacher
            .execute(&QueryRequest::protein_functions(protein, auto_spec()))
            .expect("teacher traffic");
    }
    let req = QueryRequest::protein_functions("GALT", auto_spec());
    let taught = teacher.execute(&req).expect("teacher repeat").plan;
    let fresh = fresh_engine().execute(&req).expect("fresh query").plan;
    assert!(taught.is_some(), "auto responses carry a plan echo");
    assert_eq!(taught, fresh);
}

#[test]
fn plans_and_score_bits_do_not_depend_on_what_the_engine_served_before() {
    // The 11-source federation is where history used to leak: a cold
    // planned request there spends tens of milliseconds outside the
    // estimator, and a model fed whole-request wall time inflated the
    // word engine's predicted cost every 64 computed planned runs
    // until `auto` flipped to a 12x slower strategy with different
    // score bits for an identical request.
    let engine = WorldSpec {
        seed: WorldParams::default().seed,
        extended: true,
        cache_capacity: DEFAULT_CACHE_CAPACITY,
    }
    .build();
    let fixed_auto = |trials: u32| RankerSpec {
        trials: Trials::Fixed(trials),
        ..auto_spec()
    };
    let probe = QueryRequest::protein_functions("ABCC8", fixed_auto(9_999));
    let before = engine.execute(&probe).expect("cold probe");
    assert!(!before.cached_scores);
    let plan = before.plan.expect("plan echo");

    // More than 4 x 64 other computed planned requests: every protein
    // under several trial budgets (each a distinct result-cache key).
    let proteins: Vec<String> = World::generate(WorldParams::default())
        .profiles
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let mut computed = 0;
    for trials in (1..=9).map(|i| 64 * i) {
        for protein in &proteins {
            let resp = engine
                .execute(&QueryRequest::protein_functions(
                    protein,
                    fixed_auto(trials),
                ))
                .expect("history traffic");
            assert!(resp.plan.is_some());
            computed += usize::from(!resp.cached_scores);
        }
    }
    assert!(computed >= 4 * 64, "only {computed} computed planned runs");

    // The same request again, recomputed from scratch on the engine
    // that served all of the above (`execute_uncached` plans with the
    // engine's planner and reads no cache): same plan, same bits.
    let after = engine.execute_uncached(&probe).expect("uncached probe");
    assert_eq!(after.plan, Some(plan), "history moved the plan");
    assert_eq!(after.answers.len(), before.answers.len());
    for (a, b) in after.answers.iter().zip(&before.answers) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{}", a.key);
    }
    // And the cached repeat explains itself with the same plan.
    let hit = engine.execute(&probe).expect("cached probe");
    assert!(hit.cached_scores);
    assert_eq!(hit.plan, Some(plan));
}

#[test]
fn planner_metric_names_are_the_documented_ones() {
    // One planned and one explicit request on a fresh engine: the only
    // `planner.` series that exist are the decision counters actually
    // bumped — no per-strategy latency histograms, no model-update
    // counter — and the README names the same families.
    let engine = fresh_engine();
    let auto = engine
        .execute(&QueryRequest::protein_functions("GALT", auto_spec()))
        .expect("auto query");
    let plan = auto.plan.expect("plan echo");
    engine
        .execute(&QueryRequest::protein_functions(
            "CFTR",
            spec_for_strategy(plan.strategy, &auto_spec()),
        ))
        .expect("explicit query");

    let snap = engine.metrics_snapshot();
    let registered: Vec<&str> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(String::as_str)
        .filter(|name| name.starts_with("planner."))
        .collect();
    let mut expected = vec![format!("planner.chosen.{}", plan.strategy.wire_name())];
    if plan.fallback {
        expected.push("planner.fallback".to_string());
    }
    assert_eq!(registered, expected);

    let readme = include_str!("../README.md");
    for name in ["`planner.chosen.<strategy>`", "`planner.fallback`"] {
        assert!(readme.contains(name), "README does not document {name}");
    }
    let documented: std::collections::BTreeSet<&str> = readme
        .split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_')))
        .filter(|word| word.starts_with("planner.") && *word != "planner.rs")
        .map(|word| word.trim_end_matches('.'))
        // A bare `planner.*` names the whole family, not a series.
        .filter(|word| *word != "planner")
        .collect();
    assert_eq!(
        documented.into_iter().collect::<Vec<_>>(),
        ["planner.chosen", "planner.fallback"],
        "README names a planner.* series the engine does not emit"
    );
}

#[test]
fn auto_and_explicit_requests_share_one_cache_entry() {
    // Auto first: its entry must serve a later explicit request for
    // the chosen strategy.
    let engine = fresh_engine();
    let auto_req = QueryRequest::protein_functions("GALT", auto_spec());
    let first = engine.execute(&auto_req).expect("cold auto");
    assert!(!first.cached_scores);
    let plan = first.plan.expect("plan echo");
    let explicit_req =
        QueryRequest::protein_functions("GALT", spec_for_strategy(plan.strategy, &auto_spec()));
    let second = engine.execute(&explicit_req).expect("explicit repeat");
    assert!(
        second.cached_scores,
        "auto's cache entry must serve the explicit request"
    );
    assert_eq!(second.answers, first.answers);
    assert_eq!(second.certificate, first.certificate);
    assert!(
        second.plan.is_none(),
        "explicit requests route around the planner, echo included"
    );

    // Explicit first: auto resolves onto the same key and hits. The
    // plan echo rides the hit — proof it is never a cache dimension
    // (mirrors the `trace: true` invariance in service_metrics).
    let engine = fresh_engine();
    let first = engine.execute(&explicit_req).expect("cold explicit");
    assert!(!first.cached_scores);
    let second = engine.execute(&auto_req).expect("auto repeat");
    assert!(
        second.cached_scores,
        "the explicit entry must serve the planned request"
    );
    assert_eq!(second.answers, first.answers);
    assert_eq!(second.certificate, first.certificate);
    assert!(second.plan.is_some(), "a planned hit still explains itself");
}

#[test]
fn planned_execution_is_byte_identical_to_the_explicit_strategy() {
    // Cold runs on two fresh engines over the same world: auto's
    // answers and certificate must be indistinguishable from a client
    // naming the chosen strategy outright (same trials, seed, and
    // parallelism — only the plan echo differs).
    let auto_req = QueryRequest::protein_functions("CFTR", auto_spec());
    let auto = fresh_engine().execute(&auto_req).expect("cold auto");
    let strategy = auto.plan.as_ref().expect("plan echo").strategy;
    let explicit_req =
        QueryRequest::protein_functions("CFTR", spec_for_strategy(strategy, &auto_spec()));
    let explicit = fresh_engine()
        .execute(&explicit_req)
        .expect("cold explicit");
    assert_eq!(auto.answers, explicit.answers);
    assert_eq!(auto.certificate, explicit.certificate);
    assert_eq!(auto.total_answers, explicit.total_answers);
    assert!(explicit.plan.is_none());
}

#[test]
fn live_server_defaults_to_auto_and_explicit_opt_out_matches_bytes() {
    let handle = common::serve(
        fresh_engine(),
        ServeOptions {
            workers: 2,
            ..Default::default()
        },
    );
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The estimator field left unset: the serve default (auto) plans.
    let spec = RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        seed: 5,
        parallel: false,
        estimator: None,
    };
    let auto = client
        .query(&QueryRequest::protein_functions("CFTR", spec.clone()))
        .expect("auto query");
    let plan = auto.plan.clone().expect("the serve default must plan");

    // Explicit opt-out for the chosen strategy: identical bytes over
    // the wire, served from the shared cache entry, no plan echo.
    let explicit = client
        .query(&QueryRequest::protein_functions(
            "CFTR",
            spec_for_strategy(plan.strategy, &spec),
        ))
        .expect("explicit query");
    assert!(explicit.cached_scores);
    assert_eq!(explicit.answers, auto.answers);
    assert_eq!(explicit.certificate, auto.certificate);
    assert!(
        explicit.plan.is_none(),
        "an explicit estimator routes around the planner"
    );

    // One planned request: the chosen counters and the world.list
    // rollup agree.
    let report = client.metrics(false).expect("metrics");
    let world = report
        .worlds
        .iter()
        .find(|w| w.name == "default")
        .expect("default world metrics");
    let chosen: u64 = STRATEGIES
        .iter()
        .map(|s| world.metrics.counter(&format!("planner.chosen.{s}")))
        .sum();
    assert_eq!(chosen, 1);
    let worlds = client.world_list().expect("world.list");
    let info = worlds
        .iter()
        .find(|w| w.name == "default")
        .expect("default world row");
    assert_eq!(info.planner_chosen.iter().sum::<u64>(), chosen);

    handle.shutdown();
}
