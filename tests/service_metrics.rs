//! End-to-end telemetry: a live server must expose per-stage trace
//! spans on request, report counters/histograms through the `metrics`
//! admin command, and do both without perturbing the ranked answers —
//! tracing observes the query path, it never participates in it.

mod common;

use biorank::service::{
    AdaptiveConfig, Client, Estimator, Method, QueryRequest, RankerSpec, ServeOptions,
    ServerHandle, Trials, WorldSpec,
};
use common::engine as fresh_engine;

fn start_server(slow_query_micros: u64) -> ServerHandle {
    common::serve(
        fresh_engine(),
        ServeOptions {
            workers: 2,
            slow_query_micros,
            ..Default::default()
        },
    )
}

fn adaptive_mc_spec() -> RankerSpec {
    RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        seed: 11,
        parallel: false,
        estimator: Some(Estimator::Word),
    }
}

#[test]
fn traced_query_reports_stages_and_metrics_snapshot() {
    // Threshold 0: every query lands in the slow-query log.
    let handle = start_server(0);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let req = QueryRequest::protein_functions("GALT", adaptive_mc_spec()).traced();

    // Cold traced query: the full stage breakdown, with real time in it.
    let cold = client.query(&req).expect("cold traced query");
    assert!(!cold.cached_scores);
    let stages: Vec<&str> = cold.trace.iter().map(|s| s.stage.as_str()).collect();
    for stage in [
        "cache",
        "graph",
        "estimate",
        "certify",
        "insert",
        "serialize",
    ] {
        assert!(
            stages.contains(&stage),
            "missing stage {stage:?} in {stages:?}"
        );
    }
    assert!(cold.trace.len() >= 4);
    let total: u64 = cold.trace.iter().map(|s| s.nanos).sum();
    assert!(total > 0, "spans must carry wall-clock time");

    // Warm traced repeat: a cache hit still explains itself.
    let warm = client.query(&req).expect("warm traced query");
    assert!(warm.cached_scores);
    let warm_stages: Vec<&str> = warm.trace.iter().map(|s| s.stage.as_str()).collect();
    assert!(warm_stages.contains(&"cache"));
    assert!(warm_stages.contains(&"serialize"));
    assert_eq!(warm.answers, cold.answers);

    // An untraced request answers with no span payload at all.
    let untraced = client
        .query(&QueryRequest::protein_functions("GALT", adaptive_mc_spec()))
        .expect("untraced query");
    assert!(untraced.trace.is_empty());

    // The metrics snapshot ties the whole workload together.
    let report = client.metrics(false).expect("metrics");
    assert!(report.service.counter("server.requests") >= 3);
    assert!(report.service.histogram("server.decode_ns").count >= 3);
    assert!(report.service.histogram("server.encode_ns").count >= 3);

    let world = report
        .worlds
        .iter()
        .find(|w| w.name == "default")
        .expect("default world metrics");
    assert_eq!(world.metrics.counter("queries"), 3);
    assert_eq!(world.metrics.counter("queries.computed"), 1);
    assert_eq!(world.metrics.counter("queries.cached"), 2);
    assert_eq!(world.metrics.counter("queries.mc.word"), 3);
    assert_eq!(world.metrics.histogram("query_ns.mc.word").count, 3);
    assert!(world.metrics.histogram("query_ns.mc.word").sum > 0);
    // The cold adaptive run left one certification record.
    assert_eq!(world.metrics.histogram("trials_used").count, 1);
    assert!(world.metrics.histogram("trials_used").sum > 0);
    assert_eq!(
        world.metrics.counter("certified") + world.metrics.counter("uncertified"),
        1
    );
    // Stage histograms record for traced and untraced requests alike.
    assert_eq!(world.metrics.histogram("stage_ns.cache").count, 3);
    assert_eq!(world.metrics.histogram("stage_ns.estimate").count, 1);
    assert_eq!(world.metrics.histogram("stage_ns.certify").count, 1);
    assert_eq!(world.metrics.histogram("stage_ns.serialize").count, 3);

    // Threshold 0 put every query in the slow log.
    assert_eq!(report.slow_queries.len(), 3);
    assert!(report
        .slow_queries
        .iter()
        .all(|s| s.world == "default" && s.value == "GALT" && s.method == "mc"));
    assert!(report.slow_queries.iter().any(|s| s.cached));

    // `reset: true` zeroes everything after the snapshot.
    let drained = client.metrics(true).expect("metrics with reset");
    assert_eq!(drained.worlds[0].metrics.counter("queries"), 3);
    let after = client.metrics(false).expect("metrics after reset");
    let world = after
        .worlds
        .iter()
        .find(|w| w.name == "default")
        .expect("default world metrics");
    assert_eq!(world.metrics.counter("queries"), 0);
    assert_eq!(world.metrics.histogram("query_ns.mc.word").count, 0);
    assert!(after.slow_queries.is_empty());

    handle.shutdown();
}

#[test]
fn tracing_never_changes_answers_certificates_or_cache_keys() {
    let req = QueryRequest::protein_functions("GALT", adaptive_mc_spec());

    // Two fresh engines over the same world: a traced cold run must be
    // bit-identical to an untraced cold run.
    let plain = fresh_engine().execute(&req).expect("untraced cold run");
    let traced = fresh_engine()
        .execute(&req.clone().traced())
        .expect("traced cold run");
    assert_eq!(traced.answers, plain.answers);
    assert_eq!(traced.certificate, plain.certificate);
    assert_eq!(traced.total_answers, plain.total_answers);
    assert!(!traced.trace.is_empty() && plain.trace.is_empty());

    // And on one engine, `trace` must not split the result-cache key:
    // the traced repeat of an untraced query is a hit, with the exact
    // same ranking.
    let engine = fresh_engine();
    let first = engine.execute(&req).expect("cold");
    let second = engine
        .execute(&req.clone().traced())
        .expect("traced repeat");
    assert!(second.cached_scores, "trace must not be a cache dimension");
    assert_eq!(second.answers, first.answers);
    assert_eq!(second.certificate, first.certificate);
}

#[test]
fn per_world_query_counters_sum_to_the_requests_served() {
    let handle = start_server(u64::MAX);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .world_load(
            "b",
            WorldSpec {
                seed: 7,
                extended: false,
                cache_capacity: 64,
            },
        )
        .expect("load second world");

    // A pipelined mixed workload across both worlds: the batch runs
    // concurrently on the worker pool.
    let spec = RankerSpec::new(Method::InEdge);
    let mut batch = Vec::new();
    for protein in ["GALT", "CFTR", "GALT", "LPL"] {
        batch.push(QueryRequest::protein_functions(protein, spec.clone()));
    }
    for protein in ["GALT", "GALT"] {
        let mut req = QueryRequest::protein_functions(protein, spec.clone());
        req.world = Some("b".to_string());
        batch.push(req);
    }
    let results = client.query_batch(&batch).expect("pipelined batch");
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, batch.len());

    let report = client.metrics(false).expect("metrics");
    let per_world_total: u64 = report
        .worlds
        .iter()
        .map(|w| w.metrics.counter("queries"))
        .sum();
    assert_eq!(per_world_total, batch.len() as u64);
    for w in &report.worlds {
        assert_eq!(
            w.metrics.counter("queries"),
            w.metrics.counter("queries.cached") + w.metrics.counter("queries.computed"),
            "world {:?}: cached + computed must account for every query",
            w.name
        );
    }
    // The service saw the batch plus the admin lines, never fewer.
    assert!(report.service.counter("server.requests") >= batch.len() as u64);
    assert_eq!(report.service.counter("server.errors.decode"), 0);

    handle.shutdown();
}
