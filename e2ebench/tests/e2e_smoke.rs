//! Keeps the harness honest between benchmark runs: `e2e --smoke`
//! drives every workload in both modes for half a second each, with
//! the reference-engine check on, and this test demands that every
//! answer was correct and that every metric `BENCHMARK.json` declares
//! comes out under its declared unit.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use biorank_service::wire::Json;

fn benchmark_json() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    match Json::parse(text.trim()).expect("BENCHMARK.json parses") {
        Json::Obj(fields) => fields,
        other => panic!("BENCHMARK.json is {other:?}"),
    }
}

fn string(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(fields) => fields
            .get(key)
            .unwrap_or_else(|| panic!("no {key:?} in {v:?}")),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn list<'a>(fields: &'a BTreeMap<String, Json>, key: &str) -> &'a [Json] {
    match &fields[key] {
        Json::Arr(items) => items,
        other => panic!("{key} is {other:?}"),
    }
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(fields: &BTreeMap<String, Json>, key: &str) -> BTreeMap<String, String> {
    list(fields, key)
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_string(),
                string(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_every_workload_answers_correctly_and_reports_every_declared_metric() {
    let bench = benchmark_json();
    let workloads: BTreeSet<String> = list(&bench, "workloads")
        .iter()
        .map(|w| string(field(w, "name")).to_string())
        .collect();
    let (end_to_end, per_layer) = (
        declared(&bench, "end_to_end"),
        declared(&bench, "per_layer"),
    );
    assert!(end_to_end.contains_key("setup_s"));

    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .arg("--smoke")
        .output()
        .expect("run e2e --smoke");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "e2e --smoke failed:\n{stderr}");

    let mut seen = BTreeSet::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let result = Json::parse(line).expect("result line parses");
        let workload = string(field(&result, "workload")).to_string();
        let traced = *field(&result, "trace") == Json::Bool(true);
        assert!(
            workloads.contains(&workload),
            "{workload} is not in BENCHMARK.json"
        );
        assert_eq!(
            *field(&result, "correct"),
            Json::Bool(true),
            "{workload}:\n{stderr}"
        );
        assert_eq!(*field(&result, "failed"), Json::Num(0.0), "{workload}");
        assert!(matches!(field(&result, "attempted"), Json::Num(n) if *n >= 1.0));
        let Json::Obj(metrics) = field(&result, "metrics") else {
            panic!("{workload}: metrics is not an object");
        };
        let want = if traced { &per_layer } else { &end_to_end };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    matches!(field(m, "value"), Json::Num(v) if v.is_finite()),
                    "{workload} {name}"
                );
                (name.clone(), string(field(m, "unit")).to_string())
            })
            .collect();
        assert_eq!(
            &got, want,
            "{workload} trace={traced}: metrics differ from BENCHMARK.json"
        );
        seen.insert((workload, traced));
    }
    let expected: BTreeSet<(String, bool)> = workloads
        .iter()
        .flat_map(|w| [(w.clone(), false), (w.clone(), true)])
        .collect();
    assert_eq!(seen, expected, "every workload ran in both modes");
}

#[test]
fn a_seed_is_mandatory() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "hit_top10", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run e2e");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result without a seed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed is required"));
}
