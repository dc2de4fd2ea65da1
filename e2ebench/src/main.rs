//! `e2e` — the BioRank serving benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! e2e --smoke
//! e2e compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process per workload. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` runs the in-process layer
//! probes and then the workload again with `trace:true` on every
//! request, and reports the per-layer metrics. Either way the last
//! line of standard output is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! See `README.md` next to this package for every metric and workload.

mod check;
mod defs;
mod harness;
mod probes;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use biorank_service::wire::Json;
use biorank_service::{Client, MetricsReport, ServiceStats};

use check::Checker;
use defs::{obj, Report, END_TO_END, PER_LAYER};
use harness::{ConnRun, Outcome, Phase, Record, Tally};
use stats::{median, percentile, quartiles, supported, verdict, Better, Verdict};
use workload::{canonical_proteins, OpKind, Workload, RATE_1X_QPS, RATE_2X_QPS};

/// Timed bring-ups per run (fewer if they take longer than
/// [`BRING_UP_BUDGET`] together, never fewer than 5); `setup_s` is
/// their median.
const BRING_UPS: usize = 41;
const BRING_UP_BUDGET: std::time::Duration = std::time::Duration::from_millis(1_500);

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2e --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]\n       \
         e2e --smoke\n       e2e compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            // The seed is mandatory: there is no default stream.
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.2..=60.0).contains(&s) {
                    return Err("--seconds must be between 0.2 and 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Scratch space next to the executable — inside the build directory,
/// which is both inside the checkout and ignored by git. Removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = exe_dir()?
            .join("e2e-tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf())
}

/// Peak resident set of this process (harness + in-process server), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

fn warmup_s(seconds: f64) -> f64 {
    (seconds * 0.1).clamp(0.1, 1.0)
}

/// The answered queries of the measured window.
fn measured<'a>(runs: &'a [ConnRun], warmup_ns: u64) -> impl Iterator<Item = &'a Record> + 'a {
    runs.iter().flat_map(|r| &r.records).filter(move |r| {
        r.start_ns >= warmup_ns
            && matches!(r.kind, OpKind::Query { .. })
            && matches!(r.outcome, Outcome::Answer { .. })
    })
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Equal slices the measured window is cut into for the latency
/// percentiles.
const SLICES: usize = 5;

/// Client-observed latency of the measured window.
struct Latency {
    /// Answered queries in the window.
    samples: usize,
    /// Answers per second: samples over (last completion − window start).
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Each percentile is taken per slice of the measured window (by
/// request start; `SLICES` equal slices) and the **median over the
/// slices** is reported: one stalled `fsync` or one noisy second on a
/// shared box then moves one slice, not the run's tail.
fn latency(runs: &[ConnRun], phase: Phase) -> Result<Latency, String> {
    let warmup_ns = (phase.warmup_s * 1e9) as u64;
    let slice_ns = ((phase.measure_s * 1e9) as u64 / SLICES as u64).max(1);
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for r in measured(runs, warmup_ns) {
        let slice = ((r.start_ns - warmup_ns) / slice_ns) as usize;
        slices[slice.min(SLICES - 1)].push(r.latency_ns() as f64 / 1e3);
    }
    slices.retain(|s| !s.is_empty());
    let samples = slices.iter().map(Vec::len).sum();
    let last_done = measured(runs, warmup_ns).map(Record::done_ns).max();
    let Some(done) = last_done.filter(|&d| d > warmup_ns) else {
        return Err("no request completed in the measured window".into());
    };
    for slice in &mut slices {
        slice.sort_by(f64::total_cmp);
    }
    let over_slices = |p: f64| median(&slices.iter().map(|s| percentile(s, p)).collect::<Vec<_>>());
    Ok(Latency {
        samples,
        qps: samples as f64 / ((done - warmup_ns) as f64 / 1e9),
        p50_us: over_slices(0.50),
        p95_us: over_slices(0.95),
        p99_us: over_slices(0.99),
    })
}

/// What a run produced, before it is printed.
struct Outcomes {
    report: Report,
    tally: Tally,
    /// Sample counts behind the latency metrics, for result files.
    samples: BTreeMap<&'static str, usize>,
}

/// Brings the server up `BRING_UPS` times, each from nothing to its
/// first correct answer, and returns the times in seconds.
fn time_bring_ups(
    workload: Workload,
    proteins: &[String],
    scratch: &Path,
    checker: &mut Checker,
    count: usize,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let began = Instant::now();
    // The first, untimed pass computes the reference answer the timed
    // ones are checked against.
    for i in 0..=count {
        if times.len() >= count.min(5) && began.elapsed() > BRING_UP_BUDGET {
            break;
        }
        let dir = scratch.join(format!("setup-{i}"));
        let started = Instant::now();
        let served = harness::bring_up(workload, &dir)?;
        let (line, seen) = harness::first_answer(served.addr, workload, proteins)?;
        let elapsed = started.elapsed().as_secs_f64();
        served.shut_down();
        checker
            .check(&line, &seen)
            .map_err(|e| format!("first answer: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        if i > 0 {
            times.push(elapsed);
        }
    }
    Ok(times)
}

/// Shuts the durable server down, reopens its data directory, and
/// checks that the last acknowledged `world.save` is readable and that
/// the restarted server's first answer is the pre-shutdown one.
/// Returns the restart time in seconds.
fn restart_check(
    served: harness::Served,
    workload: Workload,
    proteins: &[String],
    data_dir: &Path,
    saves_acked: u64,
    checker: &mut Checker,
) -> Result<f64, String> {
    let (_, before) = harness::first_answer(served.addr, workload, proteins)?;
    served.shut_down();
    if saves_acked > 0 {
        let registry = biorank_service::MetricsRegistry::new();
        let store =
            biorank_service::WorldStore::open(data_dir, &registry).map_err(|e| e.to_string())?;
        let name = workload.world().expect("durable workloads name a world");
        let recovery = store.recover().map_err(|e| e.to_string())?;
        let file = recovery
            .worlds
            .get(name)
            .and_then(|w| w.snapshot.clone())
            .ok_or("an acknowledged world.save left no snapshot behind")?;
        let payload = store
            .load_snapshot(&file)
            .map_err(|e| format!("acknowledged snapshot unreadable: {e}"))?;
        let spec = biorank_service::snapshot_spec(&payload).map_err(|e| e.to_string())?;
        if spec != workload.spec() {
            return Err(format!("snapshot holds {spec:?}"));
        }
    }
    let started = Instant::now();
    let served = harness::bring_up(workload, data_dir)?;
    let (line, after) = harness::first_answer(served.addr, workload, proteins)?;
    let elapsed = started.elapsed().as_secs_f64();
    served.shut_down();
    checker.check(&line, &after)?;
    if after.strategy == before.strategy && after.digest != before.digest {
        return Err("first answer after restart differs from the one before shutdown".into());
    }
    Ok(elapsed)
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn run_end_to_end(args: &Args, bring_ups: usize) -> Result<Outcomes, String> {
    let workload = args.workload;
    let proteins = canonical_proteins(workload.spec().extended);
    let scratch = Scratch::new()?;
    let mut checker = Checker::new(workload.spec());
    let mut report = Report::default();

    let setups = time_bring_ups(workload, &proteins, scratch.path(), &mut checker, bring_ups)?;
    report.set("setup_s", median(&setups));

    let data_dir = scratch.path().join("data");
    let served = harness::bring_up(workload, &data_dir)?;
    if workload.prewarmed() {
        harness::prewarm(served.addr, workload, &proteins)?;
    }
    let phase = Phase {
        warmup_s: warmup_s(args.seconds),
        measure_s: args.seconds,
        trace: false,
    };
    let runs = harness::run_load(served.addr, workload, args.seed, &proteins, phase)?;
    let mut tally = harness::verify(workload, args.seed, &proteins, phase, &runs, &mut checker);
    if workload.durable() {
        tally.attempted += 1;
        if let Err(e) = restart_check(
            served,
            workload,
            &proteins,
            &data_dir,
            tally.saves_acked,
            &mut checker,
        ) {
            tally.failed += 1;
            tally.failures.push(format!("restart: {e}"));
        }
    } else {
        served.shut_down();
    }

    let seen = latency(&runs, phase)?;
    let mut samples = BTreeMap::new();
    for (name, value) in [
        ("latency_p50_us", seen.p50_us),
        ("latency_p95_us", seen.p95_us),
    ] {
        report.set(name, value);
        samples.insert(name, seen.samples);
    }
    report.set("throughput_qps", seen.qps);
    report.set("peak_rss_mb", peak_rss_mib()?);
    Ok(Outcomes {
        report,
        tally,
        samples,
    })
}

fn world_stats(stats: &ServiceStats, workload: Workload) -> Option<biorank_service::EngineStats> {
    let name = workload.world().unwrap_or(biorank_service::DEFAULT_WORLD);
    stats
        .worlds
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.engine)
}

/// Hit rate over the interval between two `stats` scrapes; when a swap
/// replaced the engine in between (counters restart), the newer
/// engine's own counters.
fn hit_rate(
    before: Option<biorank_service::CacheStats>,
    after: biorank_service::CacheStats,
) -> f64 {
    let (hits, misses) = match before {
        Some(b) if after.hits >= b.hits && after.misses >= b.misses => {
            (after.hits - b.hits, after.misses - b.misses)
        }
        _ => (after.hits, after.misses),
    };
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer metrics read off the traced phase: the client's own
/// spans, the server-echoed stages, and what `admin metrics` /
/// `admin stats` expose.
fn traced_metrics(
    workload: Workload,
    runs: &[ConnRun],
    warmup_ns: u64,
    metrics: &MetricsReport,
    stats: (&ServiceStats, &ServiceStats),
    report: &mut Report,
) -> Result<(), String> {
    let records: Vec<&Record> = measured(runs, warmup_ns).collect();
    if records.is_empty() {
        return Err("no traced request completed".into());
    }
    let med =
        |f: &dyn Fn(&Record) -> f64| median(&records.iter().map(|r| f(r)).collect::<Vec<_>>());
    let spans_of = |r: &Record| -> u64 {
        match &r.outcome {
            Outcome::Answer { spans, .. } => spans.iter().map(|s| s.nanos).sum(),
            _ => 0,
        }
    };
    report.set("client.lead_ns", med(&|r| r.lead_ns as f64));
    report.set("client.write_ns", med(&|r| r.write_ns as f64));
    report.set("client.wait_us", med(&|r| r.wait_ns as f64 / 1e3));
    report.set(
        "client.wait_self_us",
        med(&|r| r.wait_ns.saturating_sub(spans_of(r)) as f64 / 1e3),
    );
    report.set("client.decode_ns", med(&|r| r.decode_ns as f64));
    report.set("client.request_bytes", med(&|r| f64::from(r.bytes.0)));
    report.set("client.response_bytes", med(&|r| f64::from(r.bytes.1)));

    // Server-echoed stages: the median over the requests that ran the
    // stage at all (a cache hit has no `graph` span), 0 when none did.
    for (name, stage, scale) in [
        ("engine.stage_plan_us", "plan", 1e3),
        ("engine.stage_graph_us", "graph", 1e3),
        ("engine.stage_estimate_us", "estimate", 1e3),
        ("engine.stage_certify_us", "certify", 1e3),
        ("engine.stage_cache_ns", "cache", 1.0),
        ("engine.stage_insert_ns", "insert", 1.0),
        ("engine.stage_serialize_ns", "serialize", 1.0),
    ] {
        let nanos: Vec<f64> = records
            .iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Answer { spans, .. } => {
                    let hits: Vec<u64> = spans
                        .iter()
                        .filter(|s| s.stage == stage)
                        .map(|s| s.nanos)
                        .collect();
                    (!hits.is_empty()).then(|| hits.iter().sum::<u64>() as f64)
                }
                _ => None,
            })
            .collect();
        report.set(name, median_or_zero(&nanos) / scale);
    }

    // Both are taken against `client.wait` — the part of the latency
    // the server can answer for — not against the whole request, which
    // also holds the client's own encode and decode.
    report.set(
        "server.transport_us",
        med(&|r| match r.outcome {
            Outcome::Answer { server_micros, .. } => {
                (r.wait_ns as f64 / 1e3 - server_micros as f64).max(0.0)
            }
            _ => 0.0,
        }),
    );
    let decode = report
        .get("wire.decode_request_ns")
        .ok_or("probes ran first")?;
    let encode = report
        .get(if workload == Workload::ColdDefault {
            "wire.encode_response_full_ns"
        } else {
            "wire.encode_response_top10_ns"
        })
        .ok_or("probes ran first")?;
    report.set(
        "server.unaccounted_share",
        med(&|r| 1.0 - (spans_of(r) as f64 + decode + encode) / r.wait_ns.max(1) as f64),
    );
    report.set(
        "server.decode_ns",
        metrics.service.histogram("server.decode_ns").mean(),
    );
    report.set(
        "server.encode_ns",
        metrics.service.histogram("server.encode_ns").mean(),
    );
    let prefixed = |prefix: &str| -> f64 {
        metrics
            .service
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    report.set("admission.shed", prefixed("shed."));
    report.set("admission.deadline_exceeded", prefixed("deadline."));
    report.set(
        "engine.coalesced",
        metrics
            .worlds
            .iter()
            .map(|w| w.metrics.counter("queries.coalesced") as f64)
            .sum(),
    );
    let (before, after) = (
        world_stats(stats.0, workload),
        world_stats(stats.1, workload),
    );
    let after = after.ok_or("the workload's world is not resident")?;
    report.set(
        "cache.result_hit_rate",
        hit_rate(before.map(|s| s.results), after.results),
    );
    report.set(
        "cache.graph_hit_rate",
        hit_rate(before.map(|s| s.graphs), after.graphs),
    );

    // Admin lines as the client saw them (0 when the workload sends none).
    for (name, kind) in [
        ("tenancy.wire_swap_ms", OpKind::Swap),
        ("tenancy.wire_save_ms", OpKind::Save),
    ] {
        let ms: Vec<f64> = runs
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.kind == kind && r.start_ns >= warmup_ns)
            .map(|r| r.wait_ns as f64 / 1e6)
            .collect();
        report.set(name, median_or_zero(&ms));
    }
    Ok(())
}

/// `--trace 1`: layer probes, then the workload untraced (briefly, as
/// the overhead baseline) and traced.
fn run_traced(args: &Args) -> Result<Outcomes, String> {
    let workload = args.workload;
    let proteins = canonical_proteins(workload.spec().extended);
    let scratch = Scratch::new()?;
    let mut checker = Checker::new(workload.spec());
    let mut report = Report::default();

    probes::run(
        workload,
        args.seed,
        &proteins,
        scratch.path(),
        args.seconds,
        &mut report,
    );

    // store.restart_ms: a store-backed server over this workload's
    // world, saved, shut down, and reopened to its first answer.
    let restart_dir = scratch.path().join("restart");
    let durable = if workload.durable() {
        workload
    } else {
        Workload::OpenMixed1x
    };
    let served = harness::bring_up(durable, &restart_dir)?;
    harness::prewarm(served.addr, durable, &proteins[..4])?;
    served.manager.checkpoint().map_err(|e| e.to_string())?;
    let mut durable_checker = Checker::new(durable.spec());
    let restart_s = restart_check(
        served,
        durable,
        &proteins,
        &restart_dir,
        1,
        &mut durable_checker,
    )?;
    report.set("store.restart_ms", restart_s * 1e3);

    let data_dir = scratch.path().join("data");
    let served = harness::bring_up(workload, &data_dir)?;
    if workload.prewarmed() {
        harness::prewarm(served.addr, workload, &proteins)?;
    }
    let mut connects = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let conn = harness::Conn::connect(served.addr).map_err(|e| e.to_string())?;
        connects.push(t.elapsed().as_nanos() as f64 / 1e3);
        drop(conn);
    }
    report.set("server.connect_us", median(&connects));

    let mut control = Client::connect(served.addr).map_err(|e| e.to_string())?;
    let warmup = warmup_s(args.seconds);
    let warmup_ns = (warmup * 1e9) as u64;
    let untraced = Phase {
        warmup_s: warmup,
        measure_s: args.seconds / 4.0,
        trace: false,
    };
    let traced = Phase {
        warmup_s: warmup,
        measure_s: args.seconds / 2.0,
        trace: true,
    };
    // A stream of its own, so the traced phase never replays (and
    // hits the cached results of) the untraced one.
    let traced_seed = args.seed ^ 0x7472_6163_6564;

    let base_runs = harness::run_load(served.addr, workload, args.seed, &proteins, untraced)?;
    control.metrics(true).map_err(|e| e.to_string())?;
    let stats_before = control.stats().map_err(|e| e.to_string())?;
    let runs = harness::run_load(served.addr, workload, traced_seed, &proteins, traced)?;
    let stats_after = control.stats().map_err(|e| e.to_string())?;
    let metrics = control.metrics(false).map_err(|e| e.to_string())?;
    drop(control);
    served.shut_down();

    let mut tally = harness::verify(
        workload,
        args.seed,
        &proteins,
        untraced,
        &base_runs,
        &mut checker,
    );
    let traced_tally = harness::verify(
        workload,
        traced_seed,
        &proteins,
        traced,
        &runs,
        &mut checker,
    );
    tally.attempted += traced_tally.attempted;
    tally.failed += traced_tally.failed;
    tally.failures.extend(traced_tally.failures);
    tally.reference_checked += traced_tally.reference_checked;

    traced_metrics(
        workload,
        &runs,
        warmup_ns,
        &metrics,
        (&stats_before, &stats_after),
        &mut report,
    )?;
    let (base, seen) = (latency(&base_runs, untraced)?, latency(&runs, traced)?);
    report.set("loadgen.untraced_p50_us", base.p50_us);
    report.set("loadgen.traced_p50_us", seen.p50_us);
    report.set("loadgen.traced_p95_us", seen.p95_us);
    report.set("loadgen.traced_p99_us", seen.p99_us);
    report.set("loadgen.traced_samples", seen.samples as f64);
    report.set(
        "loadgen.trace_overhead_share",
        seen.p50_us / base.p50_us - 1.0,
    );
    report.set("loadgen.offered_qps", seen.qps);
    let lags = sorted(
        runs.iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.start_ns >= warmup_ns)
            .map(|r| r.lead_ns as f64 / 1e3)
            .collect(),
    );
    report.set(
        "loadgen.sched_lag_p99_us",
        if workload.rate_qps().is_some() && !lags.is_empty() {
            percentile(&lags, 0.99)
        } else {
            0.0
        },
    );
    report.set(
        "loadgen.failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    report.set("loadgen.reference_checked", tally.reference_checked as f64);

    let out_dir = exe_dir()?.join("e2e-out");
    let written = trace::write(&out_dir, workload, &runs, warmup_ns).map_err(|e| e.to_string())?;
    eprintln!(
        "e2e: {} span trees in {}",
        written.trees,
        out_dir
            .join(format!("trace-{}.json", workload.name()))
            .display()
    );
    report.set("loadgen.trace_trees", written.trees as f64);
    report.set(
        "loadgen.trace_children_over_parent",
        written.overfull as f64,
    );
    Ok(Outcomes {
        report,
        tally,
        samples: BTreeMap::from([("loadgen.traced_p50_us", seen.samples)]),
    })
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// The result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`. Every declared metric of the mode must be present — a
/// missing one is an error, not an omission.
fn result_json(trace: bool, outcomes: &Outcomes) -> Result<Json, String> {
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in declared {
        let value = outcomes
            .report
            .get(name)
            .ok_or(format!("declared metric {name} was not measured"))?;
        metrics.insert(
            name.to_string(),
            obj(vec![
                ("value", num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        );
    }
    Ok(obj(vec![
        ("correct", Json::Bool(outcomes.tally.failed == 0)),
        ("attempted", num(outcomes.tally.attempted as f64)),
        ("failed", num(outcomes.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Appends the result, with its run metadata, to `path` as one JSON
/// line. Refused from a dirty tracked tree: a row nobody can rebuild
/// is not a measurement.
fn append_result(
    path: &Path,
    args: &Args,
    result: &Json,
    outcomes: &Outcomes,
) -> Result<(), String> {
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
        .map(|s| !s.is_empty());
    if dirty == Some(true) {
        return Err("refusing to write --out from a dirty tracked tree; commit first".into());
    }
    let Json::Obj(mut line) = result.clone() else {
        unreachable!("result_json builds an object")
    };
    let mut samples = BTreeMap::new();
    for (name, n) in &outcomes.samples {
        samples.insert(name.to_string(), num(*n as f64));
        // The "≥ 10 samples beyond" rule, per slice.
        for (suffix, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            if name.contains(suffix) {
                samples.insert(
                    format!("{name}.supported"),
                    Json::Bool(supported(*n / SLICES, p)),
                );
            }
        }
    }
    line.insert(
        "meta".to_string(),
        obj(vec![
            ("workload", Json::Str(args.workload.name().into())),
            ("seed", Json::Str(args.seed.to_string())),
            ("run_seconds", num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("commit", commit.map_or(Json::Null, Json::Str)),
            ("dirty", dirty.map_or(Json::Null, Json::Bool)),
            (
                "nproc",
                num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
            ),
            (
                "rustc",
                command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str),
            ),
            ("rate_1x_qps", num(f64::from(RATE_1X_QPS))),
            ("rate_2x_qps", num(f64::from(RATE_2X_QPS))),
            ("samples", Json::Obj(samples)),
        ]),
    );
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", Json::Obj(line).encode()).map_err(|e| e.to_string())
}

fn run(args: &Args, bring_ups: usize) -> Result<(Json, bool), String> {
    let outcomes = if args.trace {
        run_traced(args)?
    } else {
        run_end_to_end(args, bring_ups)?
    };
    for failure in &outcomes.tally.failures {
        eprintln!("e2e: FAILED {failure}");
    }
    let result = result_json(args.trace, &outcomes)?;
    if let Some(path) = &args.out {
        append_result(path, args, &result, &outcomes)?;
    }
    Ok((result, outcomes.tally.failed == 0))
}

/// `--smoke`: every workload in both modes for half a second each,
/// with the same checks. One result line per run.
fn smoke() -> Result<bool, String> {
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 1,
                seconds: 0.5,
                trace,
                out: None,
            };
            let (result, correct) =
                run(&args, 2).map_err(|e| format!("{} trace={trace}: {e}", workload.name()))?;
            let Json::Obj(mut line) = result else {
                unreachable!()
            };
            line.insert("workload".into(), Json::Str(workload.name().into()));
            line.insert("trace".into(), Json::Bool(trace));
            println!("{}", Json::Obj(line).encode());
            all_correct &= correct;
        }
    }
    Ok(all_correct)
}

/// Values of one result file, by `(workload, metric)`.
type Rows = BTreeMap<(String, String), (String, Vec<f64>)>;

fn load_rows(path: &str) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Rows::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let Json::Obj(fields) = Json::parse(line).map_err(|e| bad(&e.to_string()))? else {
            return Err(bad("not an object"));
        };
        let workload = match fields.get("meta") {
            Some(Json::Obj(meta)) => match meta.get("workload") {
                Some(Json::Str(w)) => w.clone(),
                _ => return Err(bad("no meta.workload")),
            },
            _ => return Err(bad("no meta (was the file written with --out?)")),
        };
        let Some(Json::Obj(metrics)) = fields.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, metric) in metrics {
            let Json::Obj(m) = metric else {
                return Err(bad("metric is not an object"));
            };
            let (Some(Json::Num(value)), Some(Json::Str(unit))) = (m.get("value"), m.get("unit"))
            else {
                return Err(bad("metric without value and unit"));
            };
            rows.entry((workload.clone(), name.clone()))
                .or_insert_with(|| (unit.clone(), Vec::new()))
                .1
                .push(*value);
        }
    }
    Ok(rows)
}

/// `compare a b`: one row per (workload, metric) present in both
/// files — medians and quartiles across each side's runs, and whether
/// B reads better, worse, the same, or cannot be told (spread wider
/// than the bound). Returns `false` when an end-to-end metric is worse.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (rows_a, rows_b) = (load_rows(a)?, load_rows(b)?);
    let direction: BTreeMap<&str, (Better, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, (m.better, m.bound)))
        // Per-layer metrics carry no bound of their own; they are read
        // against the issue's uniform 10 %.
        .chain(PER_LAYER.iter().map(|m| (m.name, (m.better, 0.1))))
        .collect();
    println!(
        "{:<14} {:<34} {:>6} {:>3} {:>12} {:>25} {:>3} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "nA",
        "median A",
        "[q1, q3] A",
        "nB",
        "median B",
        "[q1, q3] B",
        "B vs A",
        "bound"
    );
    let mut ok = true;
    for ((workload, metric), (unit, va)) in &rows_a {
        let Some((_, vb)) = rows_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(&(better, bound)) = direction.get(metric.as_str()) else {
            continue;
        };
        let ((q1a, ma, q3a), (q1b, mb, q3b)) = (quartiles(va), quartiles(vb));
        let v = verdict(va, vb, better, bound);
        let end_to_end = END_TO_END.iter().any(|m| m.name == metric);
        ok &= !(end_to_end && v == Verdict::Worse);
        let delta = if ma == 0.0 {
            0.0
        } else {
            (mb - ma) / ma.abs() * 100.0
        };
        println!(
            "{workload:<14} {metric:<34} {unit:>6} {:>3} {ma:>12.4} {:>25} {:>3} {mb:>12.4} {:>25} {delta:>+7.1}% {:>5.0}%  {}{}",
            va.len(),
            format!("[{q1a:.4}, {q3a:.4}]"),
            vb.len(),
            format!("[{q1b:.4}, {q3b:.4}]"),
            bound * 100.0,
            v.name(),
            if end_to_end { "" } else { " (layer)" },
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("--smoke") if args.len() == 1 => smoke(),
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|parsed| {
                // A run that printed its result exits 0 even when the
                // result says `correct: false`; only a run that could
                // not produce every declared metric is an error.
                let (result, _) = run(&parsed, BRING_UPS)?;
                println!("{}", result.encode());
                Ok(true)
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
