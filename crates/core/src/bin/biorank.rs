//! The `biorank` command-line tool.
//!
//! ```text
//! biorank proteins                      list queryable proteins
//! biorank query <PROTEIN> [options]     rank a protein's candidate functions
//! biorank explain <PROTEIN> <GO>       show the evidence paths behind one answer
//! biorank scenarios                     the paper's Fig. 5 evaluation
//! biorank serve [options]               run the concurrent query service
//! biorank admin <CMD> [NAME] [options]  drive a running server's world registry
//!
//! query options:
//!   --method rel|mc|exact|prop|diff|inedge|pathc   ranking semantics (default rel)
//!   --top N                               rows to print (default 10)
//!   --extended                            use the full 11-source federation
//!   --seed S                              world seed (default paper seed)
//!   --trials N                            Monte Carlo trials (default 10000)
//!   --adaptive-eps E                      adaptive trials: stop as soon as the
//!                                         Theorem 3.1 bound certifies the
//!                                         ranking at separation E (rel and mc
//!                                         methods; default E 0.02 when any
//!                                         adaptive flag is given)
//!   --adaptive-delta D                    adaptive failure probability
//!                                         (default 0.05)
//!   --adaptive-max N                      adaptive trial ceiling
//!                                         (default --trials)
//!   --certify-top                         adaptive trials, certifying only the
//!                                         first --top answers and their
//!                                         boundary gap (implies the adaptive
//!                                         policy; rel and mc methods)
//!   --parallel                            intra-query parallel MC (mc method)
//!   --estimator traversal|word|auto       MC engine for the mc method:
//!                                         per-trial DFS traversal,
//!                                         64-trials-per-word bitmask batches
//!                                         (the fast path on DAG query graphs),
//!                                         or auto — the cost-based planner
//!                                         picks the cheapest strategy (exact /
//!                                         reduced / word / traversal) per query
//!   --explain                             print the planner's chosen strategy,
//!                                         its predicted time next to the
//!                                         measured estimate + certify time,
//!                                         and the feature vector it scored
//!                                         (implies --estimator auto unless one
//!                                         was given explicitly)
//!   --addr HOST:PORT                      send the query to a running
//!                                         `biorank serve`; without it the
//!                                         same request runs in-process on a
//!                                         fresh engine over the --seed /
//!                                         --extended world, so both print the
//!                                         same plan, certificate and rows
//!   --world NAME                          resident world to query (remote only)
//!   --trace                               print the engine's per-stage span
//!                                         breakdown
//!   --deadline-ms N                       total execution budget: a query
//!                                         still running when it expires
//!                                         aborts between Monte Carlo batches
//!                                         with deadline_exceeded
//!   --timeout-ms N                        client-side connect + socket i/o
//!                                         timeout (remote only)
//!   --retries N                           retry overload sheds up to N times
//!                                         with the server's retry_after_ms
//!                                         hint and jittered exponential
//!                                         backoff (remote only; default 0)
//!
//! serve options:
//!   --addr HOST:PORT                      bind address (default 127.0.0.1:7878)
//!   --workers N                           query worker threads (default 4)
//!   --cache N                             per-layer LRU capacity (default 512)
//!   --worlds N                            resident-world budget (default 4)
//!   --extended / --seed S                 default-world selection, as above
//!   --estimator traversal|word|auto       default MC engine for mc requests
//!                                         that don't pick one themselves
//!                                         (default auto — the cost-based
//!                                         planner; pass word or traversal to
//!                                         pin one engine server-wide)
//!   --adaptive-eps/--adaptive-delta/--adaptive-max
//!                                         tune the adaptive house policy for
//!                                         requests that omit the trials field
//!                                         (adaptive is the default; an
//!                                         explicit --trials N opts the server
//!                                         back into fixed N)
//!   --slow-query-micros N                 log queries at least this slow to
//!                                         the in-memory slow-query ring
//!                                         (default 10000)
//!   --data-dir PATH                       durable world persistence: read
//!                                         the directory's manifest on boot
//!                                         (warm restart from snapshots), and
//!                                         rewrite it for every
//!                                         world.load/swap/evict before
//!                                         acknowledging it
//!   --max-connections N                   concurrent-connection budget
//!                                         (default 256); past it the accept
//!                                         loop sheds with an id-less
//!                                         {"error":"overloaded",
//!                                         "retry_after_ms":N} line
//!   --queue-depth N                       bound on admitted-but-unanswered
//!                                         queries (default 1024); at the
//!                                         bound requests are refused with an
//!                                         overloaded error response
//!   --rate-limit N                        per-connection token-bucket limit,
//!                                         requests/second (default off)
//!   --default-deadline-ms N               deadline for query lines that omit
//!                                         deadline_ms (default: none)
//!   --drain-deadline-ms N                 how long a drain waits for
//!                                         in-flight queries (default 30000)
//!   --fault-plan SPEC                     fault injection for overload
//!                                         testing: comma-separated
//!                                         key=value among accept_delay_ms,
//!                                         response_delay_ms, blackhole
//!                                         (replies swallowed), short_write
//!                                         (half a line, then EOF),
//!                                         close_after=N (N replies, then
//!                                         EOF), stall_batch_ms
//!
//! `biorank serve` drains gracefully on SIGTERM: the listener stops,
//! in-flight queries finish under --drain-deadline-ms, durable worlds
//! checkpoint, and the process exits 0.
//!
//! admin commands (all need --addr, default 127.0.0.1:7878):
//!   world.load NAME [--seed S] [--extended] [--cache N] [--background]
//!                                         make a world resident; with
//!                                         --background, return immediately
//!                                         and build on a worker thread
//!   world.swap NAME [--seed S] [--extended] [--cache N]
//!                                         replace + invalidate caches
//!   world.evict NAME                                      drop a resident world
//!   world.save NAME                       write NAME's snapshot (spec + the
//!                                         result cache) to the server's data
//!                                         directory (serve --data-dir)
//!   checkpoint                            world.save every resident world,
//!                                         then rewrite the manifest as
//!                                         recorded
//!   world.list                            show the registry, including each
//!                                         world's planner strategy mix
//!                                         (exact/reduced/word/traversal picks)
//!   stats                                                 per-world cache counters
//!   metrics [--reset]                     full telemetry snapshot: service and
//!                                         per-world counters/histograms plus
//!                                         the slow-query log; --reset zeroes
//!                                         everything after reading
//!   server.drain                          graceful shutdown: stop accepting,
//!                                         finish in-flight queries under the
//!                                         drain deadline, checkpoint durable
//!                                         worlds, then exit 0
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use biorank::prelude::*;
use biorank::rank::{explain::explain, Certificate, CertificateMode, Plan, TrialsPolicy};
use biorank::service::{
    AdaptiveConfig, Client, ClientOptions, Estimator, FaultPlan, Method, MetricsSnapshot,
    QueryRequest, QueryResponse, RankerSpec, ServeOptions, Server, Trials, WorldManager, WorldSpec,
    DEFAULT_SLOW_QUERY_MICROS, DEFAULT_WORLD_BUDGET,
};

struct Options {
    method: String,
    top: usize,
    extended: bool,
    seed: u64,
    trials: u32,
    /// `true` when `--trials` was given explicitly (the serve default
    /// flips to adaptive only when it was not).
    trials_explicit: bool,
    adaptive_eps: Option<f64>,
    adaptive_delta: Option<f64>,
    adaptive_max: Option<u32>,
    certify_top: bool,
    parallel: bool,
    estimator: Option<Estimator>,
    /// `query --explain`: print the planner's chosen strategy,
    /// predicted vs measured estimator time, and the scored feature
    /// vector.
    explain: bool,
    addr: Option<String>,
    workers: usize,
    cache: usize,
    worlds: usize,
    world: Option<String>,
    background: bool,
    trace: bool,
    reset: bool,
    slow_query_micros: u64,
    data_dir: Option<String>,
    /// `query --deadline-ms`: the request's total execution budget.
    deadline_ms: Option<u64>,
    /// `query --timeout-ms`: client connect + socket i/o timeout.
    timeout_ms: Option<u64>,
    /// `query --retries`: bounded retry on overload sheds.
    retries: u32,
    max_connections: usize,
    queue_depth: usize,
    rate_limit: Option<u32>,
    default_deadline_ms: Option<u64>,
    drain_deadline_ms: u64,
    fault_plan: Option<FaultPlan>,
    positional: Vec<String>,
}

impl Options {
    /// `true` when any flag asking for adaptive trials appeared
    /// (`--certify-top` implies the adaptive policy — there is nothing
    /// to stop early in a fixed run).
    fn wants_adaptive(&self) -> bool {
        self.adaptive_eps.is_some()
            || self.adaptive_delta.is_some()
            || self.adaptive_max.is_some()
            || self.certify_top
    }

    /// The adaptive policy the flags configure: unset parameters
    /// default to the paper's ε = 0.02, δ = 0.05 and a `--trials`
    /// ceiling.
    fn adaptive_config(&self) -> AdaptiveConfig {
        let defaults = AdaptiveConfig::default();
        AdaptiveConfig {
            epsilon: self.adaptive_eps.unwrap_or(defaults.epsilon),
            delta: self.adaptive_delta.unwrap_or(defaults.delta),
            max_trials: self.adaptive_max.unwrap_or(self.trials),
        }
    }

    /// The trial policy a `query` asks for: adaptive as soon as any
    /// adaptive flag appears, otherwise fixed `--trials`.
    fn trials_policy(&self) -> Trials {
        if self.wants_adaptive() {
            Trials::Adaptive(self.adaptive_config())
        } else {
            Trials::Fixed(self.trials)
        }
    }

    /// The estimator a `query` asks for: `--explain` wants a plan to
    /// print, so it implies the planner unless an engine was pinned
    /// explicitly.
    fn effective_estimator(&self) -> Option<Estimator> {
        if self.explain && self.estimator.is_none() {
            Some(Estimator::Auto)
        } else {
            self.estimator
        }
    }

    /// The house trial policy a `serve` installs for requests that
    /// omit `trials`: adaptive by default, fixed only when the
    /// operator pinned an explicit `--trials N` (without any adaptive
    /// flag overruling it).
    fn serve_trials_policy(&self) -> Trials {
        if self.wants_adaptive() || !self.trials_explicit {
            Trials::Adaptive(self.adaptive_config())
        } else {
            Trials::Fixed(self.trials)
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        method: "rel".to_string(),
        top: 10,
        extended: false,
        seed: 0xB10_C0DE,
        trials: 10_000,
        trials_explicit: false,
        certify_top: false,
        adaptive_eps: None,
        adaptive_delta: None,
        adaptive_max: None,
        parallel: false,
        estimator: None,
        explain: false,
        addr: None,
        workers: 4,
        cache: biorank::service::DEFAULT_CACHE_CAPACITY,
        worlds: DEFAULT_WORLD_BUDGET,
        world: None,
        background: false,
        trace: false,
        reset: false,
        slow_query_micros: DEFAULT_SLOW_QUERY_MICROS,
        data_dir: None,
        deadline_ms: None,
        timeout_ms: None,
        retries: 0,
        max_connections: biorank::service::DEFAULT_MAX_CONNECTIONS,
        queue_depth: biorank::service::DEFAULT_QUEUE_DEPTH,
        rate_limit: None,
        default_deadline_ms: None,
        drain_deadline_ms: biorank::service::DEFAULT_DRAIN_DEADLINE_MS,
        fault_plan: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--method" => {
                i += 1;
                opts.method = args.get(i).ok_or("--method needs a value")?.to_lowercase();
            }
            "--top" => {
                i += 1;
                opts.top = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--top needs a number")?;
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--trials" => {
                i += 1;
                opts.trials = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--trials needs a number")?;
                opts.trials_explicit = true;
            }
            "--adaptive-eps" => {
                i += 1;
                opts.adaptive_eps = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--adaptive-eps needs a number in (0, 1)")?,
                );
            }
            "--adaptive-delta" => {
                i += 1;
                opts.adaptive_delta = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--adaptive-delta needs a number in (0, 1)")?,
                );
            }
            "--adaptive-max" => {
                i += 1;
                opts.adaptive_max = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--adaptive-max needs a number")?,
                );
            }
            "--addr" => {
                i += 1;
                opts.addr = Some(
                    args.get(i)
                        .ok_or("--addr needs a HOST:PORT value")?
                        .to_string(),
                );
            }
            "--workers" => {
                i += 1;
                opts.workers = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--workers needs a number")?;
            }
            "--cache" => {
                i += 1;
                opts.cache = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cache needs a number")?;
            }
            "--worlds" => {
                i += 1;
                opts.worlds = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--worlds needs a number")?;
            }
            "--world" => {
                i += 1;
                opts.world = Some(args.get(i).ok_or("--world needs a name")?.to_string());
            }
            "--estimator" => {
                i += 1;
                let name = args.get(i).ok_or("--estimator needs a value")?;
                opts.estimator =
                    Some(Estimator::parse(name).ok_or_else(|| {
                        format!("unknown estimator {name:?} (traversal|word|auto)")
                    })?);
            }
            "--data-dir" => {
                i += 1;
                opts.data_dir = Some(args.get(i).ok_or("--data-dir needs a path")?.to_string());
            }
            "--slow-query-micros" => {
                i += 1;
                opts.slow_query_micros = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--slow-query-micros needs a number")?;
            }
            "--deadline-ms" => {
                i += 1;
                opts.deadline_ms = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms: &u64| ms > 0)
                        .ok_or("--deadline-ms needs a positive number")?,
                );
            }
            "--timeout-ms" => {
                i += 1;
                opts.timeout_ms = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--timeout-ms needs a number")?,
                );
            }
            "--retries" => {
                i += 1;
                opts.retries = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retries needs a number")?;
            }
            "--max-connections" => {
                i += 1;
                opts.max_connections = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-connections needs a number")?;
            }
            "--queue-depth" => {
                i += 1;
                opts.queue_depth = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--queue-depth needs a number")?;
            }
            "--rate-limit" => {
                i += 1;
                opts.rate_limit = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--rate-limit needs a number")?,
                );
            }
            "--default-deadline-ms" => {
                i += 1;
                opts.default_deadline_ms = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms: &u64| ms > 0)
                        .ok_or("--default-deadline-ms needs a positive number")?,
                );
            }
            "--drain-deadline-ms" => {
                i += 1;
                opts.drain_deadline_ms = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--drain-deadline-ms needs a number")?;
            }
            "--fault-plan" => {
                i += 1;
                let spec = args.get(i).ok_or("--fault-plan needs a spec")?;
                opts.fault_plan = Some(FaultPlan::parse(spec)?);
            }
            "--certify-top" => opts.certify_top = true,
            "--explain" => opts.explain = true,
            "--parallel" => opts.parallel = true,
            "--extended" => opts.extended = true,
            "--background" => opts.background = true,
            "--trace" => opts.trace = true,
            "--reset" => opts.reset = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            other => opts.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

fn cmd_proteins(opts: &Options) -> Result<(), String> {
    let world = World::generate(WorldParams {
        seed: opts.seed,
        extended: opts.extended,
        ..WorldParams::default()
    });
    println!("{:<10} {:<14} {:>10}", "Protein", "Kind", "Candidates");
    for p in &world.profiles {
        let kind = match p.kind {
            biorank::sources::ProteinKind::WellStudied => "well-studied",
            biorank::sources::ProteinKind::Hypothetical => "hypothetical",
        };
        println!("{:<10} {:<14} {:>10}", p.name, kind, p.functions.len());
    }
    Ok(())
}

/// The ranker spec a `query` asks for — the same one whether the
/// request then runs in-process or goes to a server.
fn query_spec(opts: &Options) -> Result<RankerSpec, String> {
    let method = Method::parse(&opts.method).ok_or_else(|| {
        format!(
            "unknown method {:?} (expected rel|mc|exact|prop|diff|inedge|pathc)",
            opts.method
        )
    })?;
    Ok(RankerSpec {
        method,
        trials: opts.trials_policy(),
        seed: RankerSpec::DEFAULT_SEED,
        parallel: opts.parallel,
        estimator: opts.effective_estimator(),
    })
}

/// The human-readable `--explain` rendering of one plan echo.
/// `actual` is what the prediction is a prediction *of*: the time the
/// chosen estimator ran (the `estimate` + `certify` spans), not the
/// whole request — and on a result-cache hit nothing ran at all.
fn print_plan(plan: &Plan, response: &QueryResponse) {
    let actual = if response.cached_scores {
        "result cache hit".to_string()
    } else {
        let ran: u64 = response
            .trace
            .iter()
            .filter(|s| matches!(s.stage.as_str(), "estimate" | "certify"))
            .map(|s| s.nanos)
            .sum();
        format!("actual {ran} ns")
    };
    println!(
        "  plan: {}{} (predicted {} ns, {actual})",
        plan.strategy.wire_name(),
        if plan.fallback {
            " [fallback: a cheaper strategy was ineligible]"
        } else {
            ""
        },
        plan.predicted_ns
    );
    let f = &plan.features;
    let trials = match f.trials {
        TrialsPolicy::Fixed(n) => format!("{n} fixed trials"),
        TrialsPolicy::Adaptive { max_trials } => format!("adaptive trials ≤ {max_trials}"),
    };
    println!(
        "    features: {} nodes, {} edges, {} answers, {}, reduced {}/{}, schema {}, {}{}",
        f.graph.nodes,
        f.graph.edges,
        f.graph.answers,
        if f.graph.acyclic { "acyclic" } else { "cyclic" },
        f.graph.reduced_nodes,
        f.graph.reduced_edges,
        if f.graph.schema_reducible {
            "reducible"
        } else {
            "irreducible"
        },
        trials,
        f.top_k
            .map(|k| format!(", top-{k} certified"))
            .unwrap_or_default()
    );
}

/// One human-readable line for an adaptive run's stop certificate.
fn certificate_line(cert: &Certificate) -> String {
    let scope = match cert.mode {
        CertificateMode::Full => "full ranking".to_string(),
        CertificateMode::TopK(k) => format!("top-{k} + boundary"),
    };
    if cert.certified {
        format!(
            "  {scope} certified after {} trials (resolves separations ≥ {:.4} at the requested confidence)",
            cert.trials_used, cert.epsilon
        )
    } else {
        format!(
            "  {scope} NOT certified: trial ceiling {} hit (resolves ≥ {:.4}); some gap is still ambiguous",
            cert.trials_used, cert.epsilon
        )
    }
}

/// `biorank query <PROTEIN>`: build one request, execute it — over
/// the line protocol against a running `biorank serve` with `--addr`,
/// otherwise in-process on a fresh engine over the `--seed` /
/// `--extended` world — and print the response. Both routes share the
/// request and the printer, so a local run reads exactly like a cold
/// query against a fresh server of the same world.
fn cmd_query(opts: &Options) -> Result<(), String> {
    let protein = opts
        .positional
        .first()
        .ok_or("usage: biorank query <PROTEIN> [--addr HOST:PORT]")?;
    let request = QueryRequest {
        query: ExploratoryQuery::protein_functions(protein),
        spec: query_spec(opts)?,
        top: Some(opts.top),
        certify_top: opts.certify_top,
        world: opts.world.clone(),
        // `--explain` compares the prediction against the estimate and
        // certify spans, so it needs the trace even when `--trace`
        // (which prints it) was not given.
        trace: opts.trace || opts.explain,
        deadline_ms: opts.deadline_ms,
    };
    let response = match opts.addr.as_deref() {
        Some(addr) => {
            let copts = client_options(opts);
            if opts.retries > 0 {
                // Retrying reconnects per attempt (an overload shed
                // closes the connection), honoring the server's
                // retry_after_ms hint.
                Client::query_with_retry(addr, copts, &request, opts.retries)
                    .map_err(|e| e.to_string())?
            } else {
                let mut client = Client::connect_with(addr, copts)
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                client.query(&request).map_err(|e| e.to_string())?
            }
        }
        None if opts.world.is_some() => {
            return Err("--world routes to a server world; it requires --addr".to_string());
        }
        None => WorldSpec {
            seed: opts.seed,
            extended: opts.extended,
            cache_capacity: opts.cache,
        }
        .build()
        .execute(&request)
        .map_err(|e| e.to_string())?,
    };
    println!(
        "{protein}: {} candidate functions{}{}, method {} ({}, {} µs)",
        response.total_answers,
        opts.addr
            .as_deref()
            .map(|a| format!(" via {a}"))
            .unwrap_or_default(),
        opts.world
            .as_deref()
            .map(|w| format!(" world {w:?}"))
            .unwrap_or_default(),
        opts.method,
        match (response.cached_graph, response.cached_scores) {
            (_, true) => "result cache hit",
            (true, false) => "graph cache hit",
            (false, false) => "cold",
        },
        response.micros
    );
    if let Some(cert) = &response.certificate {
        println!("{}", certificate_line(cert));
    }
    if opts.explain {
        match &response.plan {
            Some(plan) => print_plan(plan, &response),
            None => println!(
                "  plan: none (an explicit estimator or non-MC method routes around the planner)"
            ),
        }
    }
    if opts.trace {
        let total: u64 = response.trace.iter().map(|s| s.nanos).sum();
        println!(
            "  trace ({} stages, {} µs accounted):",
            response.trace.len(),
            total / 1_000
        );
        for s in &response.trace {
            println!("    {:<10} {:>12} ns", s.stage, s.nanos);
        }
    }
    for a in &response.answers {
        let rank = if a.rank_lo == a.rank_hi {
            a.rank_lo.to_string()
        } else {
            format!("{}-{}", a.rank_lo, a.rank_hi)
        };
        println!(
            "{rank:>6}  {:<12} {:<42} {:>8.4}",
            a.key,
            truncate(&a.label, 42),
            a.score
        );
    }
    Ok(())
}

/// The client-side timeouts `--timeout-ms` configures.
fn client_options(opts: &Options) -> ClientOptions {
    let timeout = opts.timeout_ms.map(std::time::Duration::from_millis);
    ClientOptions {
        connect_timeout: timeout,
        io_timeout: timeout,
    }
}

/// `biorank serve`: bind the concurrent query service and run until
/// killed (or drained — `admin server.drain` / SIGTERM both stop the
/// listener, finish in-flight queries, checkpoint durable worlds,
/// and exit 0). The world built from `--seed`/`--extended` becomes
/// the pinned default of a registry holding up to `--worlds` worlds;
/// `biorank admin` loads and swaps the rest at runtime.
fn cmd_serve(opts: &Options) -> Result<(), String> {
    let spec = WorldSpec {
        seed: opts.seed,
        extended: opts.extended,
        cache_capacity: opts.cache,
    };
    let manager = match opts.data_dir.as_deref() {
        // Returns once the default world resolves: the listening line
        // below is a real ready signal (tests/cli_serve.rs keys on it).
        Some(dir) => {
            let boot =
                WorldManager::open_durable(dir, spec, opts.worlds).map_err(|e| e.to_string())?;
            println!("data dir {dir}: {} world(s) recovered", boot.restored);
            boot.manager
        }
        // Built via the same WorldSpec::build an admin world.load
        // would use, so "equal spec" always means "equal engine".
        None => Arc::new(WorldManager::with_default(
            Arc::new(spec.build()),
            spec,
            opts.worlds,
        )),
    };
    let addr = opts.addr.as_deref().unwrap_or("127.0.0.1:7878");
    let server = Server::bind_manager(
        addr,
        Arc::clone(&manager),
        ServeOptions {
            workers: opts.workers,
            // Cost-based planning + adaptive trials are the serving
            // defaults; `--estimator word|traversal` / an explicit
            // `--trials N` opt the house policy back out.
            default_estimator: opts.estimator.unwrap_or(Estimator::Auto),
            default_trials: opts.serve_trials_policy(),
            slow_query_micros: opts.slow_query_micros,
            max_connections: opts.max_connections,
            queue_depth: opts.queue_depth,
            rate_limit_per_sec: opts.rate_limit,
            default_deadline_ms: opts.default_deadline_ms,
            drain_deadline_ms: opts.drain_deadline_ms,
            fault_plan: opts.fault_plan,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    // Graceful drain on SIGTERM, armed before the listening line: the
    // handler only flips a flag (async-signal-safe); a monitor thread
    // drains, run() returns once that drain has finished, and the
    // process exits 0 after the monitor has reported it.
    #[cfg(unix)]
    let monitor = install_sigterm_drain(server.handle().map_err(|e| e.to_string())?);
    println!(
        "biorank-serve listening on {} ({} workers, cache capacity {}, world budget {}, \
         default seed {:#x}{})",
        server.local_addr().map_err(|e| e.to_string())?,
        opts.workers.max(1),
        opts.cache,
        opts.worlds.max(1),
        opts.seed,
        if opts.extended {
            ", extended federation"
        } else {
            ""
        }
    );
    let served = server.run().map_err(|e| e.to_string());
    #[cfg(unix)]
    if SIGTERM_RECEIVED.load(std::sync::atomic::Ordering::SeqCst) {
        let _ = monitor.join();
    }
    served
}

/// Set by the raw SIGTERM handler; polled by the drain monitor.
#[cfg(unix)]
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Installs the SIGTERM → graceful-drain path without a libc crate:
/// a raw `signal(2)` registration whose handler does one atomic
/// store, plus a monitor thread that performs the drain outside
/// signal context. The monitor returns only after a SIGTERM drain.
#[cfg(unix)]
fn install_sigterm_drain(handle: biorank::service::ServerHandle) -> std::thread::JoinHandle<()> {
    use std::sync::atomic::Ordering;
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
            eprintln!("SIGTERM: draining (in-flight queries finish, durable worlds checkpoint)");
            match handle.drain() {
                Ok(worlds) => eprintln!("drained: {worlds} world(s) checkpointed"),
                Err(e) => eprintln!("drain error: {e}"),
            }
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    })
}

/// `biorank admin`: drive a running server's world registry.
fn cmd_admin(opts: &Options) -> Result<(), String> {
    let cmd = opts.positional.first().ok_or(
        "usage: biorank admin <world.load|world.swap|world.evict|world.save|checkpoint\
         |server.drain|world.list|stats|metrics>",
    )?;
    let addr = opts.addr.as_deref().unwrap_or("127.0.0.1:7878");
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let name = || -> Result<&str, String> {
        opts.positional
            .get(1)
            .map(String::as_str)
            .ok_or(format!("usage: biorank admin {cmd} <NAME>"))
    };
    let spec = WorldSpec {
        seed: opts.seed,
        extended: opts.extended,
        cache_capacity: opts.cache,
    };
    match cmd.as_str() {
        "world.load" if opts.background => {
            let world = name()?;
            match client
                .world_load_background(world, spec)
                .map_err(|e| e.to_string())?
            {
                None => println!(
                    "world {world:?} loading in background (poll `biorank admin world.list`)"
                ),
                Some(generation) => {
                    println!("world {world:?} already resident (generation {generation})");
                }
            }
        }
        "world.load" => {
            let world = name()?;
            let generation = client.world_load(world, spec).map_err(|e| e.to_string())?;
            println!("world {world:?} resident (generation {generation})");
        }
        "world.swap" => {
            let world = name()?;
            let generation = client.world_swap(world, spec).map_err(|e| e.to_string())?;
            println!("world {world:?} swapped (generation {generation}, caches invalidated)");
        }
        "world.evict" => {
            let world = name()?;
            client.world_evict(world).map_err(|e| e.to_string())?;
            println!("world {world:?} evicted");
        }
        "world.save" => {
            let world = name()?;
            let (generation, bytes) = client.world_save(world).map_err(|e| e.to_string())?;
            println!("world {world:?} snapshot saved (generation {generation}, {bytes} bytes)");
        }
        "checkpoint" => {
            let (worlds, bytes) = client.checkpoint().map_err(|e| e.to_string())?;
            println!("checkpoint: {worlds} world(s) snapshotted ({bytes} bytes)");
        }
        "server.drain" => {
            let worlds = client.drain().map_err(|e| e.to_string())?;
            println!(
                "server drained: in-flight queries finished, {worlds} world(s) checkpointed, \
                 listener closed"
            );
        }
        "world.list" => {
            let worlds = client.world_list().map_err(|e| e.to_string())?;
            println!(
                "{:<12} {:<8} {:>4} {:>18} {:>9} {:>7} {:>16} {:>18}",
                "World",
                "State",
                "Gen",
                "Seed",
                "Federation",
                "Cache",
                "SpecHash",
                "Planned(e/r/w/t)"
            );
            for w in worlds {
                // The per-world planner strategy mix, in
                // exact/reduced/word/traversal order.
                let planned = w
                    .planner_chosen
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/");
                println!(
                    "{:<12} {:<8} {:>4} {:>#18x} {:>9} {:>7} {:>16} {:>18}",
                    w.name,
                    w.state.wire_name(),
                    w.generation,
                    w.spec.seed,
                    if w.spec.extended { "extended" } else { "fig1" },
                    w.spec.cache_capacity,
                    format!("{:016x}", w.spec.spec_hash()),
                    planned
                );
            }
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!(
                "{} resident world(s), budget {}",
                stats.resident, stats.budget
            );
            for w in stats.worlds {
                println!(
                    "  {:<12} gen {:<3} graphs {:>6}h/{:<6}m ({:>5.1}%)  \
                     results {:>6}h/{:<6}m ({:>5.1}%)  \
                     inserts {}+{} rejected {}",
                    w.name,
                    w.generation,
                    w.engine.graphs.hits,
                    w.engine.graphs.misses,
                    100.0 * w.engine.graphs.hit_rate(),
                    w.engine.results.hits,
                    w.engine.results.misses,
                    100.0 * w.engine.results.hit_rate(),
                    w.engine.graphs.inserts,
                    w.engine.results.inserts,
                    w.engine.results.rejected,
                );
            }
        }
        "metrics" => {
            let report = client.metrics(opts.reset).map_err(|e| e.to_string())?;
            println!("service:");
            print_metrics_snapshot("  ", &report.service);
            for w in &report.worlds {
                println!("world {:?}:", w.name);
                print_metrics_snapshot("  ", &w.metrics);
            }
            if report.slow_queries.is_empty() {
                println!("slow queries: none");
            } else {
                println!("slow queries ({}):", report.slow_queries.len());
                for s in &report.slow_queries {
                    println!(
                        "  {:<12} {:<14} {:<6} {:>8} µs{}",
                        s.world,
                        s.value,
                        s.method,
                        s.micros,
                        if s.cached { "  [cached]" } else { "" }
                    );
                }
            }
            if opts.reset {
                println!("(all counters, histograms, and the slow-query log were reset)");
            }
        }
        other => return Err(format!("unknown admin command {other:?}")),
    }
    Ok(())
}

/// Renders one registry snapshot: counters and gauges as plain totals,
/// histograms as count/mean/max-bucket summaries.
fn print_metrics_snapshot(indent: &str, snap: &MetricsSnapshot) {
    for (name, value) in &snap.counters {
        println!("{indent}{name:<28} {value}");
    }
    for (name, value) in &snap.gauges {
        println!("{indent}{name:<28} {value} (gauge)");
    }
    for (name, h) in &snap.histograms {
        let top = h.buckets.last().map(|b| b.hi).unwrap_or(0);
        println!(
            "{indent}{name:<28} n={} mean={:.0} max<{}",
            h.count,
            h.mean(),
            top
        );
    }
}

fn cmd_explain(opts: &Options) -> Result<(), String> {
    let protein = opts
        .positional
        .first()
        .ok_or("usage: biorank explain <PROTEIN> <GO>")?;
    let go_key = opts
        .positional
        .get(1)
        .ok_or("usage: biorank explain <PROTEIN> <GO:xxxxxxx>")?;
    let engine = WorldSpec {
        seed: opts.seed,
        extended: opts.extended,
        cache_capacity: opts.cache,
    }
    .build();
    let result = engine
        .mediator()
        .execute(&ExploratoryQuery::protein_functions(protein))
        .map_err(|e| e.to_string())?;
    let q = &result.query;
    let answer = q
        .answers()
        .iter()
        .copied()
        .find(|&a| result.answer_key(a) == Some(go_key.as_str()))
        .ok_or_else(|| format!("{go_key} is not a candidate function of {protein}"))?;
    let ex = explain(q, answer, Some(32)).map_err(|e| e.to_string())?;
    println!("{} ({}) for {protein}:", go_key, result.label(answer));
    println!(
        "  reliability {:.4}; {} evidence path{}{}; independent-paths bound {:.4}",
        ex.reliability,
        ex.paths.len(),
        if ex.paths.len() == 1 { "" } else { "s" },
        if ex.truncated { " (truncated)" } else { "" },
        ex.independent_paths_score
    );
    // The explanation subgraph carries its own labels.
    let st = q.single_target(answer).map_err(|e| e.to_string())?;
    for (i, path) in ex.paths.iter().enumerate().take(opts.top) {
        let hops: Vec<&str> = path.nodes.iter().map(|&n| st.graph.node_label(n)).collect();
        println!(
            "  #{:<2} p={:.4}  {}",
            i + 1,
            path.probability,
            hops.join(" → ")
        );
    }
    Ok(())
}

fn cmd_scenarios(opts: &Options) -> Result<(), String> {
    let world = World::generate(WorldParams {
        seed: opts.seed,
        ..WorldParams::default()
    });
    let rankers = biorank::rank::paper_rankers(10_000, opts.seed);
    for scenario in Scenario::ALL {
        let cases = build_cases(&world, scenario).map_err(|e| e.to_string())?;
        let mut results = evaluate(&rankers, &cases).map_err(|e| e.to_string())?;
        results.push(random_baseline(&cases));
        let title = format!("{} ({} proteins)", scenario.title(), cases.len());
        println!("{}", biorank::eval::report::ap_table(&title, &results));
    }
    Ok(())
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: biorank <proteins|query|explain|scenarios|serve|admin> [args]");
        eprintln!("see `biorank --help` in the README for details");
        return ExitCode::FAILURE;
    };
    let opts = match parse_args(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match command.as_str() {
        "proteins" => cmd_proteins(&opts),
        "query" => cmd_query(&opts),
        "explain" => cmd_explain(&opts),
        "scenarios" => cmd_scenarios(&opts),
        "serve" => cmd_serve(&opts),
        "admin" => cmd_admin(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
