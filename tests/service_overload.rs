//! Overload resilience, proven against a live server: connection
//! sheds under a flood, slow-loris reaping, oversized-request
//! rejection, queue backpressure, deadlines firing mid-estimate
//! (via fault-injected estimator stalls), graceful drain with zero
//! dropped in-flight queries, per-connection rate limiting, and the
//! client's bounded retry-with-backoff — with every shed accounted
//! for in the metrics registry, and admitted queries answering
//! bit-identically to unloaded runs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use biorank::mediator::Mediator;
use biorank::prelude::*;
use biorank::service::{
    Client, ClientOptions, Estimator, FaultPlan, Method, QueryEngine, QueryRequest, RankerSpec,
    ServeOptions, Server, ServerHandle, Trials,
};

fn start_server(opts: ServeOptions) -> ServerHandle {
    let world = World::generate(WorldParams::default());
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let engine = Arc::new(QueryEngine::new(mediator));
    let server = Server::bind("127.0.0.1:0", engine, opts).expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}

/// A cheap deterministic query: `InEdge` needs one trial and no
/// estimator, so tests that exercise admission — not ranking — stay
/// fast.
fn cheap_request(id_protein: &str) -> QueryRequest {
    QueryRequest::protein_functions(
        id_protein,
        RankerSpec {
            method: Method::InEdge,
            trials: Trials::Fixed(1),
            seed: 0,
            parallel: false,
            estimator: None,
        },
    )
}

/// A word-estimator query. A Monte Carlo run polls the fault plan's
/// estimator stall once per block (`FUSION_LANES` × 64 trials), so its
/// duration is controlled by `stall_batch_ms` × block count rather
/// than machine speed; naming the estimator keeps the planner from
/// picking the closed form, which runs no blocks.
fn word_request(trials: u32, seed: u64) -> QueryRequest {
    QueryRequest::protein_functions(
        "GALT",
        RankerSpec {
            method: Method::TraversalMc,
            trials: Trials::Fixed(trials),
            seed,
            parallel: false,
            estimator: Some(Estimator::Word),
        },
    )
}

/// Opens a raw connection and proves the server has a thread on it
/// (a malformed line round-trips an error response), so a later
/// connection attempt deterministically finds the budget consumed.
fn held_connection(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect held");
    (&stream).write_all(b"not json\n").expect("write probe");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read probe");
    assert!(line.contains("\"ok\":false"), "probe response: {line}");
    stream
}

/// The estimator-stall fault is process-global (one atomic polled per
/// block), so tests that install one serialize on this lock and
/// clear the stall on drop — even on panic.
static STALL_LOCK: Mutex<()> = Mutex::new(());

struct StallGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl StallGuard {
    fn take() -> StallGuard {
        StallGuard(STALL_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for StallGuard {
    fn drop(&mut self) {
        biorank::service::admission::set_stall_batch_ms(0);
    }
}

#[test]
fn flood_past_connection_budget_sheds_with_retry_hint() {
    let handle = start_server(ServeOptions {
        workers: 2,
        max_connections: 2,
        ..Default::default()
    });

    // Fill the budget with two live connections...
    let held_a = held_connection(&handle);
    let held_b = held_connection(&handle);

    // ...and the third gets the id-less shed notice, then EOF: no
    // thread was spawned for it.
    let shed = TcpStream::connect(handle.addr()).expect("connect shed");
    let mut reader = BufReader::new(shed);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read shed notice");
    let retry_after_ms = biorank::service::wire::parse_overload_line(&line)
        .unwrap_or_else(|| panic!("expected overload notice, got: {line}"));
    assert!(retry_after_ms > 0);
    assert!(!line.contains("\"id\""), "shed notice is id-less: {line}");
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("read after shed");
    assert!(rest.is_empty(), "connection closes after the notice");

    // Freeing one slot readmits: the same client that was just shed
    // can reconnect and audit the shed in the metrics.
    drop(held_a);
    let mut client = reconnect_until_admitted(&handle);
    let report = client.metrics(false).expect("metrics");
    assert!(
        report.service.counter("shed.connections") >= 1,
        "every shed is counted: {:?}",
        report.service.counters
    );

    drop(held_b);
    handle.shutdown();
}

/// Reconnects until the freed permit is visible to the accept loop —
/// the release races with the next accept, so a bounded retry is the
/// honest client behavior (and exactly what `query_with_retry`
/// automates).
fn reconnect_until_admitted(handle: &ServerHandle) -> Client {
    for _ in 0..100 {
        let mut client = match Client::connect(handle.addr()) {
            Ok(c) => c,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        match client.stats() {
            Ok(_) => return client,
            Err(e) if e.is_overload() => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("unexpected error while reconnecting: {e}"),
        }
    }
    panic!("never readmitted after freeing a connection slot");
}

#[test]
fn slow_loris_is_reaped_but_idle_connection_is_not() {
    let handle = start_server(ServeOptions {
        workers: 2,
        read_timeout_ms: 150,
        ..Default::default()
    });

    // An idle connection (empty read buffer) survives many timeout
    // periods: opened before the loris, used after it is reaped.
    let mut idle = Client::connect(handle.addr()).expect("idle connect");

    // The loris dribbles half a request line and stalls; the server
    // reaps it instead of holding the buffer forever.
    let loris = TcpStream::connect(handle.addr()).expect("loris connect");
    (&loris)
        .write_all(b"{\"id\":1,\"inp")
        .expect("partial write");
    let mut buf = [0u8; 64];
    // Blocks until the server reaps the connection; a byte here would
    // mean the server answered half a request line.
    let n = (&loris).read(&mut buf).unwrap_or(0);
    assert_eq!(
        n, 0,
        "server must close, not answer, a stalled partial line"
    );

    // The idle connection still works long after the read timeout.
    std::thread::sleep(Duration::from_millis(400));
    let stats = idle.stats().expect("idle connection still serves");
    assert!(!stats.worlds.is_empty());

    let report = idle.metrics(false).expect("metrics");
    assert!(
        report.service.counter("limits.read_timeouts") >= 1,
        "loris reap is counted: {:?}",
        report.service.counters
    );

    handle.shutdown();
}

#[test]
fn oversized_request_is_rejected_without_buffering() {
    let handle = start_server(ServeOptions {
        workers: 2,
        max_request_bytes: 256,
        ..Default::default()
    });

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let huge = format!("{{\"id\":7,\"pad\":\"{}\"}}\n", "x".repeat(4096));
    (&stream).write_all(huge.as_bytes()).expect("write huge");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    assert!(
        line.contains("\"ok\":false") && line.contains("256 bytes"),
        "rejection names the cap: {line}"
    );
    // Framing is lost past the cap, so the connection closes — by
    // FIN, or by RST when our bytes past the cap were never read.
    let mut rest = String::new();
    let closed = match reader.read_line(&mut rest) {
        Ok(n) => n == 0,
        Err(_) => true,
    };
    assert!(closed, "connection closes after oversized line: {rest}");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let report = client.metrics(false).expect("metrics");
    assert!(report.service.counter("limits.oversized_requests") >= 1);

    handle.shutdown();
}

#[test]
fn queue_bound_sheds_requests_while_one_is_in_flight() {
    let _stall = StallGuard::take();
    let handle = start_server(ServeOptions {
        workers: 2,
        queue_depth: 1,
        // 2048 fixed trials = 4 blocks of 8×64; each block
        // stalls 150 ms, pinning the in-flight query's duration.
        fault_plan: Some(FaultPlan {
            stall_batch_ms: 150,
            ..Default::default()
        }),
        ..Default::default()
    });
    let addr = handle.addr();

    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).expect("client a");
        a.query(&word_request(2048, 3))
            .expect("slow query completes")
    });

    // While the slow query holds the only queue slot, a second
    // connection's query is refused with a backoff hint.
    std::thread::sleep(Duration::from_millis(250));
    let mut b = Client::connect(addr).expect("client b");
    let err = b
        .query(&cheap_request("CFTR"))
        .expect_err("queue-full query is shed");
    assert!(err.is_overload(), "queue shed is an overload: {err}");
    assert!(err.to_string().contains("queue full"), "{err}");
    assert!(err.retry_after_ms().is_some(), "shed carries a hint: {err}");

    // The admitted query is unharmed by the shed next to it.
    let resp = slow.join().expect("join slow");
    assert_eq!(resp.total_answers, 15);

    let report = b.metrics(false).expect("metrics");
    assert!(report.service.counter("shed.requests") >= 1);

    handle.shutdown();
}

#[test]
fn deadline_fires_mid_estimate_and_does_not_poison_the_cache() {
    let _stall = StallGuard::take();
    let handle = start_server(ServeOptions {
        workers: 2,
        fault_plan: Some(FaultPlan {
            stall_batch_ms: 250,
            ..Default::default()
        }),
        ..Default::default()
    });

    // 5 000 trials = 10 stalled blocks ≈ 2.5 s of injected stall, but
    // the 100 ms deadline aborts after the first block's poll.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let req = word_request(5_000, 11).with_deadline_ms(100);
    let err = client.query(&req).expect_err("deadline fires mid-run");
    let msg = err.to_string();
    assert!(msg.contains("deadline_exceeded"), "{msg}");
    assert!(
        !msg.contains("after 0 trials"),
        "aborted mid-estimate, not while queued: {msg}"
    );

    let report = client.metrics(false).expect("metrics");
    assert!(report.service.counter("deadline.exceeded") >= 1);

    // The aborted run left nothing in the result cache: the same
    // content without a deadline (stall cleared) computes fresh and
    // answers correctly.
    biorank::service::admission::set_stall_batch_ms(0);
    let resp = client
        .query(&word_request(5_000, 11))
        .expect("undeadlined rerun succeeds");
    assert_eq!(resp.total_answers, 15);
    assert!(!resp.cached_scores, "the aborted run must not have cached");

    handle.shutdown();
}

/// The deadline contract is the batch loop's, not the word engine's:
/// a fixed-trial traversal run polls the same stall hook and the same
/// deadline between batches.
#[test]
fn deadline_fires_mid_estimate_for_fixed_traversal_runs_too() {
    let _stall = StallGuard::take();
    let handle = start_server(ServeOptions {
        workers: 2,
        fault_plan: Some(FaultPlan {
            stall_batch_ms: 250,
            ..Default::default()
        }),
        ..Default::default()
    });

    let mut req = word_request(5_000, 11);
    req.spec.estimator = Some(Estimator::Traversal);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let err = client
        .query(&req.clone().with_deadline_ms(100))
        .expect_err("deadline fires mid-run");
    let msg = err.to_string();
    let (_, tail) = msg.split_once("deadline_exceeded after ").expect(&msg);
    let trials: u32 = tail.split(' ').next().unwrap().parse().expect(&msg);
    assert!(
        0 < trials && trials < 5_000,
        "aborted between batches: {msg}"
    );
    let report = client.metrics(false).expect("metrics");
    assert!(report.service.counter("deadline.exceeded") >= 1);

    biorank::service::admission::set_stall_batch_ms(0);
    let resp = client.query(&req).expect("undeadlined rerun succeeds");
    assert_eq!(resp.total_answers, 15);
    assert!(!resp.cached_scores, "the aborted run must not have cached");

    handle.shutdown();
}

#[test]
fn drain_finishes_in_flight_queries_and_server_exits_cleanly() {
    let _stall = StallGuard::take();
    let world = World::generate(WorldParams::default());
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let engine = Arc::new(QueryEngine::new(mediator));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServeOptions {
            workers: 2,
            // 1 536 trials = 3 blocks × 200 ms stall ≈ 600 ms:
            // comfortably in flight when the drain lands.
            fault_plan: Some(FaultPlan {
                stall_batch_ms: 200,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let run = std::thread::spawn(move || server.run());

    let in_flight = std::thread::spawn(move || {
        let mut a = Client::connect(addr).expect("client a");
        a.query(&word_request(1_536, 5))
            .expect("in-flight query answered")
    });

    std::thread::sleep(Duration::from_millis(250));
    let mut b = Client::connect(addr).expect("client b");
    let worlds = b.drain().expect("drain over the wire");
    assert_eq!(worlds, 0, "no store attached, nothing to checkpoint");
    drop(b);

    // The in-flight query was answered, not dropped.
    let resp = in_flight.join().expect("join in-flight");
    assert_eq!(resp.total_answers, 15);

    // run() returns Ok — the CLI process exits 0 from here.
    run.join()
        .expect("join server")
        .expect("run returns cleanly");

    // New connections are refused outright once drained.
    assert!(
        TcpStream::connect(addr)
            .map(|s| {
                let mut buf = [0u8; 8];
                (&s).read(&mut buf).map(|n| n == 0).unwrap_or(true)
            })
            .unwrap_or(true),
        "post-drain connections get nothing"
    );

    let snapshot = handle.metrics().snapshot();
    assert_eq!(snapshot.counter("drain.requested"), 1);
    assert_eq!(snapshot.counter("drain.completed"), 1);
    assert_eq!(
        snapshot.counter("drain.dropped_in_flight"),
        0,
        "zero dropped in-flight: {:?}",
        snapshot.counters
    );
}

#[test]
fn rate_limit_sheds_burst_but_connection_survives() {
    let handle = start_server(ServeOptions {
        workers: 2,
        rate_limit_per_sec: Some(1),
        ..Default::default()
    });

    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client
        .query(&cheap_request("GALT"))
        .expect("first in budget");
    assert_eq!(first.total_answers, 15);
    let err = client
        .query(&cheap_request("CFTR"))
        .expect_err("burst is shed");
    assert!(err.is_overload(), "{err}");
    assert!(err.to_string().contains("rate limit"), "{err}");

    // The shed did not kill the connection: after the bucket refills,
    // the same client is served again.
    std::thread::sleep(Duration::from_millis(1_100));
    let again = client.query(&cheap_request("CFTR")).expect("after refill");
    assert_eq!(again.total_answers, 90);

    // Metrics over a fresh connection (its bucket is full).
    let mut auditor = Client::connect(handle.addr()).expect("auditor");
    let report = auditor.metrics(false).expect("metrics");
    assert!(report.service.counter("shed.rate_limited") >= 1);

    handle.shutdown();
}

#[test]
fn client_retry_with_backoff_recovers_once_capacity_frees() {
    let handle = start_server(ServeOptions {
        workers: 2,
        max_connections: 1,
        retry_after_ms: 25,
        ..Default::default()
    });
    let addr = handle.addr();
    let held = held_connection(&handle);

    let retrying = std::thread::spawn(move || {
        Client::query_with_retry(addr, ClientOptions::default(), &cheap_request("GALT"), 8)
    });

    // Hold the only slot through the first backoff rounds, then free
    // it; a later retry is admitted and answers.
    std::thread::sleep(Duration::from_millis(200));
    drop(held);
    let resp = retrying
        .join()
        .expect("join retrier")
        .expect("retry eventually admitted");
    assert_eq!(resp.total_answers, 15);

    handle.shutdown();
}

#[test]
fn admitted_queries_answer_bit_identically_to_unloaded_runs() {
    let unloaded = start_server(ServeOptions {
        workers: 2,
        ..Default::default()
    });
    let flooded = start_server(ServeOptions {
        workers: 2,
        max_connections: 3,
        ..Default::default()
    });

    // Saturate all but one slot of the flooded server, and prove the
    // flood is real: one extra connection attempt is shed.
    let _held_a = held_connection(&flooded);
    let _held_b = held_connection(&flooded);
    {
        let mut admitted = Client::connect(flooded.addr()).expect("last slot");
        admitted.stats().expect("admitted");
        let shed = TcpStream::connect(flooded.addr()).expect("connect over budget");
        let mut line = String::new();
        BufReader::new(shed).read_line(&mut line).expect("notice");
        assert!(
            biorank::service::wire::parse_overload_line(&line).is_some(),
            "{line}"
        );
        drop(admitted);
    }

    let spec = RankerSpec {
        method: Method::Reliability,
        trials: Trials::Fixed(2_000),
        seed: 77,
        parallel: false,
        estimator: None,
    };
    let req = QueryRequest::protein_functions("GALT", spec);
    let mut calm = Client::connect(unloaded.addr()).expect("calm client");
    let baseline = calm.query(&req).expect("unloaded run");

    let mut loaded = reconnect_until_admitted(&flooded);
    let under_load = loaded.query(&req).expect("admitted under load");

    // Seeds derive from request content, so admission pressure can
    // shed or delay a query but never change its answer.
    assert_eq!(baseline.answers, under_load.answers);
    assert_eq!(baseline.total_answers, under_load.total_answers);

    unloaded.shutdown();
    flooded.shutdown();
}
