//! The transport contract, against a live server over loopback: one
//! response line is one `write` on a no-delay socket, so a reply
//! larger than a segment's worth of buffer never waits out a
//! Nagle/delayed-ACK round; pipelined replies keep request order; and
//! the four response-side injected faults (`short_write`,
//! `close_after`, `blackhole`, `response_delay_ms`) do what their
//! names say — in particular the two that hang up really hang up.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use biorank::mediator::Mediator;
use biorank::prelude::*;
use biorank::service::wire::{self, RequestBody, ResponseBody};
use biorank::service::{
    Client, ClientOptions, Error, Estimator, FaultPlan, Method, QueryEngine, QueryRequest,
    RankerSpec, ServeOptions, Server, ServerHandle, Trials,
};

/// Bound on every client socket operation in the fault tests: a
/// regression shows up as a failed assertion, never a hung suite.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

fn start_server(fault_plan: Option<FaultPlan>) -> ServerHandle {
    let world = World::generate(WorldParams::default());
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let engine = Arc::new(QueryEngine::new(mediator));
    let opts = ServeOptions {
        workers: 2,
        fault_plan,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, opts).expect("bind ephemeral");
    let handle = server.handle().expect("server handle");
    std::thread::spawn(move || server.run().expect("server run"));
    handle
}

fn connect(handle: &ServerHandle, io_timeout: Duration) -> Client {
    let opts = ClientOptions {
        connect_timeout: Some(IO_TIMEOUT),
        io_timeout: Some(io_timeout),
    };
    Client::connect_with(handle.addr(), opts).expect("connect")
}

/// A fixed-trial word-estimator request: deterministic answers, and a
/// result-cache hit on every repeat.
fn word_request(protein: &str, top: Option<usize>) -> QueryRequest {
    let mut req = QueryRequest::protein_functions(
        protein,
        RankerSpec {
            method: Method::TraversalMc,
            trials: Trials::Fixed(1_000),
            seed: 7,
            parallel: false,
            estimator: Some(Estimator::Word),
        },
    );
    req.top = top;
    req
}

/// One request as it goes on the wire, newline included.
fn request_line(id: u64, req: &QueryRequest) -> String {
    let body = RequestBody::Query(req.clone());
    let mut line = wire::encode_request(&wire::Request { id, body });
    line.push('\n');
    line
}

#[test]
fn full_list_reply_over_8k_does_not_wait_out_a_delayed_ack() {
    let handle = start_server(None);
    let mut client = connect(&handle, IO_TIMEOUT);
    let req = word_request("ABCC8", None);

    let first = client.query(&req).expect("cold query");
    assert_eq!(first.answers.len(), 97, "ABCC8's full list (Table 1)");
    let reply_bytes = wire::encode_response(&wire::Response {
        id: 1,
        outcome: Ok(ResponseBody::Query(first)),
    })
    .len();
    assert!(
        reply_bytes > 8_192,
        "the reply must outgrow the 8 KiB the old writer buffered, or this \
         test times the wrong path: {reply_bytes} bytes"
    );

    // A fresh connection ACKs its first segments immediately (the
    // kernel's quick-ACK mode); the stall only shows once that runs
    // out, so warm the connection past it before timing.
    for _ in 0..20 {
        client.query(&req).expect("warm-up");
    }
    let mut round_trips: Vec<Duration> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let resp = client.query(&req).expect("timed query");
            assert!(resp.cached_scores, "timed repeats are result-cache hits");
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(15),
        "median round trip of a cached {reply_bytes}-byte reply was {median:?}: a line split \
         across two writes waits ~40 ms for the client's delayed ACK (all: {round_trips:?})"
    );
    handle.shutdown();
}

#[test]
fn pipelined_small_hits_come_back_in_request_order() {
    let handle = start_server(None);
    let mut client = connect(&handle, IO_TIMEOUT);
    let proteins = ["GALT", "CFTR", "ABCC8", "LPL"];

    // Sequential answers first: they populate the result cache and
    // are what each pipelined position must reproduce.
    let expected: Vec<_> = proteins
        .iter()
        .map(|p| client.query(&word_request(p, Some(10))).expect("warm"))
        .collect();

    let batch: Vec<QueryRequest> = (0..32)
        .map(|i| word_request(proteins[i % proteins.len()], Some(10)))
        .collect();
    // `query_batch` itself fails on any response id out of sequence.
    let responses = client.query_batch(&batch).expect("pipelined batch");
    assert_eq!(responses.len(), 32);
    for (i, resp) in responses.into_iter().enumerate() {
        let resp = resp.expect("pipelined hit");
        assert!(resp.cached_scores, "position {i} is a hit");
        assert_eq!(resp.answers, expected[i % proteins.len()].answers);
    }
    handle.shutdown();
}

#[test]
fn forty_request_batch_over_8k_keeps_ids_in_order() {
    let handle = start_server(None);
    let mut client = connect(&handle, IO_TIMEOUT);
    let proteins = ["GALT", "CFTR", "ABCC8", "LPL", "MLH1"];
    // Every optional field set, so 40 lines outgrow the 8 KiB the old
    // client buffered before its first write.
    let batch: Vec<QueryRequest> = (0..40)
        .map(|i| {
            word_request(proteins[i % proteins.len()], None)
                .certified_top(1 + i % 7)
                .on_world("default")
                .with_deadline_ms(60_000)
        })
        .collect();
    let outgoing: usize = (1u64..)
        .zip(&batch)
        .map(|(id, req)| request_line(id, req).len())
        .sum();
    assert!(
        outgoing > 8_192,
        "the batch must outgrow one 8 KiB buffer: {outgoing} bytes"
    );
    let responses = client.query_batch(&batch).expect("batch");
    assert_eq!(responses.len(), 40);
    for (i, resp) in responses.into_iter().enumerate() {
        let resp = resp.expect("batched query");
        assert_eq!(
            resp.answers.len(),
            1 + i % 7,
            "position {i} got its own `top`"
        );
    }
    handle.shutdown();
}

#[test]
fn short_write_tears_the_line_and_hangs_up() {
    let handle = start_server(Some(FaultPlan {
        short_write: true,
        ..Default::default()
    }));
    let req = word_request("GALT", Some(10));

    // Through the client: the fragment arrives, then EOF, so the
    // error is a failed decode — a hang would surface as the `Io`
    // read timeout instead.
    let err = connect(&handle, IO_TIMEOUT)
        .query(&req)
        .expect_err("half a line is not an answer");
    assert!(
        matches!(err, Error::Wire(_)),
        "expected the fragment to fail decoding, got: {err:?}"
    );

    // On the raw socket: the peer reads the fragment and then EOF.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect raw");
    stream.set_read_timeout(Some(IO_TIMEOUT)).expect("timeout");
    stream
        .write_all(request_line(1, &req).as_bytes())
        .expect("write request");
    let mut fragment = String::new();
    stream
        .read_to_string(&mut fragment)
        .expect("EOF after the fragment, not a read timeout");
    assert!(!fragment.is_empty(), "half the line was written");
    assert!(
        !fragment.contains('\n'),
        "the newline is outside the torn half"
    );
    assert!(wire::decode_response(&fragment).is_err(), "got: {fragment}");
    handle.shutdown();
}

#[test]
fn close_after_answers_n_lines_then_closes_the_connection() {
    let handle = start_server(Some(FaultPlan {
        close_after: 2,
        ..Default::default()
    }));
    let mut client = connect(&handle, IO_TIMEOUT);
    let req = word_request("GALT", Some(10));
    client.query(&req).expect("first answer");
    client.query(&req).expect("second answer");
    // EOF, not the `Io` read timeout a still-open socket would give.
    match client.query(&req) {
        Err(Error::Remote(msg)) => assert_eq!(msg, "server closed connection"),
        other => panic!("expected EOF after two answers, got: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn blackhole_swallows_the_reply_but_counts_the_request() {
    let handle = start_server(Some(FaultPlan {
        blackhole: true,
        ..Default::default()
    }));
    let mut client = connect(&handle, Duration::from_millis(300));
    match client.query(&word_request("GALT", Some(10))) {
        Err(Error::Io(e)) => assert!(
            matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
            "expected the read timeout, got: {e:?}"
        ),
        other => panic!("expected an io timeout, got: {other:?}"),
    }
    assert_eq!(handle.metrics().counter("server.requests").get(), 1);
    handle.shutdown();
}

#[test]
fn response_delay_adds_latency_and_changes_no_answer() {
    let delayed = start_server(Some(FaultPlan {
        response_delay_ms: 30,
        ..Default::default()
    }));
    let plain = start_server(None);
    let req = word_request("CFTR", None);

    let start = Instant::now();
    let slow = connect(&delayed, IO_TIMEOUT).query(&req).expect("delayed");
    assert!(
        start.elapsed() >= Duration::from_millis(30),
        "took {:?}",
        start.elapsed()
    );
    let fast = connect(&plain, IO_TIMEOUT).query(&req).expect("plain");
    assert_eq!(slow.answers, fast.answers);
    assert_eq!(slow.total_answers, fast.total_answers);
    assert_eq!(slow.certificate, fast.certificate);
    delayed.shutdown();
    plain.shutdown();
}
