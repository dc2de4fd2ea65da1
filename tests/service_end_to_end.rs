//! End-to-end test of `biorank serve`: a real TCP server on an
//! ephemeral port, exercised through the line protocol by real
//! clients — including the Table 1 acceptance query
//! (`protein_functions("GALT")` → 15 ranked answers) and its cached
//! repeat.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use biorank::service::{
    Client, Method, QueryRequest, RankerSpec, ServeOptions, ServerHandle, Trials,
};

fn start_server(workers: usize) -> ServerHandle {
    common::serve(
        common::engine(),
        ServeOptions {
            workers,
            ..Default::default()
        },
    )
}

#[test]
fn galt_answers_fifteen_ranked_functions_and_caches_repeats() {
    let handle = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let spec = RankerSpec {
        method: Method::Reliability,
        trials: Trials::Fixed(1_000),
        seed: 42,
        parallel: false,
        estimator: None,
    };
    let cold = client
        .protein_functions("GALT", spec)
        .expect("GALT query succeeds");
    assert_eq!(cold.total_answers, 15, "Table 1: GALT → 15 functions");
    assert_eq!(cold.answers.len(), 15);
    assert!(!cold.cached_graph && !cold.cached_scores);
    assert!(cold.answers.iter().all(|a| a.key.starts_with("GO:")));
    // Rank intervals are 1-based, contiguous, and ordered best-first.
    assert_eq!(cold.answers[0].rank_lo, 1);
    for w in cold.answers.windows(2) {
        assert!(w[0].score >= w[1].score);
        assert!(w[0].rank_lo <= w[1].rank_lo);
    }

    // The identical query again: served from the result cache, with
    // exactly the same ranking.
    let warm = client.protein_functions("GALT", spec).expect("warm query");
    assert!(warm.cached_graph && warm.cached_scores);
    assert_eq!(warm.answers, cold.answers);

    handle.shutdown();
}

#[test]
fn pipelined_batches_and_separate_connections_agree() {
    let handle = start_server(4);
    let spec = RankerSpec {
        method: Method::TraversalMc,
        trials: Trials::Fixed(300),
        seed: 9,
        parallel: false,
        estimator: None,
    };
    let reqs: Vec<QueryRequest> = ["GALT", "CFTR", "EYA1", "GALT"]
        .iter()
        .map(|p| QueryRequest::protein_functions(p, spec))
        .collect();

    let mut a = Client::connect(handle.addr()).expect("client a");
    let batch_a: Vec<_> = a
        .query_batch(&reqs)
        .expect("batch a")
        .into_iter()
        .map(|r| r.expect("query ok").answers)
        .collect();

    let mut b = Client::connect(handle.addr()).expect("client b");
    let batch_b: Vec<_> = reqs
        .iter()
        .map(|r| b.query(r).expect("query ok").answers)
        .collect();

    // Same content ⇒ same rankings, regardless of pipelining, cache
    // state, or which worker served what.
    assert_eq!(batch_a, batch_b);
    // The in-batch repeat of GALT is identical to its first answer.
    assert_eq!(batch_a[0], batch_a[3]);

    handle.shutdown();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let handle = start_server(2);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let write = |line: &str| {
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    };
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line
    };

    // Malformed JSON.
    write("this is not json");
    assert!(read().contains("\"ok\":false"));

    // Valid JSON, bad request shape — id is still echoed.
    write("{\"id\":9,\"nope\":true}");
    let line = read();
    assert!(line.contains("\"ok\":false") && line.contains("\"id\":9"));

    // Unknown protein: a domain error, not a transport error.
    write(
        "{\"id\":10,\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
         \"value\":\"NOT_A_PROTEIN\",\"outputs\":[\"AmiGO\"],\"method\":\"inedge\"}",
    );
    let line = read();
    assert!(line.contains("\"ok\":false") && line.contains("NOT_A_PROTEIN"));

    // The connection still works for a good request afterwards.
    write(
        "{\"id\":11,\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
         \"value\":\"GALT\",\"outputs\":[\"AmiGO\"],\"method\":\"inedge\"}",
    );
    let line = read();
    assert!(
        line.contains("\"ok\":true") && line.contains("\"total\":15"),
        "{line}"
    );

    handle.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let handle = start_server(8);
    let addr = handle.addr();
    let expected: Vec<(&str, usize)> = vec![("GALT", 15), ("ABCC8", 97), ("CFTR", 90)];
    std::thread::scope(|s| {
        for t in 0..6usize {
            let expected = expected.clone();
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (protein, count) in expected {
                    let spec = RankerSpec {
                        method: Method::InEdge,
                        trials: Trials::Fixed(1),
                        seed: t as u64, // deterministic method: seed irrelevant
                        parallel: false,
                        estimator: None,
                    };
                    let resp = client
                        .protein_functions(protein, spec)
                        .expect("query succeeds");
                    assert_eq!(resp.total_answers, count, "{protein}");
                }
            });
        }
    });
    handle.shutdown();
}
