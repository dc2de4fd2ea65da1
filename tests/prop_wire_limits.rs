//! Property tests for wire-protocol robustness under hostile input:
//! random byte garbage, truncated JSON prefixes, oversized lines, and
//! valid queries interleaved among them. The server must never panic,
//! never buffer past its request-size cap, and — for every complete
//! (newline-terminated) request line — either answer with exactly one
//! response line or close the connection. A canonical query after
//! each hostile session proves the server survived it.

#[path = "common/cases.rs"]
mod cases;
mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use biorank::service::{ServeOptions, ServerHandle};

/// Case `i` of each property runs seed `FIRST_SEED + i`; a failure
/// names its seed, and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 24;
const FIRST_SEED: u64 = 0x3B1E_0000;
const RERUN: Option<u64> = None;

/// One server, on the served world, shared across every case: world
/// generation is the expensive part, and surviving hundreds of hostile
/// sessions on one process is exactly the property under test.
const MAX_REQUEST_BYTES: usize = 512;

fn server() -> &'static ServerHandle {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    HANDLE.get_or_init(|| {
        let opts = ServeOptions {
            workers: 2,
            max_request_bytes: MAX_REQUEST_BYTES,
            ..Default::default()
        };
        common::serve(common::engine(), opts)
    })
}

const VALID_QUERY: &str = "{\"id\":1,\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
                           \"value\":\"GALT\",\"outputs\":[\"AmiGO\"],\"method\":\"inedge\"}";

/// One hostile request line (newline added by the writer).
#[derive(Clone, Debug)]
enum Line {
    /// Arbitrary bytes, possibly invalid UTF-8, newlines laundered.
    Garbage(Vec<u8>),
    /// A prefix of a valid query: truncated mid-structure.
    Truncated(usize),
    /// A line guaranteed past the request-size cap.
    Oversized(usize),
    /// A well-formed query that must be answered if it is reached.
    Valid,
}

fn byte(rng: &mut cases::Rng) -> u8 {
    rng.below(256) as u8
}

/// One hostile line, its variant picked uniformly.
fn line(rng: &mut cases::Rng) -> Line {
    match rng.below(4) {
        0 => Line::Garbage(rng.vec(0..96, byte)),
        1 => Line::Truncated(rng.range(1..VALID_QUERY.len())),
        2 => Line::Oversized(rng.range(MAX_REQUEST_BYTES + 1..MAX_REQUEST_BYTES + 512)),
        _ => Line::Valid,
    }
}

impl Line {
    fn bytes(&self) -> Vec<u8> {
        match self {
            Line::Garbage(raw) => raw
                .iter()
                .map(|&b| if b == b'\n' || b == b'\r' { b'.' } else { b })
                .collect(),
            Line::Truncated(len) => VALID_QUERY.as_bytes()[..*len].to_vec(),
            Line::Oversized(len) => {
                let mut line = format!("{{\"id\":2,\"pad\":\"{}", "x".repeat(*len)).into_bytes();
                line.extend_from_slice(b"\"}");
                line
            }
            Line::Valid => VALID_QUERY.as_bytes().to_vec(),
        }
    }
}

/// Plays one hostile session: every complete line either gets exactly
/// one response line or the connection closes (after which further
/// writes are pointless and further answers impossible).
fn play(lines: &[Line]) {
    let handle = server();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for line in lines {
        let mut bytes = line.bytes();
        // Whitespace-only lines are skipped by the server, not
        // answered — expecting a response would be the test hanging
        // itself.
        let blank = String::from_utf8_lossy(&bytes).trim().is_empty();
        bytes.push(b'\n');
        if (&stream).write_all(&bytes).is_err() {
            // The server already closed (an earlier oversized line);
            // a dead connection is a valid outcome, not a hang.
            return;
        }
        if blank {
            continue;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) => return, // closed: the only alternative to answering
            Ok(_) => {
                // Every answer is one well-formed response line that
                // echoes a verdict — never a crash dump, never silence.
                assert!(
                    response.contains("\"ok\":true") || response.contains("\"ok\":false"),
                    "unrecognizable response to {line:?}: {response}"
                );
                if matches!(line, Line::Valid) {
                    assert!(
                        response.contains("\"ok\":true") && response.contains("\"total\":15"),
                        "valid query mis-answered after hostile lines: {response}"
                    );
                }
                if matches!(line, Line::Oversized(_)) {
                    assert!(
                        response.contains(&format!("{MAX_REQUEST_BYTES} bytes")),
                        "oversized rejection names the cap: {response}"
                    );
                }
            }
            // A reset is the server closing with our later bytes
            // still unread — "closed", just ruder than FIN.
            Err(e) if is_disconnect(&e) => return,
            Err(e) => panic!("server neither answered nor closed within 10s: {e}"),
        }
    }
}

fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// The liveness probe run after every hostile session: a fresh
/// connection must still get the Table 1 answer.
fn assert_server_alive() {
    let handle = server();
    let stream = TcpStream::connect(handle.addr()).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    (&stream)
        .write_all(format!("{VALID_QUERY}\n").as_bytes())
        .expect("write probe");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read probe");
    assert!(
        response.contains("\"ok\":true") && response.contains("\"total\":15"),
        "server unhealthy after hostile session: {response}"
    );
}

#[test]
fn hostile_lines_never_hang_never_kill_the_server() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let lines = rng.vec(1..8, line);
        play(&lines);
        assert_server_alive();
    });
}

#[test]
fn raw_garbage_streams_always_answered_or_closed() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let raw = rng.vec(0..256, byte);
        // No framing at all: dump raw bytes (newlines included, so
        // this may be several "lines" of pure noise), then close the
        // write half and drain. Whatever comes back must be complete
        // response lines, and the server must survive.
        let handle = server();
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        (&stream).write_all(&raw).expect("write noise");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut reader = BufReader::new(stream);
        loop {
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(0) => break,
                Ok(_) => assert!(
                    response.contains("\"ok\":"),
                    "noise produced a non-response line: {response}"
                ),
                Err(e) if is_disconnect(&e) => break,
                Err(e) => panic!("server neither answered nor closed within 10s: {e}"),
            }
        }
        assert_server_alive();
    });
}
