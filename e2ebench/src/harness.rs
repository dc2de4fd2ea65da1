//! Server bring-up, the closed- and open-loop load drivers, and the
//! post-run check of everything they saw.
//!
//! The server is the real [`Server`] running in this process on
//! `127.0.0.1:0`; every request crosses a loopback TCP socket. The
//! harness owns ≤ `nproc` connections. A closed-loop connection is one
//! thread; an open-loop connection is a writer thread that sleeps
//! until each line is due plus a reader thread blocked in `read`, so
//! arrival times are taken the moment the kernel wakes the reader
//! instead of at the next poll.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use biorank_service::persist;
use biorank_service::wire::{self, AdminResponse, ResponseBody};
use biorank_service::{
    ServeOptions, Server, ServerHandle, TenancyError, TraceSpan, WorldManager, WorldSpec,
    WorldStore, DEFAULT_WORLD_BUDGET,
};

use crate::check::{observe, Checker, Observed};
use crate::workload::{first_shape, query_line, Generator, Horizon, Op, OpKind, Workload};

/// Worker threads of the benchmarked server (the box has 2 cores).
pub const WORKERS: usize = 2;

/// Socket timeout: a stuck server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// `rescore_word` sends an unbounded stream of distinct requests; one
/// in this many is recomputed by the reference engine.
pub const RESCORE_CHECK_EVERY: u64 = 16;

/// A running in-process server.
pub struct Served {
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its world registry.
    pub manager: Arc<WorldManager>,
    handle: ServerHandle,
    join: JoinHandle<()>,
}

impl Served {
    /// Stops the accept loop and waits for it to return. Connection
    /// threads exit as their clients disconnect.
    pub fn shut_down(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }
}

/// Opens (or creates) `dir`, replays its manifest + WAL, restores every
/// recovered world from its snapshot, and makes sure `name` is
/// resident — what `biorank serve --data-dir` does at boot, minus the
/// CLI's default world.
pub fn durable_manager(
    dir: &Path,
    name: &str,
    spec: WorldSpec,
) -> Result<Arc<WorldManager>, String> {
    let manager = WorldManager::new(DEFAULT_WORLD_BUDGET);
    let store = Arc::new(WorldStore::open(dir, manager.metrics()).map_err(|e| e.to_string())?);
    let recovery = store.recover().map_err(|e| e.to_string())?;
    let manager = Arc::new(
        manager
            .with_store(Arc::clone(&store))
            .map_err(|e| e.to_string())?,
    );
    manager.set_generation_floor(recovery.next_generation);
    let mut recovered = false;
    for (world, rec) in &recovery.worlds {
        let wspec = persist::world_spec(rec.spec).map_err(|e| e.to_string())?;
        let snapshot = rec
            .snapshot
            .as_deref()
            .and_then(|file| store.load_snapshot(file).ok());
        manager
            .restore_background(world, wspec, rec.generation, snapshot)
            .map_err(|e| e.to_string())?;
        recovered |= world == name;
    }
    if !recovered {
        manager.load(name, spec).map_err(|e| e.to_string())?;
    }
    let deadline = Instant::now() + IO_TIMEOUT;
    loop {
        match manager.resolve(Some(name)) {
            Ok(_) => return Ok(manager),
            Err(TenancyError::WorldLoading(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(format!("world {name:?} never became ready: {e}")),
        }
    }
}

/// Builds the workload's world, binds the server on an ephemeral
/// loopback port with [`WORKERS`] workers and otherwise default
/// options, and starts its accept loop. Only the durable workloads
/// touch `data_dir`.
pub fn bring_up(workload: Workload, data_dir: &Path) -> Result<Served, String> {
    let spec = workload.spec();
    let manager = match workload.world() {
        None => Arc::new(WorldManager::with_default(
            Arc::new(spec.build()),
            spec,
            DEFAULT_WORLD_BUDGET,
        )),
        Some(name) if workload.durable() => durable_manager(data_dir, name, spec)?,
        Some(name) => {
            let manager = Arc::new(WorldManager::new(DEFAULT_WORLD_BUDGET));
            manager.load(name, spec).map_err(|e| e.to_string())?;
            manager
        }
    };
    let server = Server::bind_manager(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let join = std::thread::Builder::new()
        .name("e2e-accept".into())
        .spawn(move || {
            let _ = server.run();
        })
        .map_err(|e| e.to_string())?;
    Ok(Served {
        addr,
        manager,
        handle,
        join,
    })
}

/// One client connection speaking the line protocol in raw lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY` on the client socket, so pipelined
    /// request lines are never held back by the generator's own Nagle
    /// timer; the server side of the socket is the program's business.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Splits into the halves an open-loop connection's two threads own.
    fn split(self) -> (BufReader<TcpStream>, TcpStream) {
        (self.reader, self.writer)
    }

    /// Sends one line in a single `write`.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        send_line(&mut self.writer, &mut self.out, line)
    }

    /// Blocks for the next response line (without its newline).
    pub fn recv(&mut self) -> std::io::Result<&str> {
        recv_line(&mut self.reader, &mut self.line)?;
        Ok(&self.line)
    }

    /// One request, one decoded response.
    pub fn round_trip(&mut self, line: &str) -> Result<wire::Response, String> {
        self.send(line).map_err(|e| e.to_string())?;
        let got = self.recv().map_err(|e| e.to_string())?;
        wire::decode_response(got).map_err(|e| e.to_string())
    }
}

fn send_line(writer: &mut TcpStream, out: &mut Vec<u8>, line: &str) -> std::io::Result<()> {
    out.clear();
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    writer.write_all(out)
}

fn recv_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    line.truncate(line.trim_end().len());
    Ok(())
}

/// What came back for one generated line.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A ranked answer.
    Answer {
        /// Contract digest + certificate + plan of the response.
        seen: Observed,
        /// The server's own `micros` for the request.
        server_micros: u64,
        /// Server-echoed stage spans (traced runs only).
        spans: Vec<TraceSpan>,
    },
    /// An acknowledged admin line (`saved` for `world.save`).
    Admin {
        /// `true` when the ack was a `world.save` ack.
        saved: bool,
    },
    /// An error response, a refusal, a wrong id, or a dead socket.
    Failed(String),
}

/// Client-side record of one request. Times are ns since the run's
/// epoch. `start` is when the client began the request (closed loops)
/// or when it was due (open loops); three spans partition
/// `start..done`: `lead` (encoding the line, or how late the writer
/// ran), `wait` (the `write` call began → the response line was read)
/// and `decode`.
///
/// The `write` call is *inside* `wait`, not beside it: on a 2-core box
/// the server thread the write wakes often preempts the client before
/// it can take the "write returned" timestamp, so a boundary there
/// would hand server time to `client.write`. Everything the server
/// does for the request lies between the start of the write and the
/// arrival of the line, whoever gets scheduled when.
#[derive(Clone, Debug)]
pub struct Record {
    /// What was asked.
    pub kind: OpKind,
    /// The id on the line.
    pub id: u64,
    /// Request start.
    pub start_ns: u64,
    /// `client.encode` (closed) / `client.sched_lag` (open).
    pub lead_ns: u64,
    /// `client.wait`: write began → response line read.
    pub wait_ns: u64,
    /// How long the `write` call took to return (part of `wait_ns`).
    pub write_ns: u64,
    /// `client.decode`.
    pub decode_ns: u64,
    /// Bytes of the request and response lines.
    pub bytes: (u32, u32),
    /// What came back.
    pub outcome: Outcome,
}

impl Record {
    /// Client-observed latency in ns.
    pub fn latency_ns(&self) -> u64 {
        self.lead_ns + self.wait_ns + self.decode_ns
    }

    /// Completion time, ns since epoch.
    pub fn done_ns(&self) -> u64 {
        self.start_ns + self.latency_ns()
    }
}

/// Everything one connection did.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// One record per generated line, in order.
    pub records: Vec<Record>,
    /// TCP connect time.
    pub connect_ns: u64,
}

fn decode_outcome(line: &str, op: &Op) -> Outcome {
    let response = match wire::decode_response(line) {
        Ok(r) => r,
        Err(e) => return Outcome::Failed(format!("undecodable response: {e}")),
    };
    if response.id != op.id {
        return Outcome::Failed(format!("response id {} for request {}", response.id, op.id));
    }
    match (response.outcome, op.kind) {
        (Ok(ResponseBody::Query(resp)), OpKind::Query { .. }) => Outcome::Answer {
            seen: observe(&resp),
            server_micros: resp.micros,
            spans: resp.trace,
        },
        (Ok(ResponseBody::Admin(AdminResponse::Saved { .. })), OpKind::Save) => {
            Outcome::Admin { saved: true }
        }
        (Ok(ResponseBody::Admin(AdminResponse::World { .. })), OpKind::Swap) => {
            Outcome::Admin { saved: false }
        }
        (Ok(other), kind) => Outcome::Failed(format!("{kind:?} answered with {other:?}")),
        (Err(msg), _) => Outcome::Failed(msg),
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A closed-loop connection: the next line is generated and sent only
/// after the previous response has been read and decoded.
fn closed_loop(mut conn: Conn, mut gen: Generator, epoch: Instant, end: Duration) -> ConnRun {
    let mut run = ConnRun::default();
    loop {
        let start = epoch.elapsed();
        if start >= end {
            return run;
        }
        let op = gen.next().expect("closed-loop streams never end");
        let encoded = epoch.elapsed();
        let sent = conn.send(&op.line).map(|()| epoch.elapsed());
        let got = sent.and_then(|sent| conn.recv().map(|line| (sent, epoch.elapsed(), line)));
        let record = match got {
            Ok((sent, arrived, line)) => {
                let bytes = (op.line.len() as u32, line.len() as u32);
                let outcome = decode_outcome(line, &op);
                let decoded = epoch.elapsed();
                Record {
                    kind: op.kind,
                    id: op.id,
                    start_ns: ns(start),
                    lead_ns: ns(encoded - start),
                    wait_ns: ns(arrived - encoded),
                    write_ns: ns(sent - encoded),
                    decode_ns: ns(decoded - arrived),
                    bytes,
                    outcome,
                }
            }
            Err(e) => {
                // The socket is gone; one failed record, then stop.
                run.records.push(Record {
                    kind: op.kind,
                    id: op.id,
                    start_ns: ns(start),
                    lead_ns: 0,
                    wait_ns: ns(epoch.elapsed() - start),
                    write_ns: 0,
                    decode_ns: 0,
                    bytes: (op.line.len() as u32, 0),
                    outcome: Outcome::Failed(e.to_string()),
                });
                return run;
            }
        };
        run.records.push(record);
    }
}

/// An open-loop connection: the writer follows the schedule whatever
/// the server does, the reader timestamps responses as they arrive,
/// and latency is measured from each line's due time.
fn open_loop(conn: Conn, ops: &[Op], epoch: Instant) -> ConnRun {
    let (mut reader, mut writer) = conn.split();
    let mut run = ConnRun::default();
    std::thread::scope(|scope| {
        // (write began, write returned) per op, ns since epoch; `None`
        // once the socket failed.
        let writer_thread = scope.spawn(move || {
            let mut out = Vec::new();
            let mut sends: Vec<Option<(u64, u64)>> = Vec::with_capacity(ops.len());
            let mut dead = false;
            for op in ops {
                let due = Duration::from_micros(op.due_us.expect("open-loop op"));
                let now = epoch.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let began = epoch.elapsed();
                dead = dead || send_line(&mut writer, &mut out, &op.line).is_err();
                sends.push((!dead).then(|| (ns(began), ns(epoch.elapsed()))));
            }
            sends
        });
        // (arrived, decoded, response bytes, outcome) per op.
        let mut arrivals = Vec::with_capacity(ops.len());
        let mut line = String::new();
        for op in ops {
            match recv_line(&mut reader, &mut line) {
                Ok(()) => {
                    let arrived = ns(epoch.elapsed());
                    let outcome = decode_outcome(&line, op);
                    arrivals.push((arrived, ns(epoch.elapsed()), line.len() as u32, outcome));
                }
                Err(e) => {
                    // Responses are in order, so nothing later can be
                    // matched up either.
                    let now = ns(epoch.elapsed());
                    arrivals.resize(ops.len(), (now, now, 0, Outcome::Failed(e.to_string())));
                    break;
                }
            }
        }
        let sends = writer_thread.join().expect("open-loop writer");
        for ((op, send), (arrived, decoded, resp_bytes, outcome)) in
            ops.iter().zip(sends).zip(arrivals)
        {
            let due = op.due_us.expect("open-loop op") * 1_000;
            let (began, sent) = send.unwrap_or((due, due));
            run.records.push(Record {
                kind: op.kind,
                id: op.id,
                start_ns: due,
                lead_ns: began.saturating_sub(due),
                wait_ns: arrived.saturating_sub(began),
                write_ns: sent - began,
                decode_ns: decoded - arrived,
                bytes: (op.line.len() as u32, resp_bytes),
                outcome: if send.is_some() {
                    outcome
                } else {
                    Outcome::Failed("request could not be written".into())
                },
            });
        }
    });
    run
}

/// How long a load phase runs.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Discarded lead-in, seconds.
    pub warmup_s: f64,
    /// Measured window, seconds.
    pub measure_s: f64,
    /// Ask for `trace:true` on every query.
    pub trace: bool,
}

impl Phase {
    fn horizon(&self) -> Horizon {
        Horizon {
            warmup_us: (self.warmup_s * 1e6) as u64,
            measure_us: (self.measure_s * 1e6) as u64,
        }
    }
}

/// Drives one load phase of `workload` against the server at `addr`:
/// connects every connection first, then starts their clocks together.
pub fn run_load(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    proteins: &[String],
    phase: Phase,
) -> Result<Vec<ConnRun>, String> {
    let mut conns = Vec::new();
    for _ in 0..workload.connections() {
        let t = Instant::now();
        let conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conns.push((conn, ns(t.elapsed())));
    }
    let horizon = phase.horizon();
    let end = Duration::from_micros(horizon.warmup_us + horizon.measure_us);
    let epoch = Instant::now();
    let runs = std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, (conn, connect_ns))| {
                let gen = Generator::new(workload, seed, i, proteins, phase.trace, Some(horizon));
                scope.spawn(move || {
                    let mut run = if workload.rate_qps().is_some() {
                        let ops: Vec<Op> = gen.collect();
                        open_loop(conn, &ops, epoch)
                    } else {
                        closed_loop(conn, gen, epoch, end)
                    };
                    run.connect_ns = connect_ns;
                    run
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread"))
            .collect()
    });
    Ok(runs)
}

/// Sends every key `hit_top10` will ask for once, so the measured
/// phase sees only result-cache hits.
pub fn prewarm(addr: SocketAddr, workload: Workload, proteins: &[String]) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    for (i, protein) in proteins.iter().enumerate() {
        let line = query_line(
            i as u64,
            protein,
            workload.world(),
            first_shape(workload),
            false,
        );
        match conn.round_trip(&line)?.outcome {
            Ok(_) => {}
            Err(msg) => return Err(format!("prewarm {protein}: {msg}")),
        }
    }
    Ok(())
}

/// The first-answer probe of a bring-up: the workload's own request
/// shape on the first protein of the canonical order.
pub fn first_answer(
    addr: SocketAddr,
    workload: Workload,
    proteins: &[String],
) -> Result<(String, Observed), String> {
    let line = query_line(
        0,
        &proteins[0],
        workload.world(),
        first_shape(workload),
        false,
    );
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    match conn.round_trip(&line)?.outcome {
        Ok(ResponseBody::Query(resp)) => Ok((line, observe(&resp))),
        Ok(other) => Err(format!("first answer was {other:?}")),
        Err(msg) => Err(format!("first answer failed: {msg}")),
    }
}

/// What the post-run check found.
#[derive(Debug, Default)]
pub struct Tally {
    /// Lines sent (queries and admin lines, warm-up included).
    pub attempted: u64,
    /// Lines that errored, were refused, or were answered wrongly.
    pub failed: u64,
    /// The first few failure messages, for the operator.
    pub failures: Vec<String>,
    /// Acknowledged `world.save` lines.
    pub saves_acked: u64,
    /// Responses recomputed by the reference engine.
    pub reference_checked: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// Re-generates each connection's stream (it is deterministic) to
/// recover the request lines, and checks every record against the
/// reference engine. Runs after the timed phase.
pub fn verify(
    workload: Workload,
    seed: u64,
    proteins: &[String],
    phase: Phase,
    runs: &[ConnRun],
    checker: &mut Checker,
) -> Tally {
    let mut tally = Tally::default();
    for (conn, run) in runs.iter().enumerate() {
        let gen = Generator::new(
            workload,
            seed,
            conn,
            proteins,
            phase.trace,
            Some(phase.horizon()),
        );
        for (op, record) in gen.zip(&run.records) {
            assert_eq!(
                (op.id, op.kind),
                (record.id, record.kind),
                "stream replay diverged"
            );
            tally.attempted += 1;
            match &record.outcome {
                Outcome::Failed(msg) => tally.fail(format!("{}: {msg}", op.line)),
                Outcome::Admin { saved } => tally.saves_acked += u64::from(*saved),
                Outcome::Answer { seen, .. } => {
                    if workload.prewarmed() && !seen.cached_scores {
                        tally.fail(format!("{}: expected a result-cache hit", op.line));
                    } else if workload != Workload::RescoreWord || op.id % RESCORE_CHECK_EVERY == 0
                    {
                        tally.reference_checked += 1;
                        if let Err(msg) = checker.check(&op.line, seen) {
                            tally.fail(format!("{}: {msg}", op.line));
                        }
                    }
                }
            }
        }
    }
    tally
}
