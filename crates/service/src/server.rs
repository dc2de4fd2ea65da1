//! The TCP front end: line-delimited JSON over `std::net`.
//!
//! One thread accepts connections; each connection gets a reader
//! thread that decodes request lines and submits them to the shared
//! [`WorkerPool`], plus a writer thread that puts responses back on
//! the socket **in request order** (a `BTreeMap` re-sequencing buffer
//! absorbs out-of-order completions). Clients may therefore pipeline
//! requests freely and match responses positionally or by id.
//!
//! **Transport.** One line = one buffer = one `write`, on a
//! `TCP_NODELAY` socket, in both directions: written as body then
//! `\n`, Nagle holds the `\n` segment until the body is ACKed, and a
//! peer waiting for that newline delays the ACK ~40 ms. A writer that
//! stops early (write error or timeout, injected hang-up) shuts the
//! socket down both ways, so the peer sees EOF, never a stall.
//!
//! Requests route through a [`WorldManager`]: a query names a resident
//! world (or defaults to [`DEFAULT_WORLD`](crate::tenancy::DEFAULT_WORLD)),
//! and admin lines (`world.load`, `world.swap`, `world.evict`,
//! `world.list`, `stats`, `metrics`) drive the registry itself over
//! the same connection. Admin commands are a per-connection barrier: queries
//! pipelined before a `world.swap` finish before it executes, and
//! queries after it see the new world.
//!
//! **Single-flight is invisible on the wire.** Concurrent identical
//! queries may be answered by one computation, but there is no
//! request field to ask for it, no response field that reveals it,
//! and the response bytes are identical to a solo execution. Only the
//! `metrics` admin op shows the coalescing (`queries.coalesced`).
//!
//! **Planning is opt-out, not invisible.** The serve default is
//! `estimator: "auto"`: the engine scores exact / reduced / word /
//! traversal strategies against a fixed cost model and runs the
//! cheapest, echoing `plan: {strategy, predicted_ns, fallback,
//! features}` on the response next to the certificate. The plan is a
//! pure function of the echoed features — what the server answered
//! before never changes it. The echo is observational only — a planned
//! request and an explicit request for the chosen strategy share one
//! cache entry and identical answer bytes. An explicit `estimator` (or
//! a non-`mc` method) routes around the planner entirely. Per-world
//! `planner.chosen.<strategy>` and `planner.fallback` counters appear
//! in the `metrics` admin op, and `world.list` rows carry the same
//! chosen-strategy rollup.
//!
//! **Metrics histogram echo.** The `metrics` admin op serialises each
//! histogram's non-empty buckets as `[bucket_index, count]` pairs —
//! the first element is the log₂ bucket *index* (bucket 0 holds exact
//! zeros, bucket `i ≥ 1` holds `[2^(i−1), 2^i)`), never a value
//! bound, so the top buckets' > 2⁵³ bounds survive f64 JSON exactly;
//! decoders recompute bounds from the index.
//!
//! **Overload behavior.** Admission control is layered
//! (see [`crate::admission`]):
//!
//! 1. *Connection budget* — when all `max_connections` permits are
//!    out, the accept loop writes one id-less
//!    `{"error":"overloaded","retry_after_ms":N}` line and closes
//!    instead of spawning a thread (`shed.connections`).
//! 2. *Bounded request queue* — a query arriving while `queue_depth`
//!    requests are already admitted-but-unanswered is refused with a
//!    normal error response whose message starts with `overloaded`
//!    and embeds `retry_after_ms=N` (`shed.requests`).
//! 3. *Rate limit* — an optional per-connection token bucket sheds
//!    the same way (`shed.rate_limited`).
//! 4. *Line limits* — a request line larger than `max_request_bytes`
//!    is answered with one error and the connection closed, without
//!    buffering past the cap (`limits.oversized_requests`); a
//!    connection that stalls **mid-line** past the read timeout is
//!    reaped silently (`limits.read_timeouts`) — idle connections
//!    with no partial line pending are never reaped.
//!
//! **Deadlines.** A query line may carry `deadline_ms` (or inherit
//! the server default): its total budget, measured from decode time,
//! so queue wait counts against it. An entry whose deadline expires
//! while queued is shed before touching the engine
//! (`deadline.shed_queued`); one that expires mid-estimate aborts
//! between Monte Carlo batches (`deadline.exceeded`) and answers
//! `{"id":N,"ok":false,"error":"deadline_exceeded after T trials"}`.
//! The deadline poll sits after each batch's certification check, so
//! a run that finishes on time is bit-identical to an undeadlined
//! one — deadlines never alter the sample schedule of completing
//! runs.
//!
//! **Drain.** The `server.drain` admin op (or SIGTERM under `biorank
//! serve`) stops the accept loop, waits up to `drain_deadline_ms`
//! for every in-flight query on every connection to answer,
//! checkpoints durable worlds when a store is attached, and then
//! lets [`Server::run`] return — so `biorank serve` exits 0. The
//! `{"drained":{"worlds":W}}` response is written before the
//! process goes away. `drain.{requested,completed,
//! worlds_checkpointed,dropped_in_flight}` account for the shutdown.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use biorank_obs::{SlowQueryEntry, SlowQueryLog, DEFAULT_SLOW_LOG_CAPACITY};

use crate::admission::{
    self, ConnectionBudget, FaultPlan, InFlightGauge, LineError, LineReader, TokenBucket,
};
use crate::engine::{AdaptiveConfig, Estimator, QueryEngine, Trials};
use crate::pool::WorkerPool;
use crate::tenancy::{
    MetricsReport, ServiceStats, WorldInfo, WorldManager, WorldSpec, DEFAULT_WORLD_BUDGET,
};
use crate::wire;
use crate::wire::{AdminRequest, AdminResponse, RequestBody, RequestDefaults, ResponseBody};

/// Default slow-query threshold: queries slower than this many
/// microseconds land in the in-memory slow-query ring buffer exposed
/// by the `metrics` admin command.
pub const DEFAULT_SLOW_QUERY_MICROS: u64 = 10_000;

/// Default concurrent-connection budget; the accept loop sheds past it.
pub const DEFAULT_MAX_CONNECTIONS: usize = 256;

/// Default bound on admitted-but-unanswered queries across all
/// connections; query lines arriving at the bound are shed.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Default per-connection socket read timeout. Only a connection
/// stalled **mid-line** is reaped when it fires; idle connections
/// survive it indefinitely.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;

/// Default per-connection socket write timeout.
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 30_000;

/// Default cap on a single request line (1 MiB). The reader never
/// buffers past it.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// Default ceiling on how long a drain waits for in-flight queries.
pub const DEFAULT_DRAIN_DEADLINE_MS: u64 = 30_000;

/// Default `retry_after_ms` hint on shed responses.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker threads executing queries (shared across connections).
    pub workers: usize,
    /// Monte Carlo engine applied to `mc` query requests that leave
    /// their `estimator` field unset. Requests with an explicit
    /// estimator are never overridden, so clients can always pin
    /// the reference traversal engine for cross-checking.
    pub default_estimator: Estimator,
    /// Trial policy applied to query lines that omit the `trials`
    /// field (`biorank serve --trials N` pins the house default back
    /// to a fixed count). Requests with an explicit policy are never
    /// overridden.
    pub default_trials: Trials,
    /// Queries taking at least this many microseconds end-to-end are
    /// recorded in the slow-query ring buffer ([`DEFAULT_SLOW_QUERY_MICROS`]
    /// by default; `u64::MAX` disables the log).
    pub slow_query_micros: u64,
    /// Concurrent-connection budget. The accept loop answers
    /// connection number `max_connections + 1` with one id-less
    /// `{"error":"overloaded","retry_after_ms":N}` line and closes it
    /// instead of spawning a thread, so connection count — and thread
    /// count, see the permit-gated accept loop — stays bounded under
    /// a flood.
    pub max_connections: usize,
    /// Bound on admitted-but-unanswered queries across every
    /// connection. Query lines arriving at the bound are refused with
    /// an `overloaded` error response carrying `retry_after_ms=N`.
    pub queue_depth: usize,
    /// Socket read timeout per connection (0 disables). Only a
    /// connection with a *partial request line* pending is reaped
    /// when it fires — the slow-loris case; idle connections wait
    /// forever.
    pub read_timeout_ms: u64,
    /// Socket write timeout per connection (0 disables), so a peer
    /// that stops reading cannot wedge a writer thread forever.
    pub write_timeout_ms: u64,
    /// Hard cap on one request line's bytes; larger lines are
    /// answered with an error and the connection closed, without the
    /// server ever buffering past the cap.
    pub max_request_bytes: usize,
    /// Optional per-connection token-bucket rate limit
    /// (requests/second with a one-second burst). `None` (the
    /// default) disables it.
    pub rate_limit_per_sec: Option<u32>,
    /// Deadline applied to query lines that omit `deadline_ms`
    /// (`None`, the default, leaves them undeadlined). Explicit
    /// client deadlines always win.
    pub default_deadline_ms: Option<u64>,
    /// How long a drain waits for in-flight queries before giving up
    /// on the stragglers (they are counted in
    /// `drain.dropped_in_flight`, never silently lost).
    pub drain_deadline_ms: u64,
    /// The backoff hint stamped on shed notices and responses.
    pub retry_after_ms: u64,
    /// Fault injection for overload testing (`biorank serve
    /// --fault-plan`). `None` — the default — costs nothing on the
    /// request path.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeOptions {
    /// The serving defaults: cost-based planning (`estimator: "auto"`)
    /// under the adaptive (ε = 0.02, δ = 0.05, ceiling 10⁴) trial
    /// policy. The planner scores the closed exact solution, reduced
    /// traversal MC, the wide word engine, and plain traversal MC
    /// against a fixed cost model per query and runs the cheapest —
    /// the chosen plan is echoed on the response.
    /// Clients opt out of planning with an explicit `estimator:
    /// "word"`/`"traversal"` per request (never overridden), or pin
    /// the paper's fixed reference schedule with an explicit `trials`
    /// number, or server-wide via `biorank serve
    /// --trials/--estimator`.
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            default_estimator: Estimator::Auto,
            default_trials: Trials::Adaptive(AdaptiveConfig::default()),
            slow_query_micros: DEFAULT_SLOW_QUERY_MICROS,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            read_timeout_ms: DEFAULT_READ_TIMEOUT_MS,
            write_timeout_ms: DEFAULT_WRITE_TIMEOUT_MS,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            rate_limit_per_sec: None,
            default_deadline_ms: None,
            drain_deadline_ms: DEFAULT_DRAIN_DEADLINE_MS,
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            fault_plan: None,
        }
    }
}

/// A running query service bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    manager: Arc<WorldManager>,
    pool: Arc<WorkerPool>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    defaults: ServerDefaults,
    slow_log: Arc<SlowQueryLog>,
    budget: Arc<ConnectionBudget>,
    in_flight: Arc<InFlightGauge>,
    drain_deadline_ms: u64,
}

/// The per-request defaults a server substitutes for unset fields,
/// plus the per-connection limits every handler thread enforces.
#[derive(Clone, Copy)]
struct ServerDefaults {
    estimator: Estimator,
    trials: Trials,
    slow_query_micros: u64,
    queue_depth: usize,
    default_deadline_ms: Option<u64>,
    retry_after_ms: u64,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    max_request_bytes: usize,
    rate_limit_per_sec: Option<u32>,
    fault: FaultPlan,
}

/// A handle that can stop — or gracefully drain — a running
/// [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    in_flight: Arc<InFlightGauge>,
    drain_deadline_ms: u64,
    manager: Arc<WorldManager>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port 0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop to exit. Existing connections finish
    /// their in-flight requests and close on client disconnect.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Gracefully drains the server: stops the accept loop, waits up
    /// to the configured drain deadline for every in-flight query on
    /// every connection to answer, and checkpoints durable worlds
    /// when a store is attached. Returns the number of worlds
    /// checkpointed. This is what the `server.drain` admin op and the
    /// CLI's SIGTERM handler call.
    pub fn drain(&self) -> Result<usize, crate::Error> {
        perform_drain(self).map_err(crate::Error::Tenancy)
    }

    /// The service metrics registry — the same counters the `metrics`
    /// admin op reports. In-process access matters after a drain,
    /// when the wire is gone but `drain.*` accounting still needs
    /// auditing.
    pub fn metrics(&self) -> Arc<crate::MetricsRegistry> {
        Arc::clone(self.manager.metrics())
    }
}

impl Server {
    /// Binds a single-world service: `engine` becomes the default
    /// world of a fresh [`WorldManager`] with the default resident
    /// budget, so admin commands work out of the box. Use port 0 to
    /// let the OS pick (tests do).
    ///
    /// The registry records [`WorldSpec::default()`] as the default
    /// world's spec — `bind` cannot know how an arbitrary engine was
    /// built. If yours came from a different seed, federation, or
    /// cache capacity (so `world.list` should say so and
    /// `world.load("default", ...)` idempotence should compare
    /// against the real spec), use [`Server::bind_manager`] with
    /// [`WorldManager::with_default`] and the actual spec.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<QueryEngine>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        Self::bind_manager(
            addr,
            Arc::new(WorldManager::with_default(
                engine,
                WorldSpec::default(),
                DEFAULT_WORLD_BUDGET,
            )),
            opts,
        )
    }

    /// Binds the service over an explicit world registry.
    pub fn bind_manager(
        addr: impl ToSocketAddrs,
        manager: Arc<WorldManager>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // A configured fault plan owns the process-global estimator
        // stall; fault-free servers never touch it.
        if let Some(fault) = opts.fault_plan {
            admission::set_stall_batch_ms(fault.stall_batch_ms);
        }
        Ok(Server {
            listener,
            manager,
            pool: Arc::new(WorkerPool::new(opts.workers)),
            shutdown: Arc::new(AtomicBool::new(false)),
            draining: Arc::new(AtomicBool::new(false)),
            defaults: ServerDefaults {
                estimator: opts.default_estimator,
                trials: opts.default_trials,
                slow_query_micros: opts.slow_query_micros,
                queue_depth: opts.queue_depth.max(1),
                default_deadline_ms: opts.default_deadline_ms,
                retry_after_ms: opts.retry_after_ms,
                read_timeout_ms: opts.read_timeout_ms,
                write_timeout_ms: opts.write_timeout_ms,
                max_request_bytes: opts.max_request_bytes,
                rate_limit_per_sec: opts.rate_limit_per_sec,
                fault: opts.fault_plan.unwrap_or_default(),
            },
            slow_log: Arc::new(SlowQueryLog::new(DEFAULT_SLOW_LOG_CAPACITY)),
            budget: ConnectionBudget::new(opts.max_connections),
            in_flight: InFlightGauge::new(),
            drain_deadline_ms: opts.drain_deadline_ms,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown/drain handle for this server.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            draining: Arc::clone(&self.draining),
            in_flight: Arc::clone(&self.in_flight),
            drain_deadline_ms: self.drain_deadline_ms,
            manager: Arc::clone(&self.manager),
        })
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] is
    /// called. Final per-world cache hit-rates need no shutdown log
    /// line: every metrics snapshot — including one taken on the way
    /// down — folds the cache counters in as `cache.*` gauges (see
    /// [`QueryEngine::metrics_snapshot`]).
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.handle()?;
        let mut conn_id: u64 = 0;
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => {
                    // Persistent accept errors (e.g. EMFILE under fd
                    // exhaustion) fail instantly; back off instead of
                    // spinning a core until the condition clears.
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            };
            if self.defaults.fault.accept_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.defaults.fault.accept_delay_ms));
            }
            // Admission: one permit per live connection. No permit →
            // shed with a one-line notice instead of spawning, so a
            // connection flood is bounded in both threads and memory.
            let permit = match self.budget.try_acquire() {
                Some(permit) => permit,
                None => {
                    self.manager.metrics().counter("shed.connections").inc();
                    shed_connection(stream, self.defaults.retry_after_ms);
                    continue;
                }
            };
            self.manager.metrics().counter("server.connections").inc();
            let manager = Arc::clone(&self.manager);
            let pool = Arc::clone(&self.pool);
            let defaults = self.defaults;
            let slow_log = Arc::clone(&self.slow_log);
            let handle = handle.clone();
            conn_id += 1;
            let spawned = std::thread::Builder::new()
                .name(format!("biorank-conn-{conn_id}"))
                .spawn(move || {
                    let _permit = permit;
                    let _ = handle_connection(stream, manager, pool, defaults, slow_log, handle);
                });
            if spawned.is_err() {
                // Thread exhaustion is an overload signal too; the
                // moved-in stream and permit were dropped with the
                // failed closure, closing the connection.
                self.manager.metrics().counter("shed.connections").inc();
            }
        }
        // A drain promised its caller the response line goes out
        // before the process can exit: linger until every connection
        // thread has returned its permit (the drain client disconnects
        // right after reading its answer), bounded so an unrelated
        // idle connection cannot hold the exit hostage.
        if self.draining.load(Ordering::SeqCst) {
            let linger = Instant::now() + Duration::from_secs(5);
            while self.budget.active() > 0 && Instant::now() < linger {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // Graceful shutdown: fold the final cache counters into each
        // world's metrics registry (as the `cache.*` gauges every
        // snapshot carries) instead of the old stderr hit-rate log —
        // scrapers read the same numbers from the `metrics` admin op,
        // and this last snapshot leaves them in the registries for
        // anything still holding an engine `Arc`.
        let _ = self.manager.world_metrics(false);
        Ok(())
    }
}

/// Best-effort shed notice on a connection the budget refused: write
/// the id-less `overloaded` line (under a short timeout so a
/// non-reading flooder cannot slow the accept loop) and close.
fn shed_connection(stream: TcpStream, retry_after_ms: u64) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
    let mut line = wire::encode_overload_line(retry_after_ms);
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// The drain sequence behind [`ServerHandle::drain`] and the
/// `server.drain` admin op.
fn perform_drain(handle: &ServerHandle) -> Result<usize, crate::tenancy::TenancyError> {
    let metrics = handle.manager.metrics();
    metrics.counter("drain.requested").inc();
    handle.draining.store(true, Ordering::SeqCst);
    handle.shutdown();
    let dropped = handle
        .in_flight
        .wait_idle(Duration::from_millis(handle.drain_deadline_ms));
    if dropped > 0 {
        metrics.counter("drain.dropped_in_flight").add(dropped);
    }
    // Checkpoint durable worlds on the way down; a storeless server
    // has nothing durable to write and drains with worlds = 0.
    let worlds = if handle.manager.store().is_some() {
        let (worlds, _) = handle.manager.checkpoint()?;
        metrics
            .counter("drain.worlds_checkpointed")
            .add(worlds as u64);
        worlds
    } else {
        0
    };
    metrics.counter("drain.completed").inc();
    Ok(worlds)
}

fn handle_connection(
    stream: TcpStream,
    manager: Arc<WorldManager>,
    pool: Arc<WorkerPool>,
    defaults: ServerDefaults,
    slow_log: Arc<SlowQueryLog>,
    handle: ServerHandle,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    if defaults.read_timeout_ms > 0 {
        stream.set_read_timeout(Some(Duration::from_millis(defaults.read_timeout_ms)))?;
    }
    let mut peer_write = stream.try_clone()?;
    if defaults.write_timeout_ms > 0 {
        peer_write.set_write_timeout(Some(Duration::from_millis(defaults.write_timeout_ms)))?;
    }
    let fault = defaults.fault;

    // Writer thread: re-sequences (seq, line) pairs into socket order;
    // a line and its newline leave in ONE `write` on the no-delay
    // socket (module docs, *Transport*).
    let (line_tx, line_rx) = channel::<(u64, String)>();
    let writer = std::thread::spawn(move || {
        let mut next: u64 = 0;
        let mut written: u64 = 0;
        let mut pending: BTreeMap<u64, String> = BTreeMap::new();
        'conn: for (seq, line) in line_rx {
            pending.insert(seq, line);
            while let Some(mut line) = pending.remove(&next) {
                next += 1;
                if fault.response_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(fault.response_delay_ms));
                }
                if fault.blackhole {
                    continue; // injected: swallow the response
                }
                // Injected `short_write`: half the line, never its newline.
                let torn = line.len() / 2;
                line.push('\n');
                let end = if fault.short_write { torn } else { line.len() };
                let sent = peer_write.write_all(&line.as_bytes()[..end]);
                written += 1;
                let hang_up = fault.close_after > 0 && written >= fault.close_after;
                if sent.is_err() || fault.short_write || hang_up {
                    break 'conn;
                }
            }
        }
        // Both directions, not just this clone: the peer gets its EOF
        // and the reader loop stops submitting queries nobody answers.
        let _ = peer_write.shutdown(Shutdown::Both);
    });

    let metrics = Arc::clone(manager.metrics());
    let mut rate = defaults.rate_limit_per_sec.map(TokenBucket::new);
    // Queries this connection has handed to the pool but not yet
    // answered; admin commands barrier on it going to zero.
    let in_flight = Arc::new((Mutex::new(0u64), Condvar::new()));
    let mut reader = LineReader::new(stream, defaults.max_request_bytes);
    let mut seq: u64 = 0;
    let outcome = loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break Ok(()),
            Err(LineError::Oversized { limit }) => {
                // Line framing is lost past the cap: answer once and
                // close. Nothing beyond the cap was ever buffered.
                metrics.counter("limits.oversized_requests").inc();
                let response = wire::Response {
                    id: 0,
                    outcome: Err(format!("request line exceeds {limit} bytes")),
                };
                let _ = line_tx.send((seq, wire::encode_response(&response)));
                break Ok(());
            }
            Err(LineError::Stalled) => {
                // Slow loris: a partial line outlived the read
                // timeout. Reap silently — a peer dribbling bytes is
                // not reading responses either.
                metrics.counter("limits.read_timeouts").inc();
                break Ok(());
            }
            Err(LineError::Io(e)) => break Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        if let Some(bucket) = rate.as_mut() {
            if !bucket.try_take() {
                metrics.counter("shed.rate_limited").inc();
                let response = wire::Response {
                    id: salvage_id(&line),
                    outcome: Err(format!(
                        "overloaded: rate limit exceeded; retry_after_ms={}",
                        bucket.retry_after_ms()
                    )),
                };
                let _ = line_tx.send((seq, wire::encode_response(&response)));
                seq += 1;
                continue;
            }
        }
        dispatch_line(
            line, seq, &manager, &pool, &line_tx, &in_flight, defaults, &slow_log, &handle,
        );
        seq += 1;
    };
    drop(line_tx);
    let _ = writer.join();
    outcome
}

/// Best-effort id recovery from a request line that will not (or did
/// not) decode: a valid JSON object with a non-negative numeric `id`
/// yields it, anything else yields 0.
fn salvage_id(line: &str) -> u64 {
    wire::Json::parse(line)
        .ok()
        .and_then(|v| match v {
            wire::Json::Obj(f) => f.get("id").cloned(),
            _ => None,
        })
        .and_then(|v| match v {
            wire::Json::Num(n) if n >= 0.0 => Some(n as u64),
            _ => None,
        })
        .unwrap_or(0)
}

/// Parses one request line and schedules its execution; encoding
/// failures answer immediately with an error response (id 0 when the
/// id itself was unreadable).
///
/// Queries go to the worker pool and run concurrently. Admin commands
/// are a **per-connection barrier**: the reader first waits for every
/// query it already dispatched to finish, then executes the command
/// inline before reading the next line. A client may therefore
/// pipeline `query, world.swap, query` in one write and the second
/// query is guaranteed to see the post-swap world — without the
/// barrier it could race the swap and be answered from the replaced
/// engine's cache. (Queries in flight on *other* connections still
/// finish against the engine they resolved; that is the documented
/// swap semantics, not staleness a client of this connection can
/// observe.)
#[allow(clippy::too_many_arguments)]
fn dispatch_line(
    line: String,
    seq: u64,
    manager: &Arc<WorldManager>,
    pool: &Arc<WorkerPool>,
    line_tx: &Sender<(u64, String)>,
    in_flight: &Arc<(Mutex<u64>, Condvar)>,
    defaults: ServerDefaults,
    slow_log: &Arc<SlowQueryLog>,
    handle: &ServerHandle,
) {
    // Unset request fields take the server's configured defaults at
    // decode time (`trials`, `deadline_ms`) or just after
    // (`estimator`), so the result-cache key always reflects the
    // policy and engine that actually run. Explicit client choices
    // always win.
    let request_defaults = RequestDefaults {
        trials: defaults.trials,
        deadline_ms: defaults.default_deadline_ms,
    };
    let metrics = Arc::clone(manager.metrics());
    metrics.counter("server.requests").inc();
    let decode_start = Instant::now();
    let decoded = wire::decode_request_with(&line, &request_defaults);
    metrics
        .histogram("server.decode_ns")
        .record(decode_start.elapsed().as_nanos() as u64);
    match decoded {
        Ok(request) => match request.body {
            RequestBody::Query(mut req) => {
                if req.spec.estimator.is_none() {
                    req.spec.estimator = Some(defaults.estimator);
                }
                // Bounded request queue: at `queue_depth`
                // admitted-but-unanswered queries (across every
                // connection), shed now — the client gets its
                // backpressure signal immediately instead of an
                // answer long after it stopped caring.
                if handle.in_flight.current() >= defaults.queue_depth as u64 {
                    metrics.counter("shed.requests").inc();
                    let response = wire::Response {
                        id: request.id,
                        outcome: Err(format!(
                            "overloaded: request queue full; retry_after_ms={}",
                            defaults.retry_after_ms
                        )),
                    };
                    let _ = line_tx.send((seq, wire::encode_response(&response)));
                    return;
                }
                // The deadline clock starts here, at decode: time the
                // request spends queued behind other work counts
                // against its budget.
                let deadline = req
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                let global = handle.in_flight.enter();
                let manager = Arc::clone(manager);
                let line_tx = line_tx.clone();
                let in_flight = Arc::clone(in_flight);
                let slow_log = Arc::clone(slow_log);
                *in_flight.0.lock().expect("in-flight counter") += 1;
                pool.submit(move || {
                    let _global = global;
                    let query_start = Instant::now();
                    let outcome = match deadline {
                        // Expired while queued: shed before touching
                        // the engine (no trials were spent).
                        Some(d) if query_start >= d => {
                            metrics.counter("deadline.shed_queued").inc();
                            Err(format!(
                                "deadline_exceeded after 0 trials: the {} ms budget was \
                                 spent queued",
                                req.deadline_ms.unwrap_or(0)
                            ))
                        }
                        Some(d) => {
                            // Hand the engine only the remaining
                            // budget; its own clock starts at
                            // `execute` entry.
                            req.deadline_ms = Some((d - query_start).as_millis().max(1) as u64);
                            let outcome = execute_query(&manager, &req);
                            // The engine's deadline abort surfaces as
                            // a rendered `deadline_exceeded after N
                            // trials` error (`biorank_rank::Error::
                            // DeadlineExceeded`).
                            if matches!(&outcome, Err(e) if e.contains("deadline_exceeded")) {
                                metrics.counter("deadline.exceeded").inc();
                            }
                            outcome
                        }
                        None => execute_query(&manager, &req),
                    };
                    let micros = query_start.elapsed().as_micros() as u64;
                    if outcome.is_err() {
                        metrics.counter("server.errors").inc();
                    }
                    if micros >= defaults.slow_query_micros {
                        let cached = match &outcome {
                            Ok(ResponseBody::Query(resp)) => resp.cached_scores,
                            _ => false,
                        };
                        slow_log.push(SlowQueryEntry {
                            world: req
                                .world
                                .clone()
                                .unwrap_or_else(|| crate::tenancy::DEFAULT_WORLD.to_string()),
                            value: req.query.value.clone(),
                            method: req.spec.method.wire_name().to_string(),
                            micros,
                            cached,
                        });
                        metrics.counter("server.slow_queries").inc();
                    }
                    let response = wire::Response {
                        id: request.id,
                        outcome,
                    };
                    let encode_start = Instant::now();
                    let encoded = wire::encode_response(&response);
                    metrics
                        .histogram("server.encode_ns")
                        .record(encode_start.elapsed().as_nanos() as u64);
                    let _ = line_tx.send((seq, encoded));
                    // Decrement only after the response is queued, so
                    // a barriered admin command cannot overtake it.
                    let (count, cv) = &*in_flight;
                    *count.lock().expect("in-flight counter") -= 1;
                    cv.notify_all();
                });
            }
            RequestBody::Admin(admin) => {
                let (count, cv) = &**in_flight;
                let mut n = count.lock().expect("in-flight counter");
                while *n > 0 {
                    n = cv.wait(n).expect("in-flight counter");
                }
                drop(n);
                let outcome = execute_admin(manager, admin, slow_log, handle)
                    .map(ResponseBody::Admin)
                    .map_err(|e| e.to_string());
                if outcome.is_err() {
                    metrics.counter("server.errors").inc();
                }
                let response = wire::Response {
                    id: request.id,
                    outcome,
                };
                let _ = line_tx.send((seq, wire::encode_response(&response)));
            }
        },
        Err(e) => {
            metrics.counter("server.errors.decode").inc();
            // Salvage the id if the line was valid JSON with one.
            let response = wire::Response {
                id: salvage_id(&line),
                outcome: Err(e.to_string()),
            };
            let _ = line_tx.send((seq, wire::encode_response(&response)));
        }
    }
}

/// Executes one query against the world registry: resolve the named
/// world, then execute against its engine holding no tenancy lock.
fn execute_query(
    manager: &WorldManager,
    req: &crate::engine::QueryRequest,
) -> Result<ResponseBody, String> {
    let engine = manager
        .resolve(req.world.as_deref())
        .map_err(|e| e.to_string())?;
    engine
        .execute(req)
        .map(ResponseBody::Query)
        .map_err(|e| e.to_string())
}

fn execute_admin(
    manager: &Arc<WorldManager>,
    admin: AdminRequest,
    slow_log: &Arc<SlowQueryLog>,
    handle: &ServerHandle,
) -> Result<AdminResponse, crate::tenancy::TenancyError> {
    match admin {
        AdminRequest::Drain => {
            // The connection barrier already answered this
            // connection's earlier queries; perform_drain waits for
            // everyone else's. The Drained response is encoded and
            // written after drain completes, before run() lets the
            // process exit.
            let worlds = perform_drain(handle)?;
            Ok(AdminResponse::Drained { worlds })
        }
        AdminRequest::Load {
            world,
            spec,
            background: false,
        } => {
            let generation = manager.load(&world, spec)?;
            Ok(AdminResponse::World { world, generation })
        }
        AdminRequest::Load {
            world,
            spec,
            background: true,
        } => match manager.load_background(&world, spec)? {
            // Already resident with the identical spec: nothing to
            // build, answer like a synchronous no-op load.
            Some(generation) => Ok(AdminResponse::World { world, generation }),
            None => Ok(AdminResponse::Loading { world }),
        },
        AdminRequest::Swap { world, spec } => {
            let generation = manager.swap(&world, spec, 0)?;
            Ok(AdminResponse::World { world, generation })
        }
        AdminRequest::Evict { world } => {
            manager.evict(&world)?;
            Ok(AdminResponse::World {
                world,
                generation: 0,
            })
        }
        AdminRequest::Save { world } => {
            let (generation, snapshot_bytes) = manager.save(&world)?;
            Ok(AdminResponse::Saved {
                world,
                generation,
                snapshot_bytes,
            })
        }
        AdminRequest::Checkpoint => {
            let (worlds, snapshot_bytes) = manager.checkpoint()?;
            Ok(AdminResponse::Checkpoint {
                worlds,
                snapshot_bytes,
            })
        }
        AdminRequest::List => Ok(AdminResponse::List(manager.list())),
        AdminRequest::Stats => Ok(AdminResponse::Stats(manager.stats())),
        AdminRequest::Metrics { reset } => {
            // Snapshot everything first, reset after, so a
            // `metrics {reset: true}` scrape never loses a count it
            // did not report.
            let service = manager.metrics().snapshot();
            let worlds = manager.world_metrics(reset);
            let slow_queries = slow_log.entries();
            if reset {
                manager.metrics().reset();
                slow_log.clear();
            }
            Ok(AdminResponse::Metrics(MetricsReport {
                service,
                worlds,
                slow_queries,
            }))
        }
    }
}

/// Connection and socket timeouts for [`Client::connect_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOptions {
    /// Bound on establishing the TCP connection (`None`: the OS
    /// default, typically minutes).
    pub connect_timeout: Option<Duration>,
    /// Bound on each socket read and write once connected (`None`:
    /// block indefinitely). A fired timeout surfaces as
    /// [`crate::Error::Io`] with a `WouldBlock`/`TimedOut` kind.
    pub io_timeout: Option<Duration>,
}

/// A blocking client for the line protocol: buffered reads, and one
/// `write` per outgoing batch straight to the no-delay socket.
pub struct Client {
    stream: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a running service with default (unbounded)
    /// timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit connection/io timeouts.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: ClientOptions) -> std::io::Result<Client> {
        let stream = match opts.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                // connect_timeout needs resolved addresses; try each
                // like TcpStream::connect does.
                let mut last: Option<std::io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true)?;
        if let Some(timeout) = opts.io_timeout {
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
        }
        Ok(Client {
            stream: BufReader::new(stream),
            next_id: 1,
        })
    }

    /// Reads the next response line, which must answer request `id`.
    fn read_response(&mut self, id: u64) -> Result<wire::Response, crate::Error> {
        let mut line = String::new();
        let n = self.stream.read_line(&mut line)?;
        if n == 0 {
            return Err(crate::Error::Remote("server closed connection".into()));
        }
        let line = line.trim_end();
        // The accept loop's connection-shed notice is id-less — it
        // answers the connection, not a request.
        if let Some(retry_after_ms) = wire::parse_overload_line(line) {
            return Err(crate::Error::Overloaded { retry_after_ms });
        }
        let response = wire::decode_response(line)?;
        if response.id != id {
            return Err(crate::Error::Remote(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        Ok(response)
    }

    /// Executes one query with bounded retries on overload sheds:
    /// connection-level shed notices and per-request `overloaded`
    /// errors (queue depth, rate limit) wait out the server's
    /// `retry_after_ms` hint — growing exponentially per attempt,
    /// with decorrelating jitter — and reconnect, since a shed
    /// connection is closed by the server. Any other error, and an
    /// overload persisting past `retries` extra attempts, returns
    /// immediately.
    pub fn query_with_retry(
        addr: impl ToSocketAddrs + Copy,
        opts: ClientOptions,
        req: &crate::engine::QueryRequest,
        retries: u32,
    ) -> Result<crate::engine::QueryResponse, crate::Error> {
        // xorshift64 jitter state; the seed only decorrelates
        // concurrent clients, it carries no meaning.
        let mut jitter = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::from(d.subsec_nanos()) | 1)
            .unwrap_or(1);
        let mut attempt: u32 = 0;
        loop {
            let outcome = Client::connect_with(addr, opts)
                .map_err(crate::Error::Io)
                .and_then(|mut client| client.query(req));
            match outcome {
                Err(e) if e.is_overload() && attempt < retries => {
                    let base = e.retry_after_ms().unwrap_or(DEFAULT_RETRY_AFTER_MS).max(1);
                    let backoff = base.saturating_mul(1u64 << attempt.min(6));
                    jitter ^= jitter << 13;
                    jitter ^= jitter >> 7;
                    jitter ^= jitter << 17;
                    std::thread::sleep(Duration::from_millis(backoff + jitter % backoff));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Executes one query, blocking for the response.
    pub fn query(
        &mut self,
        req: &crate::engine::QueryRequest,
    ) -> Result<crate::engine::QueryResponse, crate::Error> {
        self.query_batch(std::slice::from_ref(req))?.remove(0)
    }

    /// Pipelines a batch of queries over the connection and collects
    /// their responses, in request order.
    pub fn query_batch(
        &mut self,
        reqs: &[crate::engine::QueryRequest],
    ) -> Result<Vec<Result<crate::engine::QueryResponse, crate::Error>>, crate::Error> {
        let first_id = self.next_id;
        let mut batch = String::new();
        for req in reqs {
            let request = wire::Request {
                id: self.next_id,
                body: RequestBody::Query(req.clone()),
            };
            self.next_id += 1;
            batch.push_str(&wire::encode_request(&request));
            batch.push('\n');
        }
        self.stream.get_mut().write_all(batch.as_bytes())?;
        let mut out = Vec::with_capacity(reqs.len());
        for i in 0..reqs.len() {
            out.push(match self.read_response(first_id + i as u64)?.outcome {
                Ok(ResponseBody::Query(resp)) => Ok(resp),
                Ok(ResponseBody::Admin(_)) => Err(crate::Error::Remote(
                    "server answered a query with an admin payload".into(),
                )),
                Err(msg) => Err(crate::Error::Remote(msg)),
            });
        }
        Ok(out)
    }

    /// Sends one admin command, blocking for its payload.
    pub fn admin(&mut self, admin: AdminRequest) -> Result<AdminResponse, crate::Error> {
        let id = self.next_id;
        self.next_id += 1;
        let request = wire::Request {
            id,
            body: RequestBody::Admin(admin),
        };
        let mut line = wire::encode_request(&request);
        line.push('\n');
        self.stream.get_mut().write_all(line.as_bytes())?;
        match self.read_response(id)?.outcome {
            Ok(ResponseBody::Admin(resp)) => Ok(resp),
            Ok(ResponseBody::Query(_)) => Err(crate::Error::Remote(
                "server answered an admin command with a query payload".into(),
            )),
            Err(msg) => Err(crate::Error::Remote(msg)),
        }
    }

    /// `world.load`: make a world resident, blocking until it is;
    /// returns its generation.
    pub fn world_load(&mut self, world: &str, spec: WorldSpec) -> Result<u64, crate::Error> {
        match self.admin(AdminRequest::Load {
            world: world.to_string(),
            spec,
            background: false,
        })? {
            AdminResponse::World { generation, .. } => Ok(generation),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `world.load` with `background: true`: the server answers
    /// immediately and builds the world on a worker thread. Returns
    /// `None` when the build was accepted (poll
    /// [`world_list`](Client::world_list) for the `ready` state) or
    /// `Some(generation)` when the world was already resident with
    /// the identical spec.
    pub fn world_load_background(
        &mut self,
        world: &str,
        spec: WorldSpec,
    ) -> Result<Option<u64>, crate::Error> {
        match self.admin(AdminRequest::Load {
            world: world.to_string(),
            spec,
            background: true,
        })? {
            AdminResponse::Loading { .. } => Ok(None),
            AdminResponse::World { generation, .. } => Ok(Some(generation)),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `world.swap`: replace a world with a freshly built engine whose
    /// caches start cold; returns the new generation.
    pub fn world_swap(&mut self, world: &str, spec: WorldSpec) -> Result<u64, crate::Error> {
        match self.admin(AdminRequest::Swap {
            world: world.to_string(),
            spec,
        })? {
            AdminResponse::World { generation, .. } => Ok(generation),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `world.save`: write a durable snapshot of a resident world
    /// (server must be running with `--data-dir`); returns
    /// `(generation, snapshot bytes)`.
    pub fn world_save(&mut self, world: &str) -> Result<(u64, u64), crate::Error> {
        match self.admin(AdminRequest::Save {
            world: world.to_string(),
        })? {
            AdminResponse::Saved {
                generation,
                snapshot_bytes,
                ..
            } => Ok((generation, snapshot_bytes)),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `checkpoint`: snapshot every resident world and compact the
    /// admin WAL into the manifest; returns `(worlds, total snapshot
    /// bytes)`.
    pub fn checkpoint(&mut self) -> Result<(usize, u64), crate::Error> {
        match self.admin(AdminRequest::Checkpoint)? {
            AdminResponse::Checkpoint {
                worlds,
                snapshot_bytes,
            } => Ok((worlds, snapshot_bytes)),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `server.drain`: gracefully stop the server — no new
    /// connections, in-flight queries finish under the drain
    /// deadline, durable worlds checkpoint. Returns the number of
    /// worlds checkpointed (0 on a storeless server). After the
    /// response, the server's `run()` returns and `biorank serve`
    /// exits 0.
    pub fn drain(&mut self) -> Result<usize, crate::Error> {
        match self.admin(AdminRequest::Drain)? {
            AdminResponse::Drained { worlds } => Ok(worlds),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `world.evict`: drop a resident world.
    pub fn world_evict(&mut self, world: &str) -> Result<(), crate::Error> {
        match self.admin(AdminRequest::Evict {
            world: world.to_string(),
        })? {
            AdminResponse::World { .. } => Ok(()),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `world.list`: snapshot the server's world registry.
    pub fn world_list(&mut self) -> Result<Vec<WorldInfo>, crate::Error> {
        match self.admin(AdminRequest::List)? {
            AdminResponse::List(worlds) => Ok(worlds),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `stats`: per-world cache counters.
    pub fn stats(&mut self) -> Result<ServiceStats, crate::Error> {
        match self.admin(AdminRequest::Stats)? {
            AdminResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected_admin(other)),
        }
    }

    /// `metrics`: the full telemetry snapshot — service counters,
    /// per-world registries, and the slow-query log. `reset: true`
    /// zeroes every counter and histogram (and drains the slow-query
    /// log) after the snapshot is taken, for interval scraping.
    pub fn metrics(&mut self, reset: bool) -> Result<MetricsReport, crate::Error> {
        match self.admin(AdminRequest::Metrics { reset })? {
            AdminResponse::Metrics(report) => Ok(report),
            other => Err(unexpected_admin(other)),
        }
    }
}

fn unexpected_admin(resp: AdminResponse) -> crate::Error {
    crate::Error::Remote(format!("unexpected admin payload: {resp:?}"))
}

impl Client {
    /// Convenience: `query` + unwrap into (answers, total).
    pub fn protein_functions(
        &mut self,
        protein: &str,
        spec: crate::engine::RankerSpec,
    ) -> Result<crate::engine::QueryResponse, crate::Error> {
        self.query(&crate::engine::QueryRequest::protein_functions(
            protein, spec,
        ))
    }
}
