//! Admission control, backpressure, and fault injection for the
//! serving layer.
//!
//! Everything the server uses to stay standing under load lives here:
//!
//! * [`ConnectionBudget`] — a counting semaphore over accepted
//!   connections. The accept loop takes a [`ConnectionPermit`] per
//!   connection and **sheds** (answers a one-line `overloaded` notice
//!   and closes) instead of spawning a thread when the budget is
//!   exhausted, so a connection flood can never exhaust threads or
//!   memory.
//! * [`InFlightGauge`] — a global count of admitted-but-unanswered
//!   queries. It doubles as the bounded request queue (the server
//!   sheds a request when the gauge is at `queue_depth`) and as the
//!   drain barrier (`server.drain` waits for it to reach zero).
//! * [`TokenBucket`] — a per-connection request rate limiter.
//! * [`LineReader`] — a line reader with a hard per-line byte cap
//!   (oversized requests are rejected without buffering past the cap)
//!   and slow-loris reaping: a read timeout with a *partial line*
//!   pending closes the connection, while a quiet idle connection
//!   survives indefinitely.
//! * [`FaultPlan`] — an injection layer for the overload tests and
//!   `biorank serve --fault-plan`. Disabled (the default) it costs one
//!   branch on an `Option`; enabled it can delay accepts, delay /
//!   blackhole / truncate responses, close connections early, and
//!   stall estimator batches (via the process-global
//!   [`maybe_stall_batch`] hook polled from the Monte Carlo batch loop).

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A counting semaphore bounding concurrent connections.
///
/// `try_acquire` never blocks: the accept loop must shed, not queue,
/// when the budget is gone — a blocked accept loop is exactly the
/// hang this type exists to prevent.
#[derive(Debug)]
pub struct ConnectionBudget {
    max: usize,
    active: AtomicUsize,
}

impl ConnectionBudget {
    /// A budget admitting at most `max` concurrent connections
    /// (clamped to at least one).
    pub fn new(max: usize) -> Arc<ConnectionBudget> {
        Arc::new(ConnectionBudget {
            max: max.max(1),
            active: AtomicUsize::new(0),
        })
    }

    /// Takes one permit, or `None` when the budget is exhausted.
    pub fn try_acquire(self: &Arc<ConnectionBudget>) -> Option<ConnectionPermit> {
        self.active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max).then_some(n + 1)
            })
            .ok()
            .map(|_| ConnectionPermit {
                budget: Arc::clone(self),
            })
    }

    /// Connections currently holding a permit.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The configured maximum.
    pub fn max(&self) -> usize {
        self.max
    }
}

/// An RAII connection permit; dropping it returns the slot.
#[derive(Debug)]
pub struct ConnectionPermit {
    budget: Arc<ConnectionBudget>,
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.budget.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A global gauge of admitted-but-unanswered queries, with a condvar
/// so a drain can wait for it to hit zero.
#[derive(Debug, Default)]
pub struct InFlightGauge {
    count: Mutex<u64>,
    cv: Condvar,
}

impl InFlightGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Arc<InFlightGauge> {
        Arc::new(InFlightGauge::default())
    }

    /// Counts one query in; the returned guard counts it back out on
    /// drop (normal completion and panic unwinding alike).
    pub fn enter(self: &Arc<InFlightGauge>) -> InFlightGuard {
        *self.count.lock().expect("in-flight gauge") += 1;
        InFlightGuard {
            gauge: Arc::clone(self),
        }
    }

    /// The current in-flight count.
    pub fn current(&self) -> u64 {
        *self.count.lock().expect("in-flight gauge")
    }

    /// Blocks until the gauge reaches zero or `timeout` elapses;
    /// returns the count still in flight (0 means fully drained).
    pub fn wait_idle(&self, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut n = self.count.lock().expect("in-flight gauge");
        while *n > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (next, _) = self.cv.wait_timeout(n, left).expect("in-flight gauge");
            n = next;
        }
        *n
    }
}

/// RAII in-flight marker handed out by [`InFlightGauge::enter`].
#[derive(Debug)]
pub struct InFlightGuard {
    gauge: Arc<InFlightGauge>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut n = self.gauge.count.lock().expect("in-flight gauge");
        *n = n.saturating_sub(1);
        drop(n);
        self.gauge.cv.notify_all();
    }
}

/// A token-bucket request rate limiter (per connection: no locking —
/// the reader thread owns it).
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    rate_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling `rate_per_sec` tokens per second with burst
    /// capacity equal to one second of refill (at least one token).
    pub fn new(rate_per_sec: u32) -> TokenBucket {
        let rate = f64::from(rate_per_sec.max(1));
        TokenBucket {
            capacity: rate,
            tokens: rate,
            rate_per_sec: rate,
            last: Instant::now(),
        }
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.capacity);
    }

    /// Takes one token if available.
    pub fn try_take(&mut self) -> bool {
        self.refill();
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Milliseconds until the next token exists (a retry hint; 1 ms
    /// minimum so clients never busy-loop on 0).
    pub fn retry_after_ms(&self) -> u64 {
        let deficit = (1.0 - self.tokens).max(0.0);
        ((deficit / self.rate_per_sec) * 1_000.0).ceil().max(1.0) as u64
    }
}

/// Why [`LineReader::read_line`] gave up on a connection.
#[derive(Debug)]
pub enum LineError {
    /// A single request line exceeded the configured byte cap. The
    /// reader stopped buffering at the cap; line framing is lost, so
    /// the server answers one error and closes.
    Oversized {
        /// The configured cap the line blew through.
        limit: usize,
    },
    /// The read timeout fired with a *partial* line pending — the
    /// slow-loris signature (idle timeouts with an empty buffer do
    /// not produce this; the reader just keeps waiting).
    Stalled,
    /// Any other socket error.
    Io(std::io::Error),
}

/// A line reader over a [`TcpStream`] enforcing a per-line byte cap
/// and slow-loris semantics (see [`LineError`]). The stream's read
/// timeout must be configured by the caller; this type only
/// interprets the resulting `WouldBlock`/`TimedOut` errors.
#[derive(Debug)]
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Scan resume offset: bytes before it are known newline-free.
    scanned: usize,
    max_line: usize,
}

impl LineReader {
    /// Wraps `stream`, capping each line at `max_line` bytes
    /// (exclusive of the newline).
    pub fn new(stream: TcpStream, max_line: usize) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            max_line: max_line.max(1),
        }
    }

    /// Reads the next line: `Ok(Some(line))` without its terminator,
    /// `Ok(None)` on clean EOF (any unterminated trailing bytes are
    /// discarded, matching `BufRead::lines` would-be-garbage).
    pub fn read_line(&mut self) -> Result<Option<String>, LineError> {
        loop {
            if let Some(idx) = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| self.scanned + i)
            {
                let mut line: Vec<u8> = self.buf.drain(..=idx).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_line {
                return Err(LineError::Oversized {
                    limit: self.max_line,
                });
            }
            let mut chunk = [0u8; 4096];
            // Never buffer past the cap: one byte over is enough to
            // convict the line, so reads shrink as the cap nears.
            let want = chunk.len().min(self.max_line + 1 - self.buf.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.buf.is_empty() {
                        continue; // idle, not stalled: keep waiting
                    }
                    return Err(LineError::Stalled);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(LineError::Io(e)),
            }
        }
    }
}

/// Deterministic fault injection for overload testing, parsed from
/// `biorank serve --fault-plan key=value,...` (see [`FaultPlan::parse`]).
///
/// All faults default off; [`FaultPlan::default`] is a no-op plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sleep this long before handling each accepted connection
    /// (`accept_delay_ms=N`).
    pub accept_delay_ms: u64,
    /// Sleep this long before writing each response line
    /// (`response_delay_ms=N`).
    pub response_delay_ms: u64,
    /// Never write responses — drain them silently; the connection
    /// stays open and its requests are still counted (`blackhole`).
    pub blackhole: bool,
    /// Write the first half of the first response line — never its
    /// newline — then shut the connection down in both directions:
    /// the peer reads the fragment, then EOF (`short_write`).
    pub short_write: bool,
    /// Shut the connection down (both directions: the peer reads EOF,
    /// later request lines are not executed) after this many complete
    /// responses; 0 disables (`close_after=N`).
    pub close_after: u64,
    /// Stall every estimator block (`FUSION_LANES` batches) by this long,
    /// process-wide — the lever that makes a deadline fire mid-estimate
    /// (`stall_batch_ms=N`; see [`maybe_stall_batch`]).
    pub stall_batch_ms: u64,
}

impl FaultPlan {
    /// Parses a comma-separated `key=value` plan. Boolean faults
    /// accept a bare key (`blackhole`) or `key=true|false|1|0`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (part, None),
            };
            let num = || -> Result<u64, String> {
                value
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("fault {key:?} needs an integer value"))
            };
            let flag = || -> Result<bool, String> {
                match value {
                    None | Some("true") | Some("1") => Ok(true),
                    Some("false") | Some("0") => Ok(false),
                    Some(other) => Err(format!("fault {key:?}: {other:?} is not a boolean")),
                }
            };
            match key {
                "accept_delay_ms" => plan.accept_delay_ms = num()?,
                "response_delay_ms" => plan.response_delay_ms = num()?,
                "blackhole" => plan.blackhole = flag()?,
                "short_write" => plan.short_write = flag()?,
                "close_after" => plan.close_after = num()?,
                "stall_batch_ms" => plan.stall_batch_ms = num()?,
                other => return Err(format!("unknown fault {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Process-global estimator stall, in nanoseconds. A process-global
/// (rather than a field threaded through `WorldManager` into every
/// engine) keeps the fault layer invisible to the query path's types;
/// the cost when disabled is one relaxed load per estimator block.
static STALL_BATCH_NS: AtomicU64 = AtomicU64::new(0);

/// Installs (or, with 0, clears) the process-wide per-batch estimator
/// stall. Called by the server when a [`FaultPlan`] is configured.
pub fn set_stall_batch_ms(ms: u64) {
    STALL_BATCH_NS.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
}

/// The estimator-side fault hook: sleeps for the configured stall (a
/// no-op when none is installed). Every sequential Monte Carlo run
/// polls it after each `FUSION_LANES`-th batch, fixed or adaptive.
pub fn maybe_stall_batch() {
    let ns = STALL_BATCH_NS.load(Ordering::Relaxed);
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sheds_at_max_and_permits_return() {
        let budget = ConnectionBudget::new(2);
        let a = budget.try_acquire().expect("first permit");
        let _b = budget.try_acquire().expect("second permit");
        assert!(budget.try_acquire().is_none());
        assert_eq!(budget.active(), 2);
        drop(a);
        assert_eq!(budget.active(), 1);
        assert!(budget.try_acquire().is_some());
    }

    #[test]
    fn budget_clamps_to_one() {
        let budget = ConnectionBudget::new(0);
        assert_eq!(budget.max(), 1);
        let _p = budget.try_acquire().expect("one permit");
        assert!(budget.try_acquire().is_none());
    }

    #[test]
    fn gauge_counts_and_drains() {
        let gauge = InFlightGauge::new();
        let a = gauge.enter();
        let b = gauge.enter();
        assert_eq!(gauge.current(), 2);
        // Still busy: the wait times out reporting the stragglers.
        assert_eq!(gauge.wait_idle(Duration::from_millis(10)), 2);
        let waiter = {
            let gauge = Arc::clone(&gauge);
            std::thread::spawn(move || gauge.wait_idle(Duration::from_secs(5)))
        };
        drop(a);
        drop(b);
        assert_eq!(waiter.join().expect("waiter"), 0);
        assert_eq!(gauge.current(), 0);
    }

    #[test]
    fn token_bucket_limits_burst_then_refills() {
        let mut bucket = TokenBucket::new(10);
        let taken = (0..20).filter(|_| bucket.try_take()).count();
        assert_eq!(taken, 10, "burst capacity is one second of refill");
        assert!(bucket.retry_after_ms() >= 1);
        std::thread::sleep(Duration::from_millis(150));
        assert!(bucket.try_take(), "refill restores tokens");
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        assert_eq!(FaultPlan::parse("").expect("empty"), FaultPlan::default());
        let plan = FaultPlan::parse("accept_delay_ms=5,blackhole,close_after=3").expect("plan");
        assert_eq!(plan.accept_delay_ms, 5);
        assert!(plan.blackhole);
        assert_eq!(plan.close_after, 3);
        assert!(!plan.short_write);
        let plan = FaultPlan::parse("short_write=true,stall_batch_ms=20").expect("plan");
        assert!(plan.short_write);
        assert_eq!(plan.stall_batch_ms, 20);
        assert!(FaultPlan::parse("explode=1").is_err());
        assert!(FaultPlan::parse("blackhole=maybe").is_err());
        assert!(FaultPlan::parse("close_after").is_err());
    }

    #[test]
    fn line_reader_caps_and_splits() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"alpha\r\nbeta\n").expect("write");
            s.write_all(&vec![b'x'; 64]).expect("flood");
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = LineReader::new(stream, 32);
        assert_eq!(reader.read_line().expect("line").as_deref(), Some("alpha"));
        assert_eq!(reader.read_line().expect("line").as_deref(), Some("beta"));
        match reader.read_line() {
            Err(LineError::Oversized { limit: 32 }) => {}
            other => panic!("expected oversized, got {other:?}"),
        }
        client.join().expect("client");
    }

    #[test]
    fn line_reader_reaps_mid_line_stall_but_not_idle() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"whole\n").expect("write");
            s.write_all(b"dribb").expect("partial"); // no newline, then silence
            std::thread::sleep(Duration::from_millis(400));
        });
        let (stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let mut reader = LineReader::new(stream, 1024);
        // Idle gaps before a complete line are absorbed silently.
        assert_eq!(reader.read_line().expect("line").as_deref(), Some("whole"));
        match reader.read_line() {
            Err(LineError::Stalled) => {}
            other => panic!("expected stalled, got {other:?}"),
        }
        client.join().expect("client");
    }

    #[test]
    fn stall_hook_is_noop_when_cleared() {
        set_stall_batch_ms(0);
        let start = Instant::now();
        for _ in 0..1_000 {
            maybe_stall_batch();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
        set_stall_batch_ms(5);
        let start = Instant::now();
        maybe_stall_batch();
        assert!(start.elapsed() >= Duration::from_millis(5));
        set_stall_batch_ms(0);
    }
}
