//! The real `biorank` binary, served and queried as an operator would:
//! `serve` boot, replay and drain, the accept-loop shed, and the CLI's
//! printers. Each test spawns its own `biorank serve` on port 0.
//!
//! Waits poll against a bounded deadline; a query is held in flight
//! with `--fault-plan stall_batch_ms=N`, which stalls an estimator run
//! every 8 batches of 64 trials — `--trials 4096` stalls 8 times.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_biorank");
const DEADLINE: Duration = Duration::from_secs(120);
const CERTIFIED_GALT: &str = "query GALT --method mc --top 5 --certify-top";
const STALLED_GALT: &str = "query GALT --method mc --estimator word --trials 4096 --top 3";

/// A running `biorank serve`, killed and reaped on drop.
struct Served {
    child: Child,
    addr: String,
    /// Stdout before the listening line: a durable boot's recovery line.
    boot: String,
    /// Drains the rest of stdout; ends when the process does.
    reader: Option<JoinHandle<()>>,
}

impl Served {
    /// `biorank serve` on port 0 with `args`, over `data_dir` if given.
    fn start(data_dir: Option<&Path>, args: &str) -> Served {
        let mut cmd = Command::new(BIN);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .args(args.split_whitespace())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn biorank serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout after the listening line, so a late
        // println never meets a full or closed pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let deadline = Instant::now() + DEADLINE;
        let mut boot = String::new();
        let addr = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(line) = rx.recv_timeout(left) else {
                let _ = child.kill();
                let _ = child.wait();
                let mut err = String::new();
                let _ = child.stderr.take().map(|mut e| e.read_to_string(&mut err));
                panic!("biorank serve never reported its address:\n{boot}{err}");
            };
            if let Some(rest) = line.strip_prefix("biorank-serve listening on ") {
                break rest.split(' ').next().expect("address").to_string();
            }
            boot.push_str(&line);
            boot.push('\n');
        };
        let reader = Some(reader);
        Served {
            child,
            addr,
            boot,
            reader,
        }
    }

    /// Runs `biorank LINE --addr ADDR`: its stdout, or its stderr.
    fn try_cli(&self, line: &str) -> Result<String, String> {
        run(&format!("{line} --addr {}", self.addr))
    }

    fn cli(&self, line: &str) -> String {
        self.try_cli(line)
            .unwrap_or_else(|e| panic!("biorank {line} failed: {e}"))
    }

    /// Starts `biorank LINE --addr ADDR` in the background.
    fn spawn(&self, line: &str) -> Child {
        Command::new(BIN)
            .args(line.split_whitespace())
            .args(["--addr", &self.addr])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn biorank")
    }

    /// Waits for the process to exit on its own.
    fn exit(&mut self) -> ExitStatus {
        poll("biorank serve to exit", || {
            self.child.try_wait().expect("try_wait")
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.reader.take().map(JoinHandle::join);
    }
}

/// Runs `biorank LINE`: its stdout on success, else its stderr.
fn run(line: &str) -> Result<String, String> {
    let out = Command::new(BIN)
        .args(line.split_whitespace())
        .output()
        .expect("run biorank");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    if out.status.success() {
        Ok(text(out.stdout))
    } else {
        Err(text(out.stderr))
    }
}

/// Sums every `NAME VALUE` row of an `admin metrics` printout.
fn metric(printout: &str, name: &str) -> u64 {
    printout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            if words.next() != Some(name) {
                return None;
            }
            words.next()?.parse::<u64>().ok()
        })
        .sum()
}

fn assert_has(text: &str, needle: &str) {
    assert!(text.contains(needle), "{needle:?} not in:\n{text}");
}

/// Polls `f` until it yields, against the bounded deadline.
fn poll<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + DEADLINE;
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A query's answer lines: its header carries the route and micros.
fn rows(printout: &str) -> Vec<&str> {
    printout
        .lines()
        .filter(|l| !l.contains("candidate functions"))
        .collect()
}

/// Opens a raw connection to `addr`.
fn connect(addr: &str) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).expect("timeout");
    BufReader::new(stream)
}

/// Writes one line and reads one back.
fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn.get_mut(), "{line}").expect("write line");
    let mut reply = String::new();
    conn.read_line(&mut reply).expect("read line");
    reply
}

fn fresh_dir(tag: &str) -> PathBuf {
    let name = format!("biorank-cli-{tag}-{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn certify_top_prints_the_top_k_certificate() {
    let out = Served::start(None, "").cli(CERTIFIED_GALT);
    assert_has(&out, "top-5 + boundary certified");
}

#[test]
fn identical_concurrent_queries_share_one_flight() {
    let served = Served::start(None, "--workers 4 --fault-plan stall_batch_ms=25");
    let clients: Vec<Child> = (0..4).map(|_| served.spawn(STALLED_GALT)).collect();
    for mut client in clients {
        assert!(client.wait().expect("query").success());
    }
    assert!(metric(&served.cli("admin metrics"), "queries.coalesced") > 0);
}

#[test]
fn planned_queries_count_once_and_explain_prints_the_plan() {
    let served = Served::start(None, "");
    for protein in ["GALT", "CFTR", "LPL"] {
        served.cli(&format!("query {protein} --method mc --top 3"));
    }
    let explained = served.cli("query GALT --method mc --top 3 --explain");
    assert_has(&explained, "\n  plan: ");
    assert_has(&explained, "\n    features: ");
    // A pinned estimator routes around the planner.
    served.cli("query GALT --method mc --estimator word --top 3");
    let metrics = served.cli("admin metrics");
    let chosen: u64 = ["exact", "reduced", "word", "traversal"]
        .iter()
        .map(|s| metric(&metrics, &format!("planner.chosen.{s}")))
        .sum();
    assert_eq!(chosen, 4, "one decision per planned request:\n{metrics}");
    assert_eq!(metric(&metrics, "queries"), 5, "4 planned + 1 pinned");
}

#[test]
fn local_and_remote_queries_print_the_same_rows() {
    let served = Served::start(None, "");
    for extra in ["", "--certify-top"] {
        let line = format!("query GALT --method mc --estimator word --trials 1000 --top 5 {extra}");
        let (local, remote) = (run(&line).expect("local query"), served.cli(&line));
        assert!(rows(&local).len() >= 5, "{local}");
        assert_eq!(rows(&local), rows(&remote), "biorank {line}");
    }
}

#[test]
fn an_old_clients_warm_swap_swaps_and_registers_no_warm_metric() {
    let served = Served::start(None, "");
    served.cli("admin world.load aux --seed 99");
    let swap = r#"{"id":1,"cmd":"world.swap","world":"aux","seed":"99","warm":32}"#;
    assert_has(
        &round_trip(&mut connect(&served.addr), swap),
        r#""generation""#,
    );
    let metrics = served.cli("admin metrics");
    assert_eq!(metric(&metrics, "tenancy.swap"), 1);
    assert!(!metrics.contains("warm"), "a warm-up metric:\n{metrics}");
}

#[test]
fn a_restarted_data_dir_serves_the_checkpointed_answers() {
    let dir = fresh_dir("restart");
    let before = {
        let served = Served::start(Some(&dir), "");
        let answers = served.cli(CERTIFIED_GALT);
        served.cli("admin world.load aux --seed 99");
        assert_has(&served.cli("admin checkpoint"), "2 world(s) snapshotted");
        answers
    };
    let served = Served::start(Some(&dir), "");
    assert_has(&served.boot, "2 world(s) recovered");
    let after = served.cli(CERTIFIED_GALT);
    assert_has(&after, "result cache hit");
    assert_eq!(rows(&before), rows(&after));
    let metrics = served.cli("admin metrics");
    assert!(metric(&metrics, "snapshot.results_imported") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_budget_shrink_reboot_keeps_its_eviction() {
    let dir = fresh_dir("shrink");
    Served::start(Some(&dir), "").cli("admin world.load aux --seed 99");
    // Under --worlds 1 only the pinned default fits, so restoring aux
    // evicts it; the boot itself logs nothing else.
    let served = Served::start(Some(&dir), "--worlds 1");
    let metrics = poll("aux's eviction to reach the manifest", || {
        let metrics = served.cli("admin metrics");
        (metric(&metrics, "store.manifest_write") >= 1).then_some(metrics)
    });
    assert_eq!(metric(&metrics, "tenancy.evict.lru"), 1);
    drop(served);
    // A zombie aux would make this two.
    assert_has(&Served::start(Some(&dir), "").boot, "1 world(s) recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_past_the_budget_and_a_drain_answers_in_flight_queries() {
    let args = "--max-connections 2 --fault-plan stall_batch_ms=100";
    let mut served = Served::start(None, args);
    // Fill the budget with two connections, each proven live by a
    // round trip (an unparseable line still gets an error response).
    let mut held: Vec<_> = (0..2).map(|_| connect(&served.addr)).collect();
    for conn in &mut held {
        round_trip(conn, "not json");
    }
    let mut shed = String::new();
    connect(&served.addr).read_line(&mut shed).expect("shed");
    assert_has(&shed, r#""error":"overloaded""#);
    assert_has(&shed, r#""retry_after_ms""#);
    drop(held);
    // A freed permit races the next accept, so any call below may be
    // shed too: each one retries.
    let metrics = poll("the shed to be accounted", || {
        let metrics = served.try_cli("admin metrics").ok()?;
        (metric(&metrics, "shed.connections") >= 1).then_some(metrics)
    });
    // Every metrics read counts its own line: the stalled query's line
    // is decoded once the count outruns the reads.
    let mut seen = metric(&metrics, "server.requests");
    let mut query = served.spawn(&format!("{STALLED_GALT} --retries 5"));
    poll("the query to be in flight", || {
        let metrics = served.try_cli("admin metrics").ok()?;
        seen += 1;
        (metric(&metrics, "server.requests") > seen).then_some(())
    });
    let drained = poll("the drain", || served.try_cli("admin server.drain").ok());
    assert_has(&drained, "server drained");
    assert!(query.wait().expect("query").success(), "a drain lost it");
    assert!(served.exit().success());
}

#[cfg(unix)]
#[test]
fn sigterm_drains_checkpoints_and_exits_zero() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let dir = fresh_dir("sigterm");
    let mut served = Served::start(Some(&dir), "");
    served.cli("admin world.load aux --seed 99");
    served.cli(CERTIFIED_GALT);
    // SAFETY: kill(2) takes two integers and touches no memory; the
    // pid is our own child, not yet reaped.
    assert_eq!(unsafe { kill(served.child.id() as i32, 15) }, 0);
    assert!(served.exit().success());
    let mut stderr = String::new();
    let mut pipe = served.child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    assert_has(&stderr, "drained: 2 world(s) checkpointed");
    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("data dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(files.iter().any(|f| f == "MANIFEST"), "{files:?}");
    assert!(!files.iter().any(|f| f.ends_with(".tmp")), "{files:?}");
    let served = Served::start(Some(&dir), "");
    assert_has(&served.boot, "2 world(s) recovered");
    assert_has(&served.cli(CERTIFIED_GALT), "result cache hit");
    let _ = std::fs::remove_dir_all(&dir);
}
