//! The line-delimited wire protocol of `biorank serve`.
//!
//! One JSON object per line in each direction. Hand-rolled encoder and
//! recursive-descent parser — the workspace is deliberately std-only,
//! and the protocol surface is small enough that a dependency would
//! cost more than these ~300 lines.
//!
//! Query request line (the optional `cmd` defaults to `"query"`;
//! `world` routes to a resident world, `parallel` opts into
//! intra-query parallel Monte Carlo, and `estimator` — `"traversal"`,
//! `"word"`, or `"auto"` — selects the Monte Carlo engine for the
//! `mc` method, with `"auto"` deferring to the cost-based planner;
//! absent means the server's configured default, which is `"auto"`
//! unless `biorank serve --estimator` says otherwise):
//!
//! ```json
//! {"id":1,"input":"EntrezProtein","attribute":"name","value":"GALT",
//!  "outputs":["AmiGO"],"method":"mc","trials":1000,"seed":"42","top":10,
//!  "world":"staging","parallel":true,"estimator":"word"}
//! ```
//!
//! `trials` is either a number (run exactly that many Monte Carlo
//! trials) or an adaptive policy object — run 64-trial batches until
//! the Theorem 3.1 bound certifies the ranking at (ε, δ) or the
//! ceiling hits, each field defaulting as shown:
//!
//! ```json
//! {"id":1, "...":"...", "method":"mc",
//!  "trials":{"epsilon":0.02,"delta":0.05,"max":10000}}
//! ```
//!
//! Adding `"certify_top":true` to an adaptive request restricts
//! certification to the `top` prefix: batches stop once the top-k
//! answers and the boundary gap to rank k+1 resolve, ignoring gaps
//! further down.
//!
//! Response line (success). Adaptive executions echo their stop
//! certificate — `mode` says whether the full ranking (`"full"`) or
//! only a `k`-prefix (`"top_k"`, with the certified `k`) was checked;
//! fixed and deterministic executions omit the field:
//!
//! ```json
//! {"id":1,"ok":true,"total":15,"cached_graph":false,"cached_scores":false,
//!  "micros":8123,"certificate":{"trials_used":448,"epsilon":0.088,
//!  "certified":true,"mode":"full"},"answers":[{"key":"GO:0004335",
//!  "label":"galactokinase activity","score":0.91,"rank_lo":1,"rank_hi":1}]}
//! ```
//!
//! Adding `"trace":true` to a query request echoes the per-stage span
//! breakdown in the response (`"trace":[{"stage":"cache","nanos":412},
//! ...]`). Tracing is purely observational — it changes no answer bit
//! and no cache key.
//!
//! A planned execution (`"estimator":"auto"` on a reliability /
//! Monte Carlo method) additionally echoes the planner's verdict next
//! to the certificate:
//!
//! ```json
//! {"id":1,"ok":true,"...":"...","plan":{"strategy":"word",
//!  "predicted_ns":1685000,"fallback":false,"features":{"nodes":185,
//!  "edges":329,"answers":97,"acyclic":true,"reduced_nodes":129,
//!  "reduced_edges":269,"schema_reducible":false,"max_trials":10000}}}
//! ```
//!
//! Like `trace`, the plan echo is observational only: the planner
//! resolves `auto` onto a concrete strategy *before* cache keying, so
//! the answers and certificate are byte-identical to explicitly
//! requesting that strategy, and auto/explicit traffic share cache
//! entries.
//!
//! Admin request lines set `cmd` to one of `world.load`, `world.swap`,
//! `world.evict`, `world.list`, `stats`, `metrics`:
//!
//! ```json
//! {"id":2,"cmd":"world.load","world":"staging","seed":"99","extended":false,"cache":512}
//! {"id":3,"cmd":"world.list"}
//! {"id":4,"cmd":"stats"}
//! {"id":5,"cmd":"metrics","reset":false}
//! ```
//!
//! answered by `{"id":2,"ok":true,"world":"staging","generation":1}`,
//! a `worlds` array (each entry carrying a `state` of `"ready"` or
//! `"loading"`), and a per-world `stats` object respectively.
//! `metrics` answers the full registry snapshot — service-level
//! counters/histograms, per-world engine metrics, and the slow-query
//! ring buffer; `"reset":true` zeroes every counter after the
//! snapshot.
//! `world.load` with `"background":true` answers
//! `{"id":2,"ok":true,"world":"staging","status":"loading"}`
//! immediately and installs the world from a worker thread when built.
//!
//! Response line (failure): `{"id":1,"ok":false,"error":"..."}`.
//!
//! Floats are printed with Rust's shortest-roundtrip formatting, so a
//! score survives encode→decode bit-exactly — the cross-wire
//! determinism test relies on this.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use biorank_mediator::ExploratoryQuery;

use biorank_obs::{
    Histogram, HistogramBucket, HistogramSnapshot, MetricsSnapshot, SlowQueryEntry, TraceSpan,
};
use biorank_rank::{
    Certificate, CertificateMode, GraphFeatures, Plan, PlanFeatures, Strategy, TrialsPolicy,
};

use crate::cache::CacheStats;
use crate::engine::{
    AdaptiveConfig, EngineStats, Estimator, Method, QueryRequest, QueryResponse, RankedAnswer,
    RankerSpec, Trials,
};
use crate::tenancy::{
    MetricsReport, ServiceStats, WorldInfo, WorldMetrics, WorldSpec, WorldState, WorldStats,
};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` so encoding is order-stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest roundtrip representation; integers print
                    // without a trailing `.0` which JSON permits.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejecting trailing garbage).
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A protocol decoding error.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Human-readable description, including byte position for syntax
    /// errors.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn wire_err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> WireError {
        wire_err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, WireError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uXXXX with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        None // high surrogate not followed by a low one
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Re-synchronize on UTF-8 boundaries: step back and
                    // take the full character.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, WireError> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// One request line: an id chosen by the client plus its body.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The query or admin command to execute.
    pub body: RequestBody,
}

/// What a request line asks the server to do.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Execute a query (the default when `cmd` is absent).
    Query(QueryRequest),
    /// An admin control-plane command.
    Admin(AdminRequest),
}

/// The admin control plane: world lifecycle plus observability.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminRequest {
    /// `world.load` — make a world resident (no-op if identical).
    Load {
        /// Registry name.
        world: String,
        /// How to build it.
        spec: WorldSpec,
        /// `true` answers `{"status":"loading"}` immediately and
        /// builds the world on a worker thread; `false` (the default)
        /// blocks until the world is resident.
        background: bool,
    },
    /// `world.swap` — replace a world with a freshly built engine,
    /// invalidating both of its cache layers.
    Swap {
        /// Registry name.
        world: String,
        /// How to build the replacement.
        spec: WorldSpec,
    },
    /// `world.evict` — drop a resident world.
    Evict {
        /// Registry name.
        world: String,
    },
    /// `world.save` — write a durable snapshot of one resident world
    /// (requires `biorank serve --data-dir`).
    Save {
        /// Registry name.
        world: String,
    },
    /// `checkpoint` — snapshot every resident world, rewrite the
    /// manifest, and truncate the admin WAL (requires `--data-dir`).
    Checkpoint,
    /// `world.list` — snapshot the registry.
    List,
    /// `stats` — per-world cache counters.
    Stats,
    /// `metrics` — the full metrics-registry snapshot (service-level
    /// plus per-world), with the slow-query log.
    Metrics {
        /// Zero every counter/gauge/histogram after the snapshot (the
        /// returned payload is always the pre-reset state).
        reset: bool,
    },
    /// `server.drain` — graceful shutdown: stop accepting connections,
    /// let in-flight requests finish under the serve's drain deadline,
    /// checkpoint durable worlds (when `--data-dir` is attached), then
    /// exit 0. The response is sent before the process exits.
    Drain,
}

/// A successful admin command's payload.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminResponse {
    /// Outcome of `world.load` / `world.swap` / `world.evict`.
    World {
        /// The world operated on.
        world: String,
        /// Its generation after the operation (0 for an eviction).
        generation: u64,
    },
    /// Outcome of a background `world.load`: the build was accepted
    /// and is running on a worker thread; poll `world.list` for the
    /// `ready` state.
    Loading {
        /// The world being built.
        world: String,
    },
    /// Outcome of `world.save`: the snapshot was written and fsync'd.
    Saved {
        /// The world snapshotted.
        world: String,
        /// Its generation at snapshot time.
        generation: u64,
        /// On-disk size of the snapshot container, in bytes.
        snapshot_bytes: u64,
    },
    /// Outcome of `checkpoint`: the manifest was rewritten and the
    /// WAL truncated.
    Checkpoint {
        /// Resident worlds snapshotted.
        worlds: usize,
        /// Total on-disk size of the snapshots written, in bytes.
        snapshot_bytes: u64,
    },
    /// Outcome of `world.list`.
    List(Vec<WorldInfo>),
    /// Outcome of `stats`.
    Stats(ServiceStats),
    /// Outcome of `metrics`.
    Metrics(MetricsReport),
    /// Outcome of `server.drain`: every in-flight request finished (or
    /// the drain deadline fired) and durable worlds were checkpointed.
    Drained {
        /// Resident worlds checkpointed on the way out (0 when the
        /// serve has no `--data-dir`).
        worlds: usize,
    },
}

/// One response line: the echoed id plus outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The correlation id of the request this answers.
    pub id: u64,
    /// The payload, or a rendered error message.
    pub outcome: Result<ResponseBody, String>,
}

/// A successful response's payload.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Ranked answers for a query request.
    Query(QueryResponse),
    /// An admin command's payload.
    Admin(AdminResponse),
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn get<'a>(fields: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, WireError> {
    fields
        .get(key)
        .ok_or_else(|| wire_err(format!("missing field {key:?}")))
}

fn get_str(fields: &BTreeMap<String, Json>, key: &str) -> Result<String, WireError> {
    get(fields, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| wire_err(format!("field {key:?} must be a string")))
}

fn get_u64(fields: &BTreeMap<String, Json>, key: &str) -> Result<u64, WireError> {
    get(fields, key)?
        .as_u64()
        .ok_or_else(|| wire_err(format!("field {key:?} must be a non-negative integer")))
}

/// Encodes a request as one JSON line (no trailing newline).
pub fn encode_request(r: &Request) -> String {
    match &r.body {
        RequestBody::Query(req) => encode_query_request(r.id, req),
        RequestBody::Admin(admin) => encode_admin_request(r.id, admin),
    }
}

fn encode_query_request(id: u64, req: &QueryRequest) -> String {
    let q = &req.query;
    let mut fields = vec![
        ("id", Json::Num(id as f64)),
        ("input", Json::Str(q.input.clone())),
        ("attribute", Json::Str(q.attribute.clone())),
        ("value", Json::Str(q.value.clone())),
        (
            "outputs",
            Json::Arr(q.outputs.iter().cloned().map(Json::Str).collect()),
        ),
        ("method", Json::Str(req.spec.method.wire_name().into())),
        ("trials", encode_trials(&req.spec.trials)),
        // As a decimal string: JSON numbers are f64 here, which would
        // silently corrupt seeds above 2^53 and break the cross-wire
        // determinism guarantee.
        ("seed", Json::Str(req.spec.seed.to_string())),
    ];
    if req.spec.parallel {
        fields.push(("parallel", Json::Bool(true)));
    }
    if let Some(estimator) = req.spec.estimator {
        fields.push(("estimator", Json::Str(estimator.wire_name().into())));
    }
    if let Some(top) = req.top {
        fields.push(("top", Json::Num(top as f64)));
    }
    if req.certify_top {
        fields.push(("certify_top", Json::Bool(true)));
    }
    if let Some(world) = &req.world {
        fields.push(("world", Json::Str(world.clone())));
    }
    if req.trace {
        fields.push(("trace", Json::Bool(true)));
    }
    if let Some(ms) = req.deadline_ms {
        fields.push(("deadline_ms", Json::Num(ms as f64)));
    }
    obj(fields).encode()
}

/// Encodes the trial policy: a plain number for fixed counts, an
/// object for the adaptive policy.
fn encode_trials(trials: &Trials) -> Json {
    match trials {
        Trials::Fixed(n) => Json::Num(f64::from(*n)),
        Trials::Adaptive(cfg) => obj(vec![
            ("epsilon", Json::Num(cfg.epsilon)),
            ("delta", Json::Num(cfg.delta)),
            ("max", Json::Num(f64::from(cfg.max_trials))),
        ]),
    }
}

/// Decodes the trial policy (see [`encode_trials`]); absent adaptive
/// fields default to the paper's M1 parameters.
fn decode_trials(v: &Json) -> Result<Trials, WireError> {
    match v {
        Json::Num(_) => v
            .as_u64()
            .and_then(|t| u32::try_from(t).ok())
            .map(Trials::Fixed)
            .ok_or_else(|| wire_err("field \"trials\" must fit in u32")),
        Json::Obj(fields) => {
            let defaults = AdaptiveConfig::default();
            let num = |key: &str, fallback: f64| -> Result<f64, WireError> {
                fields
                    .get(key)
                    .map(|v| {
                        v.as_f64()
                            .filter(|x| x.is_finite())
                            .ok_or_else(|| wire_err(format!("adaptive {key:?} must be a number")))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(fallback))
            };
            let max_trials = fields
                .get("max")
                .map(|v| {
                    v.as_u64()
                        .and_then(|t| u32::try_from(t).ok())
                        .ok_or_else(|| wire_err("adaptive \"max\" must fit in u32"))
                })
                .transpose()?
                .unwrap_or(defaults.max_trials);
            Ok(Trials::Adaptive(AdaptiveConfig {
                epsilon: num("epsilon", defaults.epsilon)?,
                delta: num("delta", defaults.delta)?,
                max_trials,
            }))
        }
        _ => Err(wire_err(
            "field \"trials\" must be a number or an adaptive policy object",
        )),
    }
}

fn encode_admin_request(id: u64, admin: &AdminRequest) -> String {
    let mut fields = vec![("id", Json::Num(id as f64))];
    let spec_fields = |world: &str, spec: &WorldSpec, fields: &mut Vec<(&str, Json)>| {
        fields.push(("world", Json::Str(world.to_string())));
        fields.push(("seed", Json::Str(spec.seed.to_string())));
        fields.push(("extended", Json::Bool(spec.extended)));
        fields.push(("cache", Json::Num(spec.cache_capacity as f64)));
    };
    match admin {
        AdminRequest::Load {
            world,
            spec,
            background,
        } => {
            fields.push(("cmd", Json::Str("world.load".into())));
            spec_fields(world, spec, &mut fields);
            if *background {
                fields.push(("background", Json::Bool(true)));
            }
        }
        AdminRequest::Swap { world, spec } => {
            fields.push(("cmd", Json::Str("world.swap".into())));
            spec_fields(world, spec, &mut fields);
        }
        AdminRequest::Evict { world } => {
            fields.push(("cmd", Json::Str("world.evict".into())));
            fields.push(("world", Json::Str(world.clone())));
        }
        AdminRequest::Save { world } => {
            fields.push(("cmd", Json::Str("world.save".into())));
            fields.push(("world", Json::Str(world.clone())));
        }
        AdminRequest::Checkpoint => fields.push(("cmd", Json::Str("checkpoint".into()))),
        AdminRequest::List => fields.push(("cmd", Json::Str("world.list".into()))),
        AdminRequest::Stats => fields.push(("cmd", Json::Str("stats".into()))),
        AdminRequest::Metrics { reset } => {
            fields.push(("cmd", Json::Str("metrics".into())));
            if *reset {
                fields.push(("reset", Json::Bool(true)));
            }
        }
        AdminRequest::Drain => fields.push(("cmd", Json::Str("server.drain".into()))),
    }
    obj(fields).encode()
}

/// Defaults applied to request fields the client left unset. The
/// protocol-level defaults ([`RequestDefaults::default`]) match the
/// paper's fixed configuration; a server substitutes its own (from
/// `biorank serve --estimator/--adaptive-*`) via
/// [`decode_request_with`], so the result-cache key always reflects
/// what actually executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestDefaults {
    /// Trial policy for query lines without a `trials` field.
    pub trials: Trials,
    /// Execution deadline for query lines without a `deadline_ms`
    /// field (`None` = no default deadline, the protocol-level
    /// default). A request can always pin its own `deadline_ms`; there
    /// is no wire spelling for "opt out of the server default".
    pub deadline_ms: Option<u64>,
}

impl Default for RequestDefaults {
    fn default() -> Self {
        RequestDefaults {
            trials: Trials::Fixed(RankerSpec::DEFAULT_TRIALS),
            deadline_ms: None,
        }
    }
}

/// Decodes one request line with the protocol-level defaults. Lines
/// without a `cmd` field (or with `cmd: "query"`) are query requests;
/// everything else is an admin command.
pub fn decode_request(line: &str) -> Result<Request, WireError> {
    decode_request_with(line, &RequestDefaults::default())
}

/// Decodes one request line, filling unset fields from `defaults`
/// (the server's configured policies).
pub fn decode_request_with(line: &str, defaults: &RequestDefaults) -> Result<Request, WireError> {
    let Json::Obj(fields) = Json::parse(line)? else {
        return Err(wire_err("request must be a JSON object"));
    };
    let id = get_u64(&fields, "id")?;
    let cmd = match fields.get("cmd") {
        None => "query".to_string(),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| wire_err("field \"cmd\" must be a string"))?,
    };
    let body = match cmd.as_str() {
        "query" => RequestBody::Query(decode_query_body(&fields, defaults)?),
        "world.load" => RequestBody::Admin(AdminRequest::Load {
            world: get_str(&fields, "world")?,
            spec: decode_world_spec(&fields)?,
            background: fields
                .get("background")
                .map(|v| {
                    v.as_bool()
                        .ok_or_else(|| wire_err("field \"background\" must be a boolean"))
                })
                .transpose()?
                .unwrap_or(false),
        }),
        "world.swap" => RequestBody::Admin(AdminRequest::Swap {
            world: get_str(&fields, "world")?,
            spec: decode_world_spec(&fields)?,
        }),
        "world.evict" => RequestBody::Admin(AdminRequest::Evict {
            world: get_str(&fields, "world")?,
        }),
        "world.save" => RequestBody::Admin(AdminRequest::Save {
            world: get_str(&fields, "world")?,
        }),
        "checkpoint" => RequestBody::Admin(AdminRequest::Checkpoint),
        "server.drain" => RequestBody::Admin(AdminRequest::Drain),
        "world.list" => RequestBody::Admin(AdminRequest::List),
        "stats" => RequestBody::Admin(AdminRequest::Stats),
        "metrics" => RequestBody::Admin(AdminRequest::Metrics {
            reset: fields
                .get("reset")
                .map(|v| {
                    v.as_bool()
                        .ok_or_else(|| wire_err("field \"reset\" must be a boolean"))
                })
                .transpose()?
                .unwrap_or(false),
        }),
        other => return Err(wire_err(format!("unknown cmd {other:?}"))),
    };
    Ok(Request { id, body })
}

/// Decodes the optional world-spec fields of `world.load`/`world.swap`
/// (`seed`, `extended`, `cache`), defaulting absent ones.
fn decode_world_spec(fields: &BTreeMap<String, Json>) -> Result<WorldSpec, WireError> {
    let defaults = WorldSpec::default();
    let seed = fields
        .get("seed")
        .map(decode_seed)
        .transpose()?
        .unwrap_or(defaults.seed);
    let extended = fields
        .get("extended")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| wire_err("field \"extended\" must be a boolean"))
        })
        .transpose()?
        .unwrap_or(defaults.extended);
    let cache_capacity = fields
        .get("cache")
        .map(|v| {
            v.as_u64()
                .map(|c| c as usize)
                .ok_or_else(|| wire_err("field \"cache\" must be a non-negative integer"))
        })
        .transpose()?
        .unwrap_or(defaults.cache_capacity);
    Ok(WorldSpec {
        seed,
        extended,
        cache_capacity,
    })
}

/// Accept both a decimal string (the canonical encoding, exact for all
/// u64) and a small JSON integer (hand-written clients).
fn decode_seed(v: &Json) -> Result<u64, WireError> {
    match v {
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|_| wire_err("field \"seed\" must be a u64 decimal string")),
        _ => v
            .as_u64()
            .ok_or_else(|| wire_err("field \"seed\" must be a non-negative integer")),
    }
}

fn decode_query_body(
    fields: &BTreeMap<String, Json>,
    defaults: &RequestDefaults,
) -> Result<QueryRequest, WireError> {
    let outputs = match get(fields, "outputs")? {
        Json::Arr(items) => items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| wire_err("outputs must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(wire_err("field \"outputs\" must be an array")),
    };
    let method = get_str(&fields, "method")?;
    let method =
        Method::parse(&method).ok_or_else(|| wire_err(format!("unknown method {method:?}")))?;
    let trials = fields
        .get("trials")
        .map(decode_trials)
        .transpose()?
        .unwrap_or(defaults.trials);
    let seed = fields
        .get("seed")
        .map(decode_seed)
        .transpose()?
        .unwrap_or(RankerSpec::DEFAULT_SEED);
    let parallel = fields
        .get("parallel")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| wire_err("field \"parallel\" must be a boolean"))
        })
        .transpose()?
        .unwrap_or(false);
    let estimator = fields
        .get("estimator")
        .map(|v| {
            v.as_str().and_then(Estimator::parse).ok_or_else(|| {
                wire_err("field \"estimator\" must be \"traversal\", \"word\", or \"auto\"")
            })
        })
        .transpose()?;
    let top = fields
        .get("top")
        .map(|v| {
            v.as_u64()
                .map(|t| t as usize)
                .ok_or_else(|| wire_err("field \"top\" must be a non-negative integer"))
        })
        .transpose()?;
    let certify_top = fields
        .get("certify_top")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| wire_err("field \"certify_top\" must be a boolean"))
        })
        .transpose()?
        .unwrap_or(false);
    let world = fields
        .get("world")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| wire_err("field \"world\" must be a string"))
        })
        .transpose()?;
    let trace = fields
        .get("trace")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| wire_err("field \"trace\" must be a boolean"))
        })
        .transpose()?
        .unwrap_or(false);
    let deadline_ms = fields
        .get("deadline_ms")
        .map(|v| {
            v.as_u64()
                .filter(|&ms| ms > 0)
                .ok_or_else(|| wire_err("field \"deadline_ms\" must be a positive integer"))
        })
        .transpose()?
        .or(defaults.deadline_ms);
    Ok(QueryRequest {
        query: ExploratoryQuery {
            input: get_str(fields, "input")?,
            attribute: get_str(fields, "attribute")?,
            value: get_str(fields, "value")?,
            outputs,
        },
        spec: RankerSpec {
            method,
            trials,
            seed,
            parallel,
            estimator,
        },
        top,
        certify_top,
        world,
        trace,
        deadline_ms,
    })
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(r: &Response) -> String {
    match &r.outcome {
        Ok(ResponseBody::Query(resp)) => {
            let mut fields = vec![
                ("id", Json::Num(r.id as f64)),
                ("ok", Json::Bool(true)),
                ("total", Json::Num(resp.total_answers as f64)),
                ("cached_graph", Json::Bool(resp.cached_graph)),
                ("cached_scores", Json::Bool(resp.cached_scores)),
                ("micros", Json::Num(resp.micros as f64)),
                (
                    "answers",
                    Json::Arr(
                        resp.answers
                            .iter()
                            .map(|a| {
                                obj(vec![
                                    ("key", Json::Str(a.key.clone())),
                                    ("label", Json::Str(a.label.clone())),
                                    ("score", Json::Num(a.score)),
                                    ("rank_lo", Json::Num(a.rank_lo as f64)),
                                    ("rank_hi", Json::Num(a.rank_hi as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ];
            if let Some(cert) = &resp.certificate {
                let mut cert_fields = vec![
                    ("trials_used", Json::Num(f64::from(cert.trials_used))),
                    // Scores round-trip bit-exactly, so the
                    // certified ε does too.
                    ("epsilon", Json::Num(cert.epsilon)),
                    ("certified", Json::Bool(cert.certified)),
                ];
                match cert.mode {
                    CertificateMode::Full => {
                        cert_fields.push(("mode", Json::Str("full".into())));
                    }
                    CertificateMode::TopK(k) => {
                        cert_fields.push(("mode", Json::Str("top_k".into())));
                        cert_fields.push(("k", Json::Num(f64::from(k))));
                    }
                }
                fields.push(("certificate", obj(cert_fields)));
            }
            if !resp.trace.is_empty() {
                fields.push((
                    "trace",
                    Json::Arr(
                        resp.trace
                            .iter()
                            .map(|span| {
                                obj(vec![
                                    ("stage", Json::Str(span.stage.clone())),
                                    ("nanos", Json::Num(span.nanos as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            if let Some(plan) = &resp.plan {
                fields.push(("plan", encode_plan(plan)));
            }
            obj(fields).encode()
        }
        Ok(ResponseBody::Admin(admin)) => encode_admin_response(r.id, admin),
        Err(msg) => obj(vec![
            ("id", Json::Num(r.id as f64)),
            ("ok", Json::Bool(false)),
            ("error", Json::Str(msg.clone())),
        ])
        .encode(),
    }
}

/// Encodes the planner's verdict: the chosen strategy, its predicted
/// cost, whether the choice was a fallback, and the feature vector it
/// was scored on — everything `biorank query --explain` prints.
fn encode_plan(plan: &Plan) -> Json {
    let g = &plan.features.graph;
    let mut features = vec![
        ("nodes", Json::Num(f64::from(g.nodes))),
        ("edges", Json::Num(f64::from(g.edges))),
        ("answers", Json::Num(f64::from(g.answers))),
        ("acyclic", Json::Bool(g.acyclic)),
        ("reduced_nodes", Json::Num(f64::from(g.reduced_nodes))),
        ("reduced_edges", Json::Num(f64::from(g.reduced_edges))),
        ("schema_reducible", Json::Bool(g.schema_reducible)),
    ];
    match plan.features.trials {
        TrialsPolicy::Fixed(n) => features.push(("trials", Json::Num(f64::from(n)))),
        TrialsPolicy::Adaptive { max_trials } => {
            features.push(("max_trials", Json::Num(f64::from(max_trials))))
        }
    }
    if let Some(k) = plan.features.top_k {
        features.push(("top_k", Json::Num(f64::from(k))));
    }
    obj(vec![
        ("strategy", Json::Str(plan.strategy.wire_name().into())),
        ("predicted_ns", Json::Num(plan.predicted_ns as f64)),
        ("fallback", Json::Bool(plan.fallback)),
        ("features", obj(features)),
    ])
}

fn decode_plan(v: &Json) -> Result<Plan, WireError> {
    let Json::Obj(f) = v else {
        return Err(wire_err("field \"plan\" must be an object"));
    };
    let strategy = get_str(f, "strategy")?;
    let strategy = Strategy::parse(&strategy)
        .ok_or_else(|| wire_err(format!("unknown plan strategy {strategy:?}")))?;
    let Json::Obj(g) = get(f, "features")? else {
        return Err(wire_err("plan \"features\" must be an object"));
    };
    let graph = GraphFeatures {
        nodes: get_u32(g, "nodes")?,
        edges: get_u32(g, "edges")?,
        answers: get_u32(g, "answers")?,
        acyclic: get(g, "acyclic")?
            .as_bool()
            .ok_or_else(|| wire_err("field \"acyclic\" must be a boolean"))?,
        reduced_nodes: get_u32(g, "reduced_nodes")?,
        reduced_edges: get_u32(g, "reduced_edges")?,
        schema_reducible: get(g, "schema_reducible")?
            .as_bool()
            .ok_or_else(|| wire_err("field \"schema_reducible\" must be a boolean"))?,
    };
    let trials = if g.contains_key("trials") {
        TrialsPolicy::Fixed(get_u32(g, "trials")?)
    } else {
        TrialsPolicy::Adaptive {
            max_trials: get_u32(g, "max_trials")?,
        }
    };
    let top_k = g
        .contains_key("top_k")
        .then(|| get_u32(g, "top_k"))
        .transpose()?;
    Ok(Plan {
        strategy,
        predicted_ns: get_u64(f, "predicted_ns")?,
        features: PlanFeatures::for_request(graph, top_k, trials),
        fallback: get(f, "fallback")?
            .as_bool()
            .ok_or_else(|| wire_err("field \"fallback\" must be a boolean"))?,
    })
}

fn get_u32(fields: &BTreeMap<String, Json>, name: &str) -> Result<u32, WireError> {
    get_u64(fields, name)?
        .try_into()
        .map_err(|_| wire_err(format!("field {name:?} must fit in u32")))
}

fn encode_world_spec_fields(spec: &WorldSpec, fields: &mut Vec<(&'static str, Json)>) {
    fields.push(("seed", Json::Str(spec.seed.to_string())));
    fields.push(("extended", Json::Bool(spec.extended)));
    fields.push(("cache", Json::Num(spec.cache_capacity as f64)));
}

fn encode_cache_stats(s: &CacheStats) -> Json {
    obj(vec![
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("entries", Json::Num(s.entries as f64)),
        ("inserts", Json::Num(s.inserts as f64)),
        ("rejected", Json::Num(s.rejected as f64)),
        // Derived, for humans reading transcripts; decode recomputes
        // it from hits/misses.
        ("hit_rate", Json::Num(s.hit_rate())),
    ])
}

fn decode_cache_stats(v: &Json) -> Result<CacheStats, WireError> {
    let Json::Obj(f) = v else {
        return Err(wire_err("cache stats must be an object"));
    };
    // Absent insert/reject counters (pre-telemetry servers) decode to
    // zero rather than failing the whole stats payload.
    Ok(CacheStats {
        hits: get_u64(f, "hits")?,
        misses: get_u64(f, "misses")?,
        entries: get_u64(f, "entries")? as usize,
        inserts: match f.get("inserts") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| wire_err("field \"inserts\" must be a non-negative integer"))?,
            None => 0,
        },
        rejected: match f.get("rejected") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| wire_err("field \"rejected\" must be a non-negative integer"))?,
            None => 0,
        },
    })
}

/// Encodes a metrics snapshot. Histogram buckets travel as
/// `[bucket_index, count]` pairs — the log₂ bucket bounds are
/// recomputed at decode from the index, so the top buckets (whose
/// bounds exceed 2⁵³) survive the f64 number representation exactly.
fn encode_metrics_snapshot(s: &MetricsSnapshot) -> Json {
    let num_map = |m: &BTreeMap<String, u64>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        )
    };
    obj(vec![
        ("counters", num_map(&s.counters)),
        ("gauges", num_map(&s.gauges)),
        (
            "histograms",
            Json::Obj(
                s.histograms
                    .iter()
                    .map(|(name, h)| {
                        (
                            name.clone(),
                            obj(vec![
                                ("count", Json::Num(h.count as f64)),
                                ("sum", Json::Num(h.sum as f64)),
                                (
                                    "buckets",
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|b| {
                                                Json::Arr(vec![
                                                    Json::Num(Histogram::bucket_index(b.lo) as f64),
                                                    Json::Num(b.count as f64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_metrics_snapshot(v: &Json) -> Result<MetricsSnapshot, WireError> {
    let Json::Obj(f) = v else {
        return Err(wire_err("metrics snapshot must be an object"));
    };
    let num_map = |key: &str| -> Result<BTreeMap<String, u64>, WireError> {
        let Json::Obj(m) = get(f, key)? else {
            return Err(wire_err(format!("field {key:?} must be an object")));
        };
        m.iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| wire_err(format!("metric {k:?} must be a non-negative integer")))
            })
            .collect()
    };
    let Json::Obj(histograms) = get(f, "histograms")? else {
        return Err(wire_err("field \"histograms\" must be an object"));
    };
    let histograms = histograms
        .iter()
        .map(|(name, v)| {
            let Json::Obj(h) = v else {
                return Err(wire_err("histogram must be an object"));
            };
            let Json::Arr(items) = get(h, "buckets")? else {
                return Err(wire_err("field \"buckets\" must be an array"));
            };
            let buckets = items
                .iter()
                .map(|item| {
                    let Json::Arr(pair) = item else {
                        return Err(wire_err("histogram bucket must be [index, count]"));
                    };
                    let (Some(index), Some(count)) = (
                        pair.first().and_then(Json::as_u64),
                        pair.get(1).and_then(Json::as_u64),
                    ) else {
                        return Err(wire_err("histogram bucket must be [index, count]"));
                    };
                    if index as usize >= biorank_obs::HISTOGRAM_BUCKETS {
                        return Err(wire_err("histogram bucket index out of range"));
                    }
                    let (lo, hi) = Histogram::bucket_range(index as usize);
                    Ok(HistogramBucket { lo, hi, count })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((
                name.clone(),
                HistogramSnapshot {
                    count: get_u64(h, "count")?,
                    sum: get_u64(h, "sum")?,
                    buckets,
                },
            ))
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    Ok(MetricsSnapshot {
        counters: num_map("counters")?,
        gauges: num_map("gauges")?,
        histograms,
    })
}

fn encode_metrics_report(report: &MetricsReport) -> Json {
    obj(vec![
        ("service", encode_metrics_snapshot(&report.service)),
        (
            "worlds",
            Json::Arr(
                report
                    .worlds
                    .iter()
                    .map(|w| {
                        let Json::Obj(mut f) = encode_metrics_snapshot(&w.metrics) else {
                            unreachable!("snapshot encodes as an object");
                        };
                        f.insert("world".into(), Json::Str(w.name.clone()));
                        Json::Obj(f)
                    })
                    .collect(),
            ),
        ),
        (
            "slow_queries",
            Json::Arr(
                report
                    .slow_queries
                    .iter()
                    .map(|q| {
                        obj(vec![
                            ("world", Json::Str(q.world.clone())),
                            ("value", Json::Str(q.value.clone())),
                            ("method", Json::Str(q.method.clone())),
                            ("micros", Json::Num(q.micros as f64)),
                            ("cached", Json::Bool(q.cached)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_metrics_report(fields: &BTreeMap<String, Json>) -> Result<MetricsReport, WireError> {
    let Json::Obj(report) = get(fields, "metrics")? else {
        return Err(wire_err("field \"metrics\" must be an object"));
    };
    let Json::Arr(worlds) = get(report, "worlds")? else {
        return Err(wire_err("field \"metrics.worlds\" must be an array"));
    };
    let worlds = worlds
        .iter()
        .map(|item| {
            let Json::Obj(f) = item else {
                return Err(wire_err("metrics worlds must be objects"));
            };
            Ok(WorldMetrics {
                name: get_str(f, "world")?,
                metrics: decode_metrics_snapshot(item)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let Json::Arr(slow) = get(report, "slow_queries")? else {
        return Err(wire_err("field \"metrics.slow_queries\" must be an array"));
    };
    let slow_queries = slow
        .iter()
        .map(|item| {
            let Json::Obj(f) = item else {
                return Err(wire_err("slow queries must be objects"));
            };
            Ok(SlowQueryEntry {
                world: get_str(f, "world")?,
                value: get_str(f, "value")?,
                method: get_str(f, "method")?,
                micros: get_u64(f, "micros")?,
                cached: get(f, "cached")?
                    .as_bool()
                    .ok_or_else(|| wire_err("field \"cached\" must be a boolean"))?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MetricsReport {
        service: decode_metrics_snapshot(get(report, "service")?)?,
        worlds,
        slow_queries,
    })
}

fn encode_admin_response(id: u64, admin: &AdminResponse) -> String {
    let mut fields = vec![("id", Json::Num(id as f64)), ("ok", Json::Bool(true))];
    match admin {
        AdminResponse::World { world, generation } => {
            fields.push(("world", Json::Str(world.clone())));
            fields.push(("generation", Json::Num(*generation as f64)));
        }
        AdminResponse::Loading { world } => {
            fields.push(("world", Json::Str(world.clone())));
            fields.push(("status", Json::Str("loading".into())));
        }
        AdminResponse::Saved {
            world,
            generation,
            snapshot_bytes,
        } => {
            fields.push(("world", Json::Str(world.clone())));
            fields.push(("generation", Json::Num(*generation as f64)));
            fields.push(("snapshot_bytes", Json::Num(*snapshot_bytes as f64)));
        }
        AdminResponse::Checkpoint {
            worlds,
            snapshot_bytes,
        } => {
            fields.push((
                "checkpoint",
                obj(vec![
                    ("worlds", Json::Num(*worlds as f64)),
                    ("snapshot_bytes", Json::Num(*snapshot_bytes as f64)),
                ]),
            ));
        }
        AdminResponse::List(worlds) => {
            fields.push((
                "worlds",
                Json::Arr(
                    worlds
                        .iter()
                        .map(|w| {
                            let mut f = vec![
                                ("world", Json::Str(w.name.clone())),
                                ("generation", Json::Num(w.generation as f64)),
                                ("state", Json::Str(w.state.wire_name().into())),
                                // As a hex string: u64 hashes exceed
                                // the exact-f64 range.
                                (
                                    "spec_hash",
                                    Json::Str(format!("{:016x}", w.spec.spec_hash())),
                                ),
                                // Per-world planner strategy mix (the
                                // world's planner.chosen.* counters).
                                (
                                    "planner_chosen",
                                    obj(Strategy::ALL
                                        .iter()
                                        .map(|s| {
                                            (
                                                s.wire_name(),
                                                Json::Num(w.planner_chosen[s.index()] as f64),
                                            )
                                        })
                                        .collect()),
                                ),
                            ];
                            encode_world_spec_fields(&w.spec, &mut f);
                            obj(f)
                        })
                        .collect(),
                ),
            ));
        }
        AdminResponse::Stats(stats) => {
            fields.push((
                "stats",
                obj(vec![
                    ("budget", Json::Num(stats.budget as f64)),
                    ("resident", Json::Num(stats.resident as f64)),
                    ("durable", Json::Bool(stats.durable)),
                    (
                        "worlds",
                        Json::Arr(
                            stats
                                .worlds
                                .iter()
                                .map(|w| {
                                    obj(vec![
                                        ("world", Json::Str(w.name.clone())),
                                        ("generation", Json::Num(w.generation as f64)),
                                        ("graphs", encode_cache_stats(&w.engine.graphs)),
                                        ("results", encode_cache_stats(&w.engine.results)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        AdminResponse::Metrics(report) => {
            fields.push(("metrics", encode_metrics_report(report)));
        }
        AdminResponse::Drained { worlds } => {
            fields.push(("drained", obj(vec![("worlds", Json::Num(*worlds as f64))])));
        }
    }
    obj(fields).encode()
}

/// Decodes one response line. The payload kind is inferred from the
/// discriminating field: `answers` (query), `worlds` (world.list),
/// `stats` (stats), `metrics` (metrics), or `world`
/// (load/swap/evict).
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let Json::Obj(fields) = Json::parse(line)? else {
        return Err(wire_err("response must be a JSON object"));
    };
    let id = get_u64(&fields, "id")?;
    let ok = get(&fields, "ok")?
        .as_bool()
        .ok_or_else(|| wire_err("field \"ok\" must be a boolean"))?;
    if !ok {
        return Ok(Response {
            id,
            outcome: Err(get_str(&fields, "error")?),
        });
    }
    let body = if fields.contains_key("answers") {
        ResponseBody::Query(decode_query_response(&fields)?)
    } else if fields.contains_key("worlds") {
        ResponseBody::Admin(AdminResponse::List(decode_world_list(&fields)?))
    } else if fields.contains_key("stats") {
        ResponseBody::Admin(AdminResponse::Stats(decode_service_stats(&fields)?))
    } else if fields.contains_key("metrics") {
        ResponseBody::Admin(AdminResponse::Metrics(decode_metrics_report(&fields)?))
    } else if let Some(v) = fields.get("drained") {
        let Json::Obj(f) = v else {
            return Err(wire_err("field \"drained\" must be an object"));
        };
        ResponseBody::Admin(AdminResponse::Drained {
            worlds: get_u64(f, "worlds")? as usize,
        })
    } else if let Some(v) = fields.get("checkpoint") {
        let Json::Obj(f) = v else {
            return Err(wire_err("field \"checkpoint\" must be an object"));
        };
        ResponseBody::Admin(AdminResponse::Checkpoint {
            worlds: get_u64(f, "worlds")? as usize,
            snapshot_bytes: get_u64(f, "snapshot_bytes")?,
        })
    } else if fields.contains_key("snapshot_bytes") {
        // Checked before the generic "world" payload: a `world.save`
        // ack carries all three fields.
        ResponseBody::Admin(AdminResponse::Saved {
            world: get_str(&fields, "world")?,
            generation: get_u64(&fields, "generation")?,
            snapshot_bytes: get_u64(&fields, "snapshot_bytes")?,
        })
    } else if fields.contains_key("status") {
        match get_str(&fields, "status")?.as_str() {
            "loading" => ResponseBody::Admin(AdminResponse::Loading {
                world: get_str(&fields, "world")?,
            }),
            other => return Err(wire_err(format!("unknown status {other:?}"))),
        }
    } else if fields.contains_key("world") {
        ResponseBody::Admin(AdminResponse::World {
            world: get_str(&fields, "world")?,
            generation: get_u64(&fields, "generation")?,
        })
    } else {
        return Err(wire_err("response payload has no recognizable kind"));
    };
    Ok(Response {
        id,
        outcome: Ok(body),
    })
}

/// Encodes the **id-less** connection-shed notice the accept loop
/// writes instead of serving a connection when the connection budget
/// is exhausted: `{"error":"overloaded","retry_after_ms":N}`. It has
/// no `id` because no request was read — the notice applies to the
/// connection itself, which the server closes right after.
pub fn encode_overload_line(retry_after_ms: u64) -> String {
    obj(vec![
        ("error", Json::Str("overloaded".to_string())),
        ("retry_after_ms", Json::Num(retry_after_ms as f64)),
    ])
    .encode()
}

/// Recognizes a connection-shed notice (see [`encode_overload_line`])
/// and returns its `retry_after_ms` hint. Lines carrying an `id` are
/// ordinary responses, never shed notices.
pub fn parse_overload_line(line: &str) -> Option<u64> {
    let Ok(Json::Obj(fields)) = Json::parse(line) else {
        return None;
    };
    if fields.contains_key("id") || fields.get("error")?.as_str()? != "overloaded" {
        return None;
    }
    fields.get("retry_after_ms")?.as_u64()
}

fn decode_query_response(fields: &BTreeMap<String, Json>) -> Result<QueryResponse, WireError> {
    let answers = match get(fields, "answers")? {
        Json::Arr(items) => items
            .iter()
            .map(|item| {
                let Json::Obj(f) = item else {
                    return Err(wire_err("answers must be objects"));
                };
                Ok(RankedAnswer {
                    key: get_str(f, "key")?,
                    label: get_str(f, "label")?,
                    score: get(f, "score")?
                        .as_f64()
                        .ok_or_else(|| wire_err("field \"score\" must be a number"))?,
                    rank_lo: get_u64(f, "rank_lo")? as usize,
                    rank_hi: get_u64(f, "rank_hi")? as usize,
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(wire_err("field \"answers\" must be an array")),
    };
    let certificate = fields
        .get("certificate")
        .map(|v| {
            let Json::Obj(f) = v else {
                return Err(wire_err("field \"certificate\" must be an object"));
            };
            // Absent mode means full certification (the only mode
            // before top-k certification existed).
            let mode = match f.get("mode").map(|m| m.as_str()) {
                None | Some(Some("full")) => CertificateMode::Full,
                Some(Some("top_k")) => CertificateMode::TopK(
                    get_u64(f, "k")?
                        .try_into()
                        .map_err(|_| wire_err("certificate \"k\" must fit in u32"))?,
                ),
                _ => {
                    return Err(wire_err(
                        "certificate \"mode\" must be \"full\" or \"top_k\"",
                    ))
                }
            };
            Ok(Certificate {
                trials_used: get_u64(f, "trials_used")?
                    .try_into()
                    .map_err(|_| wire_err("field \"trials_used\" must fit in u32"))?,
                epsilon: get(f, "epsilon")?
                    .as_f64()
                    .ok_or_else(|| wire_err("field \"epsilon\" must be a number"))?,
                certified: get(f, "certified")?
                    .as_bool()
                    .ok_or_else(|| wire_err("field \"certified\" must be a boolean"))?,
                mode,
            })
        })
        .transpose()?;
    Ok(QueryResponse {
        answers,
        total_answers: get_u64(fields, "total")? as usize,
        certificate,
        cached_graph: get(fields, "cached_graph")?
            .as_bool()
            .ok_or_else(|| wire_err("field \"cached_graph\" must be a boolean"))?,
        cached_scores: get(fields, "cached_scores")?
            .as_bool()
            .ok_or_else(|| wire_err("field \"cached_scores\" must be a boolean"))?,
        micros: get_u64(fields, "micros")?,
        trace: fields
            .get("trace")
            .map(|v| {
                let Json::Arr(items) = v else {
                    return Err(wire_err("field \"trace\" must be an array"));
                };
                items
                    .iter()
                    .map(|item| {
                        let Json::Obj(f) = item else {
                            return Err(wire_err("trace spans must be objects"));
                        };
                        Ok(TraceSpan {
                            stage: get_str(f, "stage")?,
                            nanos: get_u64(f, "nanos")?,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?
            .unwrap_or_default(),
        plan: fields.get("plan").map(decode_plan).transpose()?,
    })
}

fn decode_world_list(fields: &BTreeMap<String, Json>) -> Result<Vec<WorldInfo>, WireError> {
    let Json::Arr(items) = get(fields, "worlds")? else {
        return Err(wire_err("field \"worlds\" must be an array"));
    };
    items
        .iter()
        .map(|item| {
            let Json::Obj(f) = item else {
                return Err(wire_err("worlds must be objects"));
            };
            let state = f
                .get("state")
                .map(|v| {
                    v.as_str()
                        .and_then(WorldState::parse)
                        .ok_or_else(|| wire_err("field \"state\" must be \"ready\" or \"loading\""))
                })
                .transpose()?
                .unwrap_or_default();
            // Absent on pre-planner servers: default to all-zero.
            let mut planner_chosen = [0u64; 4];
            if let Some(Json::Obj(counts)) = f.get("planner_chosen") {
                for s in Strategy::ALL {
                    if let Some(v) = counts.get(s.wire_name()) {
                        planner_chosen[s.index()] = v
                            .as_f64()
                            .filter(|n| *n >= 0.0)
                            .map(|n| n as u64)
                            .ok_or_else(|| {
                                wire_err("planner_chosen counts must be non-negative numbers")
                            })?;
                    }
                }
            }
            Ok(WorldInfo {
                name: get_str(f, "world")?,
                spec: decode_world_spec(f)?,
                generation: get_u64(f, "generation")?,
                state,
                planner_chosen,
            })
        })
        .collect()
}

fn decode_service_stats(fields: &BTreeMap<String, Json>) -> Result<ServiceStats, WireError> {
    let Json::Obj(stats) = get(fields, "stats")? else {
        return Err(wire_err("field \"stats\" must be an object"));
    };
    let Json::Arr(items) = get(stats, "worlds")? else {
        return Err(wire_err("field \"stats.worlds\" must be an array"));
    };
    let worlds = items
        .iter()
        .map(|item| {
            let Json::Obj(f) = item else {
                return Err(wire_err("stats worlds must be objects"));
            };
            Ok(WorldStats {
                name: get_str(f, "world")?,
                generation: get_u64(f, "generation")?,
                engine: EngineStats {
                    graphs: decode_cache_stats(get(f, "graphs")?)?,
                    results: decode_cache_stats(get(f, "results")?)?,
                },
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ServiceStats {
        budget: get_u64(stats, "budget")? as usize,
        resident: get_u64(stats, "resident")? as usize,
        // Absent on pre-durability servers: decode to false.
        durable: match stats.get("durable") {
            Some(v) => v
                .as_bool()
                .ok_or_else(|| wire_err("field \"durable\" must be a boolean"))?,
            None => false,
        },
        worlds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_basics() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-12.5",
            "1e-3",
            "\"hi \\\"there\\\" \\n\"",
            "[1,2,[3],{}]",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let re = Json::parse(&v.encode()).unwrap();
            assert_eq!(v, re, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\"}",
            "1 2",
            "\"\\x\"",
            "\"unterminated",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("é😀".to_string()));
        // Raw UTF-8 also passes through.
        let v = Json::parse("\"é😀\"").unwrap();
        assert_eq!(v, Json::Str("é😀".to_string()));
        // A high surrogate must pair with a low one.
        for bad in [
            "\"\\ud800\"",
            "\"\\ud800\\u0061\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        for f in [0.123456789012345678, 1.0 / 3.0, 1e-17, 0.4375] {
            let enc = Json::Num(f).encode();
            let Json::Num(back) = Json::parse(&enc).unwrap() else {
                panic!("not a number");
            };
            assert_eq!(f.to_bits(), back.to_bits(), "{enc}");
        }
    }

    fn query_of(r: &Request) -> &QueryRequest {
        match &r.body {
            RequestBody::Query(q) => q,
            RequestBody::Admin(a) => panic!("expected a query, got {a:?}"),
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = Request {
            id: 7,
            body: RequestBody::Query(QueryRequest {
                query: ExploratoryQuery::protein_functions("GALT"),
                spec: RankerSpec {
                    method: Method::Reliability,
                    trials: Trials::Fixed(1000),
                    seed: 42,
                    parallel: false,
                    estimator: None,
                },
                top: Some(5),
                certify_top: false,
                world: None,
                trace: false,
                deadline_ms: None,
            }),
        };
        let line = encode_request(&r);
        assert!(!line.contains('\n'));
        assert!(!line.contains("certify_top"), "{line}");
        assert_eq!(decode_request(&line).unwrap(), r);

        // World routing, the parallel flag, and the estimator
        // selection survive the wire too.
        for estimator in [
            None,
            Some(Estimator::Traversal),
            Some(Estimator::Word),
            Some(Estimator::Auto),
        ] {
            let r = Request {
                id: 8,
                body: RequestBody::Query(QueryRequest {
                    query: ExploratoryQuery::protein_functions("CFTR"),
                    spec: RankerSpec {
                        method: Method::TraversalMc,
                        trials: Trials::Fixed(100),
                        seed: 9,
                        parallel: true,
                        estimator,
                    },
                    top: None,
                    certify_top: false,
                    world: Some("staging".into()),
                    trace: false,
                    deadline_ms: None,
                }),
            };
            assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        }
    }

    #[test]
    fn certify_top_roundtrips_and_defaults_off() {
        let r = Request {
            id: 12,
            body: RequestBody::Query(
                QueryRequest::protein_functions(
                    "GALT",
                    RankerSpec {
                        trials: Trials::Adaptive(AdaptiveConfig::default()),
                        ..RankerSpec::new(Method::TraversalMc)
                    },
                )
                .certified_top(10),
            ),
        };
        let line = encode_request(&r);
        assert!(line.contains("\"certify_top\":true"), "{line}");
        assert!(line.contains("\"top\":10"), "{line}");
        assert_eq!(decode_request(&line).unwrap(), r);
        // Absent field decodes to false; garbage is rejected.
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\"}";
        assert!(!query_of(&decode_request(line).unwrap()).certify_top);
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\",\"certify_top\":3}";
        assert!(decode_request(line).is_err());
    }

    #[test]
    fn adaptive_trials_roundtrip_and_default() {
        // The adaptive policy object survives the wire bit-exactly.
        let r = Request {
            id: 9,
            body: RequestBody::Query(QueryRequest {
                query: ExploratoryQuery::protein_functions("GALT"),
                spec: RankerSpec {
                    method: Method::TraversalMc,
                    trials: Trials::Adaptive(AdaptiveConfig {
                        epsilon: 1.0 / 3.0,
                        delta: 0.01,
                        max_trials: 20_000,
                    }),
                    seed: 42,
                    parallel: false,
                    estimator: Some(Estimator::Word),
                },
                top: None,
                certify_top: false,
                world: None,
                trace: false,
                deadline_ms: None,
            }),
        };
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);

        // Absent adaptive fields default to the paper's parameters.
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\",\"trials\":{}}";
        let q = decode_request(line).unwrap();
        assert_eq!(
            query_of(&q).spec.trials,
            Trials::Adaptive(AdaptiveConfig::default())
        );
        // Partial objects keep what they set.
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\",\
                    \"trials\":{\"epsilon\":0.1,\"max\":500}}";
        let q = decode_request(line).unwrap();
        assert_eq!(
            query_of(&q).spec.trials,
            Trials::Adaptive(AdaptiveConfig {
                epsilon: 0.1,
                delta: 0.05,
                max_trials: 500,
            })
        );
        // Garbage is rejected.
        for bad in [
            "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
             \"outputs\":[\"B\"],\"method\":\"mc\",\"trials\":\"lots\"}",
            "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
             \"outputs\":[\"B\"],\"method\":\"mc\",\"trials\":{\"epsilon\":\"x\"}}",
        ] {
            assert!(decode_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn server_defaults_apply_to_unset_trials_only() {
        let adaptive = RequestDefaults {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..RequestDefaults::default()
        };
        let unset = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                     \"outputs\":[\"B\"],\"method\":\"mc\"}";
        let q = decode_request_with(unset, &adaptive).unwrap();
        assert_eq!(query_of(&q).spec.trials, adaptive.trials);
        // An explicit fixed count always wins over the house policy.
        let explicit = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                        \"outputs\":[\"B\"],\"method\":\"mc\",\"trials\":77}";
        let q = decode_request_with(explicit, &adaptive).unwrap();
        assert_eq!(query_of(&q).spec.trials, Trials::Fixed(77));
    }

    #[test]
    fn admin_request_roundtrip() {
        for admin in [
            AdminRequest::Load {
                world: "staging".into(),
                spec: WorldSpec {
                    seed: (1u64 << 60) + 3,
                    extended: true,
                    cache_capacity: 64,
                },
                background: false,
            },
            AdminRequest::Load {
                world: "staging".into(),
                spec: WorldSpec::default(),
                background: true,
            },
            AdminRequest::Swap {
                world: "staging".into(),
                spec: WorldSpec::default(),
            },
            AdminRequest::Evict {
                world: "staging".into(),
            },
            AdminRequest::List,
            AdminRequest::Stats,
        ] {
            let r = Request {
                id: 11,
                body: RequestBody::Admin(admin),
            };
            assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        }
        // Spec fields default when omitted; loads default to
        // foreground.
        let r = decode_request("{\"id\":1,\"cmd\":\"world.load\",\"world\":\"w\"}").unwrap();
        assert_eq!(
            r.body,
            RequestBody::Admin(AdminRequest::Load {
                world: "w".into(),
                spec: WorldSpec::default(),
                background: false,
            })
        );
        let r = decode_request("{\"id\":1,\"cmd\":\"world.swap\",\"world\":\"w\"}").unwrap();
        assert_eq!(
            r.body,
            RequestBody::Admin(AdminRequest::Swap {
                world: "w".into(),
                spec: WorldSpec::default(),
            })
        );
        assert!(decode_request("{\"id\":1,\"cmd\":\"world.revolve\"}").is_err());
    }

    #[test]
    fn swap_line_with_a_warm_count_still_decodes() {
        // The line shape older clients and the benchmark harness send:
        // `warm` is accepted and ignored like any field the server
        // does not read.
        let line = "{\"id\":7,\"cmd\":\"world.swap\",\"world\":\"mixed\",\"seed\":\"1234\",\
                    \"extended\":false,\"cache\":64,\"warm\":32}";
        assert_eq!(
            decode_request(line).unwrap(),
            Request {
                id: 7,
                body: RequestBody::Admin(AdminRequest::Swap {
                    world: "mixed".into(),
                    spec: WorldSpec {
                        seed: 1234,
                        extended: false,
                        cache_capacity: 64,
                    },
                }),
            }
        );
    }

    #[test]
    fn loading_response_roundtrip() {
        let loading = Response {
            id: 5,
            outcome: Ok(ResponseBody::Admin(AdminResponse::Loading {
                world: "staging".into(),
            })),
        };
        let line = encode_response(&loading);
        assert!(line.contains("\"status\":\"loading\""), "{line}");
        assert_eq!(decode_response(&line).unwrap(), loading);
    }

    #[test]
    fn admin_response_roundtrip() {
        let world = Response {
            id: 1,
            outcome: Ok(ResponseBody::Admin(AdminResponse::World {
                world: "staging".into(),
                generation: 3,
            })),
        };
        assert_eq!(decode_response(&encode_response(&world)).unwrap(), world);

        let list = Response {
            id: 2,
            outcome: Ok(ResponseBody::Admin(AdminResponse::List(vec![
                WorldInfo {
                    name: "default".into(),
                    spec: WorldSpec::default(),
                    generation: 1,
                    state: WorldState::Ready,
                    planner_chosen: [2, 0, 17, 1],
                },
                WorldInfo {
                    name: "staging".into(),
                    spec: WorldSpec::default(),
                    generation: 0,
                    state: WorldState::Loading,
                    planner_chosen: [0; 4],
                },
            ]))),
        };
        assert_eq!(decode_response(&encode_response(&list)).unwrap(), list);

        let stats = Response {
            id: 3,
            outcome: Ok(ResponseBody::Admin(AdminResponse::Stats(ServiceStats {
                budget: 4,
                resident: 1,
                durable: true,
                worlds: vec![WorldStats {
                    name: "default".into(),
                    generation: 2,
                    engine: EngineStats {
                        graphs: CacheStats {
                            hits: 3,
                            misses: 1,
                            entries: 1,
                            inserts: 2,
                            rejected: 1,
                        },
                        results: CacheStats::default(),
                    },
                }],
            }))),
        };
        assert_eq!(decode_response(&encode_response(&stats)).unwrap(), stats);
    }

    #[test]
    fn durability_admin_roundtrip() {
        // Requests: world.save and checkpoint.
        for admin in [
            AdminRequest::Save {
                world: "staging".into(),
            },
            AdminRequest::Checkpoint,
        ] {
            let r = Request {
                id: 9,
                body: RequestBody::Admin(admin),
            };
            assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        }

        // Responses: Saved must win the discrimination against the
        // plain World payload (it also carries "world"/"generation").
        let saved = Response {
            id: 10,
            outcome: Ok(ResponseBody::Admin(AdminResponse::Saved {
                world: "staging".into(),
                generation: 7,
                snapshot_bytes: 4096,
            })),
        };
        let line = encode_response(&saved);
        assert!(line.contains("\"snapshot_bytes\":4096"), "{line}");
        assert_eq!(decode_response(&line).unwrap(), saved);

        let checkpoint = Response {
            id: 11,
            outcome: Ok(ResponseBody::Admin(AdminResponse::Checkpoint {
                worlds: 2,
                snapshot_bytes: 8192,
            })),
        };
        assert_eq!(
            decode_response(&encode_response(&checkpoint)).unwrap(),
            checkpoint
        );

        // world.list carries a stable spec_hash string; decode ignores
        // it (the spec itself round-trips) but operators diff it.
        let list = Response {
            id: 12,
            outcome: Ok(ResponseBody::Admin(AdminResponse::List(vec![WorldInfo {
                name: "default".into(),
                spec: WorldSpec::default(),
                generation: 1,
                state: WorldState::Ready,
                planner_chosen: [0; 4],
            }]))),
        };
        let line = encode_response(&list);
        let hash = format!("{:016x}", WorldSpec::default().spec_hash());
        assert!(line.contains(&hash), "{line}");
        assert_eq!(decode_response(&line).unwrap(), list);

        // A pre-durability stats payload (no "durable") decodes to
        // durable: false.
        let line = "{\"id\":1,\"ok\":true,\"stats\":{\"budget\":4,\"resident\":0,\"worlds\":[]}}";
        match decode_response(line).unwrap().outcome.unwrap() {
            ResponseBody::Admin(AdminResponse::Stats(s)) => assert!(!s.durable),
            other => panic!("unexpected payload: {other:?}"),
        }
    }

    #[test]
    fn seeds_above_2_pow_53_survive_the_wire_exactly() {
        let mut r = Request {
            id: 1,
            body: RequestBody::Query(QueryRequest {
                query: ExploratoryQuery::protein_functions("GALT"),
                spec: RankerSpec {
                    method: Method::TraversalMc,
                    trials: Trials::Fixed(10),
                    seed: (1u64 << 60) + 1,
                    parallel: false,
                    estimator: None,
                },
                top: None,
                certify_top: false,
                world: None,
                trace: false,
                deadline_ms: None,
            }),
        };
        for seed in [(1u64 << 60) + 1, u64::MAX, 0] {
            let RequestBody::Query(q) = &mut r.body else {
                unreachable!()
            };
            q.spec.seed = seed;
            let back = decode_request(&encode_request(&r)).unwrap();
            assert_eq!(query_of(&back).spec.seed, seed);
        }
        // Hand-written clients may still send a small JSON integer.
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\",\"seed\":42}";
        assert_eq!(query_of(&decode_request(line).unwrap()).spec.seed, 42);
    }

    #[test]
    fn request_defaults_apply() {
        let line = "{\"id\":1,\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
                    \"value\":\"GALT\",\"outputs\":[\"AmiGO\"],\"method\":\"pathc\"}";
        let r = decode_request(line).unwrap();
        let q = query_of(&r);
        assert_eq!(q.spec.trials, Trials::Fixed(RankerSpec::DEFAULT_TRIALS));
        assert_eq!(q.spec.seed, RankerSpec::DEFAULT_SEED);
        assert!(!q.spec.parallel);
        assert_eq!(q.spec.estimator, None);
        assert_eq!(q.top, None);
        assert_eq!(q.world, None);
        assert_eq!(q.deadline_ms, None);
    }

    #[test]
    fn deadline_ms_roundtrips_and_server_default_applies() {
        // Explicit field survives encode → decode.
        let r = Request {
            id: 3,
            body: RequestBody::Query(
                QueryRequest::protein_functions("GALT", RankerSpec::new(Method::TraversalMc))
                    .with_deadline_ms(2_500),
            ),
        };
        let line = encode_request(&r);
        assert!(line.contains("\"deadline_ms\":2500"), "{line}");
        assert_eq!(decode_request(&line).unwrap(), r);

        // The serve-level default fills unset requests; an explicit
        // field always wins over it.
        let with_default = RequestDefaults {
            deadline_ms: Some(750),
            ..RequestDefaults::default()
        };
        let unset = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                     \"outputs\":[\"B\"],\"method\":\"mc\"}";
        let q = decode_request_with(unset, &with_default).unwrap();
        assert_eq!(query_of(&q).deadline_ms, Some(750));
        let explicit = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                        \"outputs\":[\"B\"],\"method\":\"mc\",\"deadline_ms\":100}";
        let q = decode_request_with(explicit, &with_default).unwrap();
        assert_eq!(query_of(&q).deadline_ms, Some(100));

        // Garbage is rejected: zero, negative, or non-numeric.
        for bad in [
            "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
             \"outputs\":[\"B\"],\"method\":\"mc\",\"deadline_ms\":0}",
            "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
             \"outputs\":[\"B\"],\"method\":\"mc\",\"deadline_ms\":\"soon\"}",
            "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
             \"outputs\":[\"B\"],\"method\":\"mc\",\"deadline_ms\":-5}",
        ] {
            assert!(decode_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn drain_roundtrips() {
        // Request: cmd form and typed form agree.
        let r = Request {
            id: 11,
            body: RequestBody::Admin(AdminRequest::Drain),
        };
        let line = encode_request(&r);
        assert!(line.contains("\"cmd\":\"server.drain\""), "{line}");
        assert_eq!(decode_request(&line).unwrap(), r);

        // Response roundtrip.
        let resp = Response {
            id: 11,
            outcome: Ok(ResponseBody::Admin(AdminResponse::Drained { worlds: 2 })),
        };
        let line = encode_response(&resp);
        assert!(line.contains("\"drained\""), "{line}");
        assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn overload_line_roundtrips_and_rejects_lookalikes() {
        let line = encode_overload_line(250);
        assert_eq!(line, "{\"error\":\"overloaded\",\"retry_after_ms\":250}");
        assert_eq!(parse_overload_line(&line), Some(250));
        // An ordinary error response has an id: not a shed notice.
        assert_eq!(
            parse_overload_line("{\"id\":3,\"ok\":false,\"error\":\"overloaded\"}"),
            None
        );
        assert_eq!(parse_overload_line("{\"error\":\"boom\"}"), None);
        assert_eq!(parse_overload_line("not json"), None);
    }

    #[test]
    fn decode_request_rejects_unknown_estimator() {
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\",\"estimator\":\"magic\"}";
        assert!(decode_request(line).is_err());
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"mc\",\"estimator\":\"word\"}";
        let r = decode_request(line).unwrap();
        assert_eq!(query_of(&r).spec.estimator, Some(Estimator::Word));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response {
            id: 3,
            outcome: Ok(ResponseBody::Query(QueryResponse {
                answers: vec![RankedAnswer {
                    key: "GO:0004335".into(),
                    label: "galactokinase \"activity\"".into(),
                    score: 1.0 / 3.0,
                    rank_lo: 1,
                    rank_hi: 2,
                }],
                total_answers: 15,
                certificate: None,
                cached_graph: true,
                cached_scores: false,
                micros: 812,
                trace: vec![],
                plan: None,
            })),
        };
        let line = encode_response(&resp);
        assert!(!line.contains("certificate"), "{line}");
        assert_eq!(decode_response(&line).unwrap(), resp);
        let err = Response {
            id: 4,
            outcome: Err("no records in EntrezProtein match \"NOPE\"".into()),
        };
        assert_eq!(decode_response(&encode_response(&err)).unwrap(), err);
    }

    #[test]
    fn certificate_roundtrips_bit_exactly() {
        let resp = Response {
            id: 6,
            outcome: Ok(ResponseBody::Query(QueryResponse {
                answers: vec![],
                total_answers: 0,
                certificate: Some(Certificate {
                    trials_used: 448,
                    epsilon: 0.08839224356,
                    certified: true,
                    mode: CertificateMode::Full,
                }),
                cached_graph: false,
                cached_scores: true,
                micros: 12,
                trace: vec![],
                plan: None,
            })),
        };
        let line = encode_response(&resp);
        assert!(line.contains("\"mode\":\"full\""), "{line}");
        let back = decode_response(&line).unwrap();
        let Ok(ResponseBody::Query(q)) = &back.outcome else {
            panic!("not a query response: {line}");
        };
        let cert = q.certificate.expect("certificate survives the wire");
        assert_eq!(cert.trials_used, 448);
        assert_eq!(cert.epsilon.to_bits(), 0.08839224356f64.to_bits());
        assert!(cert.certified);
        assert_eq!(cert.mode, CertificateMode::Full);
        assert_eq!(back, resp);
    }

    #[test]
    fn top_k_certificate_mode_survives_the_wire() {
        let resp = Response {
            id: 7,
            outcome: Ok(ResponseBody::Query(QueryResponse {
                answers: vec![],
                total_answers: 97,
                certificate: Some(Certificate {
                    trials_used: 192,
                    epsilon: 0.25,
                    certified: true,
                    mode: CertificateMode::TopK(10),
                }),
                cached_graph: true,
                cached_scores: false,
                micros: 3,
                trace: vec![],
                plan: None,
            })),
        };
        let line = encode_response(&resp);
        assert!(
            line.contains("\"mode\":\"top_k\"") && line.contains("\"k\":10"),
            "{line}"
        );
        assert_eq!(decode_response(&line).unwrap(), resp);
        // A certificate without a mode is a legacy full certificate.
        let legacy = line
            .replace(",\"mode\":\"top_k\"", "")
            .replace(",\"k\":10", "");
        let Ok(ResponseBody::Query(q)) = decode_response(&legacy).unwrap().outcome else {
            panic!("not a query response: {legacy}");
        };
        assert_eq!(q.certificate.unwrap().mode, CertificateMode::Full);
        // top_k without k, or an unknown mode, is rejected.
        let broken = line.replace(",\"k\":10", "");
        assert!(decode_response(&broken).is_err(), "{broken}");
        let unknown = line.replace("\"mode\":\"top_k\"", "\"mode\":\"sideways\"");
        assert!(decode_response(&unknown).is_err(), "{unknown}");
    }

    #[test]
    fn trace_flag_and_spans_roundtrip() {
        // The request flag is omitted when off, present when on.
        let plain = Request {
            id: 20,
            body: RequestBody::Query(QueryRequest::protein_functions(
                "GALT",
                RankerSpec::new(Method::TraversalMc),
            )),
        };
        let line = encode_request(&plain);
        assert!(!line.contains("trace"), "{line}");
        assert_eq!(decode_request(&line).unwrap(), plain);

        let traced = Request {
            id: 21,
            body: RequestBody::Query(
                QueryRequest::protein_functions("GALT", RankerSpec::new(Method::TraversalMc))
                    .traced(),
            ),
        };
        let line = encode_request(&traced);
        assert!(line.contains("\"trace\":true"), "{line}");
        assert_eq!(decode_request(&line).unwrap(), traced);

        // Span arrays survive the response wire; empty traces are
        // omitted (tested by response_roundtrip above).
        let resp = Response {
            id: 21,
            outcome: Ok(ResponseBody::Query(QueryResponse {
                answers: vec![],
                total_answers: 0,
                certificate: None,
                cached_graph: false,
                cached_scores: false,
                micros: 55,
                trace: vec![
                    TraceSpan {
                        stage: "cache".into(),
                        nanos: 412,
                    },
                    TraceSpan {
                        stage: "estimate".into(),
                        nanos: 1_000_000,
                    },
                ],
                plan: None,
            })),
        };
        let line = encode_response(&resp);
        assert!(line.contains("\"stage\":\"cache\""), "{line}");
        assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn plan_echo_roundtrips() {
        // The planner echo rides the response next to the certificate:
        // strategy, prediction, and the full feature vector survive the
        // wire, and both trial policies keep their distinct keys.
        for (trials, key) in [
            (TrialsPolicy::Fixed(10_000), "\"trials\":10000"),
            (
                TrialsPolicy::Adaptive { max_trials: 65_536 },
                "\"max_trials\":65536",
            ),
        ] {
            let resp = Response {
                id: 40,
                outcome: Ok(ResponseBody::Query(QueryResponse {
                    answers: vec![],
                    total_answers: 97,
                    certificate: None,
                    cached_graph: true,
                    cached_scores: false,
                    micros: 210,
                    trace: vec![],
                    plan: Some(Plan {
                        strategy: Strategy::WordMc,
                        predicted_ns: 1_480_000,
                        features: PlanFeatures {
                            graph: GraphFeatures {
                                nodes: 185,
                                edges: 329,
                                answers: 97,
                                acyclic: true,
                                reduced_nodes: 129,
                                reduced_edges: 269,
                                schema_reducible: true,
                            },
                            top_k: Some(10),
                            trials,
                        },
                        fallback: false,
                    }),
                })),
            };
            let line = encode_response(&resp);
            assert!(line.contains("\"strategy\":\"word\""), "{line}");
            assert!(line.contains(key), "{line}");
            assert_eq!(decode_response(&line).unwrap(), resp);
        }
    }

    #[test]
    fn metrics_admin_roundtrip() {
        // Request: reset defaults off and is omitted from the line.
        for reset in [false, true] {
            let r = Request {
                id: 30,
                body: RequestBody::Admin(AdminRequest::Metrics { reset }),
            };
            let line = encode_request(&r);
            assert_eq!(line.contains("reset"), reset, "{line}");
            assert_eq!(decode_request(&line).unwrap(), r);
        }

        // Response: a populated report — service + per-world snapshots
        // and slow-query entries — survives the wire exactly,
        // histogram bucket bounds included (the top bucket's bounds
        // exceed 2^53 and travel as a bucket index).
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "stage_ns.estimate".to_string(),
            HistogramSnapshot {
                count: 3,
                sum: u64::from(u32::MAX),
                buckets: vec![
                    HistogramBucket {
                        lo: 512,
                        hi: 1024,
                        count: 2,
                    },
                    HistogramBucket {
                        lo: 1u64 << 63,
                        hi: u64::MAX,
                        count: 1,
                    },
                ],
            },
        );
        let snapshot = |queries: u64| MetricsSnapshot {
            counters: [("queries".to_string(), queries)].into_iter().collect(),
            gauges: [("tenancy.resident".to_string(), 2u64)]
                .into_iter()
                .collect(),
            histograms: histograms.clone(),
        };
        let report = MetricsReport {
            service: snapshot(9),
            worlds: vec![
                WorldMetrics {
                    name: "default".into(),
                    metrics: snapshot(6),
                },
                WorldMetrics {
                    name: "staging".into(),
                    metrics: snapshot(3),
                },
            ],
            slow_queries: vec![SlowQueryEntry {
                world: "default".into(),
                value: "GALT".into(),
                method: "mc".into(),
                micros: 48_211,
                cached: false,
            }],
        };
        let resp = Response {
            id: 31,
            outcome: Ok(ResponseBody::Admin(AdminResponse::Metrics(report))),
        };
        let line = encode_response(&resp);
        assert!(line.contains("\"metrics\""), "{line}");
        assert!(line.contains("\"slow_queries\""), "{line}");
        assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn cache_stats_decode_tolerates_missing_insert_counters() {
        // A pre-telemetry stats payload (hits/misses/entries only)
        // still decodes; the new counters default to zero.
        let legacy =
            Json::parse("{\"hits\":3,\"misses\":1,\"entries\":1,\"hit_rate\":0.75}").unwrap();
        assert_eq!(
            decode_cache_stats(&legacy).unwrap(),
            CacheStats {
                hits: 3,
                misses: 1,
                entries: 1,
                inserts: 0,
                rejected: 0,
            }
        );
    }

    #[test]
    fn decode_request_rejects_unknown_method() {
        let line = "{\"id\":1,\"input\":\"A\",\"attribute\":\"x\",\"value\":\"v\",\
                    \"outputs\":[\"B\"],\"method\":\"magic\"}";
        assert!(decode_request(line).is_err());
    }
}
