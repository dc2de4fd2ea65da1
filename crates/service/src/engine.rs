//! The query engine: a resident world behind two sharded LRU caches.
//!
//! `QueryEngine` wraps a [`Mediator`] plus ranker construction behind
//! two cache layers:
//!
//! 1. **Graph cache** — `ExploratoryQuery → Arc<IntegrationResult>`:
//!    repeated exploratory queries (the dominant interactive pattern —
//!    the same protein ranked under different semantics) skip
//!    re-integrating the world entirely.
//! 2. **Result cache** — `(ExploratoryQuery, RankerSpec) → ranked
//!    answers`: an identical query+ranker pair is answered without
//!    scoring at all.
//!
//! Below the caches sits one concurrency collapse, invisible on the
//! wire: **single-flight** — concurrent misses on the same result key
//! elect one leader; followers block, then serve the leader's freshly
//! cached entry (`queries.coalesced` counts them). A miss is scored by
//! the function [`QueryEngine::execute_uncached`] calls.
//!
//! Determinism is load-bearing: Monte Carlo rankers are seeded from
//! `mix(spec.seed, fnv1a(query))`, a value derived only from request
//! *content*, never from arrival order or worker identity. A batch
//! therefore produces bit-identical rankings on one worker and on N,
//! and a cache hit returns exactly what recomputation would. Lane
//! widening preserves this bit-for-bit: batch `b` of a run draws from
//! the stream keyed `(seed, b)` no matter which lane of which block
//! executes it. Strategy choice obeys the same rule: `estimator: auto`
//! is resolved by a pure function of the request and its graph's
//! features, never of what the engine has served before.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use biorank_mediator::{ExploratoryQuery, IntegrationResult, Mediator};
use biorank_obs::{MetricsRegistry, MetricsSnapshot, TraceRecorder, TraceSpan};
use biorank_rank::{
    run_batches, AdaptiveOutcome, AdaptiveRunner, BatchStats, Certificate, CertificateMode,
    ClosedReliability, CostModel, Diffusion, GraphFeatures, InEdge, PathCount, Plan, PlanFeatures,
    Propagation, Ranker, Ranking, ReducedMc, Scores, Strategy, TraversalMc, TrialsPolicy, WordMc,
};
use biorank_schema::{check_query_reducible, ComposeHints, Schema};

use crate::cache::{CacheStats, ShardedLru};
use crate::Error;

/// The ranking semantics a request can ask for, mirroring the paper's
/// five methods (§3) plus the plain traversal-MC estimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Possible-worlds reliability via reduction + Monte Carlo
    /// (`ReducedMc`, the paper's headline configuration).
    Reliability,
    /// Reliability via plain traversal Monte Carlo (Algorithm 3.1).
    TraversalMc,
    /// Propagation (Algorithm 3.2).
    Propagation,
    /// Diffusion (Algorithm 3.3).
    Diffusion,
    /// Deterministic in-edge count.
    InEdge,
    /// Deterministic s→t path count.
    PathCount,
    /// Per-answer closed-form reliability
    /// ([`biorank_rank::ClosedReliability`], the paper's "C"
    /// strategy, §3.1(3)): exact where the reduction theory applies,
    /// with deterministic factoring / fixed-seed sampling backstops
    /// elsewhere. Deterministic with respect to the request spec —
    /// `trials`/`seed` are ignored.
    Exact,
}

impl Method {
    /// Parses the wire / CLI spelling (`rel`, `mc`, `prop`, `diff`,
    /// `inedge`, `pathc` and a few obvious synonyms).
    pub fn parse(name: &str) -> Option<Method> {
        Some(match name.to_ascii_lowercase().as_str() {
            "rel" | "reliability" => Method::Reliability,
            "mc" | "relmc" => Method::TraversalMc,
            "prop" | "propagation" => Method::Propagation,
            "diff" | "diffusion" => Method::Diffusion,
            "inedge" => Method::InEdge,
            "pathc" | "pathcount" => Method::PathCount,
            "exact" | "closed" => Method::Exact,
            _ => return None,
        })
    }

    /// The canonical wire spelling.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Method::Reliability => "rel",
            Method::TraversalMc => "mc",
            Method::Propagation => "prop",
            Method::Diffusion => "diff",
            Method::InEdge => "inedge",
            Method::PathCount => "pathc",
            Method::Exact => "exact",
        }
    }

    /// `true` for the Monte Carlo methods whose output depends on
    /// `(trials, seed)`. [`Method::Exact`] is deliberately *not* one
    /// of them: its backstops are seeded by fixed internal constants,
    /// so its output is a function of the query alone.
    pub fn is_stochastic(&self) -> bool {
        matches!(self, Method::Reliability | Method::TraversalMc)
    }

    /// `true` for the methods whose execution strategy the cost-based
    /// planner may choose (`estimator: "auto"`): the reliability
    /// semantics the paper's Fig. 8a compares across exact, reduced,
    /// and sampled evaluations.
    pub fn is_plannable(&self) -> bool {
        matches!(self, Method::Reliability | Method::TraversalMc)
    }
}

/// Which Monte Carlo engine executes a [`Method::TraversalMc`]
/// request.
///
/// Both estimate the same reliability semantics from the same
/// `(trials, seed)` contract, but through different (and differently
/// seeded) sampling schedules, so their outputs are distinct values —
/// the result cache keys them separately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// Per-trial depth-first traversal (Algorithm 3.1) — the paper's
    /// reference engine.
    #[default]
    Traversal,
    /// Word-parallel batches: 64 trials per `u64` bitmask propagated
    /// over a frozen CSR snapshot ([`biorank_rank::WordMc`]). The fast
    /// path for DAG query graphs — which is all of them in the
    /// paper's workload.
    Word,
    /// Defer the choice to the cost-based planner
    /// ([`biorank_rank::planner`]). The engine resolves `auto` into a
    /// concrete strategy — possibly re-routing the method to the
    /// closed solution or reduction + Monte Carlo — *before* any
    /// cache key is formed, so a planned request shares cache entries
    /// with (and is byte-identical to) an explicit request for the
    /// chosen strategy. The `serve` default.
    Auto,
}

impl Estimator {
    /// Parses the wire / CLI spelling.
    pub fn parse(name: &str) -> Option<Estimator> {
        Some(match name.to_ascii_lowercase().as_str() {
            "traversal" | "trav" => Estimator::Traversal,
            "word" | "wordmc" => Estimator::Word,
            "auto" => Estimator::Auto,
            _ => return None,
        })
    }

    /// The canonical wire spelling.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Estimator::Traversal => "traversal",
            Estimator::Word => "word",
            Estimator::Auto => "auto",
        }
    }
}

/// The adaptive trial policy: run Monte Carlo batches until
/// [`biorank_rank::bounds`] certifies the ranking at (ε, δ) or the
/// trial ceiling hits (see [`biorank_rank::AdaptiveRunner`]).
///
/// `PartialEq`/`Hash` compare the float parameters by bit pattern —
/// the struct is a cache-key dimension, and two policies are "the same
/// configuration" exactly when every parameter is bit-equal.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Smallest score separation that must be ranked correctly.
    pub epsilon: f64,
    /// Allowed per-pair failure probability.
    pub delta: f64,
    /// Hard trial ceiling when the ranking never certifies.
    pub max_trials: u32,
}

impl Default for AdaptiveConfig {
    /// The paper's M1 parameters: ε = 0.02 at 95% confidence, ceiling
    /// at the fixed default of [`RankerSpec::DEFAULT_TRIALS`].
    fn default() -> Self {
        AdaptiveConfig {
            epsilon: 0.02,
            delta: 0.05,
            max_trials: RankerSpec::DEFAULT_TRIALS,
        }
    }
}

impl PartialEq for AdaptiveConfig {
    fn eq(&self, other: &Self) -> bool {
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.delta.to_bits() == other.delta.to_bits()
            && self.max_trials == other.max_trials
    }
}

impl Eq for AdaptiveConfig {}

impl std::hash::Hash for AdaptiveConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.epsilon.to_bits().hash(state);
        self.delta.to_bits().hash(state);
        self.max_trials.hash(state);
    }
}

/// The trial dimension of a Monte Carlo request: a fixed count, or the
/// adaptive bound-certified policy. Part of the result-cache key —
/// fixed and adaptive executions of the same query are distinct
/// results and must never answer each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trials {
    /// Run exactly this many trials (the paper's fixed schedule).
    Fixed(u32),
    /// Run batches until the ranking certifies (or the ceiling hits),
    /// echoing a [`Certificate`] in the response.
    Adaptive(AdaptiveConfig),
}

impl Trials {
    /// `true` for the adaptive policy.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, Trials::Adaptive(_))
    }
}

/// A ranker configuration — part of the result-cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RankerSpec {
    /// Ranking semantics.
    pub method: Method,
    /// Monte Carlo trial policy (ignored by deterministic methods).
    pub trials: Trials,
    /// Base RNG seed (ignored by deterministic methods). The effective
    /// per-query seed also mixes in the query content; see
    /// [`RankerSpec::effective_seed`].
    pub seed: u64,
    /// Opt into intra-query parallel Monte Carlo. Only meaningful for
    /// [`Method::TraversalMc`]: under the traversal estimator the
    /// trials run as [`PARALLEL_MC_CHUNKS`] fixed RNG streams spread
    /// over OS threads, so the estimate depends only on request
    /// content — never on the thread count — and stays cache-coherent
    /// with repeated parallel executions. The word estimator (every
    /// thread split of it is bit-identical to the sequential run the
    /// service does) and the other methods ignore the flag.
    pub parallel: bool,
    /// Which Monte Carlo engine runs a [`Method::TraversalMc`]
    /// request. `None` means "unspecified": a server applies its
    /// configured default (`biorank serve --estimator`), direct
    /// [`QueryEngine`] callers get [`Estimator::Traversal`]. The two
    /// engines produce different sample schedules, so the resolved
    /// estimator is part of the result-cache key. Other methods
    /// ignore the field.
    pub estimator: Option<Estimator>,
}

impl RankerSpec {
    /// Default trial count — the paper's M1 configuration (Theorem 3.1
    /// bound for ε = 0.02 at 95% confidence).
    pub const DEFAULT_TRIALS: u32 = 10_000;
    /// Default base seed, shared with the experiment binaries.
    pub const DEFAULT_SEED: u64 = 0xB10_C0DE;

    /// A spec for `method` with the default fixed trials/seed,
    /// sequential, with the default (traversal) estimator.
    pub fn new(method: Method) -> Self {
        RankerSpec {
            method,
            trials: Trials::Fixed(Self::DEFAULT_TRIALS),
            seed: Self::DEFAULT_SEED,
            parallel: false,
            estimator: None,
        }
    }

    /// The Monte Carlo engine this spec executes with: the explicit
    /// choice, or [`Estimator::Traversal`] when unspecified.
    pub fn resolved_estimator(&self) -> Estimator {
        self.estimator.unwrap_or_default()
    }

    /// `true` when this spec hands strategy choice to the planner.
    /// Non-plannable methods ignore the estimator field everywhere
    /// (cache keys included), so `auto` on them needs no rewriting.
    fn wants_plan(&self) -> bool {
        self.estimator == Some(Estimator::Auto) && self.method.is_plannable()
    }

    /// The seed actually handed to a Monte Carlo ranker for `query`:
    /// a content-derived mix, so concurrent execution order cannot
    /// influence results.
    pub fn effective_seed(&self, query: &ExploratoryQuery) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut eat = |s: &str| {
            for b in s.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff; // field separator
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(&query.input);
        eat(&query.attribute);
        eat(&query.value);
        for o in &query.outputs {
            eat(o);
        }
        // SplitMix64 finalizer over seed ⊕ content hash.
        let mut z = self.seed ^ h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The spec as used in the result-cache key. Deterministic
    /// methods ignore `trials`/`seed`, so those fields are normalized
    /// to zero — requests differing only in an irrelevant seed share
    /// one cache entry instead of recomputing identical rankings.
    ///
    /// For [`Method::TraversalMc`] the estimator is resolved to its
    /// concrete engine (`None` ≡ explicit traversal — same bits, one
    /// entry), and distinct engines get distinct keys: a word-parallel
    /// result must never answer a traversal request or vice versa.
    /// `parallel` survives only for the traversal engine under
    /// **fixed** trials, where it selects the (different, chunked)
    /// sampling schedule; the word engine is bit-identical at every
    /// thread count, and the adaptive runner always drives the
    /// engine's canonical incremental schedule, so the flag is
    /// normalized away in both cases. Everywhere else both fields are
    /// irrelevant and zeroed.
    ///
    /// The trial policy itself stays verbatim for stochastic methods:
    /// `Trials::Fixed(10_000)` and `Trials::Adaptive { .. }` are
    /// different sampling schedules and never share an entry.
    pub fn cache_key(&self) -> RankerSpec {
        if self.method.is_stochastic() {
            let estimator = if self.method == Method::TraversalMc {
                Some(self.resolved_estimator())
            } else {
                None
            };
            RankerSpec {
                parallel: self.parallel
                    && !self.trials.is_adaptive()
                    && estimator == Some(Estimator::Traversal),
                estimator,
                ..*self
            }
        } else {
            RankerSpec {
                method: self.method,
                trials: Trials::Fixed(0),
                seed: 0,
                parallel: false,
                estimator: None,
            }
        }
    }

    /// The per-engine latency histogram this spec's executions record
    /// into. Static strings (one per `(method, estimator)` pair) keep
    /// the hot path free of per-request name formatting.
    pub fn latency_metric(&self) -> &'static str {
        match self.method {
            Method::TraversalMc => match self.resolved_estimator() {
                Estimator::Traversal => "query_ns.mc.traversal",
                // `auto` is resolved by the engine before execution;
                // an unresolved spec runs (and records as) the word
                // engine, the strongest single default.
                Estimator::Word | Estimator::Auto => "query_ns.mc.word",
            },
            Method::Reliability => "query_ns.rel",
            Method::Propagation => "query_ns.prop",
            Method::Diffusion => "query_ns.diff",
            Method::InEdge => "query_ns.inedge",
            Method::PathCount => "query_ns.pathc",
            Method::Exact => "query_ns.exact",
        }
    }

    /// The per-engine request counter this spec's executions bump,
    /// same keying as [`latency_metric`](RankerSpec::latency_metric).
    pub fn count_metric(&self) -> &'static str {
        match self.method {
            Method::TraversalMc => match self.resolved_estimator() {
                Estimator::Traversal => "queries.mc.traversal",
                Estimator::Word | Estimator::Auto => "queries.mc.word",
            },
            Method::Reliability => "queries.rel",
            Method::Propagation => "queries.prop",
            Method::Diffusion => "queries.diff",
            Method::InEdge => "queries.inedge",
            Method::PathCount => "queries.pathc",
            Method::Exact => "queries.exact",
        }
    }

    /// Builds the ranker for one fixed-trial (or deterministic) query
    /// — under an adaptive policy, the ceiling-trials fixed engine.
    /// The engine itself scores only deterministic methods this way:
    /// Monte Carlo runs go through the batch loop, which can carry a
    /// deadline and a certificate the `Ranker` interface cannot.
    pub fn build(&self, query: &ExploratoryQuery) -> Box<dyn Ranker + Send + Sync> {
        let seed = self.effective_seed(query);
        let trials = match self.trials {
            Trials::Fixed(n) => n,
            Trials::Adaptive(cfg) => cfg.max_trials,
        };
        match self.method {
            Method::Reliability => Box::new(ReducedMc::new(trials, seed)),
            Method::TraversalMc => match self.resolved_estimator() {
                Estimator::Traversal => Box::new(TraversalMc::new(trials, seed)),
                Estimator::Word | Estimator::Auto => {
                    Box::new(WordMc::<FUSION_LANES>::wide(trials, seed))
                }
            },
            Method::Propagation => Box::new(Propagation::auto()),
            Method::Diffusion => Box::new(Diffusion::auto()),
            Method::InEdge => Box::new(InEdge),
            Method::PathCount => Box::new(PathCount),
            // `trials`/`seed` are deliberately not forwarded: the
            // closed solution's backstops run fixed internal budgets,
            // keeping the method deterministic w.r.t. the spec.
            Method::Exact => Box::new(ClosedReliability::default()),
        }
    }
}

/// One query to execute: what to integrate and how to rank it.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// The exploratory query.
    pub query: ExploratoryQuery,
    /// Ranker configuration.
    pub spec: RankerSpec,
    /// Truncate the response to the first `top` ranked answers
    /// (`None` = all). Truncation happens at response assembly; the
    /// cache always holds the full (answer-set-wide) ranking.
    pub top: Option<usize>,
    /// Restrict adaptive certification to the `top` prefix: stop
    /// Monte Carlo batches once the top-`top` answers and their
    /// boundary gap resolve at (ε, δ), ignoring gaps further down
    /// (see [`biorank_rank::AdaptiveRunner::with_top_k`]). Only
    /// meaningful for stochastic methods under an adaptive trial
    /// policy with `top` set; everywhere else the flag is a no-op.
    /// Not a cache-key dimension — see [`RankedResult::covers`] for
    /// the prefix-reuse rule that takes its place.
    pub certify_top: bool,
    /// Which resident world to execute against (`None` = the server's
    /// default world). Routed by the server via
    /// [`WorldManager`](crate::tenancy::WorldManager); a
    /// [`QueryEngine`] itself is always single-world, so the field is
    /// not part of any cache key.
    pub world: Option<String>,
    /// Echo the per-stage span breakdown in the response. Purely
    /// observational: tracing changes neither the execution path nor
    /// any cache key (it is not a [`RankerSpec`] field), so a traced
    /// request is bit-identical to its untraced twin — answers,
    /// certificates, and cache effects included.
    pub trace: bool,
    /// Execution time budget in milliseconds, measured from
    /// [`QueryEngine::execute`] entry. A stochastic run still going
    /// when the budget expires is aborted between estimator batches
    /// with [`Error::Rank`] over
    /// [`biorank_rank::Error::DeadlineExceeded`], carrying
    /// partial-trial telemetry. Like `world` and `trace` this is not
    /// part of any cache key: the deadline only decides whether a run
    /// finishes, never what a finished run computes — a request that
    /// beats its deadline is bit-identical to the undeadlined twin,
    /// and an aborted run never reaches the result cache.
    pub deadline_ms: Option<u64>,
}

impl QueryRequest {
    /// The common case: rank a protein's candidate functions on the
    /// default world.
    pub fn protein_functions(protein: &str, spec: RankerSpec) -> Self {
        QueryRequest {
            query: ExploratoryQuery::protein_functions(protein),
            spec,
            top: None,
            certify_top: false,
            world: None,
            trace: false,
            deadline_ms: None,
        }
    }

    /// The same request with per-stage trace spans echoed back.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// The same request under an execution deadline of `ms`
    /// milliseconds (see [`QueryRequest::deadline_ms`]).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// The same request routed to a named world.
    pub fn on_world(mut self, world: impl Into<String>) -> Self {
        self.world = Some(world.into());
        self
    }

    /// The same request with top-k certification: return (and, under
    /// an adaptive policy, certify only) the first `k` answers.
    pub fn certified_top(mut self, k: usize) -> Self {
        self.top = Some(k);
        self.certify_top = true;
        self
    }

    /// The ranking coverage this request needs from a result: a
    /// certified top-k prefix when it opts into top-k certification
    /// under an adaptive policy, the fully ordered ranking otherwise.
    pub fn coverage(&self) -> Coverage {
        match self.top {
            Some(k)
                if self.certify_top
                    && self.spec.method.is_stochastic()
                    && self.spec.trials.is_adaptive() =>
            {
                Coverage::TopK(k)
            }
            _ => Coverage::Full,
        }
    }
}

/// The ranking coverage a request needs: how much of the answer order
/// must be backed by the executed trial schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coverage {
    /// The full answer ranking (every request that does not opt into
    /// top-k certification).
    Full,
    /// The top-k prefix plus its boundary gap.
    TopK(usize),
}

/// One ranked answer, fully resolved for transport.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedAnswer {
    /// Record key (e.g. the GO term id).
    pub key: String,
    /// Display label.
    pub label: String,
    /// Relevance score under the requested semantics.
    pub score: f64,
    /// First rank of the answer's tie group (1-based).
    pub rank_lo: usize,
    /// Last rank of the answer's tie group (1-based).
    pub rank_hi: usize,
}

/// The outcome of executing one [`QueryRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResponse {
    /// Ranked answers, best first, truncated to the request's `top`.
    pub answers: Vec<RankedAnswer>,
    /// Size of the full answer set before truncation.
    pub total_answers: usize,
    /// The stop certificate of an adaptive Monte Carlo execution
    /// (`None` for fixed-trial and deterministic requests). Cached
    /// alongside the ranking, so a result-cache hit echoes the
    /// certificate of the run that populated the entry.
    pub certificate: Option<Certificate>,
    /// `true` when this call did not have to run integration — the
    /// query graph came from the graph cache, or scoring was skipped
    /// entirely via the result cache. (It does not assert the graph
    /// entry is *still* resident: on a result-cache hit the graph
    /// layer is never consulted.)
    pub cached_graph: bool,
    /// `true` when the ranking was served from the result cache.
    pub cached_scores: bool,
    /// Wall-clock execution time of this call, in microseconds.
    pub micros: u64,
    /// Per-stage span breakdown, present only when the request set
    /// [`QueryRequest::trace`] (empty otherwise — and omitted from the
    /// wire encoding when empty).
    pub trace: Vec<TraceSpan>,
    /// The cost-based planner's verdict when this execution was
    /// planned (`estimator: "auto"`): chosen strategy, predicted
    /// cost, and the feature vector it scored. `None` for explicit
    /// requests. Echo-only, like `trace` — never a cache-key
    /// dimension; a result-cache hit echoes the *requesting* call's
    /// plan, whatever populated the entry.
    pub plan: Option<Plan>,
}

/// Combined cache counters for an engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Graph-cache (integration) counters.
    pub graphs: CacheStats,
    /// Result-cache (ranking) counters.
    pub results: CacheStats,
}

/// A fully ranked (and possibly certified) result, as stored in the
/// result cache.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedResult {
    /// The full ranking, best first. Under a top-k certificate only
    /// the certified prefix is bound-backed; the tail carries running
    /// estimates.
    pub answers: Vec<RankedAnswer>,
    /// The adaptive stop certificate, when one was produced.
    pub certificate: Option<Certificate>,
}

impl RankedResult {
    /// The prefix-reuse rule: can this stored result answer a request
    /// needing `coverage` exactly as well as (or better than)
    /// recomputing would?
    ///
    /// * Fixed-trial and deterministic results (no certificate) ran
    ///   the full precision schedule: they serve any coverage — two
    ///   requests differing only in `top`/`certify_top` share one
    ///   entry.
    /// * A **certified full** adaptive result satisfies any `k'`.
    /// * A **certified top-k** result serves `k' ≤ k`; a deeper
    ///   prefix (or the full ranking) must recompute — and the fresh,
    ///   strictly-more-certified entry then *replaces* this one.
    /// * An **uncertified** result (ceiling hit) only answers the
    ///   exact coverage it ran under: a narrower top-k request could
    ///   legitimately certify where this run could not, so it must be
    ///   allowed to try.
    pub fn covers(&self, coverage: Coverage) -> bool {
        let Some(cert) = &self.certificate else {
            return true;
        };
        match (cert.mode, coverage) {
            (CertificateMode::Full, Coverage::Full) => true,
            (CertificateMode::Full, Coverage::TopK(_)) => cert.certified,
            (CertificateMode::TopK(_), Coverage::Full) => false,
            (CertificateMode::TopK(m), Coverage::TopK(k)) => {
                if cert.certified {
                    k <= m as usize
                } else {
                    k == m as usize
                }
            }
        }
    }

    /// Does this result serve every coverage `other` serves? The
    /// replacement guard of the result cache: a freshly computed
    /// result only replaces a resident entry it dominates, so a run
    /// that certified *less* (or hit its ceiling uncertified) can
    /// never evict a stronger answer — without this, mixed top-k/full
    /// client populations whose full runs end uncertified would
    /// ping-pong the entry and recompute forever.
    ///
    /// The serving sets, per [`covers`](RankedResult::covers): no
    /// certificate or certified-full serve everything; certified
    /// top-m serves `k ≤ m`; uncertified runs serve only the exact
    /// coverage they ran under.
    pub fn serves_at_least(&self, other: &RankedResult) -> bool {
        use CertificateMode::{Full, TopK};
        let class = |r: &RankedResult| r.certificate.map(|c| (c.mode, c.certified));
        match (class(self), class(other)) {
            // Fixed/deterministic and certified-full serve everything.
            (None | Some((Full, true)), _) => true,
            (_, None | Some((Full, true))) => false,
            (Some((TopK(m), true)), Some((TopK(n), _))) => n <= m,
            (Some((Full, false)), Some((Full, false))) => true,
            (Some((TopK(m), false)), Some((TopK(n), false))) => m == n,
            // Remaining pairs serve disjoint coverages (an uncertified
            // run's singleton vs anything else).
            _ => false,
        }
    }
}

/// A long-lived, thread-safe query engine over a resident world.
///
/// Cheap to share: wrap it in an [`Arc`] and call
/// [`execute`](QueryEngine::execute) from any number of threads.
pub struct QueryEngine {
    mediator: Mediator,
    graphs: ShardedLru<ExploratoryQuery, Arc<IntegrationResult>>,
    results: ShardedLru<(ExploratoryQuery, RankerSpec), Arc<RankedResult>>,
    metrics: Arc<MetricsRegistry>,
    /// Single-flight table: one in-progress computation per result
    /// key. Concurrent identical misses block here instead of
    /// recomputing, then serve the leader's cached entry.
    flights: Mutex<HashMap<(ExploratoryQuery, RankerSpec), Arc<Flight>>>,
    /// Structural planner features per integrated query, so repeat
    /// `auto` requests skip re-extraction (and re-integration)
    /// entirely. Same capacity policy as the other cache layers.
    features: ShardedLru<ExploratoryQuery, GraphFeatures>,
    /// Theorem 3.2 compose hints of the resident schema, consulted
    /// for the planner's schema-reducibility feature (see
    /// [`QueryEngine::with_hints`]).
    hints: ComposeHints,
}

/// A single-flight entry: followers block on `done` until the leader
/// finishes (successfully or not) and re-check the result cache.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("flight");
        while !*done {
            done = self.cv.wait(done).expect("flight");
        }
    }

    fn signal(&self) {
        *self.done.lock().expect("flight") = true;
        self.cv.notify_all();
    }
}

/// Default number of cached integration results / rankings.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

/// Default shard count for the engine caches.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// RNG-stream count for `parallel` traversal-MC requests. Pinned (not
/// derived from the host CPU count) so a parallel request ranks
/// bit-identically on every machine and on every thread budget; only
/// the scheduling of the chunks follows the hardware.
pub const PARALLEL_MC_CHUNKS: usize = 8;

/// Lane width of the service's word engines: every propagation block
/// carries 8 × 64 trials. Width never changes results — batch `b`
/// draws from the stream keyed `(seed, b)` regardless of lane
/// placement — so this is purely a throughput knob.
pub const FUSION_LANES: usize = 8;

/// The outcome of resolving one `estimator: auto` request: the
/// rewritten request that actually executes, the plan to echo, and
/// whether feature extraction had to run integration itself (so the
/// response's `cached_graph` can stay truthful).
struct Planned {
    request: QueryRequest,
    plan: Plan,
    fresh_graph: bool,
}

impl QueryEngine {
    /// Creates an engine over a mediator with the default cache size.
    pub fn new(mediator: Mediator) -> Self {
        Self::with_cache_capacity(mediator, DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an engine with an explicit per-layer cache capacity.
    /// Capacity 0 disables caching (every request recomputes) — the
    /// benchmark baseline.
    pub fn with_cache_capacity(mediator: Mediator, capacity: usize) -> Self {
        QueryEngine {
            mediator,
            graphs: ShardedLru::new(capacity, DEFAULT_CACHE_SHARDS),
            results: ShardedLru::new(capacity, DEFAULT_CACHE_SHARDS),
            metrics: Arc::new(MetricsRegistry::new()),
            flights: Mutex::new(HashMap::new()),
            features: ShardedLru::new(capacity, DEFAULT_CACHE_SHARDS),
            hints: ComposeHints::none(),
        }
    }

    /// This engine with the schema's Theorem 3.2 compose hints, so
    /// the planner can recognize schema-reducible queries and offer
    /// the closed solution. Engines built without hints still plan —
    /// the exact strategy is then only eligible on instance-trivial
    /// reduction residuals.
    pub fn with_hints(mut self, hints: ComposeHints) -> Self {
        self.hints = hints;
        self
    }

    /// The wrapped mediator.
    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }

    /// This engine's metrics registry: per-stage timing histograms,
    /// per-estimator latency/count series, `trials_used`, and
    /// cache and snapshot-import counters. Engine-scoped on purpose — per-world
    /// metrics die with the engine at swap, exactly like its caches.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time copy of this engine's metrics. Cache counters
    /// (`cache.{graphs,results}.{hits,misses,entries,inserts,rejected}`)
    /// are folded in as gauges at snapshot time, so every scrape —
    /// including the final one a server takes at shutdown — carries
    /// the hit-rate numbers without a separate log line.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.stats();
        for (layer, c) in [("graphs", stats.graphs), ("results", stats.results)] {
            for (field, value) in [
                ("hits", c.hits),
                ("misses", c.misses),
                ("entries", c.entries as u64),
                ("inserts", c.inserts),
                ("rejected", c.rejected),
            ] {
                self.metrics
                    .gauge(&format!("cache.{layer}.{field}"))
                    .set(value);
            }
        }
        self.metrics.snapshot()
    }

    /// Executes one request, consulting both cache layers.
    ///
    /// The result cache holds **one entry per `(query, spec)`** —
    /// `top` and `certify_top` are not key dimensions. A lookup hits
    /// when the stored entry's certification covers what the request
    /// needs ([`RankedResult::covers`]); a request needing more (a
    /// deeper certified prefix, or the fully certified ranking)
    /// recomputes, and the fresh result **replaces** the entry only
    /// when it serves at least everything the resident entry does
    /// ([`RankedResult::serves_at_least`]) — a run that certified
    /// less, or hit its ceiling uncertified, is returned to its
    /// caller but never evicts a stronger cached answer.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse, Error> {
        let start = Instant::now();
        // The budget starts counting here: queueing upstream of the
        // engine (server queue, worker pool) is the caller's to
        // account — the server rewrites `deadline_ms` to the budget
        // remaining at submission.
        let deadline = req.deadline_ms.map(|ms| start + Duration::from_millis(ms));
        let mut trace = TraceRecorder::new(req.trace);
        // `estimator: auto` resolves into a concrete strategy *here*,
        // before the result key is formed — planned and explicit
        // requests for the chosen strategy share one cache entry and
        // execute identical code paths.
        let planned = self.resolve_plan(req, &mut trace)?;
        let req = planned.as_ref().map_or(req, |p| &p.request);
        let result_key = (req.query.clone(), req.spec.cache_key());
        let coverage = req.coverage();

        let mut response = loop {
            let (hit, cache_ns) = trace.time("cache", || {
                self.results
                    .get(&result_key)
                    .filter(|ranked| ranked.covers(coverage))
            });
            self.metrics.histogram("stage_ns.cache").record(cache_ns);

            if let Some(ranked) = hit {
                let (response, serialize_ns) = trace.time("serialize", || {
                    Self::assemble(&ranked, req.top, true, true, start)
                });
                self.metrics
                    .histogram("stage_ns.serialize")
                    .record(serialize_ns);
                self.finish_query(req, start, true);
                break response;
            }

            // Single-flight: one computation per result key at a time.
            // A follower blocks on the resident leader, then loops to
            // serve the entry the leader just cached; if the leader
            // failed — or certified less coverage than this request
            // needs — the re-check misses and this request becomes
            // the next leader.
            let role = {
                let mut flights = self.flights.lock().expect("flight map");
                match flights.get(&result_key) {
                    Some(leader) => {
                        self.metrics.counter("queries.coalesced").inc();
                        Err(Arc::clone(leader))
                    }
                    None => {
                        let flight = Arc::new(Flight::new());
                        flights.insert(result_key.clone(), Arc::clone(&flight));
                        Ok(flight)
                    }
                }
            };
            match role {
                Err(leader) => {
                    let waited = Instant::now();
                    leader.wait();
                    trace.span("coalesce", waited.elapsed().as_nanos() as u64);
                }
                Ok(flight) => {
                    let out = self.compute(req, &result_key, coverage, &mut trace, start, deadline);
                    self.flights.lock().expect("flight map").remove(&result_key);
                    flight.signal();
                    break out?;
                }
            }
        };
        if let Some(planned) = &planned {
            // Feature extraction may have run integration itself; the
            // compute path then saw a graph-cache hit it did not earn.
            if planned.fresh_graph {
                response.cached_graph = false;
            }
            response.plan = Some(planned.plan);
        }
        response.trace = trace.into_spans();
        Ok(response)
    }

    /// The miss path of [`execute`](QueryEngine::execute), run under
    /// single-flight leadership of `result_key`: integrate (through
    /// the graph cache), rank, record stage metrics, and publish to
    /// the result cache.
    fn compute(
        &self,
        req: &QueryRequest,
        result_key: &(ExploratoryQuery, RankerSpec),
        coverage: Coverage,
        trace: &mut TraceRecorder,
        start: Instant,
        deadline: Option<Instant>,
    ) -> Result<QueryResponse, Error> {
        let (integration, cached_graph) = self.integrate(&req.query, trace)?;

        // The scoring stage splits into "estimate" (estimator batches,
        // plus ranking assembly) and "certify" (the adaptive runner's
        // between-batch gap polls; zero for fixed and deterministic
        // runs) — certify is measured inside the run, estimate is the
        // remainder, so the two always sum to the full scoring time.
        let rank_start = Instant::now();
        let (ranked, certify_ns) =
            Self::rank(&integration, &req.query, &req.spec, coverage, deadline)?;
        let estimate_ns = (rank_start.elapsed().as_nanos() as u64).saturating_sub(certify_ns);
        trace.span("estimate", estimate_ns);
        trace.span("certify", certify_ns);
        self.metrics
            .histogram("stage_ns.estimate")
            .record(estimate_ns);
        self.metrics
            .histogram("stage_ns.certify")
            .record(certify_ns);
        if let Some(cert) = &ranked.certificate {
            self.metrics
                .histogram("trials_used")
                .record(u64::from(cert.trials_used));
            self.metrics
                .counter(if cert.certified {
                    "certified"
                } else {
                    "uncertified"
                })
                .inc();
        }

        let ranked = Arc::new(ranked);
        let ((), insert_ns) = trace.time("insert", || {
            self.results
                .insert_if(result_key.clone(), ranked.clone(), |resident| {
                    ranked.serves_at_least(resident)
                })
        });
        self.metrics.histogram("stage_ns.insert").record(insert_ns);

        let (response, serialize_ns) = trace.time("serialize", || {
            Self::assemble(&ranked, req.top, cached_graph, false, start)
        });
        self.metrics
            .histogram("stage_ns.serialize")
            .record(serialize_ns);
        self.finish_query(req, start, false);
        Ok(response)
    }

    /// The integrated graph of `query` through the graph cache, and
    /// whether that was a hit. Integration is timed as the `graph`
    /// span wherever it runs, planning included.
    fn integrate(
        &self,
        query: &ExploratoryQuery,
        trace: &mut TraceRecorder,
    ) -> Result<(Arc<IntegrationResult>, bool), Error> {
        let (graph, graph_ns) = trace.time("graph", || -> Result<_, Error> {
            match self.graphs.get(query) {
                Some(hit) => Ok((hit, true)),
                None => {
                    let computed = Arc::new(self.mediator.execute(query)?);
                    self.graphs.insert(query.clone(), computed.clone());
                    Ok((computed, false))
                }
            }
        });
        self.metrics.histogram("stage_ns.graph").record(graph_ns);
        graph
    }

    /// Per-request counters and the per-estimator latency series,
    /// recorded on every completed execution, hit or computed.
    fn finish_query(&self, req: &QueryRequest, start: Instant, cached: bool) {
        self.metrics.counter("queries").inc();
        self.metrics
            .counter(if cached {
                "queries.cached"
            } else {
                "queries.computed"
            })
            .inc();
        self.metrics.counter(req.spec.count_metric()).inc();
        self.metrics
            .histogram(req.spec.latency_metric())
            .record(start.elapsed().as_nanos() as u64);
    }

    /// Resolves an `estimator: auto` request into the concrete
    /// strategy the planner chooses, or `None` when the request
    /// doesn't ask for planning. Bumps `planner.chosen.<strategy>` and
    /// `planner.fallback`, and records the resolution as the `plan`
    /// trace span. A feature-cache miss integrates first, through the
    /// graph cache and in its own `graph` span, so `plan` times only
    /// feature extraction and planning.
    fn resolve_plan(
        &self,
        req: &QueryRequest,
        trace: &mut TraceRecorder,
    ) -> Result<Option<Planned>, Error> {
        if !req.spec.wants_plan() {
            return Ok(None);
        }
        let cached = self.features.get(&req.query);
        let integrated = match cached {
            Some(_) => None,
            None => Some(self.integrate(&req.query, trace)?),
        };
        let (planned, plan_ns) = trace.time("plan", || -> Result<_, Error> {
            let (graph, fresh_graph) = match integrated {
                Some((integration, cached_graph)) => {
                    let features = self.graph_features(&req.query, &integration);
                    self.features.insert(req.query.clone(), features);
                    (features, !cached_graph)
                }
                None => (cached.expect("a feature-cache miss integrates"), false),
            };
            let (request, plan) = Self::plan_request(req, graph);
            self.metrics.counter(chosen_metric(plan.strategy)).inc();
            if plan.fallback {
                self.metrics.counter("planner.fallback").inc();
            }
            Ok(Planned {
                request,
                plan,
                fresh_graph,
            })
        });
        self.metrics.histogram("stage_ns.plan").record(plan_ns);
        planned.map(Some)
    }

    /// Plans one `estimator: auto` request over its graph's features:
    /// the plan to echo, and the request rewritten to name the chosen
    /// strategy outright. The only caller of [`biorank_rank::plan`] in
    /// the service, and a pure function of its arguments — the model
    /// is [`CostModel::default`], never anything this engine has
    /// served, so a request plans identically on every engine over
    /// the same world.
    fn plan_request(req: &QueryRequest, graph: GraphFeatures) -> (QueryRequest, Plan) {
        let features = PlanFeatures::for_request(
            graph,
            match req.coverage() {
                Coverage::TopK(k) => Some(k as u32),
                Coverage::Full => None,
            },
            match req.spec.trials {
                Trials::Fixed(n) => TrialsPolicy::Fixed(n),
                Trials::Adaptive(cfg) => TrialsPolicy::Adaptive {
                    max_trials: cfg.max_trials,
                },
            },
        );
        let plan = biorank_rank::plan(&features, &CostModel::default());
        let mut request = req.clone();
        request.spec = spec_for_strategy(plan.strategy, &req.spec);
        (request, plan)
    }

    /// Extracts the planner features of one integrated query: the
    /// graph's structure plus the Theorem 3.2 verdict for the query's
    /// schema shape under this engine's compose hints (see
    /// [`query_schema_reducible`]).
    fn graph_features(
        &self,
        query: &ExploratoryQuery,
        integration: &IntegrationResult,
    ) -> GraphFeatures {
        GraphFeatures::extract(&integration.query).with_schema_reducible(query_schema_reducible(
            self.mediator.schema(),
            &self.hints,
            query,
        ))
    }

    /// Integrates and ranks without touching the caches (used by the
    /// cache-coherence test to cross-check cached responses). `auto`
    /// requests are planned here too — by the same pure function
    /// [`execute`](Self::execute) resolves them with, so an uncached
    /// cross-check always sees the same strategy.
    pub fn execute_uncached(&self, req: &QueryRequest) -> Result<QueryResponse, Error> {
        let start = Instant::now();
        let integration = self.mediator.execute(&req.query)?;
        let planned = req
            .spec
            .wants_plan()
            .then(|| Self::plan_request(req, self.graph_features(&req.query, &integration)));
        let (resolved, plan) = match &planned {
            Some((request, plan)) => (request, Some(*plan)),
            None => (req, None),
        };
        let (ranked, _) = Self::rank(
            &integration,
            &resolved.query,
            &resolved.spec,
            resolved.coverage(),
            None,
        )?;
        let mut response = Self::assemble(&ranked, req.top, false, false, start);
        response.plan = plan;
        Ok(response)
    }

    /// Turns a score vector (plus optional certificate) into the
    /// cached [`RankedResult`] form, resolving answer keys and labels
    /// against the integration.
    fn ranked_result(
        integration: &IntegrationResult,
        scores: &Scores,
        certificate: Option<Certificate>,
    ) -> RankedResult {
        let ranking = Ranking::rank(scores.answers(&integration.query));
        RankedResult {
            answers: ranking
                .entries()
                .iter()
                .map(|e| RankedAnswer {
                    key: integration.answer_key(e.node).unwrap_or("?").to_string(),
                    label: integration.label(e.node).to_string(),
                    score: e.score,
                    rank_lo: e.rank_lo,
                    rank_hi: e.rank_hi,
                })
                .collect(),
            certificate,
        }
    }

    /// Scores and ranks one request — the one scoring function behind
    /// both [`execute`](Self::execute)'s miss path and
    /// [`execute_uncached`](Self::execute_uncached) — returning the
    /// result plus the nanoseconds its adaptive runner spent in
    /// certification polls (zero for fixed and deterministic
    /// executions).
    fn rank(
        integration: &IntegrationResult,
        query: &ExploratoryQuery,
        spec: &RankerSpec,
        coverage: Coverage,
        deadline: Option<Instant>,
    ) -> Result<(RankedResult, u64), Error> {
        let q = &integration.query;
        let mut certificate = None;
        let mut certify_nanos = 0u64;
        let scores = match spec.trials {
            // `parallel` survives in the cache key exactly where it
            // selects the chunked schedule (fixed traversal): chunk
            // count pinned for determinism, thread budget following
            // the hardware.
            Trials::Fixed(trials) if spec.cache_key().parallel => {
                let threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                TraversalMc::new(trials, spec.effective_seed(query)).score_chunked(
                    q,
                    PARALLEL_MC_CHUNKS,
                    threads.min(PARALLEL_MC_CHUNKS),
                )?
            }
            trials if spec.method.is_stochastic() => {
                let run = run_stochastic(
                    spec.method,
                    spec.resolved_estimator(),
                    trials,
                    spec.effective_seed(query),
                    match coverage {
                        Coverage::TopK(k) => Some(k),
                        Coverage::Full => None,
                    },
                    deadline,
                    q,
                )?;
                match run {
                    StochasticRun::Fixed(scores) => scores,
                    StochasticRun::Adaptive(outcome) => {
                        certificate = Some(outcome.certificate);
                        certify_nanos = outcome.poll_nanos;
                        outcome.scores
                    }
                }
            }
            // Deterministic methods never sample, so the trial policy
            // (fixed or adaptive) is irrelevant to them.
            _ => spec.build(query).score(q)?,
        };
        Ok((
            Self::ranked_result(integration, &scores, certificate),
            certify_nanos,
        ))
    }

    fn assemble(
        ranked: &RankedResult,
        top: Option<usize>,
        cached_graph: bool,
        cached_scores: bool,
        start: Instant,
    ) -> QueryResponse {
        let total_answers = ranked.answers.len();
        let take = top.unwrap_or(total_answers).min(total_answers);
        QueryResponse {
            answers: ranked.answers[..take].to_vec(),
            total_answers,
            certificate: ranked.certificate,
            cached_graph,
            cached_scores,
            micros: start.elapsed().as_micros() as u64,
            trace: Vec::new(),
            plan: None,
        }
    }

    /// Cache counters for observability (`stats` responses, logs).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            graphs: self.graphs.stats(),
            results: self.results.stats(),
        }
    }

    /// The result cache's entries, most-recently-used first — the raw
    /// material of a durable snapshot (see `crate::persist`). The
    /// graph cache is not exported: it is a pure function of world and
    /// query and refills on the first miss. The `Arc`s are clones;
    /// exporting never blocks the query path beyond the per-shard
    /// locks a normal lookup takes.
    pub fn export_cache(&self) -> Vec<((ExploratoryQuery, RankerSpec), Arc<RankedResult>)> {
        self.results.hot_entries()
    }

    /// Replays exported result entries (see
    /// [`export_cache`](QueryEngine::export_cache)) into this engine
    /// **verbatim** — no recomputation, so a snapshot restore is
    /// bit-identical by construction. Entries arrive MRU-first and are
    /// inserted in reverse, so the restored LRU order matches the
    /// exported one. Every imported entry counts on `snapshot.results_imported`.
    /// Returns the number of entries imported.
    pub fn import_cache(
        &self,
        results: Vec<((ExploratoryQuery, RankerSpec), Arc<RankedResult>)>,
    ) -> usize {
        let count = results.len();
        for (key, ranked) in results.into_iter().rev() {
            self.metrics.counter("snapshot.results_imported").inc();
            self.results.insert(key, ranked);
        }
        count
    }
}

/// The explicit [`RankerSpec`] one planner strategy maps onto:
/// `trials`, `seed`, and `parallel` survive verbatim, only the
/// `(method, estimator)` pair is rewritten — so a planned execution
/// is byte-identical to a client naming the strategy outright.
pub fn spec_for_strategy(strategy: Strategy, spec: &RankerSpec) -> RankerSpec {
    let (method, estimator) = match strategy {
        Strategy::Exact => (Method::Exact, None),
        Strategy::ReducedMc => (Method::Reliability, None),
        Strategy::WordMc => (Method::TraversalMc, Some(Estimator::Word)),
        Strategy::TraversalMc => (Method::TraversalMc, Some(Estimator::Traversal)),
    };
    RankerSpec {
        method,
        estimator,
        ..*spec
    }
}

/// Theorem 3.2 verdict for one query's schema shape: every output
/// set must check out reducible from the query root under the given
/// compose hints. Conservative by design — unknown entity sets (or
/// empty hints) read as irreducible, which only costs the planner the
/// exact strategy.
pub fn query_schema_reducible(
    schema: &Schema,
    hints: &ComposeHints,
    query: &ExploratoryQuery,
) -> bool {
    let Some(root) = schema
        .entity_set_by_name("Query")
        .or_else(|| schema.entity_set_by_name(&query.input))
    else {
        return false;
    };
    !query.outputs.is_empty()
        && query.outputs.iter().all(|output| {
            schema.entity_set_by_name(output).is_some_and(|answers| {
                check_query_reducible(schema, root, answers, hints).is_reducible()
            })
        })
}

/// `planner.chosen.<strategy>` counter name, statically interned.
fn chosen_metric(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Exact => "planner.chosen.exact",
        Strategy::ReducedMc => "planner.chosen.reduced",
        Strategy::WordMc => "planner.chosen.word",
        Strategy::TraversalMc => "planner.chosen.traversal",
    }
}

/// Runs one adaptive Monte Carlo execution through the same
/// `(method, estimator) → engine` dispatch [`QueryEngine`] scores
/// with. `method` must be stochastic; `estimator` selects the
/// engine for [`Method::TraversalMc`] and is ignored by
/// [`Method::Reliability`] (reduction + traversal batches). A `top_k`
/// restricts certification to that prefix and its boundary gap
/// ([`AdaptiveRunner::with_top_k`]).
pub fn run_adaptive(
    method: Method,
    estimator: Estimator,
    cfg: AdaptiveConfig,
    seed: u64,
    top_k: Option<usize>,
    q: &biorank_graph::QueryGraph,
) -> Result<AdaptiveOutcome, biorank_rank::Error> {
    run_adaptive_with_deadline(method, estimator, cfg, seed, top_k, None, q)
}

/// [`run_adaptive`] under an optional execution deadline: the runner
/// aborts between batches with
/// [`biorank_rank::Error::DeadlineExceeded`] once `deadline` passes
/// (see [`AdaptiveRunner::with_deadline`]). A run that completes in
/// time is bit-identical to an undeadlined run.
pub fn run_adaptive_with_deadline(
    method: Method,
    estimator: Estimator,
    cfg: AdaptiveConfig,
    seed: u64,
    top_k: Option<usize>,
    deadline: Option<Instant>,
    q: &biorank_graph::QueryGraph,
) -> Result<AdaptiveOutcome, biorank_rank::Error> {
    let policy = Trials::Adaptive(cfg);
    match run_stochastic(method, estimator, policy, seed, top_k, deadline, q)? {
        StochasticRun::Adaptive(outcome) => Ok(outcome),
        StochasticRun::Fixed(_) => unreachable!("an adaptive policy runs the adaptive runner"),
    }
}

/// What one [`run_stochastic`] execution produced, by trial policy.
enum StochasticRun {
    Fixed(Scores),
    Adaptive(AdaptiveOutcome),
}

/// Runs one sequential Monte Carlo execution: the single place the
/// `(method, estimator, trial policy) → engine` dispatch lives. Fixed
/// or adaptive, word / traversal / reduced — the engine is built once
/// and driven through the one batch loop ([`run_batches`]) under
/// `deadline`, polling the fault-injection stall after each batch.
/// Arguments as for [`run_adaptive`]; `top_k` only matters to the
/// adaptive policy.
fn run_stochastic(
    method: Method,
    estimator: Estimator,
    trials: Trials,
    seed: u64,
    top_k: Option<usize>,
    deadline: Option<Instant>,
    q: &biorank_graph::QueryGraph,
) -> Result<StochasticRun, biorank_rank::Error> {
    fn run<E: biorank_rank::Estimator>(
        engine: E,
        trials: Trials,
        top_k: Option<usize>,
        deadline: Option<Instant>,
        q: &biorank_graph::QueryGraph,
    ) -> Result<StochasticRun, biorank_rank::Error> {
        // Fault-injection hook, once per propagated word block (every
        // engine keeps that cadence): one relaxed load when no stall
        // is installed. Sitting between batches, ahead of the polls, a
        // stalled run's deadline can fire without perturbing the
        // sample schedule of runs that finish on time.
        let stall = |stats: BatchStats| {
            if (stats.batch as usize).is_multiple_of(FUSION_LANES) {
                crate::admission::maybe_stall_batch();
            }
        };
        match trials {
            Trials::Fixed(_) => run_batches(&engine, q, deadline, |_, stats| {
                stall(stats);
                false
            })
            .map(|run| StochasticRun::Fixed(run.scores)),
            Trials::Adaptive(cfg) => {
                let mut runner = AdaptiveRunner::new(engine, cfg.epsilon, cfg.delta);
                if let Some(k) = top_k {
                    runner = runner.with_top_k(k);
                }
                if let Some(d) = deadline {
                    runner = runner.with_deadline(d);
                }
                runner.run_observed(q, stall).map(StochasticRun::Adaptive)
            }
        }
    }
    let budget = match trials {
        Trials::Fixed(n) => n,
        Trials::Adaptive(cfg) => cfg.max_trials,
    };
    match method {
        Method::Reliability => run(ReducedMc::new(budget, seed), trials, top_k, deadline, q),
        Method::TraversalMc => match estimator {
            Estimator::Traversal => run(TraversalMc::new(budget, seed), trials, top_k, deadline, q),
            // `auto` is resolved before execution; unresolved callers
            // get the word engine, matching `RankerSpec::build`.
            Estimator::Word | Estimator::Auto => run(
                WordMc::<FUSION_LANES>::wide(budget, seed),
                trials,
                top_k,
                deadline,
                q,
            ),
        },
        // Deterministic methods have no trials to run; callers filter
        // on `Method::is_stochastic` first.
        _ => Err(biorank_rank::Error::InvalidParameter {
            name: "method",
            value: f64::NAN,
        }),
    }
}

// The whole point of the serving layer: the engine must be shareable
// across worker threads. Compile-time proof, so a future `Rc` or
// `RefCell` slipped into the mediator/ranker stack fails here, not in
// a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<Mediator>();
    assert_send_sync::<IntegrationResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parse_roundtrip() {
        for m in [
            Method::Reliability,
            Method::TraversalMc,
            Method::Propagation,
            Method::Diffusion,
            Method::InEdge,
            Method::PathCount,
            Method::Exact,
        ] {
            assert_eq!(Method::parse(m.wire_name()), Some(m));
        }
        assert_eq!(Method::parse("nope"), None);
        assert_eq!(Method::parse("RELIABILITY"), Some(Method::Reliability));
        assert_eq!(Method::parse("closed"), Some(Method::Exact));
        assert!(!Method::Exact.is_stochastic());
        assert!(!Method::Exact.is_plannable());
    }

    #[test]
    fn estimator_parse_roundtrip() {
        for e in [Estimator::Traversal, Estimator::Word, Estimator::Auto] {
            assert_eq!(Estimator::parse(e.wire_name()), Some(e));
        }
        assert_eq!(Estimator::parse("WORD"), Some(Estimator::Word));
        assert_eq!(Estimator::parse("nope"), None);
    }

    #[test]
    fn strategy_specs_are_explicitly_requestable() {
        // Every planner strategy must map onto a spec a client can
        // name outright — that's what makes a planned execution
        // byte-identical to an explicit request, and lets auto and
        // explicit traffic share cache entries.
        let base = RankerSpec {
            estimator: Some(Estimator::Auto),
            ..RankerSpec::new(Method::TraversalMc)
        };
        for (strategy, method, estimator) in [
            (Strategy::Exact, Method::Exact, None),
            (Strategy::ReducedMc, Method::Reliability, None),
            (Strategy::WordMc, Method::TraversalMc, Some(Estimator::Word)),
            (
                Strategy::TraversalMc,
                Method::TraversalMc,
                Some(Estimator::Traversal),
            ),
        ] {
            let resolved = spec_for_strategy(strategy, &base);
            assert_eq!(resolved.method, method);
            assert_eq!(resolved.estimator, estimator);
            // Trials/seed/parallel survive verbatim.
            assert_eq!(resolved.trials, base.trials);
            assert_eq!(resolved.seed, base.seed);
            assert_eq!(resolved.parallel, base.parallel);
            // And the resolved spec keys exactly like the explicit one.
            let explicit = RankerSpec {
                method,
                estimator,
                ..base
            };
            assert_eq!(resolved.cache_key(), explicit.cache_key());
        }
    }

    #[test]
    fn exact_cache_key_ignores_trials_and_seed() {
        let a = RankerSpec::new(Method::Exact);
        let b = RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            seed: 99,
            parallel: true,
            estimator: Some(Estimator::Auto),
            ..a
        };
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn cache_key_resolves_estimators() {
        // Unspecified ≡ explicit traversal: one cache entry.
        let unspecified = RankerSpec::new(Method::TraversalMc);
        let traversal = RankerSpec {
            estimator: Some(Estimator::Traversal),
            ..unspecified
        };
        let word = RankerSpec {
            estimator: Some(Estimator::Word),
            ..unspecified
        };
        assert_eq!(unspecified.cache_key(), traversal.cache_key());
        // Word gets its own key: no cross-estimator cache hits.
        assert_ne!(unspecified.cache_key(), word.cache_key());
        // The word engine is thread-count-invariant, so `parallel`
        // normalizes away for it but not for traversal.
        let word_parallel = RankerSpec {
            parallel: true,
            ..word
        };
        assert_eq!(word.cache_key(), word_parallel.cache_key());
        let traversal_parallel = RankerSpec {
            parallel: true,
            ..traversal
        };
        assert_ne!(traversal.cache_key(), traversal_parallel.cache_key());
        // Methods that never consult the estimator fold it away.
        let pathc = RankerSpec {
            estimator: Some(Estimator::Word),
            ..RankerSpec::new(Method::PathCount)
        };
        assert_eq!(
            pathc.cache_key(),
            RankerSpec::new(Method::PathCount).cache_key()
        );
        let rel = RankerSpec {
            estimator: Some(Estimator::Word),
            ..RankerSpec::new(Method::Reliability)
        };
        assert_eq!(
            rel.cache_key(),
            RankerSpec::new(Method::Reliability).cache_key()
        );
    }

    #[test]
    fn cache_key_separates_trial_policies() {
        // Fixed and adaptive runs of the same query are different
        // sampling schedules: no shared entry, ever.
        let fixed = RankerSpec::new(Method::TraversalMc);
        let adaptive = RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..fixed
        };
        assert_ne!(fixed.cache_key(), adaptive.cache_key());
        // Same policy → same key (bit-equal floats compare equal).
        let again = RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..fixed
        };
        assert_eq!(adaptive.cache_key(), again.cache_key());
        // Different ε is a different policy.
        let tighter = RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig {
                epsilon: 0.01,
                ..AdaptiveConfig::default()
            }),
            ..fixed
        };
        assert_ne!(adaptive.cache_key(), tighter.cache_key());
        // The adaptive runner drives the canonical sequential
        // schedule, so `parallel` normalizes away under it...
        let adaptive_parallel = RankerSpec {
            parallel: true,
            ..adaptive
        };
        assert_eq!(adaptive.cache_key(), adaptive_parallel.cache_key());
        // ...and estimators still get distinct adaptive keys.
        let adaptive_word = RankerSpec {
            estimator: Some(Estimator::Word),
            ..adaptive
        };
        assert_ne!(adaptive.cache_key(), adaptive_word.cache_key());
        // Deterministic methods ignore the policy entirely.
        let pathc_adaptive = RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..RankerSpec::new(Method::PathCount)
        };
        assert_eq!(
            pathc_adaptive.cache_key(),
            RankerSpec::new(Method::PathCount).cache_key()
        );
    }

    #[test]
    fn coverage_follows_certify_top_only_when_it_can_apply() {
        let adaptive = RankerSpec {
            trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..RankerSpec::new(Method::TraversalMc)
        };
        let req = QueryRequest::protein_functions("GALT", adaptive).certified_top(10);
        assert_eq!(req.coverage(), Coverage::TopK(10));
        // `top` alone shapes the response; it never narrows coverage.
        let mut shaped = QueryRequest::protein_functions("GALT", adaptive);
        shaped.top = Some(10);
        assert_eq!(shaped.coverage(), Coverage::Full);
        // certify_top without a top has no k to certify: full.
        let mut no_k = QueryRequest::protein_functions("GALT", adaptive);
        no_k.certify_top = true;
        assert_eq!(no_k.coverage(), Coverage::Full);
        // Fixed trials and deterministic methods run full schedules.
        let fixed = QueryRequest::protein_functions("GALT", RankerSpec::new(Method::TraversalMc))
            .certified_top(10);
        assert_eq!(fixed.coverage(), Coverage::Full);
        let pathc = QueryRequest::protein_functions(
            "GALT",
            RankerSpec {
                trials: Trials::Adaptive(AdaptiveConfig::default()),
                ..RankerSpec::new(Method::PathCount)
            },
        )
        .certified_top(10);
        assert_eq!(pathc.coverage(), Coverage::Full);
    }

    #[test]
    fn prefix_reuse_rule_on_stored_results() {
        let stored = |certificate: Option<Certificate>| RankedResult {
            answers: Vec::new(),
            certificate,
        };
        let cert = |mode, certified| Certificate {
            trials_used: 640,
            epsilon: 0.07,
            certified,
            mode,
        };
        // No certificate (fixed / deterministic): serves everything —
        // requests differing only in top/certify_top share the entry.
        let fixed = stored(None);
        assert!(fixed.covers(Coverage::Full));
        assert!(fixed.covers(Coverage::TopK(3)));
        // Certified full: serves any k'.
        let full = stored(Some(cert(CertificateMode::Full, true)));
        assert!(full.covers(Coverage::Full));
        assert!(full.covers(Coverage::TopK(100)));
        // Certified top-10: serves k' ≤ 10; deeper needs recompute.
        let top10 = stored(Some(cert(CertificateMode::TopK(10), true)));
        assert!(top10.covers(Coverage::TopK(10)));
        assert!(top10.covers(Coverage::TopK(3)));
        assert!(!top10.covers(Coverage::TopK(11)));
        assert!(!top10.covers(Coverage::Full));
        // Uncertified runs only answer the exact coverage they ran
        // under: a narrower top-k could still certify on its own.
        let full_u = stored(Some(cert(CertificateMode::Full, false)));
        assert!(full_u.covers(Coverage::Full));
        assert!(!full_u.covers(Coverage::TopK(3)));
        let top10_u = stored(Some(cert(CertificateMode::TopK(10), false)));
        assert!(top10_u.covers(Coverage::TopK(10)));
        assert!(!top10_u.covers(Coverage::TopK(3)));
        assert!(!top10_u.covers(Coverage::Full));
    }

    #[test]
    fn replacement_guard_never_lets_weaker_results_evict_stronger() {
        let stored = |certificate: Option<Certificate>| RankedResult {
            answers: Vec::new(),
            certificate,
        };
        let cert = |mode, certified| Certificate {
            trials_used: 640,
            epsilon: 0.07,
            certified,
            mode,
        };
        let fixed = stored(None);
        let full = stored(Some(cert(CertificateMode::Full, true)));
        let full_u = stored(Some(cert(CertificateMode::Full, false)));
        let top10 = stored(Some(cert(CertificateMode::TopK(10), true)));
        let top3 = stored(Some(cert(CertificateMode::TopK(3), true)));
        let top10_u = stored(Some(cert(CertificateMode::TopK(10), false)));

        // All-serving results replace anything.
        for resident in [&fixed, &full, &full_u, &top10, &top10_u] {
            assert!(fixed.serves_at_least(resident));
            assert!(full.serves_at_least(resident));
        }
        // Certified top-k dominates shallower (and equal) top-k —
        // certified or not — but nothing full-shaped.
        assert!(top10.serves_at_least(&top3));
        assert!(top10.serves_at_least(&top10));
        assert!(top10.serves_at_least(&top10_u));
        assert!(!top3.serves_at_least(&top10));
        assert!(!top10.serves_at_least(&full));
        assert!(!top10.serves_at_least(&full_u));
        assert!(!top10.serves_at_least(&fixed));
        // The review scenario: an uncertified full (ceiling) run must
        // NOT evict a certified top-k entry — mixed top-k/full
        // populations would otherwise ping-pong the entry forever.
        assert!(!full_u.serves_at_least(&top10));
        assert!(full_u.serves_at_least(&full_u));
        assert!(!full_u.serves_at_least(&full));
        // Uncertified top-k serves only its exact coverage.
        assert!(top10_u.serves_at_least(&top10_u));
        assert!(!top10_u.serves_at_least(&top3));
        assert!(!top10_u.serves_at_least(&top10));
        assert!(!top10_u.serves_at_least(&full_u));
    }

    #[test]
    fn effective_seed_depends_on_content_not_order() {
        let spec = RankerSpec::new(Method::Reliability);
        let a = spec.effective_seed(&ExploratoryQuery::protein_functions("GALT"));
        let b = spec.effective_seed(&ExploratoryQuery::protein_functions("GALT"));
        let c = spec.effective_seed(&ExploratoryQuery::protein_functions("CFTR"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Different base seeds give different effective seeds.
        let spec2 = RankerSpec {
            seed: 1,
            ..RankerSpec::new(Method::Reliability)
        };
        assert_ne!(
            a,
            spec2.effective_seed(&ExploratoryQuery::protein_functions("GALT"))
        );
    }

    #[test]
    fn field_separation_avoids_concat_collisions() {
        let spec = RankerSpec::new(Method::Reliability);
        let q1 = ExploratoryQuery::new("AB", "x", "v", ["O"]);
        let q2 = ExploratoryQuery::new("A", "Bx", "v", ["O"]);
        assert_ne!(spec.effective_seed(&q1), spec.effective_seed(&q2));
    }

    #[test]
    fn protein_functions_schema_verdicts_the_planner_reads() {
        use biorank_schema::{biorank_schema, biorank_schema_full, biorank_schema_with_ontology};
        let query = ExploratoryQuery::protein_functions("ABCC8");
        // The served schemas: AmiGO's go2go self-loop keeps the view
        // cyclic, so Theorem 3.2 never applies.
        for (name, b) in [
            ("ontology", biorank_schema_with_ontology()),
            ("full", biorank_schema_full()),
        ] {
            assert!(
                !query_schema_reducible(&b.schema, &b.hints, &query),
                "{name}"
            );
        }
        // The plain Fig. 1 schema reduces per answer node.
        let b = biorank_schema();
        assert!(query_schema_reducible(&b.schema, &b.hints, &query));
    }
}
