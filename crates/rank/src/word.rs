//! Word-parallel Monte Carlo reliability estimation.
//!
//! [`TraversalMc`](crate::TraversalMc) (Algorithm 3.1) walks the graph
//! once per trial, drawing one `f64` per element it touches. For the
//! trial counts the paper's Theorem 3.1 demands (10⁴ per query), that
//! is thousands of pointer-chasing DFS walks. [`WordMc`] runs **64
//! trials at once**: each node and edge gets a `u64` *inclusion mask*
//! whose bit `t` is an independent Bernoulli draw for trial `t`, and
//! reachability propagates through the whole batch with bitwise
//! AND/OR over a flat [`CsrGraph`] snapshot:
//!
//! ```text
//! reach[y] |= reach[x] & edge_mask[x→y] & node_mask[y]
//! ```
//!
//! The engine is **lane-generic**: `WordMc<W>` propagates `W` 64-trial
//! batches per sweep as a `[u64; W]` block, so the inner loop above
//! vectorizes and the per-sweep bookkeeping (topo walk, offsets,
//! target loads) amortizes over `64·W` trials. Lane `l` of block `k`
//! *is* global batch `k·W + l` of the 1-lane schedule — each lane
//! draws from the stream seeded by `(seed, batch)` — so every lane
//! width produces bit-identical scores and identical adaptive
//! certificates to `WordMc<1>`.
//!
//! On a DAG — every query graph the paper's mediator produces — one
//! pass in topological order is exact; cyclic graphs fall back to a
//! bounded monotone fixpoint sweep, which converges because reach
//! masks only ever gain bits. Masks and reach words live in a
//! topologically streamed layout ([`CsrGraph::topo_layout`]) so the
//! sweep reads node state, edge masks, and targets as forward streams
//! rather than striding dense-id order. Per-node popcounts accumulate
//! the reach counters, so 10 000 trials collapse into 157 linear
//! sweeps (20 blocks at `W = 8`).
//!
//! Masks are drawn by a bit-sliced fixed-point comparison
//! ([`bernoulli_word`]): 64 uniform draws compare against `p` in
//! parallel, consuming one `u64` of randomness per *bit of precision
//! still undecided* — about 7 words per element per batch in
//! expectation instead of 64, which is where most of the speed-up over
//! per-trial sampling comes from. Elements with `p ≥ 1` or `p ≤ 0`
//! are excluded from the draw schedule entirely (their masks are
//! constant), exactly matching the 1-lane engine's no-consumption
//! early returns.
//!
//! All mask, reach, and popcount buffers come from a thread-local
//! arena and are leased for the lifetime of a run: zero heap
//! allocations after the first batch, and none at all once a thread
//! has warmed the pool.
//!
//! **Determinism contract:** batch `b` draws from its own RNG stream
//! seeded by a SplitMix64 mix of `(seed, b)`, and batch counts merge
//! by addition. The estimate therefore depends only on
//! `(trials, seed)` — never on the thread count or lane width — so
//! [`WordMc::score_parallel`] is bit-identical for every `threads`
//! and `W` value, and results stay coherent across a result cache.

use std::sync::Arc;

use biorank_graph::csr::CsrGraph;
use biorank_graph::QueryGraph;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::estimator::{merge_unit_counts, BatchStats, Estimator, BATCH_TRIALS};
use crate::{Error, Ranker, Scores};

/// Trials per batch: one bit of a machine word each (the incremental
/// [`Estimator`] contract's batch width — this engine is why 64 is
/// everyone's batch size).
const BATCH: u32 = BATCH_TRIALS;

/// Word-parallel Monte Carlo: `W` 64-trial lanes per propagation pass.
///
/// `WordMc` (no parameter) is the 1-lane engine; `WordMc::<8>::wide`
/// builds the block engine the service and benches run. Every width
/// is bit-identical — see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct WordMc<const W: usize = 1> {
    /// Number of independent trials (`n` in the paper).
    pub trials: u32,
    /// RNG seed; equal seeds give equal estimates.
    pub seed: u64,
}

impl WordMc {
    /// Creates a 1-lane word-parallel sampler with the given trial
    /// count and seed.
    pub fn new(trials: u32, seed: u64) -> Self {
        WordMc { trials, seed }
    }
}

impl<const W: usize> WordMc<W> {
    /// Creates a `W`-lane word-parallel sampler. Bit-identical to the
    /// 1-lane [`WordMc::new`] engine at every width; wider lanes only
    /// trade memory for propagation throughput.
    pub fn wide(trials: u32, seed: u64) -> Self {
        const { assert!(W >= 1, "lane width must be at least 1") };
        WordMc { trials, seed }
    }

    /// Runs the trial blocks split across up to `threads` scoped OS
    /// threads.
    ///
    /// Unlike [`TraversalMc::score_chunked`](crate::TraversalMc), no
    /// chunk layout needs pinning: every 64-trial batch owns an
    /// independent RNG stream and batch counts merge by `u64`
    /// addition, so **any** split produces bit-identical scores. The
    /// thread count is purely a latency knob.
    pub fn score_parallel(&self, q: &QueryGraph, threads: usize) -> Result<Scores, Error> {
        if self.trials == 0 {
            return Err(Error::ZeroTrials);
        }
        let csr = q.csr();
        let source = csr
            .dense(q.source())
            .expect("query source is live by construction");
        let plan = WidePlan::new(Arc::clone(&csr), source);
        let blocks = self.trials.div_ceil(BATCH).div_ceil(W as u32);
        let threads = threads.clamp(1, blocks as usize);
        // Contiguous block ranges, one per thread; the shared fan-out
        // driver runs them and merges by addition. Any partition is
        // bit-identical because every batch owns its own RNG stream.
        let base = blocks / threads as u32;
        let extra = blocks % threads as u32;
        let ranges: Vec<std::ops::Range<u32>> = (0..threads as u32)
            .scan(0u32, |start, i| {
                let share = base + u32::from(i < extra);
                let range = *start..*start + share;
                *start += share;
                Some(range)
            })
            .collect();
        let counts = merge_unit_counts(ranges.len(), threads, csr.node_count(), |i| {
            let mut partial = vec![0u64; csr.node_count()];
            let mut scratch = WideScratch::<W>::for_plan(&plan);
            run_blocks(
                &plan,
                ranges[i].clone(),
                self.trials,
                self.seed,
                &mut scratch,
                &mut partial,
            );
            partial
        });
        Ok(project(&csr, &counts, self.trials, q.graph().node_bound()))
    }
}

/// Maps dense CSR reach counts back onto original node ids as scores.
fn project(csr: &CsrGraph, counts: &[u64], trials: u32, node_bound: usize) -> Scores {
    let n = f64::from(trials.max(1));
    let mut scores = Scores::zeroed(node_bound);
    for (i, &c) in counts.iter().enumerate() {
        scores.set(csr.original(i as u32), c as f64 / n);
    }
    scores
}

/// Thread-local buffer pool backing [`WideScratch`].
///
/// Runs lease their mask/reach/popcount buffers here and return them
/// on drop, so repeated queries on a warm thread never touch the
/// allocator: the service starts a fresh engine run for every query
/// it computes.
mod arena {
    use std::cell::RefCell;

    thread_local! {
        static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
    }

    /// A zeroed buffer of `len` words, recycled when possible.
    pub(super) fn lease(len: usize) -> Vec<u64> {
        let mut v = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        v.clear();
        v.resize(len, 0);
        v
    }

    /// Returns a leased buffer to the pool.
    pub(super) fn reclaim(v: Vec<u64>) {
        POOL.with(|p| p.borrow_mut().push(v));
    }
}

/// Precomputed drawing + propagation plan for one CSR snapshot.
///
/// Element masks live in the topologically streamed layout
/// ([`CsrGraph::topo_layout`]): node slots are sweep positions, edge
/// slots are grouped by source position. The draw schedule lists only
/// elements with `0 < p < 1` — in the pinned order (nodes in dense
/// order, then edges in CSR order) that defines the RNG contract —
/// with their fixed-point thresholds precomputed; certain-present
/// elements are prefilled `!0` once per scratch and certain-absent
/// ones stay zero.
struct WidePlan {
    csr: Arc<CsrGraph>,
    /// Node count: node mask slots are `0..n`, edge slots `n..n + e`.
    n: usize,
    /// Edge count.
    e: usize,
    /// Sweep position of the query source node.
    source_pos: usize,
    /// `(mask slot, ⌊p·2³²⌋)` per uncertain element, pinned draw order.
    draws: Vec<(u32, u64)>,
    /// Mask slots of certain-present elements (`p ≥ 1`).
    certain: Vec<u32>,
}

impl WidePlan {
    fn new(csr: Arc<CsrGraph>, source_dense: u32) -> WidePlan {
        let layout = csr.topo_layout();
        let n = csr.node_count();
        let e = csr.edge_count();
        let mut draws = Vec::new();
        let mut certain = Vec::new();
        let mut classify = |slot: u32, p: f64| {
            if p >= 1.0 {
                certain.push(slot);
            } else if p > 0.0 {
                // ⌊p·2³²⌋ < 2³² since p < 1.
                draws.push((slot, (p * 4_294_967_296.0) as u64));
            }
        };
        for (d, &p) in csr.node_probs().iter().enumerate() {
            classify(layout.position(d as u32), p);
        }
        let slot_of_edge = layout.slot_of_edge();
        for (k, &q) in csr.edge_probs().iter().enumerate() {
            classify(n as u32 + slot_of_edge[k], q);
        }
        let source_pos = layout.position(source_dense) as usize;
        WidePlan {
            csr,
            n,
            e,
            source_pos,
            draws,
            certain,
        }
    }
}

/// Per-run working buffers for a `W`-lane engine, leased from the
/// thread-local arena. Lane `l` of mask slot `s` is word `s·W + l`,
/// so a propagation step reads each block as one contiguous
/// `[u64; W]`.
struct WideScratch<const W: usize> {
    /// Element inclusion masks: `(n + e)·W` words, certain slots
    /// prefilled.
    masks: Vec<u64>,
    /// Reach masks per sweep position: `n·W` words.
    reach: Vec<u64>,
    /// Per-position per-lane popcounts of the last propagated block:
    /// `n·W` words, overwritten per block.
    block_counts: Vec<u64>,
}

impl<const W: usize> WideScratch<W> {
    fn for_plan(plan: &WidePlan) -> WideScratch<W> {
        let mut masks = arena::lease((plan.n + plan.e) * W);
        for &slot in &plan.certain {
            let base = slot as usize * W;
            masks[base..base + W].fill(!0);
        }
        WideScratch {
            masks,
            reach: arena::lease(plan.n * W),
            block_counts: arena::lease(plan.n * W),
        }
    }
}

impl<const W: usize> Drop for WideScratch<W> {
    fn drop(&mut self) {
        arena::reclaim(std::mem::take(&mut self.masks));
        arena::reclaim(std::mem::take(&mut self.reach));
        arena::reclaim(std::mem::take(&mut self.block_counts));
    }
}

/// Draws lane `lane`'s element masks from the RNG stream `stream_seed`
/// (i.e. [`batch_seed`] of the lane's global batch index).
///
/// The draw order and per-element word consumption are exactly the
/// 1-lane engine's, so the lane reproduces that batch bit for bit.
fn draw_lane<const W: usize>(
    plan: &WidePlan,
    scratch: &mut WideScratch<W>,
    lane: usize,
    stream_seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(stream_seed);
    for &(slot, pfx) in &plan.draws {
        scratch.masks[slot as usize * W + lane] = bernoulli_word_pfx(&mut rng, pfx);
    }
}

/// Propagates one `W`-lane block of reach masks and banks per-lane
/// popcounts into the scratch.
///
/// `valid[l]` gates lane `l` at the source: `!0` for a full batch, a
/// low-bit prefix for the schedule's partial final batch, `0` for an
/// idle lane (its stale masks are harmless — reach only flows from
/// the source, so a zeroed source lane is zero everywhere).
fn propagate_block<const W: usize>(
    plan: &WidePlan,
    scratch: &mut WideScratch<W>,
    valid: &[u64; W],
) {
    let layout = plan.csr.topo_layout();
    let n = plan.n;
    let WideScratch {
        masks,
        reach,
        block_counts,
    } = scratch;
    reach.fill(0);
    let sp = plan.source_pos;
    for l in 0..W {
        reach[sp * W + l] = masks[sp * W + l] & valid[l];
    }
    let ltargets = layout.targets();
    if plan.csr.is_dag() {
        // DAG fast path: sweep positions are topological order, so
        // every predecessor block is final before its node is visited
        // and one forward pass is exact.
        for pos in 0..n {
            let mut rx = [0u64; W];
            rx.copy_from_slice(&reach[pos * W..pos * W + W]);
            if rx.iter().all(|&x| x == 0) {
                continue;
            }
            for slot in layout.out_range(pos as u32) {
                let y = ltargets[slot] as usize * W;
                let em = (n + slot) * W;
                for l in 0..W {
                    reach[y + l] |= rx[l] & masks[em + l] & masks[y + l];
                }
            }
        }
    } else {
        // Cyclic fallback: monotone fixpoint. Each sweep advances
        // every frontier by at least one hop, so `n` sweeps always
        // suffice; the loop usually exits far earlier. The fixpoint is
        // unique, so sweep count never changes the resulting bits.
        for _ in 0..n {
            let mut changed = false;
            for pos in 0..n {
                let mut rx = [0u64; W];
                rx.copy_from_slice(&reach[pos * W..pos * W + W]);
                if rx.iter().all(|&x| x == 0) {
                    continue;
                }
                for slot in layout.out_range(pos as u32) {
                    let y = ltargets[slot] as usize * W;
                    let em = (n + slot) * W;
                    for l in 0..W {
                        let add = rx[l] & masks[em + l] & masks[y + l];
                        if add & !reach[y + l] != 0 {
                            reach[y + l] |= add;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    for (bc, r) in block_counts.iter_mut().zip(reach.iter()) {
        *bc = u64::from(r.count_ones());
    }
}

/// Adds lane `lane`'s banked popcounts into `counts` (dense indexing).
fn fold_lane<const W: usize>(
    plan: &WidePlan,
    scratch: &WideScratch<W>,
    lane: usize,
    counts: &mut [u64],
) {
    let dense_of_pos = plan.csr.topo_layout().dense_of_pos();
    for (pos, &d) in dense_of_pos.iter().enumerate() {
        counts[d as usize] += scratch.block_counts[pos * W + lane];
    }
}

/// The source-gating mask of batch `batch` under a total budget of
/// `trials`: all-ones except for the schedule's partial final batch.
fn batch_valid(batch: u32, trials: u32) -> u64 {
    let last = trials.div_ceil(BATCH) - 1;
    match trials % BATCH {
        rem if rem != 0 && batch == last => !0u64 >> (BATCH - rem),
        _ => !0u64,
    }
}

/// Runs blocks `blocks` of the `(trials, seed)` schedule, adding
/// per-node reach popcounts into `counts` (dense indexing).
fn run_blocks<const W: usize>(
    plan: &WidePlan,
    blocks: std::ops::Range<u32>,
    trials: u32,
    seed: u64,
    scratch: &mut WideScratch<W>,
    counts: &mut [u64],
) {
    let num_batches = trials.div_ceil(BATCH);
    for blk in blocks {
        let first = blk * W as u32;
        let active = (W as u32).min(num_batches - first) as usize;
        let mut valid = [0u64; W];
        for (l, v) in valid.iter_mut().enumerate().take(active) {
            let b = first + l as u32;
            draw_lane(plan, scratch, l, batch_seed(seed, b));
            *v = batch_valid(b, trials);
        }
        propagate_block(plan, scratch, &valid);
        for lane in 0..active {
            fold_lane(plan, scratch, lane, counts);
        }
    }
}

/// In-progress state of an incremental [`WordMc`] run.
pub struct WordState<const W: usize = 1> {
    plan: WidePlan,
    counts: Vec<u64>,
    scratch: WideScratch<W>,
    node_bound: usize,
    trials_done: u32,
    trials_total: u32,
}

impl<const W: usize> Estimator for WordMc<W> {
    type State<'q> = WordState<W>;

    fn trials(&self) -> u32 {
        self.trials
    }

    fn begin<'q>(&self, q: &'q QueryGraph) -> Result<WordState<W>, Error> {
        if self.trials == 0 {
            return Err(Error::ZeroTrials);
        }
        let csr = q.csr();
        let source = csr
            .dense(q.source())
            .expect("query source is live by construction");
        let plan = WidePlan::new(csr, source);
        let counts = vec![0u64; plan.n];
        let scratch = WideScratch::for_plan(&plan);
        Ok(WordState {
            plan,
            counts,
            scratch,
            node_bound: q.graph().node_bound(),
            trials_done: 0,
            trials_total: self.trials,
        })
    }

    fn step(&self, state: &mut WordState<W>, batch: u32) -> BatchStats {
        debug_assert_eq!(batch * BATCH, state.trials_done, "batches in order");
        let WordState {
            plan,
            counts,
            scratch,
            ..
        } = state;
        let lane = batch as usize % W;
        if lane == 0 {
            // Block boundary: draw and propagate the next W batches in
            // one sweep. Later steps of the block only fold their
            // lane's banked popcounts, so per-step trial accounting —
            // and any adaptive stop point — is identical to W = 1; a
            // mid-block stop merely wastes the propagated tail lanes.
            let num_batches = state.trials_total.div_ceil(BATCH);
            let active = W.min((num_batches - batch) as usize);
            let mut valid = [0u64; W];
            for (l, v) in valid.iter_mut().enumerate().take(active) {
                let b = batch + l as u32;
                draw_lane(plan, scratch, l, batch_seed(self.seed, b));
                *v = batch_valid(b, state.trials_total);
            }
            propagate_block(plan, scratch, &valid);
        }
        fold_lane(plan, scratch, lane, counts);
        let trials = BATCH.min(state.trials_total - state.trials_done);
        state.trials_done += trials;
        BatchStats {
            batch,
            trials,
            total_trials: state.trials_done,
        }
    }

    fn snapshot(&self, state: &WordState<W>) -> Scores {
        project(
            &state.plan.csr,
            &state.counts,
            state.trials_done,
            state.node_bound,
        )
    }

    fn estimate(&self, state: &WordState<W>, node: biorank_graph::NodeId) -> f64 {
        state
            .plan
            .csr
            .dense(node)
            .and_then(|d| state.counts.get(d as usize))
            .map(|&c| c as f64 / f64::from(state.trials_done.max(1)))
            .unwrap_or(0.0)
    }

    fn finish(&self, state: WordState<W>) -> Scores {
        self.snapshot(&state)
    }
}

impl<const W: usize> Ranker for WordMc<W> {
    fn name(&self) -> &'static str {
        "Rel(wordMC)"
    }

    fn score(&self, q: &QueryGraph) -> Result<Scores, Error> {
        self.score_parallel(q, 1)
    }
}

/// Draws a 64-bit word whose bits are independent Bernoulli(`p`)
/// samples.
///
/// Equivalent to comparing 64 independent 32-bit uniforms against
/// `⌊p·2³²⌋`, evaluated bit-sliced from the most significant bit down:
/// a comparison is decided at the first bit position where the uniform
/// differs from `p`, so each round halves the undecided set and the
/// loop consumes ~`log₂ 64 + 2` random words in expectation (hard cap
/// 32). The 2⁻³² quantization of `p` is orders of magnitude below
/// Monte Carlo noise at any feasible trial count.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn bernoulli_word(rng: &mut StdRng, p: f64) -> u64 {
    if p >= 1.0 {
        return !0;
    }
    if p <= 0.0 {
        return 0;
    }
    bernoulli_word_pfx(rng, (p * 4_294_967_296.0) as u64)
}

/// [`bernoulli_word`] with the fixed-point threshold `⌊p·2³²⌋`
/// precomputed and `0 < p < 1` guaranteed by the caller's draw plan.
///
/// Branch-free inner loop: the mask `m` selects between the two
/// decision rules (`m = !0` where the threshold bit is 1), replacing a
/// per-round unpredictable branch. Word consumption and output are
/// bit-for-bit those of the branchy form.
#[inline]
fn bernoulli_word_pfx(rng: &mut StdRng, pfx: u64) -> u64 {
    let mut decided_true = 0u64;
    let mut undecided = !0u64;
    let mut bit = 32u32;
    while undecided != 0 && bit > 0 {
        bit -= 1;
        let r = rng.next_u64();
        // threshold bit 1: uniform bit 0 decides "< p"; undecided keeps r.
        // threshold bit 0: uniform bit 1 decides "≥ p"; undecided keeps !r.
        let m = 0u64.wrapping_sub((pfx >> bit) & 1);
        decided_true |= undecided & !r & m;
        undecided &= r ^ !m;
    }
    // Bits still undecided after 32 rounds equal the fixed-point prefix
    // exactly: uniform == ⌊p·2³²⌋ means "not less than p".
    decided_true
}

/// The RNG stream seed of batch `b` under run seed `seed`.
///
/// A SplitMix64-style finalizer over the pair rather than the additive
/// `seed + b`: with 157 batches per 10⁴-trial run, additive seeding
/// would make runs with nearby seeds share almost all of their streams
/// (run seed `s` batch `b` ≡ run seed `s+1` batch `b−1`), silently
/// correlating what callers reasonably treat as independent
/// replications. Mixing keeps the determinism contract — the stream
/// depends only on `(seed, b)` — while making stream collisions
/// hash-unlikely instead of systematic.
#[inline]
fn batch_seed(seed: u64, b: u32) -> u64 {
    let mut z = seed ^ u64::from(b).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biorank_graph::{exact, generate, NodeId, Prob, ProbGraph};

    use crate::TraversalMc;

    fn p(v: f64) -> Prob {
        Prob::new(v).unwrap()
    }

    fn diamond() -> (QueryGraph, NodeId) {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        let t = g.add_node(p(1.0));
        g.add_edge(s, a, p(0.5)).unwrap();
        g.add_edge(s, b, p(0.5)).unwrap();
        g.add_edge(a, t, p(0.5)).unwrap();
        g.add_edge(b, t, p(0.5)).unwrap();
        (QueryGraph::new(g, s, vec![t]).unwrap(), t)
    }

    #[test]
    fn zero_trials_is_an_error() {
        let (q, _) = diamond();
        assert!(matches!(
            WordMc::new(0, 1).score(&q),
            Err(Error::ZeroTrials)
        ));
    }

    #[test]
    fn converges_to_exact_diamond() {
        let (q, t) = diamond();
        // exact: 1 − (1 − 0.25)² = 0.4375
        let est = WordMc::new(40_000, 42).score(&q).unwrap().get(t);
        assert!((est - 0.4375).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn source_score_equals_source_presence() {
        let (q, _) = diamond();
        let s = WordMc::new(5_000, 7).score(&q).unwrap();
        assert_eq!(s.get(q.source()), 1.0);
    }

    #[test]
    fn node_failures_respected() {
        // s → m(p=0.5) → t: r(t) = 0.5
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let m = g.add_node(p(0.5));
        let t = g.add_node(p(1.0));
        g.add_edge(s, m, p(1.0)).unwrap();
        g.add_edge(m, t, p(1.0)).unwrap();
        let q = QueryGraph::new(g, s, vec![t]).unwrap();
        let est = WordMc::new(40_000, 3).score(&q).unwrap().get(t);
        assert!((est - 0.5).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn partial_last_batch_counts_only_valid_trials() {
        // trials not divisible by 64 must still normalize correctly; a
        // certain s → t chain must score exactly 1.0, which fails if
        // the padding bits of the last batch leak into the counters.
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let t = g.add_node(p(1.0));
        g.add_edge(s, t, p(1.0)).unwrap();
        let q = QueryGraph::new(g, s, vec![t]).unwrap();
        for trials in [1u32, 63, 65, 1000] {
            let est = WordMc::new(trials, 5).score(&q).unwrap().get(t);
            assert_eq!(est, 1.0, "trials {trials}");
            let wide = WordMc::<8>::wide(trials, 5).score(&q).unwrap().get(t);
            assert_eq!(wide, 1.0, "trials {trials} (8-lane)");
        }
    }

    #[test]
    fn agrees_with_enumeration_on_workflows() {
        let params = generate::WorkflowParams {
            layers: 2,
            width: 3,
            answers: 2,
            density: 0.5,
            node_prob: (0.4, 1.0),
            edge_prob: (0.4, 1.0),
        };
        for seed in 0..3u64 {
            let q = generate::layered_workflow(&params, seed);
            let word = WordMc::new(60_000, 11).score(&q).unwrap();
            for &a in q.answers() {
                let truth = match exact::enumerate(q.graph(), q.source(), a) {
                    Ok(r) => r,
                    Err(_) => exact::factoring(q.graph(), q.source(), a, None).unwrap(),
                };
                let est = word.get(a);
                assert!((est - truth).abs() < 0.015, "word {est} vs {truth}");
            }
        }
    }

    #[test]
    fn matches_traversal_mc_statistically() {
        let q = generate::layered_workflow(&generate::WorkflowParams::default(), 17);
        let word = WordMc::new(30_000, 1).score(&q).unwrap();
        let trav = TraversalMc::new(30_000, 2).score(&q).unwrap();
        for &a in q.answers() {
            let d = (word.get(a) - trav.get(a)).abs();
            assert!(
                d < 0.02,
                "answer {a}: word {} vs traversal {}",
                word.get(a),
                trav.get(a)
            );
        }
    }

    #[test]
    fn thread_count_never_changes_bits() {
        // Exact bit-identity across thread counts for a fixed
        // (trials, seed) — including a trial count that is not a
        // multiple of the batch width.
        let q = generate::layered_workflow(&generate::WorkflowParams::default(), 23);
        let mc = WordMc::new(1_000, 9);
        let sequential = mc.score_parallel(&q, 1).unwrap();
        for threads in [2usize, 3, 8, 16, 64] {
            let parallel = mc.score_parallel(&q, threads).unwrap();
            for n in 0..q.graph().node_bound() {
                let node = NodeId::from_index(n);
                assert_eq!(
                    sequential.get(node).to_bits(),
                    parallel.get(node).to_bits(),
                    "threads={threads} node={n}"
                );
            }
        }
    }

    #[test]
    fn lane_width_never_changes_bits() {
        // The tentpole's contract: every lane width (and every thread
        // count at every width) reproduces the 1-lane engine exactly.
        let q = generate::layered_workflow(&generate::WorkflowParams::default(), 23);
        for trials in [64u32, 1_000, 1_001] {
            let narrow = WordMc::new(trials, 9).score_parallel(&q, 1).unwrap();
            let w4 = WordMc::<4>::wide(trials, 9).score_parallel(&q, 1).unwrap();
            let w8 = WordMc::<8>::wide(trials, 9).score_parallel(&q, 3).unwrap();
            assert_eq!(narrow.as_slice(), w4.as_slice(), "W=4 trials={trials}");
            assert_eq!(narrow.as_slice(), w8.as_slice(), "W=8 trials={trials}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (q, _) = diamond();
        let a = WordMc::new(1_000, 5).score(&q).unwrap();
        let b = WordMc::new(1_000, 5).score(&q).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        let c = WordMc::new(1_000, 6).score(&q).unwrap();
        assert_ne!(
            a.as_slice(),
            c.as_slice(),
            "different seeds should (almost surely) differ"
        );
    }

    #[test]
    fn nearby_seeds_give_independent_estimates() {
        // Additive batch seeding would make runs at seed s and s+1
        // share all but one of their 64-trial batch streams; with the
        // mixed schedule the estimates must scatter like independent
        // replications (spread ≫ one batch's worth of samples).
        let (q, t) = diamond();
        let trials = 10_000u32;
        let ests: Vec<f64> = (0..8u64)
            .map(|s| WordMc::new(trials, s).score(&q).unwrap().get(t))
            .collect();
        let mean = ests.iter().sum::<f64>() / ests.len() as f64;
        let spread = ests.iter().map(|e| (e - mean).abs()).fold(0.0f64, f64::max);
        // One shared-batch difference could move the estimate by at
        // most 64/trials = 0.0064; binomial σ here is ~0.005, so 8
        // independent runs almost surely spread wider than that.
        assert!(
            spread > f64::from(BATCH) / f64::from(trials) * 0.5,
            "estimates {ests:?} too tightly clustered — correlated streams?"
        );
    }

    #[test]
    fn handles_cyclic_graphs_via_fixpoint() {
        // s → a ⇄ b → t exercises the non-DAG sweep.
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        let t = g.add_node(p(1.0));
        g.add_edge(s, a, p(0.8)).unwrap();
        g.add_edge(a, b, p(0.8)).unwrap();
        g.add_edge(b, a, p(0.8)).unwrap();
        g.add_edge(b, t, p(0.8)).unwrap();
        let q = QueryGraph::new(g, s, vec![t]).unwrap();
        let est = WordMc::new(40_000, 4).score(&q).unwrap().get(t);
        let truth = exact::enumerate(q.graph(), q.source(), t).unwrap();
        assert!((est - truth).abs() < 0.01, "{est} vs {truth}");
        // And the wide engine's cyclic sweep must agree bit for bit.
        let narrow = WordMc::new(2_000, 4).score(&q).unwrap();
        let wide = WordMc::<8>::wide(2_000, 4).score(&q).unwrap();
        assert_eq!(narrow.as_slice(), wide.as_slice());
    }

    #[test]
    fn bernoulli_word_frequencies_match_p() {
        let mut rng = StdRng::seed_from_u64(99);
        for &prob in &[0.0, 1.0, 0.5, 0.25, 1.0 / 3.0, 0.9] {
            let mut ones = 0u64;
            let words = 4_000;
            for _ in 0..words {
                ones += u64::from(bernoulli_word(&mut rng, prob).count_ones());
            }
            let freq = ones as f64 / (words * 64) as f64;
            let sigma = (prob * (1.0 - prob) / (words * 64) as f64).sqrt();
            assert!(
                (freq - prob).abs() <= 4.0 * sigma + 1e-12,
                "p={prob}: frequency {freq}"
            );
        }
    }

    #[test]
    fn bernoulli_word_bits_are_independent_across_trials() {
        // Adjacent-bit correlation would break the independence of
        // trials within a batch; check lag-1 correlation is small.
        let mut rng = StdRng::seed_from_u64(7);
        let mut both = 0u64;
        let mut total = 0u64;
        for _ in 0..4_000 {
            let w = bernoulli_word(&mut rng, 0.5);
            both += u64::from((w & (w >> 1)).count_ones());
            total += 63;
        }
        let pair_freq = both as f64 / total as f64;
        assert!(
            (pair_freq - 0.25).abs() < 0.01,
            "lag-1 pair frequency {pair_freq}"
        );
    }
}
