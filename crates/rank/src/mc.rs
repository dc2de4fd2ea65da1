//! Monte Carlo estimation of reliability scores (paper §3.1(1)).
//!
//! Two engines share the sampling semantics — include node `i` with
//! probability `p(i)`, edge `e` with probability `q(e)`, count the
//! trials in which a node is reached from the source while present:
//!
//! * [`NaiveMc`] — "randomly choose a subgraph … check if there exists a
//!   path": samples *every* node and edge each trial, then searches.
//! * [`TraversalMc`] — Algorithm 3.1: a depth-first traversal that only
//!   samples elements it actually reaches. "In this manner we don't
//!   simulate any nodes or edges only to later discover that they are
//!   disconnected." The paper measures an average 3.4× speed-up on its
//!   query graphs; `cargo run --release -p biorank-experiments --bin
//!   fig8` reproduces the comparison.
//!
//! Both estimate `r(t)` for **all** nodes simultaneously — one run ranks
//! the entire answer set.
//!
//! Both engines implement the incremental [`Estimator`] contract: their
//! `score` entry points drive the same 64-trial batches the
//! [`AdaptiveRunner`](crate::AdaptiveRunner) issues, over one
//! persistent RNG stream, so a run stopped after `b` batches is
//! bit-identical to a fixed run of `64·b` trials.

use std::borrow::Cow;

use biorank_graph::{NodeId, QueryGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::estimator::{merge_unit_counts, BatchStats, Estimator, BATCH_TRIALS};
use crate::{Error, Ranker, Scores};

/// The per-trial visit stamp type. Trials are numbered from 1 so that a
/// zeroed stamp array means "never visited".
type Stamp = u32;

/// Naive Monte Carlo: sample the whole world, then test connectivity.
#[derive(Clone, Copy, Debug)]
pub struct NaiveMc {
    /// Number of independent trials (`n` in the paper).
    pub trials: u32,
    /// RNG seed; equal seeds give equal estimates.
    pub seed: u64,
}

impl NaiveMc {
    /// Creates a naive sampler with the given trial count and seed.
    pub fn new(trials: u32, seed: u64) -> Self {
        NaiveMc { trials, seed }
    }
}

/// In-progress state of an incremental [`NaiveMc`] run.
pub struct NaiveState<'q> {
    q: &'q QueryGraph,
    rng: StdRng,
    node_on: Vec<bool>,
    edge_on: Vec<bool>,
    reached: Vec<u64>,
    last_sim: Vec<Stamp>,
    stack: Vec<NodeId>,
    trials_done: u32,
    trials_total: u32,
}

impl NaiveState<'_> {
    /// Runs trials `trials_done+1 ..= trials_done+n`, continuing the
    /// persistent RNG stream and stamp numbering — the slicing into
    /// batches is invisible in the counts.
    fn advance(&mut self, n: u32) {
        let g = self.q.graph();
        let source = self.q.source();
        for t in self.trials_done + 1..=self.trials_done + n {
            // Sample the entire world up front — this is the cost the
            // traversal variant avoids.
            for node in g.nodes() {
                self.node_on[node.index()] = self.rng.gen::<f64>() < g.node_p(node).get();
            }
            for e in g.edges() {
                self.edge_on[e.index()] = self.rng.gen::<f64>() < g.edge_q(e).get();
            }
            if !self.node_on[source.index()] {
                continue;
            }
            self.stack.clear();
            self.stack.push(source);
            self.last_sim[source.index()] = t;
            self.reached[source.index()] += 1;
            while let Some(x) = self.stack.pop() {
                for e in g.out_edges(x) {
                    if !self.edge_on[e.index()] {
                        continue;
                    }
                    let y = g.edge_dst(e);
                    if self.last_sim[y.index()] == t || !self.node_on[y.index()] {
                        continue;
                    }
                    self.last_sim[y.index()] = t;
                    self.reached[y.index()] += 1;
                    self.stack.push(y);
                }
            }
        }
        self.trials_done += n;
    }
}

impl Estimator for NaiveMc {
    type State<'q> = NaiveState<'q>;

    fn trials(&self) -> u32 {
        self.trials
    }

    fn begin<'q>(&self, q: &'q QueryGraph) -> Result<NaiveState<'q>, Error> {
        if self.trials == 0 {
            return Err(Error::ZeroTrials);
        }
        let nb = q.graph().node_bound();
        let eb = q.graph().edge_bound();
        Ok(NaiveState {
            q,
            rng: StdRng::seed_from_u64(self.seed),
            node_on: vec![false; nb],
            edge_on: vec![false; eb],
            reached: vec![0; nb],
            // Visit stamps instead of a `seen: Vec<bool>` cleared every
            // trial: a slot is "seen" when its stamp equals the current
            // trial number, so no O(n) refill between trials. The
            // sampled world buffers need no clearing either — every
            // slot is overwritten by the full resample.
            last_sim: vec![0; nb],
            stack: Vec::with_capacity(nb),
            trials_done: 0,
            trials_total: self.trials,
        })
    }

    fn step(&self, state: &mut NaiveState<'_>, batch: u32) -> BatchStats {
        debug_assert_eq!(batch * BATCH_TRIALS, state.trials_done, "batches in order");
        let n = BATCH_TRIALS.min(state.trials_total - state.trials_done);
        state.advance(n);
        BatchStats {
            batch,
            trials: n,
            total_trials: state.trials_done,
        }
    }

    fn snapshot(&self, state: &NaiveState<'_>) -> Scores {
        normalize(&state.reached, state.trials_done)
    }

    fn estimate(&self, state: &NaiveState<'_>, node: NodeId) -> f64 {
        estimate_count(&state.reached, node, state.trials_done)
    }

    fn finish(&self, state: NaiveState<'_>) -> Scores {
        self.snapshot(&state)
    }
}

impl Ranker for NaiveMc {
    fn name(&self) -> &'static str {
        "Rel(naiveMC)"
    }

    fn score(&self, q: &QueryGraph) -> Result<Scores, Error> {
        self.drive(q)
    }
}

/// Algorithm 3.1: Reliability Traversal Monte Carlo Simulation.
#[derive(Clone, Copy, Debug)]
pub struct TraversalMc {
    /// Number of independent trials (`n` in the paper).
    pub trials: u32,
    /// RNG seed; equal seeds give equal estimates.
    pub seed: u64,
}

impl TraversalMc {
    /// Creates a traversal sampler with the given trial count and seed.
    pub fn new(trials: u32, seed: u64) -> Self {
        TraversalMc { trials, seed }
    }

    /// Runs the trials split into `chunks` independent RNG streams
    /// (chunk `i` seeds its RNG with `seed + i`), executed on up to
    /// `threads` scoped OS threads by the shared
    /// [`Estimator`] fan-out driver.
    ///
    /// The estimate depends only on `(trials, seed, chunks)` — the
    /// thread count affects scheduling, never the result — so
    /// `score_chunked(q, 8, 1)` is bit-identical to
    /// `score_chunked(q, 8, 8)`. This is what makes intra-query
    /// parallelism safe behind a result cache: the serving layer pins
    /// `chunks` and lets `threads` follow the hardware.
    pub fn score_chunked(
        &self,
        q: &QueryGraph,
        chunks: usize,
        threads: usize,
    ) -> Result<Scores, Error> {
        if self.trials == 0 {
            return Err(Error::ZeroTrials);
        }
        let chunks = chunks.max(1).min(self.trials as usize);
        let base = self.trials / chunks as u32;
        let extra = self.trials % chunks as u32;
        let total = merge_unit_counts(chunks, threads, q.graph().node_bound(), |i| {
            let share = base + u32::from((i as u32) < extra);
            run_trials(q, share, self.seed.wrapping_add(i as u64))
        });
        Ok(normalize(&total, self.trials))
    }
}

/// In-progress state of an incremental per-trial traversal run, shared
/// by [`TraversalMc`] and [`ReducedMc`](crate::ReducedMc) (which runs
/// it over the reduced graph).
pub struct McState<'q> {
    q: Cow<'q, QueryGraph>,
    rng: StdRng,
    last_sim: Vec<Stamp>,
    counts: Vec<u64>,
    stack: Vec<NodeId>,
    trials_done: u32,
    trials_total: u32,
}

impl<'q> McState<'q> {
    /// Builds the state over a borrowed or owned query graph (the
    /// plain traversal engine borrows the caller's graph; the
    /// reduction-first engine hands in its shrunken copy owned).
    pub(crate) fn begin_over(
        q: Cow<'q, QueryGraph>,
        trials: u32,
        seed: u64,
    ) -> Result<McState<'q>, Error> {
        if trials == 0 {
            return Err(Error::ZeroTrials);
        }
        let nb = q.graph().node_bound();
        Ok(McState {
            q,
            rng: StdRng::seed_from_u64(seed),
            last_sim: vec![0; nb],
            counts: vec![0; nb],
            stack: Vec::with_capacity(nb),
            trials_done: 0,
            trials_total: trials,
        })
    }

    /// Runs trials `trials_done+1 ..= trials_done+n` on the persistent
    /// stream; see [`NaiveState::advance`] for why the numbering
    /// continues across batches.
    fn advance(&mut self, n: u32) {
        advance_traversal(
            &self.q,
            &mut self.rng,
            &mut self.last_sim,
            &mut self.counts,
            &mut self.stack,
            self.trials_done,
            n,
        );
        self.trials_done += n;
    }

    pub(crate) fn step(&mut self, batch: u32) -> BatchStats {
        debug_assert_eq!(batch * BATCH_TRIALS, self.trials_done, "batches in order");
        let n = BATCH_TRIALS.min(self.trials_total - self.trials_done);
        self.advance(n);
        BatchStats {
            batch,
            trials: n,
            total_trials: self.trials_done,
        }
    }

    pub(crate) fn snapshot(&self) -> Scores {
        normalize(&self.counts, self.trials_done)
    }

    pub(crate) fn estimate(&self, node: NodeId) -> f64 {
        estimate_count(&self.counts, node, self.trials_done)
    }
}

impl Estimator for TraversalMc {
    type State<'q> = McState<'q>;

    fn trials(&self) -> u32 {
        self.trials
    }

    fn begin<'q>(&self, q: &'q QueryGraph) -> Result<McState<'q>, Error> {
        McState::begin_over(Cow::Borrowed(q), self.trials, self.seed)
    }

    fn step(&self, state: &mut McState<'_>, batch: u32) -> BatchStats {
        state.step(batch)
    }

    fn snapshot(&self, state: &McState<'_>) -> Scores {
        state.snapshot()
    }

    fn estimate(&self, state: &McState<'_>, node: NodeId) -> f64 {
        state.estimate(node)
    }

    fn finish(&self, state: McState<'_>) -> Scores {
        state.snapshot()
    }
}

/// Turns accumulated reach counts into scores (counts / trials).
fn normalize(counts: &[u64], trials: u32) -> Scores {
    let n = f64::from(trials.max(1));
    Scores::from_vec(counts.iter().map(|&c| c as f64 / n).collect())
}

/// One node's normalized count — the `Estimator::estimate` backend of
/// the per-trial engines.
fn estimate_count(counts: &[u64], node: NodeId, trials: u32) -> f64 {
    counts
        .get(node.index())
        .map(|&c| c as f64 / f64::from(trials.max(1)))
        .unwrap_or(0.0)
}

/// Runs trials `start+1 ..= start+n` of the iterative Traverse(G, s, t)
/// (visit a node at most once per trial via the `lastSim` stamp, flip
/// its presence coin, and only on success flip the coins of its
/// out-edges and schedule the successors), adding into `counts`.
fn advance_traversal(
    q: &QueryGraph,
    rng: &mut StdRng,
    last_sim: &mut [Stamp],
    counts: &mut [u64],
    stack: &mut Vec<NodeId>,
    start: u32,
    n: u32,
) {
    let g = q.graph();
    let source = q.source();
    for t in start + 1..=start + n {
        stack.clear();
        stack.push(source);
        while let Some(x) = stack.pop() {
            if last_sim[x.index()] == t {
                continue;
            }
            last_sim[x.index()] = t;
            if rng.gen::<f64>() < g.node_p(x).get() {
                counts[x.index()] += 1;
                for e in g.out_edges(x) {
                    if rng.gen::<f64>() < g.edge_q(e).get() {
                        let y = g.edge_dst(e);
                        if last_sim[y.index()] != t {
                            stack.push(y);
                        }
                    }
                }
            }
        }
    }
}

/// Runs `trials` traversal trials on a fresh stream seeded `seed` and
/// returns per-node reach counts (the chunk worker of
/// [`TraversalMc::score_chunked`], also used by the adaptive top-k
/// evaluator).
pub(crate) fn run_trials(q: &QueryGraph, trials: u32, seed: u64) -> Vec<u64> {
    let nb = q.graph().node_bound();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut last_sim: Vec<Stamp> = vec![0; nb];
    let mut counts = vec![0u64; nb];
    let mut stack: Vec<NodeId> = Vec::with_capacity(nb);
    advance_traversal(
        q,
        &mut rng,
        &mut last_sim,
        &mut counts,
        &mut stack,
        0,
        trials,
    );
    counts
}

impl Ranker for TraversalMc {
    fn name(&self) -> &'static str {
        "Rel(MC)"
    }

    fn score(&self, q: &QueryGraph) -> Result<Scores, Error> {
        self.drive(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biorank_graph::{exact, generate, NodeId, Prob, ProbGraph};

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
            TraversalMc::new(0, 1).score(&q),
            Err(Error::ZeroTrials)
        ));
        assert!(matches!(
            NaiveMc::new(0, 1).score(&q),
            Err(Error::ZeroTrials)
        ));
    }

    #[test]
    fn traversal_converges_to_exact_diamond() {
        let (q, t) = diamond();
        // exact: 1 − (1 − 0.25)² = 0.4375
        let est = TraversalMc::new(40_000, 42).score(&q).unwrap().get(t);
        assert!((est - 0.4375).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn naive_converges_to_exact_diamond() {
        let (q, t) = diamond();
        let est = NaiveMc::new(40_000, 42).score(&q).unwrap().get(t);
        assert!((est - 0.4375).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn source_score_equals_source_presence() {
        let (q, _) = diamond();
        let s = TraversalMc::new(5_000, 7).score(&q).unwrap();
        assert_eq!(s.get(q.source()), 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (q, t) = diamond();
        let a = TraversalMc::new(1_000, 5).score(&q).unwrap().get(t);
        let b = TraversalMc::new(1_000, 5).score(&q).unwrap().get(t);
        assert_eq!(a, b);
        let c = TraversalMc::new(1_000, 6).score(&q).unwrap().get(t);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
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
        let est = TraversalMc::new(40_000, 3).score(&q).unwrap().get(t);
        assert!((est - 0.5).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn both_engines_agree_with_enumeration_on_workflows() {
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
            let trav = TraversalMc::new(60_000, 11).score(&q).unwrap();
            let naive = NaiveMc::new(60_000, 11).score(&q).unwrap();
            for &a in q.answers() {
                let truth = match exact::enumerate(q.graph(), q.source(), a) {
                    Ok(r) => r,
                    Err(_) => exact::factoring(q.graph(), q.source(), a, None).unwrap(),
                };
                let et = trav.get(a);
                let en = naive.get(a);
                assert!((et - truth).abs() < 0.015, "traversal {et} vs {truth}");
                assert!((en - truth).abs() < 0.015, "naive {en} vs {truth}");
            }
        }
    }

    #[test]
    fn parallel_matches_accuracy() {
        let (q, t) = diamond();
        let est = TraversalMc::new(40_000, 9)
            .score_chunked(&q, 4, 4)
            .unwrap()
            .get(t);
        assert!((est - 0.4375).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn parallel_is_deterministic_per_thread_count() {
        let (q, t) = diamond();
        let a = TraversalMc::new(8_000, 2)
            .score_chunked(&q, 3, 3)
            .unwrap()
            .get(t);
        let b = TraversalMc::new(8_000, 2)
            .score_chunked(&q, 3, 3)
            .unwrap()
            .get(t);
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_result_is_independent_of_thread_count() {
        let (q, _) = diamond();
        let mc = TraversalMc::new(8_000, 2);
        let sequential = mc.score_chunked(&q, 8, 1).unwrap();
        for threads in [2usize, 3, 8, 16] {
            let parallel = mc.score_chunked(&q, 8, threads).unwrap();
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
    fn single_chunk_equals_plain_score() {
        let (q, t) = diamond();
        let mc = TraversalMc::new(4_000, 13);
        let plain = mc.score(&q).unwrap().get(t);
        let chunked = mc.score_chunked(&q, 1, 4).unwrap().get(t);
        assert_eq!(plain.to_bits(), chunked.to_bits());
    }

    #[test]
    fn handles_cyclic_graphs() {
        // MC does not require a DAG: s → a ⇄ b → t.
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
        let est = TraversalMc::new(40_000, 4).score(&q).unwrap().get(t);
        let truth = exact::enumerate(q.graph(), q.source(), t).unwrap();
        assert!((est - truth).abs() < 0.01, "{est} vs {truth}");
    }
}
