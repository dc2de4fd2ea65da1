//! The unified incremental estimator contract.
//!
//! All Monte Carlo reliability engines ([`NaiveMc`](crate::NaiveMc),
//! [`TraversalMc`](crate::TraversalMc), [`WordMc`](crate::WordMc), and
//! the reduction-first [`ReducedMc`](crate::ReducedMc)) estimate the
//! same quantity from the same `(trials, seed)` contract. [`Estimator`]
//! factors out what used to be four bespoke run loops into one
//! incremental protocol:
//!
//! * [`begin`](Estimator::begin) builds the engine's run state for a
//!   query graph;
//! * [`step`](Estimator::step) executes **one batch of
//!   [`BATCH_TRIALS`] (64) trials** — a single `u64` mask word for the
//!   word-parallel engine, a 64-trial chunk of the sequential stream
//!   for the per-trial engines;
//! * [`snapshot`](Estimator::snapshot) exposes the running estimates
//!   (normalized by the trials executed so far);
//! * [`finish`](Estimator::finish) consumes the state into final
//!   [`Scores`].
//!
//! **Determinism contract:** driving every batch of an engine
//! configured for `trials` total produces *bit-identical* scores to
//! the engine's one-shot `score()` — the RNG schedule is a function of
//! `(trials, seed)` alone, never of how the run was sliced into steps.
//! That is what lets [`AdaptiveRunner`](crate::AdaptiveRunner) stop a
//! run early: a run that goes the distance is indistinguishable from a
//! fixed-trial run, and a run stopped after `b` batches equals a fixed
//! run of `64·b` trials.
//!
//! The module also hosts [`merge_unit_counts`], the shared fan-out
//! scheduler behind `TraversalMc::score_chunked` and
//! `WordMc::score_parallel` — both spread independent count-producing
//! work units over scoped OS threads and merge by `u64` addition, so
//! the wave layout is invisible in the output.

use biorank_graph::QueryGraph;

use crate::{Error, Scores};

/// Trials per incremental batch: one bit of a machine word each, so
/// the word-parallel engine's natural unit is everyone's unit.
pub const BATCH_TRIALS: u32 = 64;

/// What one [`Estimator::step`] call reports back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// Index of the batch just executed (0-based).
    pub batch: u32,
    /// Trials this batch contributed (64, or fewer for the final
    /// partial batch of a trial count not divisible by 64).
    pub trials: u32,
    /// Cumulative trials executed across all batches so far.
    pub total_trials: u32,
}

/// An incremental Monte Carlo reliability estimator.
///
/// See the [module docs](self) for the contract. Implementations keep
/// their public `score*` entry points as thin wrappers
/// over [`drive`](Estimator::drive), so the incremental protocol is
/// *the* run loop, not a parallel code path.
pub trait Estimator {
    /// The engine's in-progress run state. Parameterized by the
    /// query-graph borrow so per-trial engines can traverse the
    /// caller's graph in place — `begin` must not have to copy a
    /// graph to start a run (the reduction-first engine, which really
    /// does build its own shrunken graph, stores it owned via
    /// [`Cow`](std::borrow::Cow)).
    type State<'q>;

    /// The total trial budget of a full run (the adaptive ceiling).
    fn trials(&self) -> u32;

    /// Builds the run state for `q`. Fails with
    /// [`Error::ZeroTrials`] when the engine was configured for zero
    /// trials.
    fn begin<'q>(&self, q: &'q QueryGraph) -> Result<Self::State<'q>, Error>;

    /// Executes batch `batch` (which must be the next unexecuted
    /// batch — the schedule is sequential) and accumulates its counts
    /// into the state.
    fn step(&self, state: &mut Self::State<'_>, batch: u32) -> BatchStats;

    /// The running estimates: per-node reach counts normalized by the
    /// trials executed so far.
    fn snapshot(&self, state: &Self::State<'_>) -> Scores;

    /// The running estimate of one node — what
    /// [`snapshot`](Estimator::snapshot) would report for it, without
    /// materializing the full score vector. The adaptive stopping
    /// rule polls only the answer set after every batch, so this is
    /// its per-batch accessor.
    fn estimate(&self, state: &Self::State<'_>, node: biorank_graph::NodeId) -> f64;

    /// The running estimates of a node set, written into a reusable
    /// buffer (cleared first). This is the adaptive stopping rule's
    /// per-batch accessor: it polls the answer set after every 64-trial
    /// batch, and going through a caller-owned buffer keeps the hot
    /// certification loop allocation-free.
    fn estimates_into(
        &self,
        state: &Self::State<'_>,
        nodes: &[biorank_graph::NodeId],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(nodes.iter().map(|&n| self.estimate(state, n)));
    }

    /// Consumes the state into final scores. Equal to the last
    /// [`snapshot`](Estimator::snapshot) — normalized by the trials
    /// actually executed, which is what makes early-stopped runs
    /// well-formed estimates.
    fn finish(&self, state: Self::State<'_>) -> Scores;

    /// Number of batches a full run executes.
    fn num_batches(&self) -> u32 {
        self.trials().div_ceil(BATCH_TRIALS)
    }

    /// The default driver: a complete fixed-trial run through
    /// [`run_batches`] — no deadline, never stopped early.
    fn drive(&self, q: &QueryGraph) -> Result<Scores, Error> {
        run_batches(self, q, None, |_, _| false).map(|run| run.scores)
    }
}

/// What one [`run_batches`] call hands back.
#[derive(Clone, Debug)]
pub struct BatchRun {
    /// Final estimates, normalized by `trials_used`.
    pub scores: Scores,
    /// Trials executed: the whole budget unless the run was `stopped`.
    pub trials_used: u32,
    /// `true` when the after-batch hook ended the run.
    pub stopped: bool,
}

/// The one batch loop every incremental run goes through:
/// `begin → (step → after-batch hook → deadline poll)* → finish`.
/// `after_batch` returns `true` to stop the run at the batch it was
/// just shown — [`Estimator::drive`] never does,
/// [`AdaptiveRunner`](crate::AdaptiveRunner) does when it certifies.
///
/// **Deadline rule.** Once `deadline` passes the run aborts with
/// [`Error::DeadlineExceeded`] carrying the trials completed. The poll
/// sits *after* the hook and is skipped after the final batch: a batch
/// that stops the run on time is never discarded by a deadline that
/// fired during its poll, and a run that has executed its whole budget
/// lands. A deadline can only cut a run short, never reshape it.
pub fn run_batches<'q, E: Estimator + ?Sized>(
    engine: &E,
    q: &'q QueryGraph,
    deadline: Option<std::time::Instant>,
    mut after_batch: impl FnMut(&E::State<'q>, BatchStats) -> bool,
) -> Result<BatchRun, Error> {
    let mut state = engine.begin(q)?;
    let num_batches = engine.num_batches();
    let mut trials_used = 0;
    let mut stopped = false;
    for b in 0..num_batches {
        let stats = engine.step(&mut state, b);
        trials_used = stats.total_trials;
        if after_batch(&state, stats) {
            stopped = true;
            break;
        }
        if b + 1 < num_batches && deadline.is_some_and(|d| std::time::Instant::now() > d) {
            return Err(Error::DeadlineExceeded { trials_used });
        }
    }
    Ok(BatchRun {
        scores: engine.finish(state),
        trials_used,
        stopped,
    })
}

/// Runs `units` independent count-producing work units on up to
/// `threads` scoped OS threads and merges their `Vec<u64>` outputs by
/// element-wise addition into a vector of length `len`.
///
/// Units are handed out in waves of `threads`; addition is associative
/// and commutative, so the wave layout (and therefore the thread
/// count) is invisible in the output — the determinism burden stays
/// entirely on the per-unit RNG streams the caller encodes in
/// `worker`. This is the one copy of the scheduling that
/// `TraversalMc::score_chunked` and `WordMc::score_parallel` used to
/// duplicate.
pub(crate) fn merge_unit_counts<W>(units: usize, threads: usize, len: usize, worker: W) -> Vec<u64>
where
    W: Fn(usize) -> Vec<u64> + Sync,
{
    let mut total = vec![0u64; len];
    if units == 0 {
        return total;
    }
    let threads = threads.clamp(1, units);
    if threads == 1 {
        // Sequential fast path: no thread spawns for single-threaded
        // callers (merging is order-invariant, so this is bit-identical
        // to the fan-out below).
        for i in 0..units {
            for (t, p) in total.iter_mut().zip(worker(i)) {
                *t += p;
            }
        }
        return total;
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        for wave in (0..units).step_by(threads) {
            let handles: Vec<_> = (wave..(wave + threads).min(units))
                .map(|i| scope.spawn(move || worker(i)))
                .collect();
            for h in handles {
                let partial = h.join().expect("MC worker panicked");
                for (t, p) in total.iter_mut().zip(partial) {
                    *t += p;
                }
            }
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NaiveMc, Ranker, ReducedMc, TraversalMc, WordMc};
    use biorank_graph::generate::{self, WorkflowParams};
    use biorank_graph::NodeId;

    fn workflow() -> QueryGraph {
        generate::layered_workflow(&WorkflowParams::default(), 31)
    }

    fn assert_bit_identical(a: &Scores, b: &Scores, ctx: &str) {
        let (a, b) = (a.as_slice(), b.as_slice());
        assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: node {i}");
        }
    }

    #[test]
    fn driving_batches_equals_one_shot_score() {
        // The load-bearing determinism contract: the incremental
        // protocol is bit-identical to the engines' one-shot entry
        // points, including a trial count not divisible by the batch
        // width.
        let q = workflow();
        for trials in [64u32, 1_000, 1_030] {
            let trav = TraversalMc::new(trials, 5);
            assert_bit_identical(
                &trav.drive(&q).unwrap(),
                &trav.score(&q).unwrap(),
                "traversal",
            );
            let word = WordMc::new(trials, 5);
            assert_bit_identical(&word.drive(&q).unwrap(), &word.score(&q).unwrap(), "word");
            // The 8-lane engine the service steps batch by batch.
            let wide = WordMc::<8>::wide(trials, 5);
            assert_bit_identical(&wide.drive(&q).unwrap(), &word.score(&q).unwrap(), "wide");
            let naive = NaiveMc::new(trials, 5);
            assert_bit_identical(
                &naive.drive(&q).unwrap(),
                &naive.score(&q).unwrap(),
                "naive",
            );
            let reduced = ReducedMc::new(trials, 5);
            assert_bit_identical(
                &reduced.drive(&q).unwrap(),
                &reduced.score(&q).unwrap(),
                "reduced",
            );
        }
    }

    #[test]
    fn snapshot_normalizes_by_executed_trials() {
        let q = workflow();
        let mc = TraversalMc::new(1_000, 9);
        let mut state = mc.begin(&q).unwrap();
        let stats = mc.step(&mut state, 0);
        assert_eq!(
            stats,
            BatchStats {
                batch: 0,
                trials: 64,
                total_trials: 64
            }
        );
        // After one batch the snapshot equals a fixed 64-trial run.
        let snap = mc.snapshot(&state);
        let fixed = TraversalMc::new(64, 9).score(&q).unwrap();
        assert_bit_identical(&snap, &fixed, "64-trial prefix");
        // The source is certain in workflow graphs, so its estimate is
        // exactly 1 at any trial count — proof of the normalization.
        assert_eq!(snap.get(q.source()), 1.0);
    }

    #[test]
    fn partial_final_batch_is_reported() {
        let q = workflow();
        let mc = WordMc::new(100, 2);
        assert_eq!(mc.num_batches(), 2);
        let mut state = mc.begin(&q).unwrap();
        assert_eq!(mc.step(&mut state, 0).trials, 64);
        let last = mc.step(&mut state, 1);
        assert_eq!(last.trials, 36);
        assert_eq!(last.total_trials, 100);
    }

    #[test]
    fn zero_trials_fails_at_begin() {
        let q = workflow();
        assert!(matches!(
            TraversalMc::new(0, 1).begin(&q),
            Err(Error::ZeroTrials)
        ));
        assert!(matches!(
            WordMc::new(0, 1).begin(&q),
            Err(Error::ZeroTrials)
        ));
        assert!(matches!(
            NaiveMc::new(0, 1).begin(&q),
            Err(Error::ZeroTrials)
        ));
    }

    #[test]
    fn merge_unit_counts_is_thread_count_invariant() {
        let worker = |i: usize| vec![i as u64; 4];
        let one = merge_unit_counts(7, 1, 4, worker);
        for threads in [2usize, 3, 7, 16] {
            assert_eq!(one, merge_unit_counts(7, threads, 4, worker));
        }
        assert_eq!(one, vec![21, 21, 21, 21]);
        assert_eq!(merge_unit_counts(0, 4, 3, worker), vec![0, 0, 0]);
    }

    #[test]
    fn reduced_estimator_scores_answers_like_ranker() {
        // ReducedMc's incremental state runs over the *reduced* graph;
        // protected answer ids stay stable, so answer scores agree
        // with the Ranker entry point bit for bit.
        let q = workflow();
        let reduced = ReducedMc::new(500, 77);
        let via_trait = reduced.drive(&q).unwrap();
        let via_ranker = reduced.score(&q).unwrap();
        for &a in q.answers() {
            assert_eq!(via_trait.get(a).to_bits(), via_ranker.get(a).to_bits());
        }
        let _ = NodeId::from_index(0); // keep the import honest
    }
}
