//! Adaptive bound-certified Monte Carlo termination.
//!
//! Theorem 3.1 ([`bounds`]) answers "how many trials are enough to
//! rank a separation of ε at confidence 1 − δ?" — the paper plugs in
//! ε = 0.02, δ = 0.05 and runs a fixed 10⁴ trials on every query. But
//! the bound can be read *adaptively*: after `n` trials,
//! [`bounds::resolvable_epsilon`] says which separations those `n`
//! trials already resolve, and most real answer sets separate long
//! before the worst-case budget. [`AdaptiveRunner`] drives any
//! incremental [`Estimator`] batch by batch and stops issuing batches
//! as soon as the running ranking is certified:
//!
//! > every adjacent gap between sorted answer estimates is either
//! > **resolved** (at least the ε the accumulated trials resolve at
//! > confidence 1 − δ) or **excused** (below the requested ε floor —
//! > Theorem 3.1's contract never promised to order separations
//! > smaller than ε).
//!
//! Once `n` reaches `trials_needed(ε, δ)` the condition is vacuous, so
//! an adaptive run never exceeds the fixed Theorem 3.1 budget for its
//! (ε, δ) — the ceiling is `min(engine.trials(), n(ε, δ))` — while
//! easy queries stop after hundreds of trials instead of thousands.
//!
//! The gaps are *observed* estimates standing in for true scores, the
//! same reading the adaptive top-k evaluator ([`crate::TopK`]) uses
//! for its boundary gap; the certificate therefore asserts the
//! ranking of the separations the run has seen, at per-pair
//! confidence 1 − δ.
//!
//! **Top-k certification.** Ranking semantics only need scores precise
//! enough to order the answers a user actually sees. When the caller
//! asks for the top `k` ([`AdaptiveRunner::with_top_k`]) the stopping
//! rule shrinks to the gaps that decide that prefix: the `k − 1` gaps
//! *inside* the current top-k plus the **boundary gap** between rank
//! `k` and rank `k + 1`. Gaps below the boundary are ignored — tail
//! answers keep their running estimates and are returned unordered
//! beyond what the spent trials happen to resolve. The certificate's
//! [`mode`](Certificate::mode) records which contract was certified,
//! so a top-k result is never mistaken for a fully ordered one.
//!
//! **Determinism:** the incremental contract guarantees a run stopped
//! after `b` batches is bit-identical to a fixed run of `64·b` trials,
//! and a run that reaches its ceiling is bit-identical to the fixed
//! ceiling run — adaptive execution can share infrastructure (caches,
//! replay, cross-checks) with fixed execution without a bit of drift.
//! Top-k runs ride the same contract: only the stopping batch moves,
//! never the sample schedule.

use biorank_graph::QueryGraph;

use crate::estimator::{run_batches, BatchStats, Estimator};
use crate::{bounds, Error, Scores};

/// Which ranking contract a [`Certificate`] asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CertificateMode {
    /// Every adjacent gap of the full answer ranking was checked.
    Full,
    /// Only the top-k prefix was checked: the gaps inside the prefix
    /// plus the boundary gap to rank k + 1. Answers below the boundary
    /// carry running estimates with no ordering claim.
    TopK(u32),
}

impl CertificateMode {
    /// The `k` up to which this certificate orders the ranking:
    /// `None` means the whole answer set (full certification).
    pub fn certified_k(&self) -> Option<u32> {
        match self {
            CertificateMode::Full => None,
            CertificateMode::TopK(k) => Some(*k),
        }
    }
}

/// The stop certificate of an adaptive run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Certificate {
    /// Monte Carlo trials actually executed.
    pub trials_used: u32,
    /// The separation those trials resolve at confidence 1 − δ
    /// ([`bounds::resolvable_epsilon`] of `trials_used`).
    pub epsilon: f64,
    /// `true` when the stopping rule certified the ranking; `false`
    /// when the engine's trial ceiling hit with some gap still in the
    /// unresolved band.
    pub certified: bool,
    /// Which ranking contract the run checked: the full answer list,
    /// or a top-k prefix plus its boundary.
    pub mode: CertificateMode,
}

/// Scores plus the certificate that stopped the run.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// Final estimates, normalized by [`Certificate::trials_used`].
    pub scores: Scores,
    /// How and why the run stopped.
    pub certificate: Certificate,
    /// Wall-clock nanoseconds of the run outside its certification
    /// polls (`begin` + every `step`, and whatever ran between them).
    /// Timing observes the run; it never feeds back into the sample
    /// schedule, so the bit-identity contract is untouched.
    pub step_nanos: u64,
    /// Wall-clock nanoseconds spent in certification polls (the
    /// sorted-gap checks between batches).
    pub poll_nanos: u64,
}

/// Drives an incremental [`Estimator`] with bound-certified early
/// termination.
///
/// The engine's own `trials` is the hard ceiling; `epsilon` is the
/// smallest separation the caller needs ranked correctly and `delta`
/// the allowed per-pair failure probability (both in `(0, 1)`).
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveRunner<E> {
    engine: E,
    epsilon: f64,
    delta: f64,
    top_k: Option<usize>,
    deadline: Option<std::time::Instant>,
}

impl<E: Estimator> AdaptiveRunner<E> {
    /// Wraps `engine` with an (ε, δ) stopping rule over the full
    /// answer ranking.
    pub fn new(engine: E, epsilon: f64, delta: f64) -> Self {
        AdaptiveRunner {
            engine,
            epsilon,
            delta,
            top_k: None,
            deadline: None,
        }
    }

    /// Restricts the stopping rule to the top-`k` prefix: only the
    /// gaps inside the current top `k` and the boundary gap between
    /// rank `k` and rank `k + 1` must resolve (or be excused by the ε
    /// floor). Since those are a subset of the full rule's gaps, a
    /// top-k run never stops later than the full run of the same
    /// `(engine, ε, δ)` — and usually stops much earlier on wide
    /// answer sets whose tail is closely bunched.
    ///
    /// A `k` whose checked gaps are exactly the full rule's — any
    /// `k ≥ answers − 1`, since the boundary gap of rank `answers − 1`
    /// already orders the last answer — is exactly full certification
    /// and is certified (and stamped) as such.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Aborts the run with [`Error::DeadlineExceeded`] once `deadline`
    /// passes, under [`run_batches`]' deadline rule: polled between
    /// batches after the certification check, never after the final
    /// batch. A run that completes (certifies or hits its ceiling)
    /// executes the exact same sample schedule as an undeadlined run,
    /// so bit-identity is preserved — the deadline can only cut a run
    /// short, never reshape it. The error carries the trials completed
    /// so callers can report partial-trial telemetry.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Runs batches until the ranking certifies or the ceiling hits.
    pub fn run(&self, q: &QueryGraph) -> Result<AdaptiveOutcome, Error> {
        self.run_observed(q, |_| {})
    }

    /// [`run`](Self::run), calling `observe` after every batch, before
    /// the certification poll (its time is not poll time).
    pub fn run_observed(
        &self,
        q: &QueryGraph,
        mut observe: impl FnMut(BatchStats),
    ) -> Result<AdaptiveOutcome, Error> {
        for (name, value) in [("epsilon", self.epsilon), ("delta", self.delta)] {
            if !(value > 0.0 && value < 1.0) {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        let answers = q.answers();
        // Leading sorted-estimate gaps the stopping rule must resolve:
        // all `len − 1` for full certification; the k − 1 prefix gaps
        // plus the boundary gap (= k) for top-k.
        let full_gaps = answers.len().saturating_sub(1);
        let checked_gaps = match self.top_k {
            Some(k) => k.min(full_gaps),
            None => full_gaps,
        };
        // Checking every gap IS full certification, whatever k the
        // caller spelled it with — stamping it Full lets the result
        // satisfy full-coverage consumers (e.g. cache reuse) without
        // a bit-identical re-run.
        let mode = match self.top_k {
            Some(k) if checked_gaps < full_gaps => CertificateMode::TopK(k as u32),
            _ => CertificateMode::Full,
        };
        // The estimate buffer is reused across every 64-trial batch:
        // the certification poll is allocation-free after the first
        // step (the engine-side trial scratch — mask words, visit
        // stamps — already lives for the whole run inside the state).
        let mut est: Vec<f64> = Vec::with_capacity(answers.len());
        let run_start = std::time::Instant::now();
        let mut poll_nanos = 0u64;
        let run = run_batches(&self.engine, q, self.deadline, |state, stats| {
            observe(stats);
            let poll_start = std::time::Instant::now();
            let done = self.certifies(state, answers, checked_gaps, &mut est, stats.total_trials);
            poll_nanos += poll_start.elapsed().as_nanos() as u64;
            done
        })?;
        let step_nanos = (run_start.elapsed().as_nanos() as u64).saturating_sub(poll_nanos);
        Ok(AdaptiveOutcome {
            scores: run.scores,
            certificate: Certificate {
                trials_used: run.trials_used,
                epsilon: bounds::resolvable_epsilon(u64::from(run.trials_used), self.delta)?,
                certified: run.stopped,
                mode,
            },
            step_nanos,
            poll_nanos,
        })
    }

    /// The stopping rule: each of the leading `checked_gaps` gaps
    /// between sorted answer estimates is resolved by `trials` trials
    /// or excused by the ε floor. "Gap `g` is resolved by `n` trials"
    /// is checked directly as `n ≥ trials_needed(g, δ)`
    /// ([`bounds::resolves`]) — equivalent to
    /// `g ≥ resolvable_epsilon(n, δ)` by monotonicity, but one cheap
    /// closed-form evaluation per gap instead of a 200-step bisection
    /// per batch (the bisection runs once, at the end, to stamp the
    /// certificate).
    fn certifies(
        &self,
        state: &E::State<'_>,
        answers: &[biorank_graph::NodeId],
        checked_gaps: usize,
        est: &mut Vec<f64>,
        trials: u32,
    ) -> bool {
        if checked_gaps == 0 {
            return true;
        }
        // Per-answer estimates only — polling the full node-bound
        // snapshot every 64 trials would dominate the check.
        self.engine.estimates_into(state, answers, est);
        est.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        est.windows(2).take(checked_gaps).all(|w| {
            let gap = w[0] - w[1];
            gap < self.epsilon || bounds::resolves(gap, self.delta, u64::from(trials))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ranker, TraversalMc, WordMc};
    use biorank_graph::{NodeId, Prob, ProbGraph};

    fn p(v: f64) -> Prob {
        Prob::new(v).unwrap()
    }

    /// Star with well-separated chain strengths.
    fn separated_star() -> QueryGraph {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let mut answers = Vec::new();
        for (i, q_val) in [0.9, 0.6, 0.3].iter().enumerate() {
            let t = g.add_labeled_node(p(1.0), format!("t{i}"));
            g.add_edge(s, t, p(*q_val)).unwrap();
            answers.push(t);
        }
        QueryGraph::new(g, s, answers).unwrap()
    }

    /// Star with one wide leading gap and a near-tied tail: full
    /// certification must grind on the 0.01 tail gap while top-1 only
    /// needs the 0.6 boundary gap.
    fn wide_then_tied_star() -> QueryGraph {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let mut answers = Vec::new();
        for (i, q_val) in [0.9, 0.3, 0.29].iter().enumerate() {
            let t = g.add_labeled_node(p(1.0), format!("t{i}"));
            g.add_edge(s, t, p(*q_val)).unwrap();
            answers.push(t);
        }
        QueryGraph::new(g, s, answers).unwrap()
    }

    /// Two exactly tied answers: never certifiable above the ε floor.
    fn tied_pair(eps_floor_beating_gap: bool) -> QueryGraph {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let a = g.add_node(p(1.0));
        let b = g.add_node(p(1.0));
        let qa = if eps_floor_beating_gap { 0.55 } else { 0.5 };
        g.add_edge(s, a, p(qa)).unwrap();
        g.add_edge(s, b, p(0.5)).unwrap();
        QueryGraph::new(g, s, vec![a, b]).unwrap()
    }

    #[test]
    fn separated_answers_certify_early() {
        let q = separated_star();
        for out in [
            AdaptiveRunner::new(WordMc::new(10_000, 7), 0.02, 0.05)
                .run(&q)
                .unwrap(),
            AdaptiveRunner::new(TraversalMc::new(10_000, 7), 0.02, 0.05)
                .run(&q)
                .unwrap(),
        ] {
            assert!(out.certificate.certified);
            assert!(
                out.certificate.trials_used < 2_000,
                "gaps of 0.3 should certify in hundreds of trials, used {}",
                out.certificate.trials_used
            );
            // The echoed ε is exactly what the spent trials resolve.
            assert_eq!(
                out.certificate.epsilon,
                bounds::resolvable_epsilon(u64::from(out.certificate.trials_used), 0.05).unwrap()
            );
        }
    }

    #[test]
    fn adaptive_never_exceeds_the_theorem_bound() {
        // Once n(ε, δ) trials accumulate the rule is vacuous, so even
        // a hard tie stops at (or before — its observed gap drops
        // below the ε floor and is excused) the fixed budget the paper
        // would have spent.
        let q = tied_pair(false);
        let out = AdaptiveRunner::new(WordMc::new(10_000, 3), 0.02, 0.05)
            .run(&q)
            .unwrap();
        assert!(out.certificate.certified);
        let bound = bounds::trials_needed(0.02, 0.05).unwrap();
        let used = u64::from(out.certificate.trials_used);
        assert!(used <= bound + 64, "{used} > {bound}+64");
    }

    #[test]
    fn unresolved_gap_runs_to_the_ceiling_uncertified() {
        // A 0.05 gap with ε = 0.001: the gap is neither excused (≥ ε)
        // nor resolvable by a 256-trial ceiling, so the run must
        // exhaust the ceiling and say so.
        let q = tied_pair(true);
        let out = AdaptiveRunner::new(WordMc::new(256, 5), 0.001, 0.001)
            .run(&q)
            .unwrap();
        assert!(!out.certificate.certified);
        assert_eq!(out.certificate.trials_used, 256);
    }

    #[test]
    fn stopped_run_is_bit_identical_to_fixed_run_of_trials_used() {
        // The incremental contract, observed from the outside: an
        // adaptive run equals the fixed run of exactly the trials it
        // spent — certified early or not.
        let q = separated_star();
        for seed in [1u64, 2, 3] {
            let out = AdaptiveRunner::new(WordMc::new(10_000, seed), 0.02, 0.05)
                .run(&q)
                .unwrap();
            let fixed = WordMc::new(out.certificate.trials_used, seed)
                .score(&q)
                .unwrap();
            assert_eq!(out.scores.as_slice(), fixed.as_slice(), "seed {seed}");

            let out = AdaptiveRunner::new(TraversalMc::new(640, seed), 0.001, 0.001)
                .run(&q)
                .unwrap();
            let fixed = TraversalMc::new(out.certificate.trials_used, seed)
                .score(&q)
                .unwrap();
            assert_eq!(out.scores.as_slice(), fixed.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn single_answer_certifies_on_first_batch() {
        let mut g = ProbGraph::new();
        let s = g.add_node(p(1.0));
        let t = g.add_node(p(1.0));
        g.add_edge(s, t, p(0.5)).unwrap();
        let q = QueryGraph::new(g, s, vec![t]).unwrap();
        let out = AdaptiveRunner::new(WordMc::new(10_000, 1), 0.02, 0.05)
            .run(&q)
            .unwrap();
        assert!(out.certificate.certified);
        assert_eq!(out.certificate.trials_used, 64);
        let _ = NodeId::from_index(0);
    }

    #[test]
    fn top_k_stops_earlier_than_full_on_bunched_tails() {
        // ε floor at 0.001 so the 0.01 tail gap is not excusable: the
        // full rule needs tens of thousands of trials (or the ceiling)
        // for it, while top-1 certifies off the 0.6 boundary gap in the
        // first batches.
        let q = wide_then_tied_star();
        for (full, top1) in [
            (
                AdaptiveRunner::new(WordMc::new(20_000, 7), 0.001, 0.05)
                    .run(&q)
                    .unwrap(),
                AdaptiveRunner::new(WordMc::new(20_000, 7), 0.001, 0.05)
                    .with_top_k(1)
                    .run(&q)
                    .unwrap(),
            ),
            (
                AdaptiveRunner::new(TraversalMc::new(20_000, 7), 0.001, 0.05)
                    .run(&q)
                    .unwrap(),
                AdaptiveRunner::new(TraversalMc::new(20_000, 7), 0.001, 0.05)
                    .with_top_k(1)
                    .run(&q)
                    .unwrap(),
            ),
        ] {
            assert_eq!(top1.certificate.mode, CertificateMode::TopK(1));
            assert_eq!(top1.certificate.mode.certified_k(), Some(1));
            assert_eq!(full.certificate.mode, CertificateMode::Full);
            assert_eq!(full.certificate.mode.certified_k(), None);
            assert!(top1.certificate.certified);
            assert!(
                top1.certificate.trials_used < full.certificate.trials_used,
                "top-1 {} vs full {}",
                top1.certificate.trials_used,
                full.certificate.trials_used
            );
        }
    }

    #[test]
    fn top_k_run_is_bit_identical_to_fixed_run_of_trials_used() {
        // The same contract the full runner honors: only the stopping
        // batch moves, never the sample schedule.
        let q = wide_then_tied_star();
        for seed in [1u64, 2, 3] {
            let out = AdaptiveRunner::new(WordMc::new(20_000, seed), 0.001, 0.05)
                .with_top_k(1)
                .run(&q)
                .unwrap();
            assert!(out.certificate.certified, "seed {seed}");
            let fixed = WordMc::new(out.certificate.trials_used, seed)
                .score(&q)
                .unwrap();
            assert_eq!(out.scores.as_slice(), fixed.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn top_k_covering_all_answers_is_full_certification() {
        let q = separated_star();
        let full = AdaptiveRunner::new(WordMc::new(10_000, 7), 0.02, 0.05)
            .run(&q)
            .unwrap();
        // k = 2 on 3 answers already checks both gaps — the k-th
        // boundary orders the last answer — so it is full
        // certification too, not just k ≥ answer count.
        for k in [2usize, 3, 10] {
            let topk = AdaptiveRunner::new(WordMc::new(10_000, 7), 0.02, 0.05)
                .with_top_k(k)
                .run(&q)
                .unwrap();
            assert_eq!(topk.certificate.mode, CertificateMode::Full, "k = {k}");
            assert_eq!(topk.certificate, full.certificate, "k = {k}");
            assert_eq!(topk.scores.as_slice(), full.scores.as_slice(), "k = {k}");
        }
    }

    #[test]
    fn top_zero_certifies_on_first_batch() {
        // k = 0 asks for no ordered prefix at all: nothing to check.
        let q = tied_pair(false);
        let out = AdaptiveRunner::new(WordMc::new(10_000, 1), 0.02, 0.05)
            .with_top_k(0)
            .run(&q)
            .unwrap();
        assert!(out.certificate.certified);
        assert_eq!(out.certificate.trials_used, 64);
        assert_eq!(out.certificate.mode, CertificateMode::TopK(0));
    }

    #[test]
    fn expired_deadline_aborts_with_partial_trials() {
        // A deadline already in the past: the run must abort after its
        // first batch (the poll sits between batches, so one batch
        // always completes) and report the trials it spent.
        let q = tied_pair(true);
        let deadline = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = AdaptiveRunner::new(WordMc::new(1_000_000, 5), 0.0001, 0.0001)
            .with_deadline(deadline)
            .run(&q)
            .unwrap_err();
        match err {
            Error::DeadlineExceeded { trials_used } => {
                assert_eq!(trials_used, 64, "aborts after exactly one batch");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(err.to_string().contains("deadline_exceeded"));
    }

    #[test]
    fn deadline_past_at_the_final_batch_still_lands() {
        // The other half of the deadline rule: no poll after the final
        // batch, so a run that spent its whole budget lands however
        // late — here one batch under a deadline already past, through
        // the fixed entry point and the adaptive runner (on a gap 64
        // trials cannot certify: the ceiling, not an early stop).
        let q = tied_pair(true);
        let deadline = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let fixed = run_batches(&WordMc::new(64, 5), &q, Some(deadline), |_, _| false).unwrap();
        assert_eq!(fixed.trials_used, 64);
        assert_eq!(
            fixed.scores.as_slice(),
            WordMc::new(64, 5).score(&q).unwrap().as_slice()
        );
        let out = AdaptiveRunner::new(WordMc::new(64, 5), 0.001, 0.001)
            .with_deadline(deadline)
            .run(&q)
            .unwrap();
        assert!(!out.certificate.certified);
        assert_eq!(out.certificate.trials_used, 64);
    }

    #[test]
    fn generous_deadline_is_bit_identical_to_undeadlined_run() {
        // A deadline far in the future must not perturb the outcome:
        // same scores, same certificate, batch for batch.
        let q = separated_star();
        let plain = AdaptiveRunner::new(WordMc::new(10_000, 7), 0.02, 0.05)
            .run(&q)
            .unwrap();
        let deadlined = AdaptiveRunner::new(WordMc::new(10_000, 7), 0.02, 0.05)
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600))
            .run(&q)
            .unwrap();
        assert_eq!(plain.scores.as_slice(), deadlined.scores.as_slice());
        assert_eq!(plain.certificate, deadlined.certificate);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let q = separated_star();
        for (eps, delta) in [(0.0, 0.05), (1.0, 0.05), (0.02, 0.0), (0.02, 1.0)] {
            assert!(matches!(
                AdaptiveRunner::new(WordMc::new(100, 1), eps, delta).run(&q),
                Err(Error::InvalidParameter { .. })
            ));
        }
        assert!(matches!(
            AdaptiveRunner::new(WordMc::new(0, 1), 0.02, 0.05).run(&q),
            Err(Error::ZeroTrials)
        ));
    }
}
