//! Property tests for the evaluation metrics.

#[path = "../../../tests/common/cases.rs"]
mod cases;

use biorank_eval::ap::{average_precision, average_precision_strict, random_ap};
use biorank_eval::perturb;
use biorank_graph::{NodeId, Prob};
use biorank_rank::Ranking;
use rand::SeedableRng;

/// Case `i` of each property runs seed `FIRST_SEED + i`; a failure
/// names its seed, and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 128;
const FIRST_SEED: u64 = 0x3E7C_0000;
const RERUN: Option<u64> = None;

/// AP is always in [0, 1] (when defined).
#[test]
fn ap_is_bounded() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        // 1–39 items, each scored in tenths and relevant or not.
        let items = rng.vec(1..40, |r| (r.below(11) as f64 / 10.0, r.bool()));
        let scored = (0..)
            .zip(&items)
            .map(|(i, &(s, _))| (NodeId::from_index(i), s));
        let ranking = Ranking::rank(scored.collect());
        if let Some(ap) = average_precision(&ranking, |n| items[n.index()].1) {
            assert!((0.0..=1.0 + 1e-12).contains(&ap), "ap = {ap}");
        } else {
            assert!(items.iter().all(|&(_, r)| !r));
        }
    });
}

/// A ranking that puts every relevant item strictly first has AP 1.
#[test]
fn perfect_ranking_is_ap_one() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let (rel_count, junk) = (rng.range(1..10), rng.range(1..20));
        let mut scored = Vec::new();
        for i in 0..rel_count {
            scored.push((NodeId::from_index(i), 1000.0 - i as f64));
        }
        for j in 0..junk {
            scored.push((NodeId::from_index(rel_count + j), 10.0 - j as f64));
        }
        let ranking = Ranking::rank(scored);
        let ap = average_precision(&ranking, |n| n.index() < rel_count).unwrap();
        assert!((ap - 1.0).abs() < 1e-12);
    });
}

/// Swapping an irrelevant item above a relevant one never increases
/// strict AP.
#[test]
fn demotion_monotonicity() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let rel = rng.vec(2..30, cases::Rng::bool);
        let base = average_precision_strict(&rel);
        // Find an adjacent (relevant, irrelevant) pair and swap it.
        for i in 0..rel.len() - 1 {
            if rel[i] && !rel[i + 1] {
                let mut worse = rel.clone();
                worse.swap(i, i + 1);
                if let (Some(a), Some(b)) = (base, average_precision_strict(&worse)) {
                    assert!(b <= a + 1e-12, "swap at {i}: {a} -> {b}");
                }
            }
        }
    });
}

/// Random AP lies strictly between the worst and best AP for the
/// same (k, n) and matches k/n asymptotics loosely.
#[test]
fn random_ap_is_between_extremes() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let (k, extra) = (rng.range(1..15), rng.range(1..30));
        let n = k + extra;
        let rand = random_ap(k, n).unwrap();
        // Worst AP: all relevant at the bottom.
        let mut worst_rel = vec![false; n];
        for i in 0..k {
            worst_rel[n - 1 - i] = true;
        }
        let worst = average_precision_strict(&worst_rel).unwrap();
        assert!(rand > worst - 1e-12);
        assert!(rand < 1.0);
    });
}

/// Log-odds perturbation keeps probabilities valid and is identity
/// at σ = 0.
#[test]
fn perturbation_validity() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let (p0, sigma) = (rng.f64(0.0, 1.0), rng.f64(0.0, 4.0));
        let seed = rng.below(1000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = Prob::clamped(p0);
        let out = perturb::perturb_prob(p, sigma, &mut rng);
        assert!((0.0..=1.0).contains(&out.get()));
        if sigma == 0.0 {
            assert_eq!(out.get(), p.get());
        }
        // Degenerate inputs are fixed points.
        if p.is_zero() || p.is_one() {
            assert_eq!(out.get(), p.get());
        }
    });
}

/// Tie-aware AP equals strict AP whenever there are no ties.
#[test]
fn tie_aware_reduces_to_strict() {
    cases::run(CASES, FIRST_SEED, RERUN, |_, rng| {
        let rel = rng.vec(1..30, cases::Rng::bool);
        let scored: Vec<(NodeId, f64)> = rel
            .iter()
            .enumerate()
            .map(|(i, _)| (NodeId::from_index(i), 100.0 - i as f64))
            .collect();
        let ranking = Ranking::rank(scored);
        let tie_aware = average_precision(&ranking, |n| rel[n.index()]);
        let strict = average_precision_strict(&rel);
        match (tie_aware, strict) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12),
            (None, None) => {}
            other => panic!("mismatch: {other:?}"),
        }
    });
}
