//! The seeded-case runner the property tests share
//! (`tests/common/cases.rs`): a failing case is named by its seed, and
//! a case's input depends on that seed alone, so it replays by itself.

#[path = "common/cases.rs"]
mod cases;
#[path = "common/small_graph.rs"]
mod small_graph;

const FIRST_SEED: u64 = 0x5EED_0000;

#[test]
#[should_panic(expected = "case seed=0x5eed0005 failed (RERUN = Some(0x5eed0005) runs it alone)")]
fn a_failing_case_is_named_by_its_seed() {
    cases::run(16, FIRST_SEED, None, |seed, _| {
        assert_ne!(seed, FIRST_SEED + 5)
    });
}

#[test]
fn a_case_alone_draws_what_it_draws_after_the_cases_before_it() {
    let draw =
        |rng: &mut cases::Rng| format!("{:?}", small_graph::small_graph(rng, 2..=7, 0..=12, false));
    let mut in_order = Vec::new();
    cases::run(8, FIRST_SEED, None, |_, rng| in_order.push(draw(rng)));
    for (k, want) in (0..).zip(&in_order) {
        let mut alone = Vec::new();
        cases::run(8, FIRST_SEED, Some(FIRST_SEED + k), |_, rng| {
            alone.push(draw(rng))
        });
        assert_eq!(alone, [want.as_str()], "case {k}");
    }
    assert_ne!(in_order[0], in_order[1]);
}

#[test]
fn f64_draws_reach_both_endpoints() {
    let mut rng = cases::Rng(FIRST_SEED);
    let draws: Vec<f64> = (0..1000).map(|_| rng.f64(0.0, 1.0)).collect();
    assert!(draws.iter().all(|x| (0.0..=1.0).contains(x)));
    assert!(draws.contains(&0.0) && draws.contains(&1.0));
}
