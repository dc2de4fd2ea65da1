//! Seeded cases for the property tests (std only). Case `i` of a run
//! is built from seed `first_seed + i` alone, so any case can run by
//! itself: a failure names its seed, and a file's
//! `const RERUN: Option<u64> = Some(seed)` replays just that case.
//!
//! Include with `#[path = "…/tests/common/cases.rs"] mod cases;`.

#![allow(dead_code)] // each test target uses its own subset

use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64, seeded with the case's seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in a non-empty bounded range such as `1..40` or `2..=7`.
    pub fn range(&mut self, r: impl RangeBounds<usize>) -> usize {
        let lo = match r.start_bound() {
            Bound::Included(&lo) => lo,
            Bound::Excluded(&lo) => lo + 1,
            Bound::Unbounded => 0,
        };
        let end = match r.end_bound() {
            Bound::Included(&hi) => hi + 1,
            Bound::Excluded(&hi) => hi,
            Bound::Unbounded => panic!("range needs an upper bound"),
        };
        lo + self.below((end - lo) as u64) as usize
    }

    /// `draw` repeated a number of times drawn from `len`.
    pub fn vec<T>(&mut self, len: impl RangeBounds<usize>, draw: impl Fn(&mut Rng) -> T) -> Vec<T> {
        (0..self.range(len)).map(|_| draw(self)).collect()
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// In `[lo, hi]`, each endpoint exactly with probability 1/64, so
    /// properties that branch on a boundary value reach it.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        match self.below(64) {
            0 => lo,
            1 => hi,
            _ => lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo),
        }
    }
}

/// Runs `body` on seeds `first_seed..first_seed + cases`, or on
/// `rerun` alone. A failing case re-panics naming its seed.
pub fn run(cases: u64, first_seed: u64, rerun: Option<u64>, mut body: impl FnMut(u64, &mut Rng)) {
    let seeds = match rerun {
        Some(seed) => seed..seed + 1,
        None => first_seed..first_seed + cases,
    };
    for seed in seeds {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(seed, &mut Rng(seed)))) {
            let msg = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("");
            panic!("case seed={seed:#x} failed (RERUN = Some({seed:#x}) runs it alone): {msg}");
        }
    }
}
