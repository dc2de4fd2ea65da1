//! Ablation of the generative evidence model: which mechanism drives
//! which figure shape?
//!
//! Each row disables one mechanism of the synthetic world and reruns
//! the Fig. 5 evaluation (reliability / propagation / InEdge means per
//! scenario). Measured effects (this binary prints them):
//!
//! * no path-count gap   → InEdge collapses in scenario 1 (0.90 → 0.42):
//!   redundancy counting IS the deterministic methods' signal;
//! * uniform strengths   → the probabilistic methods lose scenarios 2–3
//!   (S2 0.24 → 0.07, S3 0.65 → 0.41): per-path strength IS their
//!   signal — together these two rows are Fig. 9 in ablation form;
//! * no ontology links   → propagation becomes exactly reliability
//!   per answer (series-parallel graphs); small AP shifts only;
//! * no strong noise     → scenario-1 probabilistic AP nudges up
//!   (the weak-evidence-code tail, not strong noise, is the main
//!   residual limiter of reliability in scenario 1).
//!
//! Usage: `ablation_model [trials]` (default 2000).

use biorank_eval::{evaluate, Scenario};
use biorank_rank::{InEdge, Propagation, Ranker, ReducedMc};
use biorank_sources::{World, WorldParams};

fn scenario_means(world: &World, trials: u32) -> Vec<(f64, f64, f64)> {
    let rankers: Vec<Box<dyn Ranker + Send + Sync>> = vec![
        Box::new(ReducedMc::new(trials, 7)),
        Box::new(Propagation::auto()),
        Box::new(InEdge),
    ];
    Scenario::ALL
        .iter()
        .map(|&s| {
            let cases = biorank_eval::build_cases(world, s).expect("cases build");
            let r = evaluate(&rankers, &cases).expect("evaluation succeeds");
            (r[0].summary.mean, r[1].summary.mean, r[2].summary.mean)
        })
        .collect()
}

fn main() {
    let trials: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2000);

    let mut variants: Vec<(&str, WorldParams)> = Vec::new();
    variants.push(("default", WorldParams::default()));

    let mut p = WorldParams::default();
    p.evidence.strong_noise_fraction = 0.0;
    variants.push(("no strong noise", p));

    let mut p = WorldParams::default();
    p.evidence.isa_well_known = 0.0;
    p.evidence.isa_noise = 0.0;
    variants.push(("no ontology links", p));

    let mut p = WorldParams::default();
    p.evidence.noise.paths = p.evidence.well_known.paths;
    variants.push(("no path-count gap", p));

    let mut p = WorldParams::default();
    let mid = (0.4, 0.6);
    p.evidence.well_known.strength = mid;
    p.evidence.less_known.strength = mid;
    p.evidence.noise.strength = mid;
    p.evidence.strong_noise.strength = mid;
    p.evidence.hypo_true.strength = mid;
    p.evidence.hypo_noise.strength = mid;
    variants.push(("uniform strengths", p));

    println!(
        "{:<20} {:>23} {:>23} {:>23}",
        "Variant", "S1 Rel/Prop/InEdge", "S2 Rel/Prop/InEdge", "S3 Rel/Prop/InEdge"
    );
    for (name, params) in variants {
        let world = World::generate(params);
        let means = scenario_means(&world, trials);
        print!("{name:<20}");
        for (rel, prop, inedge) in means {
            print!("        {rel:.2}/{prop:.2}/{inedge:.2}");
        }
        println!();
    }
}
