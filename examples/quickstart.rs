//! Quickstart: integrate one protein's evidence and rank its candidate
//! functions under all five semantics.
//!
//! ```sh
//! cargo run --release --example quickstart [PROTEIN]
//! ```
//!
//! `PROTEIN` defaults to ABCC8, the paper's running example.

use biorank::prelude::*;

fn main() {
    let protein = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ABCC8".to_string());

    // 1. A deterministic synthetic world standing in for the 11 live
    //    web sources of the paper (the `biorank_sources` crate docs
    //    describe the substitution).
    let world = World::generate(WorldParams::default());

    // 2. The mediator executes the exploratory query
    //    (EntrezProtein.name = protein, {AmiGO}): keyword match, then
    //    recursive link expansion into a probabilistic query graph.
    let mediator = Mediator::new(biorank_schema_with_ontology().schema, world.registry());
    let result = match mediator.execute(&ExploratoryQuery::protein_functions(&protein)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("integration failed for {protein}: {e}");
            eprintln!("try one of the Table 1 proteins, e.g. ABCC8, CFTR, EYA1, GALT");
            std::process::exit(1);
        }
    };
    let q = &result.query;
    println!(
        "{protein}: query graph with {} nodes, {} edges, {} candidate functions",
        q.graph().node_count(),
        q.graph().edge_count(),
        q.answers().len()
    );

    // 3. Rank with each of the paper's five methods.
    let rankers: Vec<Box<dyn Ranker + Send + Sync>> = vec![
        Box::new(ReducedMc::new(10_000, 42)), // reliability (reduction + MC)
        Box::new(Propagation::auto()),
        Box::new(Diffusion::auto()),
        Box::new(InEdge),
        Box::new(PathCount),
    ];
    for ranker in rankers {
        let scores = ranker.score(q).expect("ranking succeeds");
        let ranking = Ranking::rank(scores.answers(q));
        print!("{:<10} top 5:", ranker.name());
        for entry in ranking.entries().iter().take(5) {
            print!(
                "  {}={:.3}",
                result.answer_key(entry.node).unwrap_or("?"),
                entry.score
            );
        }
        println!();
    }

    // 4. Compare against the gold standard.
    let gold = world.iproclass.functions(&protein);
    if !gold.is_empty() {
        let scores = ReducedMc::new(10_000, 42).score(q).expect("scores");
        let ranking = Ranking::rank(scores.answers(q));
        let ap = average_precision(&ranking, |n| {
            result
                .answer_key(n)
                .and_then(GoTerm::parse)
                .is_some_and(|t| gold.contains(&t))
        })
        .unwrap_or(0.0);
        println!(
            "reliability AP against iProClass ({} well-known functions): {ap:.3}",
            gold.len()
        );
    }
}
