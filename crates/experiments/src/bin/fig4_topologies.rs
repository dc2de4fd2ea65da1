//! Fig. 4: the five relevance scoring functions on the two illustrative
//! topologies.
//!
//! (a) serial-parallel graph — s →(0.5) m, then two certain 2-hop paths
//!     to u. Paper: PathCount 2, InEdge 2, Reliability 0.5,
//!     Propagation 0.75, Diffusion 0.11.
//! (b) Wheatstone bridge, all edges 0.5. Paper: PathCount 3, InEdge 2,
//!     Reliability 0.469, Propagation 0.484, Diffusion ≈ 0.11 (the
//!     printed equations give 1/6 ≈ 0.167; this binary prints both).

use biorank_eval::report::table;
use biorank_graph::{reduction, NodeId, Prob, ProbGraph, QueryGraph};
use biorank_rank::{ClosedReliability, Diffusion, InEdge, PathCount, Propagation, Ranker};

fn fig4a() -> (QueryGraph, NodeId) {
    let p = |v: f64| Prob::new(v).expect("valid");
    let mut g = ProbGraph::new();
    let s = g.add_labeled_node(p(1.0), "s");
    let m = g.add_labeled_node(p(1.0), "m");
    let a = g.add_labeled_node(p(1.0), "a");
    let b = g.add_labeled_node(p(1.0), "b");
    let u = g.add_labeled_node(p(1.0), "u");
    g.add_edge(s, m, p(0.5)).expect("edge");
    g.add_edge(m, a, p(1.0)).expect("edge");
    g.add_edge(m, b, p(1.0)).expect("edge");
    g.add_edge(a, u, p(1.0)).expect("edge");
    g.add_edge(b, u, p(1.0)).expect("edge");
    (QueryGraph::new(g, s, vec![u]).expect("query"), u)
}

fn fig4b() -> (QueryGraph, NodeId) {
    let (g, s, t) = reduction::wheatstone(Prob::HALF);
    (QueryGraph::new(g, s, vec![t]).expect("query"), t)
}

fn score_row(q: &QueryGraph, u: NodeId) -> Vec<String> {
    let rel = ClosedReliability::default().score(q).expect("rel").get(u);
    let prop = Propagation::auto().score(q).expect("prop").get(u);
    let diff = Diffusion::auto().score(q).expect("diff").get(u);
    let inedge = InEdge.score(q).expect("inedge").get(u);
    let pathc = PathCount.score(q).expect("pathc").get(u);
    vec![
        format!("{rel:.3}"),
        format!("{prop:.3}"),
        format!("{diff:.3}"),
        format!("{inedge:.0}"),
        format!("{pathc:.0}"),
    ]
}

fn main() {
    let (qa, ua) = fig4a();
    let (qb, ub) = fig4b();
    let mut rows = vec![];
    let mut row_a = vec!["(a) serial-parallel".to_string()];
    row_a.extend(score_row(&qa, ua));
    rows.push(row_a);
    let mut row_b = vec!["(b) Wheatstone bridge".to_string()];
    row_b.extend(score_row(&qb, ub));
    rows.push(row_b);
    println!(
        "{}",
        table(
            &["Topology", "Rel", "Prop", "Diff", "InEdge", "PathC"],
            &rows
        )
    );
    println!("Paper (a): Rel 0.5, Prop 0.75, Diff 0.11, InEdge 2, PathC 2");
    println!("Paper (b): Rel 0.469, Prop 0.484, Diff 0.11*, InEdge 2, PathC 3");
    println!("* the printed diffusion equations evaluate to 1/6 on (b).");
}
