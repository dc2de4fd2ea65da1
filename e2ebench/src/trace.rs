//! Span trees of the traced run.
//!
//! One tree per request id, kept in memory until the run ends:
//!
//! ```text
//! request
//! ├── client.encode | client.sched_lag   (closed | open loop)
//! ├── client.wait                        (write began → line read)
//! │   └── server.<stage> …               (echoed by `trace:true`)
//! └── client.decode
//! ```
//!
//! The client spans are recorded around the harness's own calls; the
//! server stages are the ones the program already echoes. A span's
//! self time is its duration minus its children's. The `write` call's
//! own duration rides on `client.wait` as `write_nanos` (see
//! [`Record`] for why it is not a sibling span).

use std::path::Path;

use biorank_service::wire::Json;

use crate::defs::obj;
use crate::harness::{ConnRun, Outcome, Record};
use crate::workload::{OpKind, Workload};

/// Trees kept per workload; the rest of the run still feeds the medians.
pub const MAX_TREES: usize = 2_000;

/// One node of a span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Duration.
    pub nanos: u64,
    /// Child spans, in execution order.
    pub children: Vec<Span>,
    /// `client.wait` only: how long the `write` call took.
    pub write_nanos: Option<u64>,
}

impl Span {
    fn leaf(name: impl Into<String>, nanos: u64) -> Span {
        Span {
            name: name.into(),
            nanos,
            children: Vec::new(),
            write_nanos: None,
        }
    }

    /// Time covered by the children.
    pub fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.nanos).sum()
    }

    /// Duration minus the part the children cover.
    pub fn self_nanos(&self) -> u64 {
        self.nanos.saturating_sub(self.child_nanos())
    }

    /// Spans (this one included) whose children add up to more than
    /// the span itself.
    pub fn overfull(&self) -> usize {
        usize::from(self.child_nanos() > self.nanos)
            + self.children.iter().map(Span::overfull).sum::<usize>()
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("nanos", Json::Num(self.nanos as f64)),
            ("self_nanos", Json::Num(self.self_nanos() as f64)),
        ];
        if let Some(write) = self.write_nanos {
            fields.push(("write_nanos", Json::Num(write as f64)));
        }
        if !self.children.is_empty() {
            fields.push((
                "children",
                Json::Arr(self.children.iter().map(Span::to_json).collect()),
            ));
        }
        obj(fields)
    }
}

/// The span tree of one answered query; `None` for admin lines and
/// failures.
pub fn tree(record: &Record, open_loop: bool) -> Option<Span> {
    let Outcome::Answer { spans, .. } = &record.outcome else {
        return None;
    };
    let lead = if open_loop {
        "client.sched_lag"
    } else {
        "client.encode"
    };
    Some(Span {
        name: "request".into(),
        nanos: record.latency_ns(),
        children: vec![
            Span::leaf(lead, record.lead_ns),
            Span {
                name: "client.wait".into(),
                nanos: record.wait_ns,
                children: spans
                    .iter()
                    .map(|s| Span::leaf(format!("server.{}", s.stage), s.nanos))
                    .collect(),
                write_nanos: Some(record.write_ns),
            },
            Span::leaf("client.decode", record.decode_ns),
        ],
        write_nanos: None,
    })
}

/// What [`write`] put on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Written {
    /// Trees in the file.
    pub trees: usize,
    /// Spans whose children exceed them (0 in a sound trace).
    pub overfull: usize,
}

/// Writes `trace-<workload>.json` under `dir`: up to [`MAX_TREES`] span
/// trees of the measured window, with the counts taken at the same
/// boundaries (bytes each way).
pub fn write(
    dir: &Path,
    workload: Workload,
    runs: &[ConnRun],
    warmup_ns: u64,
) -> std::io::Result<Written> {
    let open_loop = workload.rate_qps().is_some();
    let mut written = Written::default();
    let mut requests = Vec::new();
    'all: for (conn, run) in runs.iter().enumerate() {
        for record in &run.records {
            if record.start_ns < warmup_ns || !matches!(record.kind, OpKind::Query { .. }) {
                continue;
            }
            let Some(span) = tree(record, open_loop) else {
                continue;
            };
            written.overfull += span.overfull();
            requests.push(obj(vec![
                ("id", Json::Str(format!("{conn}-{}", record.id))),
                ("start_ns", Json::Num(record.start_ns as f64)),
                ("request_bytes", Json::Num(f64::from(record.bytes.0))),
                ("response_bytes", Json::Num(f64::from(record.bytes.1))),
                ("span", span.to_json()),
            ]));
            written.trees += 1;
            if written.trees == MAX_TREES {
                break 'all;
            }
        }
    }
    let doc = obj(vec![
        ("workload", Json::Str(workload.name().into())),
        ("requests", Json::Arr(requests)),
    ]);
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{}.json", workload.name())),
        doc.encode(),
    )?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Observed;
    use crate::workload::hit_shape;
    use biorank_service::TraceSpan;

    fn record(wait_ns: u64, stages: &[(&str, u64)]) -> Record {
        Record {
            kind: OpKind::Query {
                protein: 0,
                shape: hit_shape(),
            },
            id: 3,
            start_ns: 5,
            lead_ns: 10,
            write_ns: 20,
            wait_ns,
            decode_ns: 30,
            bytes: (100, 900),
            outcome: Outcome::Answer {
                seen: Observed {
                    digest: 0,
                    strategy: None,
                    certificate: None,
                    answers: 0,
                    total: 0,
                    cached_scores: true,
                },
                server_micros: 1,
                spans: stages
                    .iter()
                    .map(|(stage, nanos)| TraceSpan {
                        stage: (*stage).into(),
                        nanos: *nanos,
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let span = tree(&record(1_000, &[("cache", 100), ("serialize", 250)]), false).unwrap();
        assert_eq!(span.nanos, 1_040);
        assert_eq!(span.self_nanos(), 0, "client spans partition the request");
        let wait = &span.children[1];
        assert_eq!(wait.name, "client.wait");
        assert_eq!(wait.self_nanos(), 650);
        assert_eq!(wait.children[1].name, "server.serialize");
        assert_eq!(span.overfull(), 0);
        assert_eq!(span.children[0].name, "client.encode");
        assert_eq!(
            tree(&record(1, &[]), true).unwrap().children[0].name,
            "client.sched_lag"
        );
    }

    #[test]
    fn children_exceeding_their_parent_are_counted() {
        let span = tree(&record(300, &[("cache", 100), ("serialize", 250)]), false).unwrap();
        assert_eq!(span.overfull(), 1);
        assert_eq!(span.children[1].self_nanos(), 0);
    }
}
