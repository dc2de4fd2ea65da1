//! Service-side snapshot payload codec: the bridge between a live
//! [`QueryEngine`] and the [`biorank_store`] container files.
//!
//! A snapshot freezes a resident world's *durable product* — its spec
//! plus the result cache, the ranked and certified answer lists — so a
//! `--data-dir` restart answers the same queries bit-identically from
//! the reloaded entries instead of re-running Monte Carlo. The graph
//! cache is not part of it: an integrated query graph is a
//! deterministic function of the world and the query, so it refills
//! through the ordinary miss path (~0.3 ms per query, once). The
//! payload layout (inside a version-2
//! [`FileKind::Snapshot`](biorank_store::FileKind::Snapshot)
//! container, which supplies magic, version, and checksum):
//!
//! ```text
//! [seed: u64][extended: bool][cache_capacity: u64]      world spec
//! [spec_hash: u64]                                      fingerprint of the spec above
//! [result entries: u64 count]
//!   count × [query][ranker spec][ranked result]         MRU first
//! ```
//!
//! Every float is encoded as its IEEE-754 bit pattern, so a decoded
//! entry is **bit-identical** to the one exported — the round-trip
//! guarantee the restart test asserts under every estimator.
//!
//! [`import_snapshot`] refuses a payload whose embedded spec does not
//! match the world the caller is restoring (a snapshot left on disk
//! after the world was re-loaded with a different seed must never leak
//! stale answers); the caller falls back to a cold rebuild.

use std::sync::Arc;

use biorank_mediator::ExploratoryQuery;
use biorank_rank::{Certificate, CertificateMode};
use biorank_store::{Reader, StoreError, StoredSpec, Writer};

use crate::engine::{
    AdaptiveConfig, Estimator, Method, QueryEngine, RankedAnswer, RankedResult, RankerSpec, Trials,
};
use crate::tenancy::WorldSpec;

type Result<T> = std::result::Result<T, StoreError>;

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Converts a live spec to its on-disk form.
pub fn stored_spec(spec: WorldSpec) -> StoredSpec {
    StoredSpec {
        seed: spec.seed,
        extended: spec.extended,
        cache_capacity: spec.cache_capacity as u64,
    }
}

/// Converts an on-disk spec back to the live form.
pub fn world_spec(stored: StoredSpec) -> Result<WorldSpec> {
    Ok(WorldSpec {
        seed: stored.seed,
        extended: stored.extended,
        cache_capacity: usize::try_from(stored.cache_capacity).map_err(|_| {
            corrupt(format!(
                "implausible cache capacity {}",
                stored.cache_capacity
            ))
        })?,
    })
}

fn encode_header(spec: WorldSpec, w: &mut Writer) {
    w.u64(spec.seed);
    w.bool(spec.extended);
    w.u64(spec.cache_capacity as u64);
    w.u64(spec.spec_hash());
}

/// Reads a payload's header — the spec and the hash that must
/// fingerprint it — for both [`snapshot_spec`] and
/// [`import_snapshot`].
fn decode_header(r: &mut Reader<'_>) -> Result<WorldSpec> {
    let spec = world_spec(StoredSpec {
        seed: r.u64()?,
        extended: r.bool()?,
        cache_capacity: r.u64()?,
    })?;
    let hash = r.u64()?;
    if hash != spec.spec_hash() {
        return Err(corrupt(format!(
            "snapshot spec hash {hash:#x} does not match spec (want {:#x})",
            spec.spec_hash()
        )));
    }
    Ok(spec)
}

fn encode_query(q: &ExploratoryQuery, w: &mut Writer) {
    w.str(&q.input);
    w.str(&q.attribute);
    w.str(&q.value);
    w.u64(q.outputs.len() as u64);
    for o in &q.outputs {
        w.str(o);
    }
}

fn decode_query(r: &mut Reader<'_>) -> Result<ExploratoryQuery> {
    let input = r.str()?;
    let attribute = r.str()?;
    let value = r.str()?;
    let n = r.u64()?;
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n <= 1 << 20)
        .ok_or_else(|| corrupt(format!("implausible output count {n}")))?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        outputs.push(r.str()?);
    }
    Ok(ExploratoryQuery::new(input, attribute, value, outputs))
}

fn method_tag(m: Method) -> u8 {
    match m {
        Method::Reliability => 0,
        Method::TraversalMc => 1,
        Method::Propagation => 2,
        Method::Diffusion => 3,
        Method::InEdge => 4,
        Method::PathCount => 5,
        Method::Exact => 6,
    }
}

fn method_from(tag: u8) -> Result<Method> {
    Ok(match tag {
        0 => Method::Reliability,
        1 => Method::TraversalMc,
        2 => Method::Propagation,
        3 => Method::Diffusion,
        4 => Method::InEdge,
        5 => Method::PathCount,
        6 => Method::Exact,
        t => return Err(corrupt(format!("unknown method tag {t}"))),
    })
}

fn encode_ranker(spec: &RankerSpec, w: &mut Writer) {
    w.u8(method_tag(spec.method));
    match spec.trials {
        Trials::Fixed(n) => {
            w.u8(0);
            w.u32(n);
        }
        Trials::Adaptive(cfg) => {
            w.u8(1);
            w.f64(cfg.epsilon);
            w.f64(cfg.delta);
            w.u32(cfg.max_trials);
        }
    }
    w.u64(spec.seed);
    w.bool(spec.parallel);
    // Cached specs are always post-resolution (`cache_key` output),
    // so `auto` never reaches a snapshot in practice — but the codec
    // round-trips it anyway rather than panic on a hand-built spec.
    w.u8(match spec.estimator {
        None => 0,
        Some(Estimator::Traversal) => 1,
        Some(Estimator::Word) => 2,
        Some(Estimator::Auto) => 3,
    });
}

fn decode_ranker(r: &mut Reader<'_>) -> Result<RankerSpec> {
    let method = method_from(r.u8()?)?;
    let trials = match r.u8()? {
        0 => Trials::Fixed(r.u32()?),
        1 => Trials::Adaptive(AdaptiveConfig {
            epsilon: r.f64()?,
            delta: r.f64()?,
            max_trials: r.u32()?,
        }),
        t => return Err(corrupt(format!("unknown trials tag {t}"))),
    };
    let seed = r.u64()?;
    let parallel = r.bool()?;
    let estimator = match r.u8()? {
        0 => None,
        1 => Some(Estimator::Traversal),
        2 => Some(Estimator::Word),
        3 => Some(Estimator::Auto),
        t => return Err(corrupt(format!("unknown estimator tag {t}"))),
    };
    Ok(RankerSpec {
        method,
        trials,
        seed,
        parallel,
        estimator,
    })
}

fn encode_ranked(res: &RankedResult, w: &mut Writer) {
    w.u64(res.answers.len() as u64);
    for a in &res.answers {
        w.str(&a.key);
        w.str(&a.label);
        w.f64(a.score);
        w.u64(a.rank_lo as u64);
        w.u64(a.rank_hi as u64);
    }
    match &res.certificate {
        None => w.bool(false),
        Some(c) => {
            w.bool(true);
            w.u32(c.trials_used);
            w.f64(c.epsilon);
            w.bool(c.certified);
            match c.mode {
                CertificateMode::Full => w.u8(0),
                CertificateMode::TopK(k) => {
                    w.u8(1);
                    w.u32(k);
                }
            }
        }
    }
}

fn decode_ranked(r: &mut Reader<'_>) -> Result<RankedResult> {
    let n = r.u64()?;
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n <= 1 << 24)
        .ok_or_else(|| corrupt(format!("implausible answer count {n}")))?;
    let mut answers = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.str()?;
        let label = r.str()?;
        let score = r.f64()?;
        let lo = r.u64()?;
        let hi = r.u64()?;
        answers.push(RankedAnswer {
            key,
            label,
            score,
            rank_lo: usize::try_from(lo).map_err(|_| corrupt("implausible rank"))?,
            rank_hi: usize::try_from(hi).map_err(|_| corrupt("implausible rank"))?,
        });
    }
    let certificate = if r.bool()? {
        let trials_used = r.u32()?;
        let epsilon = r.f64()?;
        let certified = r.bool()?;
        let mode = match r.u8()? {
            0 => CertificateMode::Full,
            1 => CertificateMode::TopK(r.u32()?),
            t => return Err(corrupt(format!("unknown certificate mode tag {t}"))),
        };
        Some(Certificate {
            trials_used,
            epsilon,
            certified,
            mode,
        })
    } else {
        None
    };
    Ok(RankedResult {
        answers,
        certificate,
    })
}

/// Serializes a world's spec plus its result cache into a snapshot
/// payload ([`import_snapshot`] is the inverse). Entries are exported
/// most-recently-used first, so the importer can rebuild the same
/// recency order.
pub fn export_snapshot(engine: &QueryEngine, spec: WorldSpec) -> Vec<u8> {
    let results = engine.export_cache();
    let mut w = Writer::new();
    encode_header(spec, &mut w);
    w.u64(results.len() as u64);
    for ((query, rspec), ranked) in &results {
        encode_query(query, &mut w);
        encode_ranker(rspec, &mut w);
        encode_ranked(ranked, &mut w);
    }
    w.into_inner()
}

/// The spec a snapshot payload was exported from, without decoding
/// the cache entries (cheap pre-flight check for restore paths).
pub fn snapshot_spec(payload: &[u8]) -> Result<WorldSpec> {
    decode_header(&mut Reader::new(payload))
}

/// Decodes a snapshot payload and replays its result entries into
/// `engine`, which must have been built from `expected` — a payload
/// whose embedded spec differs is rejected without touching the
/// engine (the stale-snapshot guard). Returns the number of result
/// entries imported (each also counts on the engine's
/// `warm.replayed`).
pub fn import_snapshot(engine: &QueryEngine, payload: &[u8], expected: WorldSpec) -> Result<usize> {
    let mut r = Reader::new(payload);
    let spec = decode_header(&mut r)?;
    if spec != expected {
        return Err(corrupt(format!(
            "snapshot spec {spec:?} does not match expected {expected:?}"
        )));
    }
    let n = r.u64()?;
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n <= 1 << 24)
        .ok_or_else(|| corrupt(format!("implausible result entry count {n}")))?;
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        let query = decode_query(&mut r)?;
        let rspec = decode_ranker(&mut r)?;
        let ranked = decode_ranked(&mut r)?;
        results.push(((query, rspec), Arc::new(ranked)));
    }
    r.finish()?;
    Ok(engine.import_cache(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryRequest;

    fn tiny_spec() -> WorldSpec {
        WorldSpec {
            seed: 11,
            extended: false,
            // Shard placement is randomized per process; a capacity this
            // small would mean one slot per shard, where two of our five
            // keys colliding in a shard silently evicts one. Keep every
            // shard deep enough that the round-trip is exact.
            cache_capacity: 256,
        }
    }

    fn specs() -> Vec<RankerSpec> {
        vec![
            RankerSpec::new(Method::InEdge),
            RankerSpec::new(Method::Propagation),
            RankerSpec {
                estimator: Some(Estimator::Traversal),
                ..RankerSpec::new(Method::TraversalMc)
            },
            RankerSpec {
                estimator: Some(Estimator::Word),
                trials: Trials::Adaptive(AdaptiveConfig::default()),
                ..RankerSpec::new(Method::TraversalMc)
            },
            RankerSpec {
                trials: Trials::Fixed(500),
                ..RankerSpec::new(Method::Reliability)
            },
        ]
    }

    /// The tentpole round-trip guarantee: export a warmed engine,
    /// import into a fresh engine built from the same spec, and every
    /// estimator answers bit-identically from cache.
    #[test]
    fn snapshot_round_trips_bit_identically() {
        let spec = tiny_spec();
        let source = spec.build();
        let mut baseline = Vec::new();
        for rspec in specs() {
            let req = QueryRequest::protein_functions("GALT", rspec);
            baseline.push((req.clone(), source.execute(&req).expect("source query")));
        }

        let payload = export_snapshot(&source, spec);
        let restored = spec.build();
        let imported = import_snapshot(&restored, &payload, spec).expect("import");
        assert_eq!(imported, specs().len());
        // Only results travel: the graph layer refills on a miss.
        assert_eq!(restored.stats().graphs.entries, 0);

        for (req, want) in &baseline {
            let got = restored.execute(req).expect("restored query");
            assert!(got.cached_scores, "restored answer must come from cache");
            assert_eq!(got.answers.len(), want.answers.len());
            for (g, w) in got.answers.iter().zip(&want.answers) {
                assert_eq!(g.key, w.key);
                assert_eq!(g.label, w.label);
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "score drift");
                assert_eq!((g.rank_lo, g.rank_hi), (w.rank_lo, w.rank_hi));
            }
            assert_eq!(got.certificate, want.certificate);
        }
        assert!(
            restored
                .metrics_snapshot()
                .counters
                .get("warm.replayed")
                .copied()
                .unwrap_or(0)
                > 0
        );
    }

    /// A payload carrying a different spec must be rejected — stale
    /// snapshots never leak answers into a re-seeded world.
    #[test]
    fn mismatched_spec_is_rejected() {
        let spec = tiny_spec();
        let engine = spec.build();
        let payload = export_snapshot(&engine, spec);
        let other = WorldSpec { seed: 12, ..spec };
        assert!(import_snapshot(&engine, &payload, other).is_err());
        assert_eq!(snapshot_spec(&payload).expect("spec"), spec);
    }

    /// Truncated payloads error instead of importing partial state.
    #[test]
    fn truncated_payload_is_rejected() {
        let spec = tiny_spec();
        let engine = spec.build();
        let req = QueryRequest::protein_functions("GALT", RankerSpec::new(Method::InEdge));
        engine.execute(&req).expect("query");
        let payload = export_snapshot(&engine, spec);
        let fresh = spec.build();
        for cut in [0, 10, payload.len() / 2, payload.len() - 1] {
            assert!(
                import_snapshot(&fresh, &payload[..cut], spec).is_err(),
                "cut {cut} accepted"
            );
        }
    }
}
