//! The correctness check: every answer the server sends is compared
//! with what a reference [`QueryEngine`], built from the same
//! [`WorldSpec`], computes in-process outside the timed phase.
//!
//! The comparison is the repo's bit-identical determinism contract:
//! answer keys, score bits, rank bands, and the certificate's
//! `trials_used` / `certified` / `mode` must all agree. During a run
//! only a 64-bit [`digest`] of those fields is kept per response; the
//! reference is computed afterwards, once per distinct request.

use std::collections::HashMap;

use biorank_rank::{CertificateMode, Strategy};
use biorank_service::wire::{decode_request_with, RequestBody, RequestDefaults};
use biorank_service::{
    spec_for_strategy, AdaptiveConfig, Coverage, Estimator, QueryEngine, QueryRequest,
    QueryResponse, RankerSpec, Trials, WorldSpec,
};

/// The defaults the benchmark's server substitutes for unset request
/// fields (`ServeOptions::default()`): adaptive trials. The estimator
/// default (`auto`) is applied after decoding, as the server does.
pub fn server_defaults() -> RequestDefaults {
    RequestDefaults {
        trials: Trials::Adaptive(AdaptiveConfig::default()),
        deadline_ms: None,
    }
}

/// Decodes a generated query line the way the server does.
pub fn decode_query(line: &str) -> Result<QueryRequest, String> {
    match decode_request_with(line, &server_defaults()) {
        Ok(request) => match request.body {
            RequestBody::Query(mut req) => {
                if req.spec.estimator.is_none() {
                    req.spec.estimator = Some(Estimator::Auto);
                }
                Ok(req)
            }
            RequestBody::Admin(_) => Err("not a query line".into()),
        },
        Err(e) => Err(format!("undecodable request line: {e}")),
    }
}

/// What the harness keeps of one response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observed {
    /// Hash of every field under the determinism contract.
    pub digest: u64,
    /// The planner's echoed strategy (`None` for explicit requests).
    pub strategy: Option<Strategy>,
    /// The certificate's mode, `certified` flag and `trials_used`.
    pub certificate: Option<(CertificateMode, bool, u32)>,
    /// Answers on the line / size of the full answer set.
    pub answers: usize,
    /// Size of the full answer set.
    pub total: usize,
    /// Served from the result cache.
    pub cached_scores: bool,
}

/// FNV-1a over the contract fields of a response.
pub fn digest(resp: &QueryResponse) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(&(resp.total_answers as u64).to_le_bytes());
    for a in &resp.answers {
        eat(a.key.as_bytes());
        eat(&a.score.to_bits().to_le_bytes());
        eat(&(a.rank_lo as u64).to_le_bytes());
        eat(&(a.rank_hi as u64).to_le_bytes());
    }
    if let Some(c) = &resp.certificate {
        eat(&c.trials_used.to_le_bytes());
        eat(&c.epsilon.to_bits().to_le_bytes());
        eat(&[u8::from(c.certified)]);
        eat(&c
            .mode
            .certified_k()
            .map_or(u64::MAX, u64::from)
            .to_le_bytes());
    }
    h
}

/// Reduces a response to what the post-run check needs.
pub fn observe(resp: &QueryResponse) -> Observed {
    Observed {
        digest: digest(resp),
        strategy: resp.plan.map(|p| p.strategy),
        certificate: resp
            .certificate
            .map(|c| (c.mode, c.certified, c.trials_used)),
        answers: resp.answers.len(),
        total: resp.total_answers,
        cached_scores: resp.cached_scores,
    }
}

type MemoKey = (String, RankerSpec, Option<usize>, bool);

/// The reference engine plus a memo of the answers it has computed.
pub struct Checker {
    engine: QueryEngine,
    memo: HashMap<MemoKey, Result<u64, String>>,
}

impl Checker {
    /// A reference engine over the world `spec` describes.
    pub fn new(spec: WorldSpec) -> Checker {
        Checker {
            engine: spec.build(),
            memo: HashMap::new(),
        }
    }

    /// Distinct reference executions so far.
    #[cfg(test)]
    fn executions(&self) -> usize {
        self.memo.len()
    }

    /// Checks one observed response against the reference answer to
    /// the request `line`. `Err` explains the first disagreement.
    pub fn check(&mut self, line: &str, seen: &Observed) -> Result<(), String> {
        let mut req = decode_query(line)?;
        let wanted = req.coverage();
        if let Trials::Adaptive(cfg) = req.spec.trials {
            let Some((mode, certified, trials_used)) = seen.certificate else {
                return Err("adaptive request answered without a certificate".into());
            };
            if !certified && trials_used < cfg.max_trials {
                return Err(format!(
                    "stopped uncertified after {trials_used} of {} trials",
                    cfg.max_trials
                ));
            }
            // The result cache may answer a top-k request from a fully
            // certified entry, never the other way round.
            let admissible = match (wanted, mode) {
                (Coverage::Full, CertificateMode::Full) => true,
                (Coverage::Full, CertificateMode::TopK(_)) => false,
                // (A k within one of the answer count *is* the full rule
                // and is stamped as such, certified or not.)
                (Coverage::TopK(k), CertificateMode::Full) => certified || k + 1 >= seen.total,
                (Coverage::TopK(k), CertificateMode::TopK(m)) => k <= m as usize,
            };
            if !admissible {
                return Err(format!("{mode:?} certificate cannot answer {wanted:?}"));
            }
            req.certify_top = matches!(mode, CertificateMode::TopK(_));
        } else if seen.certificate.is_some() {
            return Err("fixed-trial request answered with a certificate".into());
        }
        if req.spec.estimator == Some(Estimator::Auto) {
            // Follow the strategy the server's (self-calibrating)
            // planner chose: the contract is that a planned answer is
            // bit-identical to explicitly asking for that strategy.
            let Some(strategy) = seen.strategy else {
                return Err("planned request answered without a plan echo".into());
            };
            req.spec = spec_for_strategy(strategy, &req.spec);
        }
        let want_len = req.top.unwrap_or(seen.total).min(seen.total);
        if seen.answers != want_len {
            return Err(format!(
                "{} answers on the line, expected {want_len}",
                seen.answers
            ));
        }
        req.trace = false;
        let key = (req.query.value.clone(), req.spec, req.top, req.certify_top);
        let engine = &self.engine;
        let expected = self.memo.entry(key).or_insert_with(|| {
            engine
                .execute_uncached(&req)
                .map(|resp| digest(&resp))
                .map_err(|e| format!("reference engine failed: {e}"))
        });
        match expected {
            Ok(want) if *want == seen.digest => Ok(()),
            Ok(_) => Err(format!(
                "answer for {:?} differs from the reference engine's",
                req.query.value
            )),
            Err(e) => Err(e.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{first_shape, query_line, Workload};

    fn served(line: &str) -> QueryResponse {
        // What a server with default options would answer.
        let engine = WorldSpec::default().build();
        engine.execute(&decode_query(line).unwrap()).unwrap()
    }

    #[test]
    fn honest_answers_pass() {
        let mut checker = Checker::new(WorldSpec::default());
        for workload in [
            Workload::HitTop10,
            Workload::RescoreWord,
            Workload::ColdDefault,
        ] {
            let line = query_line(7, "GALT", None, first_shape(workload), false);
            let resp = served(&line);
            assert!(!resp.answers.is_empty());
            checker.check(&line, &observe(&resp)).unwrap();
        }
        assert_eq!(checker.executions(), 3);
    }

    #[test]
    fn a_corrupted_answer_fails_the_check() {
        let mut checker = Checker::new(WorldSpec::default());
        let line = query_line(1, "GALT", None, first_shape(Workload::HitTop10), false);
        let good = served(&line);
        checker.check(&line, &observe(&good)).unwrap();

        // One flipped score bit.
        let mut bad = good.clone();
        bad.answers[0].score = f64::from_bits(bad.answers[0].score.to_bits() ^ 1);
        assert!(checker.check(&line, &observe(&bad)).is_err());

        // Two answers swapped.
        let mut bad = good.clone();
        bad.answers.swap(0, 1);
        assert!(checker.check(&line, &observe(&bad)).is_err());

        // A certificate claiming fewer trials.
        let mut bad = good.clone();
        bad.certificate.as_mut().unwrap().trials_used -= 64;
        assert!(checker.check(&line, &observe(&bad)).is_err());

        // A truncated answer list.
        let mut bad = good.clone();
        bad.answers.pop();
        assert!(checker.check(&line, &observe(&bad)).is_err());

        // Uncertified below the ceiling.
        let mut bad = good;
        bad.certificate.as_mut().unwrap().certified = false;
        bad.certificate.as_mut().unwrap().trials_used = 64;
        assert!(checker.check(&line, &observe(&bad)).is_err());
    }

    #[test]
    fn a_top_k_certificate_cannot_answer_a_full_request() {
        let mut checker = Checker::new(WorldSpec::default());
        let full = query_line(1, "ABCC8", None, crate::workload::mixed_shape(0), false);
        let topk = query_line(1, "ABCC8", None, crate::workload::mixed_shape(1), false);
        let topk_resp = served(&topk);
        checker.check(&topk, &observe(&topk_resp)).unwrap();
        assert!(checker.check(&full, &observe(&topk_resp)).is_err());
        // A certified full answer may serve the top-k request.
        let full_resp = served(&full);
        checker.check(&full, &observe(&full_resp)).unwrap();
        if full_resp.certificate.unwrap().certified {
            checker.check(&topk, &observe(&full_resp)).unwrap();
        }
    }
}
