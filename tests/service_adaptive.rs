//! Adaptive trials end to end over the wire: an `mc` query carrying an
//! adaptive policy must certify with measurably fewer trials than the
//! fixed default, echo its certificate (including on cache hits), keep
//! distinct result-cache keys from fixed-trial requests, and honor a
//! server-level adaptive default for requests that omit `trials`.
//! `certify_top` requests additionally exercise the prefix-reuse cache
//! rule: one entry per (query, spec), hit iff the stored entry
//! certifies at least the requested k.

mod common;

use biorank::rank::{bounds, CertificateMode};
use biorank::service::{
    AdaptiveConfig, Client, Estimator, Method, QueryRequest, RankerSpec, ServeOptions, Trials,
};

fn spec(trials: Trials, estimator: Option<Estimator>) -> RankerSpec {
    RankerSpec {
        method: Method::TraversalMc,
        trials,
        seed: 11,
        parallel: false,
        estimator,
    }
}

#[test]
fn adaptive_query_certifies_under_the_fixed_budget_and_echoes_certificate() {
    let handle = common::serve(common::engine(), ServeOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let adaptive = Trials::Adaptive(AdaptiveConfig::default());
    for estimator in [Some(Estimator::Word), Some(Estimator::Traversal)] {
        let response = client
            .protein_functions("GALT", spec(adaptive, estimator))
            .expect("adaptive query");
        let cert = response
            .certificate
            .expect("adaptive responses carry a certificate");
        assert!(cert.certified, "{cert:?}");
        assert!(
            cert.trials_used < RankerSpec::DEFAULT_TRIALS,
            "adaptive must beat the fixed 10k baseline, used {}",
            cert.trials_used
        );
        // The echoed ε is exactly the Theorem 3.1 inversion of the
        // trials spent — the bound and the certificate agree.
        let expect = bounds::resolvable_epsilon(u64::from(cert.trials_used), 0.05).unwrap();
        assert_eq!(cert.epsilon.to_bits(), expect.to_bits());

        // A repeat is a cache hit and echoes the SAME certificate.
        let warm = client
            .protein_functions("GALT", spec(adaptive, estimator))
            .expect("warm adaptive query");
        assert!(warm.cached_scores);
        assert_eq!(warm.certificate, response.certificate);
        assert_eq!(warm.answers, response.answers);
    }
    handle.shutdown();
}

#[test]
fn adaptive_and_fixed_requests_never_share_cache_entries() {
    let handle = common::serve(common::engine(), ServeOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let adaptive = Trials::Adaptive(AdaptiveConfig::default());
    let word = Some(Estimator::Word);
    let a = client
        .protein_functions("CFTR", spec(adaptive, word))
        .expect("adaptive");
    assert!(!a.cached_scores);

    // Same query, fixed trials: graph layer shared, ranking recomputed
    // — an adaptive (early-stopped) ranking must never answer a
    // fixed-trial request.
    let f = client
        .protein_functions("CFTR", spec(Trials::Fixed(10_000), word))
        .expect("fixed");
    assert!(f.cached_graph, "integration is shared");
    assert!(!f.cached_scores, "no adaptive→fixed cache hits");
    assert_eq!(f.certificate, None, "fixed runs carry no certificate");

    // A different (ε, δ) policy is a different schedule: own entry.
    let tighter = Trials::Adaptive(AdaptiveConfig {
        epsilon: 0.01,
        ..AdaptiveConfig::default()
    });
    let t = client
        .protein_functions("CFTR", spec(tighter, word))
        .expect("tighter adaptive");
    assert!(!t.cached_scores, "no cross-policy cache hits");

    handle.shutdown();
}

#[test]
fn certify_top_prefix_reuse_across_k_values() {
    let handle = common::serve(common::engine(), ServeOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let word = spec(
        Trials::Adaptive(AdaptiveConfig::default()),
        Some(Estimator::Word),
    );
    let topk = |k: usize| QueryRequest::protein_functions("GALT", word).certified_top(k);

    // Cold top-5: certifies only the prefix + boundary, tagged as such.
    let k5 = client.query(&topk(5)).expect("top-5 query");
    assert!(!k5.cached_scores);
    assert_eq!(k5.answers.len(), 5, "top shapes the response");
    let cert5 = k5.certificate.expect("certificate");
    assert!(cert5.certified);
    assert_eq!(cert5.mode, CertificateMode::TopK(5));

    // A shallower prefix is a hit off the stored top-5 entry, echoing
    // the *stored* certificate.
    let k3 = client.query(&topk(3)).expect("top-3 query");
    assert!(k3.cached_scores, "top-5-certified entry serves k' = 3");
    assert_eq!(k3.answers.len(), 3);
    assert_eq!(k3.certificate, Some(cert5));
    assert_eq!(k3.answers, k5.answers[..3].to_vec());

    // A deeper prefix recomputes and REPLACES the entry...
    let k8 = client.query(&topk(8)).expect("top-8 query");
    assert!(!k8.cached_scores, "k' = 8 exceeds the certified 5");
    let cert8 = k8.certificate.expect("certificate");
    assert_eq!(cert8.mode, CertificateMode::TopK(8));
    assert!(
        cert8.trials_used >= cert5.trials_used,
        "more gaps can only demand more trials: {} < {}",
        cert8.trials_used,
        cert5.trials_used
    );
    // ...so the old k now hits the replacement.
    let k5_again = client.query(&topk(5)).expect("top-5 again");
    assert!(k5_again.cached_scores);
    assert_eq!(k5_again.certificate, Some(cert8));

    // Full certification does not accept any top-k entry: recompute,
    // replace — and from then on every prefix is served from it.
    let full = client
        .protein_functions("GALT", word)
        .expect("full adaptive query");
    assert!(!full.cached_scores, "a top-k entry never answers full");
    let cert_full = full.certificate.expect("certificate");
    assert!(cert_full.certified);
    assert_eq!(cert_full.mode, CertificateMode::Full);
    assert!(
        cert_full.trials_used >= cert8.trials_used,
        "full certification resolves a superset of gaps"
    );
    let k3_off_full = client.query(&topk(3)).expect("top-3 off full");
    assert!(
        k3_off_full.cached_scores,
        "full certification serves any k'"
    );
    assert_eq!(k3_off_full.certificate, Some(cert_full));

    // The top-k prefix the cheap run certified is the same answer
    // *set* the fully certified ranking leads with (scores differ —
    // the runs stopped at different trial counts — and internal order
    // below the ε floor is not part of either claim).
    let key_set = |answers: &[biorank::service::RankedAnswer]| {
        let mut keys: Vec<String> = answers.iter().map(|a| a.key.clone()).collect();
        keys.sort_unstable();
        keys
    };
    assert_eq!(key_set(&k5.answers), key_set(&full.answers[..5]));

    handle.shutdown();
}

#[test]
fn top_k_certification_spends_fewer_trials_than_full() {
    let handle = common::serve(common::engine(), ServeOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    // ABCC8's 97-answer set is the wide-ranking case the feature
    // targets: separating rank 40 from 41 is pure waste for a top-1
    // client.
    let word = spec(
        Trials::Adaptive(AdaptiveConfig::default()),
        Some(Estimator::Word),
    );
    let top1 = client
        .query(&QueryRequest::protein_functions("ABCC8", word).certified_top(1))
        .expect("top-1 query");
    let cert1 = top1.certificate.expect("certificate");
    assert!(cert1.certified);
    let full = client
        .protein_functions("ABCC8", word)
        .expect("full adaptive query");
    let cert_full = full.certificate.expect("certificate");
    assert!(
        cert1.trials_used < cert_full.trials_used,
        "top-1 {} should beat full {} on a 97-answer ranking",
        cert1.trials_used,
        cert_full.trials_used
    );
    handle.shutdown();
}

#[test]
fn fixed_requests_differing_only_in_top_share_one_entry() {
    let handle = common::serve(common::engine(), ServeOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let fixed = spec(Trials::Fixed(400), Some(Estimator::Word));

    let mut shaped = QueryRequest::protein_functions("GALT", fixed);
    shaped.top = Some(5);
    let cold = client.query(&shaped).expect("top-5 fixed query");
    assert!(!cold.cached_scores);
    assert_eq!(cold.answers.len(), 5);

    // Different top, same spec: the fixed run computed the full
    // ranking, so this is a hit.
    let all = client
        .protein_functions("GALT", fixed)
        .expect("untruncated fixed query");
    assert!(all.cached_scores, "top is not a cache dimension");
    assert_eq!(all.answers.len(), 15);
    assert_eq!(all.answers[..5].to_vec(), cold.answers);

    // certify_top is meaningless under fixed trials: normalized to
    // full coverage, so it hits the same entry too.
    let certified = client
        .query(&QueryRequest::protein_functions("GALT", fixed).certified_top(3))
        .expect("certify_top fixed query");
    assert!(certified.cached_scores);
    assert_eq!(certified.certificate, None);
    assert_eq!(certified.answers.len(), 3);

    handle.shutdown();
}

#[test]
fn server_adaptive_default_applies_to_requests_without_trials() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let handle = common::serve(
        common::engine(),
        ServeOptions {
            default_trials: Trials::Adaptive(AdaptiveConfig::default()),
            ..ServeOptions::default()
        },
    );

    // A hand-written line with no `trials` field takes the server's
    // adaptive default and comes back certified.
    let stream = TcpStream::connect(handle.addr()).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(
            b"{\"id\":1,\"input\":\"EntrezProtein\",\"attribute\":\"name\",\
              \"value\":\"GALT\",\"outputs\":[\"AmiGO\"],\"method\":\"mc\"}\n",
        )
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("\"certificate\"") && line.contains("\"certified\":true"),
        "server default should run adaptively: {line}"
    );

    // An explicit fixed-trial request on the same server stays fixed.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let fixed = client
        .protein_functions("GALT", spec(Trials::Fixed(400), None))
        .expect("fixed");
    assert_eq!(fixed.certificate, None);

    handle.shutdown();
}

#[test]
fn adaptive_reliability_method_certifies_too() {
    // The rel method (reduction + MC) rides the same incremental
    // contract: reduce once, then bound-certified traversal batches.
    let handle = common::serve(common::engine(), ServeOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let response = client
        .protein_functions(
            "GALT",
            RankerSpec {
                method: Method::Reliability,
                trials: Trials::Adaptive(AdaptiveConfig::default()),
                seed: 11,
                parallel: false,
                estimator: None,
            },
        )
        .expect("adaptive rel query");
    let cert = response.certificate.expect("certificate");
    assert!(cert.certified);
    assert!(cert.trials_used < RankerSpec::DEFAULT_TRIALS);
    assert_eq!(response.total_answers, 15, "Table 1: GALT → 15");
    handle.shutdown();
}
