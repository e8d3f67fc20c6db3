//! Coverage for the versioned `EngineArtifact` format: JSON round trips
//! preserve verdicts, unknown versions are rejected with the typed error,
//! and legacy (pre-engine, unversioned) pipeline JSON is a typed parse
//! error.

use lad::prelude::*;

fn fitted_engine() -> LadEngine {
    LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .training(TrainingConfig {
            networks: 2,
            samples_per_network: 80,
            seed: 4242,
            ..TrainingConfig::default()
        })
        .metrics(&MetricKind::ALL)
        .tau(0.99)
        .build()
        .expect("engine fits")
}

fn probe_requests(engine: &LadEngine) -> Vec<DetectionRequest> {
    let network = Network::generate(engine.knowledge().clone(), 77);
    (0..60u32)
        .filter_map(|i| {
            let node = NodeId(i * 13);
            let obs = network.true_observation(node);
            let estimate = engine.localizer().estimate(engine.knowledge(), &obs)?;
            // Alternate honest estimates with displaced (anomalous) ones so
            // the probe set exercises both verdict outcomes.
            let estimate = if i % 2 == 0 {
                estimate
            } else {
                Point2::new(estimate.x + 180.0, estimate.y - 120.0)
            };
            Some(DetectionRequest::new(obs, estimate))
        })
        .collect()
}

#[test]
fn json_round_trip_preserves_every_verdict() {
    let engine = fitted_engine();
    let restored = LadEngine::from_json(&engine.to_json()).expect("round trip loads");
    assert_eq!(engine.metrics(), restored.metrics());
    assert_eq!(engine.thresholds(), restored.thresholds());
    assert_eq!(engine.tau(), restored.tau());

    let requests = probe_requests(&engine);
    assert!(requests.len() > 30);
    let before = engine.verify_batch(&requests);
    let after = restored.verify_batch(&requests);
    assert!(before.iter().any(|v| v.anomalous) && before.iter().any(|v| !v.anomalous));
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.anomalous, b.anomalous);
        for (va, vb) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(va.metric, vb.metric);
            assert_eq!(va.anomalous, vb.anomalous);
            // JSON text round-trips floats to within an ulp.
            assert!((va.score - vb.score).abs() <= va.score.abs() * 1e-12 + 1e-300);
            assert!((va.threshold - vb.threshold).abs() <= va.threshold.abs() * 1e-12);
        }
    }
}

#[test]
fn pretty_and_compact_artifacts_load_identically() {
    let engine = fitted_engine();
    let compact = LadEngine::from_json(&engine.to_json()).unwrap();
    let pretty = LadEngine::from_json(&engine.to_json_pretty()).unwrap();
    assert_eq!(compact.thresholds(), pretty.thresholds());
    assert_eq!(compact.metrics(), pretty.metrics());
}

#[test]
fn version_0_and_version_2_artifacts_are_rejected_with_the_typed_error() {
    let engine = fitted_engine();
    let json = engine.to_json();
    assert!(
        json.contains("\"version\":1"),
        "artifact must carry version 1"
    );
    for wrong in [0u64, 2, 99] {
        let tampered = json.replacen("\"version\":1", &format!("\"version\":{wrong}"), 1);
        match LadEngine::from_json(&tampered) {
            Err(EngineError::UnsupportedVersion { found }) => assert_eq!(found, wrong),
            other => panic!("version {wrong} should be UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn legacy_pipeline_artifact_json_is_a_parse_error() {
    // The pre-engine pipeline JSON shape:
    // { deployment, training, trained, metric, tau } with no version field.
    let training = TrainingConfig {
        networks: 2,
        samples_per_network: 80,
        seed: 99,
        ..TrainingConfig::default()
    };
    let deployment = DeploymentConfig::small_test();
    let knowledge = DeploymentKnowledge::shared(&deployment);
    let trained = Trainer::new(training).train(&knowledge);
    let legacy = format!(
        "{{\"deployment\":{},\"training\":{},\"trained\":{},\"metric\":\"Diff\",\"tau\":0.99}}",
        serde_json::to_string(&deployment).unwrap(),
        serde_json::to_string(&training).unwrap(),
        serde_json::to_string(&trained).unwrap(),
    );
    match LadEngine::from_json(&legacy) {
        Err(EngineError::Parse(msg)) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("legacy JSON should be a Parse error, got {other:?}"),
    }
}

#[test]
fn non_artifact_json_is_a_clear_parse_error() {
    for bad in ["{}", "[1,2,3]", "{\"foo\": 1}", "not json at all"] {
        match LadEngine::from_json(bad) {
            Err(EngineError::Parse(msg)) => assert!(!msg.is_empty()),
            other => panic!("{bad:?} should be a Parse error, got {other:?}"),
        }
    }
}

#[test]
fn score_only_artifacts_round_trip_without_thresholds() {
    let engine = LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metrics(&MetricKind::ALL)
        .score_only()
        .build()
        .unwrap();
    let restored = LadEngine::from_json(&engine.to_json()).expect("score-only round trip");
    assert!(restored.thresholds().is_empty());
    let obs = Observation::zeros(restored.knowledge().group_count());
    assert_eq!(
        engine.score(&obs, Point2::new(100.0, 100.0)),
        restored.score(&obs, Point2::new(100.0, 100.0))
    );
}
