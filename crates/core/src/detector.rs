//! The LAD verdict: one metric's score against its trained threshold.

use crate::metrics::MetricKind;
use serde::{Deserialize, Serialize};

/// The result of running LAD on one (observation, estimated location) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Which metric produced the verdict.
    pub metric: MetricKind,
    /// The anomaly score of the pair (larger = more anomalous).
    pub score: f64,
    /// The detection threshold in force.
    pub threshold: f64,
    /// Whether an alarm is raised (`score > threshold`).
    pub anomalous: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LadEngine;
    use crate::expected::rounded_expected;
    use crate::training::TrainingConfig;
    use lad_deployment::DeploymentConfig;
    use lad_geometry::Point2;
    use lad_localization::BeaconlessMle;
    use lad_net::{Network, NodeId};

    /// An engine trained on every metric at `tau`.
    fn trained_engine(tau: f64) -> LadEngine {
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .training(TrainingConfig {
                networks: 2,
                samples_per_network: 80,
                seed: 77,
                localizer: BeaconlessMle::new(),
            })
            .metrics(&MetricKind::ALL)
            .tau(tau)
            .build()
            .expect("engine builds")
    }

    fn diff_verdict(engine: &LadEngine, obs: &lad_net::Observation, at: Point2) -> Verdict {
        *engine
            .verify(obs, at)
            .verdict(MetricKind::Diff)
            .expect("Diff is configured")
    }

    #[test]
    fn clean_nodes_rarely_alarm_at_high_tau() {
        let engine = trained_engine(0.99);
        let knowledge = engine.knowledge().clone();
        let network = Network::generate(knowledge.clone(), 1234);
        let localizer = BeaconlessMle::new();
        let mut alarms = 0usize;
        let mut total = 0usize;
        for i in (0..network.node_count()).step_by(11) {
            let id = NodeId(i as u32);
            let obs = network.true_observation(id);
            let Some(est) = localizer.estimate(&knowledge, &obs) else {
                continue;
            };
            total += 1;
            if diff_verdict(&engine, &obs, est).anomalous {
                alarms += 1;
            }
        }
        assert!(total > 50);
        let fp = alarms as f64 / total as f64;
        assert!(fp < 0.08, "clean false-positive rate too high: {fp}");
    }

    #[test]
    fn grossly_displaced_location_alarms() {
        let engine = trained_engine(0.99);
        // Observation consistent with (100, 100) but claimed location far away.
        let truth = Point2::new(100.0, 100.0);
        let obs = rounded_expected(&engine.knowledge().expected_observation(truth));
        let verdict = diff_verdict(&engine, &obs, Point2::new(320.0, 320.0));
        assert!(
            verdict.anomalous,
            "score {} threshold {}",
            verdict.score, verdict.threshold
        );
        // The same observation at the true location is not anomalous.
        assert!(!diff_verdict(&engine, &obs, truth).anomalous);
    }

    #[test]
    fn verdict_fields_are_consistent() {
        let engine = trained_engine(0.95);
        let obs = rounded_expected(
            &engine
                .knowledge()
                .expected_observation(Point2::new(150.0, 150.0)),
        );
        let multi = engine.verify(&obs, Point2::new(250.0, 250.0));
        assert_eq!(multi.verdicts.len(), MetricKind::ALL.len());
        for ((v, &kind), &threshold) in multi
            .verdicts
            .iter()
            .zip(engine.metrics())
            .zip(engine.thresholds())
        {
            assert_eq!(v.metric, kind);
            assert_eq!(v.threshold, threshold);
            assert_eq!(v.anomalous, v.score > v.threshold);
            let json = serde_json::to_string(v).expect("verdict serialises");
            let back: Verdict = serde_json::from_str(&json).expect("verdict parses");
            assert_eq!(*v, back);
        }
        assert_eq!(multi.anomalous, multi.verdicts.iter().any(|v| v.anomalous));
    }
}
