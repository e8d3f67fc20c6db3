//! LAD — Localization Anomaly Detection (the paper's core contribution).
//!
//! LAD runs *after* localization: a sensor holds an estimated location `L_e`
//! (from any localization scheme) and an observation `o` (per-group neighbour
//! counts from the group-ID broadcast). Using deployment knowledge it derives
//! the expected observation `µ(L_e)` and measures the inconsistency between
//! `o` and `µ` with one of three metrics (§5):
//!
//! * [`metrics::DiffMetric`] — `DM = Σ |o_i − µ_i|`,
//! * [`metrics::AddAllMetric`] — `AM = Σ max(o_i, µ_i)`,
//! * [`metrics::ProbabilityMetric`] — alarm when any
//!   `Pr(X_i = o_i | L_e)` is too small.
//!
//! Thresholds are obtained by τ-percentile training on clean simulated
//! deployments ([`training`]). The front door is [`engine::LadEngine`]: a
//! batched, multi-metric detection engine that computes `µ(L_e)` once per
//! estimate, fans batches out over worker threads, accepts any localization
//! scheme as a trait object, and serialises to versioned artifacts.
//!
//! # Quick example
//!
//! ```
//! use lad_core::prelude::*;
//! use lad_deployment::DeploymentConfig;
//! use lad_net::Network;
//!
//! // Small deployment for the doc test; the paper uses 10×10 groups of 300.
//! // Fit an engine offline: train all three metrics at the 99th percentile.
//! let engine = LadEngine::builder()
//!     .deployment(&DeploymentConfig::small_test())
//!     .training(TrainingConfig {
//!         networks: 2,
//!         samples_per_network: 64,
//!         seed: 7,
//!         ..TrainingConfig::default()
//!     })
//!     .metrics(&MetricKind::ALL)
//!     .tau(0.99)
//!     .build()
//!     .unwrap();
//!
//! // Online phase: verify a batch of (observation, estimate) pairs. µ(L_e)
//! // is computed once per estimate and shared by all three metrics.
//! let network = Network::generate(engine.knowledge().clone(), 42);
//! let requests: Vec<DetectionRequest> = (0..20u32)
//!     .filter_map(|i| {
//!         let node = lad_net::NodeId(i * 11);
//!         let obs = network.true_observation(node);
//!         let estimate = engine.localizer().estimate(engine.knowledge(), &obs)?;
//!         Some(DetectionRequest::new(obs, estimate))
//!     })
//!     .collect();
//! let verdicts = engine.verify_batch(&requests);
//! assert_eq!(verdicts.len(), requests.len());
//! // Honest nodes rarely alarm at tau = 0.99.
//! let alarms = verdicts.iter().filter(|v| v.anomalous).count();
//! assert!(alarms * 4 < verdicts.len());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod detector;
pub mod engine;
pub mod expected;
pub mod metrics;
pub mod threshold;
pub mod training;

pub use detector::Verdict;
pub use engine::{
    DetectionRequest, EngineArtifact, EngineError, LadEngine, LadEngineBuilder, LocalizationScheme,
    MultiVerdict,
};
pub use expected::ExpectedObservation;
pub use metrics::{AddAllMetric, DetectionMetric, DiffMetric, MetricKind, ProbabilityMetric};
pub use threshold::TrainedThresholds;
pub use training::{Trainer, TrainingConfig};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::detector::Verdict;
    pub use crate::engine::{
        DetectionRequest, EngineArtifact, EngineError, LadEngine, LadEngineBuilder,
        LocalizationScheme, MultiVerdict,
    };
    pub use crate::expected::ExpectedObservation;
    pub use crate::metrics::{
        AddAllMetric, DetectionMetric, DiffMetric, MetricKind, ProbabilityMetric,
    };
    pub use crate::threshold::TrainedThresholds;
    pub use crate::training::{Trainer, TrainingConfig};
}
