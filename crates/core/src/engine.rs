//! `LadEngine` — the batched, pluggable, versioned detection engine.
//!
//! This is the front door for location verification, built for serving
//! volume:
//!
//! * **One CSR-row kernel per job** — every scoring path runs over flat
//!   [`ObservationBatch`] rows. [`LadEngine::score_rows_into`] is the
//!   parallel all-metrics kernel (evaluation, calibration);
//!   [`LadEngine::score_rows_seq_one_into`] and its siblings are the
//!   sequential kernel a serve shard runs, with an optional [`MuCache`].
//!   [`LadEngine::verify_batch`], [`LadEngine::score_batch`] and their
//!   single-request forms are thin adapters that pack
//!   [`DetectionRequest`]s into CSR rows. Results come back in request
//!   order, so output is deterministic regardless of thread scheduling.
//! * **One µ per estimate** — the expected observation `µ(L_e)` is filled
//!   once per row over its O(k) support into a per-thread scratch (no
//!   per-call allocation after warm-up) and shared by *all* configured
//!   metrics in one fused pass.
//! * **Pluggable** — any number of [`MetricKind`]s, any
//!   [`LocalizationScheme`] as a trait object, thresholds from τ-percentile
//!   training or supplied explicitly.
//! * **Versioned artifacts** — [`LadEngine::to_json`] emits an
//!   [`EngineArtifact`] with an explicit `version` field;
//!   [`LadEngine::from_json`] rejects unknown versions with the typed
//!   [`EngineError::UnsupportedVersion`] and anything without a `version`
//!   field with [`EngineError::Parse`].
//!
//! ```
//! use lad_core::engine::{DetectionRequest, LadEngine};
//! use lad_core::MetricKind;
//! use lad_core::TrainingConfig;
//! use lad_deployment::DeploymentConfig;
//!
//! let engine = LadEngine::builder()
//!     .deployment(&DeploymentConfig::small_test())
//!     .training(TrainingConfig { networks: 2, samples_per_network: 64, seed: 7, ..TrainingConfig::default() })
//!     .metrics(&MetricKind::ALL)
//!     .tau(0.99)
//!     .build()
//!     .unwrap();
//!
//! let requests = vec![DetectionRequest::new(
//!     lad_net::Observation::zeros(engine.knowledge().group_count()),
//!     lad_geometry::Point2::new(200.0, 200.0),
//! )];
//! let verdicts = engine.verify_batch(&requests);
//! assert_eq!(verdicts.len(), 1);
//! assert_eq!(verdicts[0].verdicts.len(), 3); // one per configured metric
//! ```

use crate::detector::Verdict;
use crate::metrics::{score_all_fused_sparse_soa, DetectionMetric, FusedSoaScratch, MetricKind};
use crate::threshold::TrainedThresholds;
use crate::training::{Trainer, TrainingConfig};
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache, SparseMu};
use lad_geometry::Point2;
pub use lad_localization::LocalizationScheme;
use lad_net::{Network, NodeId, Observation, ObservationBatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// The artifact format version this build writes and reads.
pub const ARTIFACT_VERSION: u32 = 1;

/// Typed errors of engine construction and artifact loading.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The artifact's `version` field is not one this build supports.
    UnsupportedVersion {
        /// The version found in the artifact.
        found: u64,
    },
    /// The builder was not given a deployment configuration.
    MissingDeployment,
    /// τ must be a fraction in `[0, 1]`.
    InvalidTau(f64),
    /// Explicit thresholds were supplied but their count does not match the
    /// configured metrics.
    MismatchedThresholds {
        /// Number of configured metrics.
        metrics: usize,
        /// Number of supplied thresholds.
        thresholds: usize,
    },
    /// A threshold was requested for a metric with no training samples.
    UntrainedMetric(MetricKind),
    /// The JSON could not be parsed into an artifact.
    Parse(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsupportedVersion { found } => write!(
                f,
                "unsupported engine artifact version {found} (this build reads version {ARTIFACT_VERSION})"
            ),
            EngineError::MissingDeployment => {
                write!(f, "LadEngine::builder() needs a deployment configuration")
            }
            EngineError::InvalidTau(tau) => {
                write!(f, "tau must be a fraction in [0, 1], got {tau}")
            }
            EngineError::MismatchedThresholds { metrics, thresholds } => write!(
                f,
                "{thresholds} explicit thresholds supplied for {metrics} configured metrics"
            ),
            EngineError::UntrainedMetric(kind) => {
                write!(f, "metric {} has no training samples", kind.name())
            }
            EngineError::Parse(msg) => write!(f, "artifact parse error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One unit of verification work: what a sensor submits to the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionRequest {
    /// The sensor's observation `o`.
    pub observation: Observation,
    /// The location estimate `L_e` to verify.
    pub estimate: Point2,
}

impl DetectionRequest {
    /// Builds a request.
    pub fn new(observation: Observation, estimate: Point2) -> Self {
        Self {
            observation,
            estimate,
        }
    }
}

/// The engine's answer for one request: one [`Verdict`] per configured
/// metric plus the overall alarm (any metric over threshold).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVerdict {
    /// The estimate that was verified.
    pub estimate: Point2,
    /// Per-metric verdicts, in the engine's configured metric order.
    pub verdicts: Vec<Verdict>,
    /// Whether any metric raised an alarm.
    pub anomalous: bool,
}

impl MultiVerdict {
    /// The verdict of a specific metric, if configured.
    pub fn verdict(&self, metric: MetricKind) -> Option<&Verdict> {
        self.verdicts.iter().find(|v| v.metric == metric)
    }
}

/// The serialisable state of an engine: everything except the rebuildable
/// deployment knowledge and the (non-serialisable) localization scheme.
///
/// Serialised artifacts carry `version: 1`; loading rejects other versions
/// with [`EngineError::UnsupportedVersion`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineArtifact {
    /// Artifact format version (see [`ARTIFACT_VERSION`]).
    pub version: u32,
    /// Deployment model the engine was fitted for.
    pub deployment: DeploymentConfig,
    /// Training procedure parameters (kept for re-training / provenance).
    pub training: TrainingConfig,
    /// The clean-score distributions training produced (kept so detectors at
    /// other τ can be re-derived without retraining).
    pub trained: TrainedThresholds,
    /// Configured metrics, in scoring order.
    pub metrics: Vec<MetricKind>,
    /// Operating thresholds, parallel to `metrics`. Empty for score-only
    /// engines.
    pub thresholds: Vec<f64>,
    /// The τ-percentile the thresholds were derived at (provenance; `None`
    /// when thresholds were supplied explicitly or the engine is
    /// score-only).
    pub tau: Option<f64>,
}

/// Builder for [`LadEngine`]. Obtain via [`LadEngine::builder`].
pub struct LadEngineBuilder {
    deployment: Option<DeploymentConfig>,
    training: TrainingConfig,
    metrics: Vec<MetricKind>,
    tau: f64,
    explicit_thresholds: Option<Vec<f64>>,
    score_only: bool,
    localizer: Option<Arc<dyn LocalizationScheme>>,
}

impl Default for LadEngineBuilder {
    fn default() -> Self {
        Self {
            deployment: None,
            training: TrainingConfig::default(),
            metrics: Vec::new(),
            tau: 0.99,
            explicit_thresholds: None,
            score_only: false,
            localizer: None,
        }
    }
}

impl LadEngineBuilder {
    /// Sets the deployment model (required).
    pub fn deployment(mut self, config: &DeploymentConfig) -> Self {
        self.deployment = Some(*config);
        self
    }

    /// Sets the threshold-training parameters.
    pub fn training(mut self, training: TrainingConfig) -> Self {
        self.training = training;
        self
    }

    /// Adds one metric (metrics score in the order they were added).
    pub fn metric(mut self, metric: MetricKind) -> Self {
        if !self.metrics.contains(&metric) {
            self.metrics.push(metric);
        }
        self
    }

    /// Adds several metrics.
    pub fn metrics(mut self, metrics: &[MetricKind]) -> Self {
        for &m in metrics {
            self = self.metric(m);
        }
        self
    }

    /// Sets the τ-percentile the per-metric thresholds are trained at.
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Supplies explicit operating thresholds (parallel to the configured
    /// metrics), skipping threshold training entirely.
    pub fn thresholds(mut self, thresholds: Vec<f64>) -> Self {
        self.explicit_thresholds = Some(thresholds);
        self
    }

    /// Builds a score-only engine: no training, no thresholds.
    /// [`LadEngine::score_batch`] works; [`LadEngine::verify_batch`] panics.
    /// This is what ROC sweeps and the evaluation harness use.
    pub fn score_only(mut self) -> Self {
        self.score_only = true;
        self
    }

    /// Plugs in a localization scheme for [`LadEngine::localize_and_verify`]
    /// and [`LadEngine::localize_batch`] (default: the beaconless MLE from
    /// the training configuration).
    pub fn localizer(self, scheme: impl LocalizationScheme + 'static) -> Self {
        self.localizer_arc(Arc::new(scheme))
    }

    /// Like [`Self::localizer`] but takes an existing `Arc`.
    pub fn localizer_arc(mut self, scheme: Arc<dyn LocalizationScheme>) -> Self {
        self.localizer = Some(scheme);
        self
    }

    /// Builds the engine, running threshold training unless explicit
    /// thresholds or score-only mode were requested.
    pub fn build(self) -> Result<LadEngine, EngineError> {
        let deployment = self.deployment.ok_or(EngineError::MissingDeployment)?;
        let mut metrics = self.metrics;
        if metrics.is_empty() {
            metrics.push(MetricKind::Diff);
        }
        let knowledge = DeploymentKnowledge::shared(&deployment);

        let (trained, thresholds, tau) = if let Some(thresholds) = self.explicit_thresholds {
            if thresholds.len() != metrics.len() {
                return Err(EngineError::MismatchedThresholds {
                    metrics: metrics.len(),
                    thresholds: thresholds.len(),
                });
            }
            (TrainedThresholds::new(), thresholds, None)
        } else if self.score_only {
            (TrainedThresholds::new(), Vec::new(), None)
        } else {
            if !(0.0..=1.0).contains(&self.tau) {
                return Err(EngineError::InvalidTau(self.tau));
            }
            let trained = Trainer::new(self.training).train(&knowledge);
            let thresholds = metrics
                .iter()
                .map(|&kind| {
                    trained
                        .threshold(kind, self.tau)
                        .ok_or(EngineError::UntrainedMetric(kind))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (trained, thresholds, Some(self.tau))
        };

        let artifact = EngineArtifact {
            version: ARTIFACT_VERSION,
            deployment,
            training: self.training,
            trained,
            metrics,
            thresholds,
            tau,
        };
        let localizer = self
            .localizer
            .unwrap_or_else(|| Arc::new(self.training.localizer));
        Ok(LadEngine::assemble(knowledge, artifact, localizer))
    }
}

/// Per-thread reusable scoring buffers: the sparse µ fill target and the
/// SoA lanes of the fused kernel.
#[derive(Default)]
struct EngineScratch {
    /// Sparse µ fill target (the uncached paths fill it per estimate).
    smu: SparseMu,
    /// Structure-of-arrays lanes for the fused SoA kernel.
    soa: FusedSoaScratch,
}

thread_local! {
    /// Per-thread µ scratch: the row kernel borrows it once per call, so
    /// the hot path performs no allocation after each worker thread's
    /// first batch.
    static MU_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());

    /// Per-thread CSR rows the `DetectionRequest` adapters pack into.
    static PACKED_ROWS: RefCell<ObservationBatch> = RefCell::new(ObservationBatch::default());
}

/// The batched, pluggable, versioned LAD detection engine.
///
/// Build with [`LadEngine::builder`]; see the [module docs](self) for the
/// design and a usage example.
pub struct LadEngine {
    knowledge: Arc<DeploymentKnowledge>,
    artifact: EngineArtifact,
    scorers: Vec<Box<dyn DetectionMetric>>,
    /// True when the configured metrics are exactly `MetricKind::ALL` in
    /// order: scoring then takes the fused single-pass kernel
    /// ([`crate::metrics::score_all_fused`]) instead of one pass per metric.
    fused: bool,
    localizer: Arc<dyn LocalizationScheme>,
}

impl fmt::Debug for LadEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LadEngine")
            .field("metrics", &self.artifact.metrics)
            .field("thresholds", &self.artifact.thresholds)
            .field("tau", &self.artifact.tau)
            .field("localizer", &self.localizer.scheme_name())
            .finish_non_exhaustive()
    }
}

impl Clone for LadEngine {
    fn clone(&self) -> Self {
        Self {
            knowledge: self.knowledge.clone(),
            artifact: self.artifact.clone(),
            scorers: self.artifact.metrics.iter().map(|k| k.metric()).collect(),
            fused: self.fused,
            localizer: self.localizer.clone(),
        }
    }
}

impl LadEngine {
    /// Starts building an engine.
    pub fn builder() -> LadEngineBuilder {
        LadEngineBuilder::default()
    }

    fn assemble(
        knowledge: Arc<DeploymentKnowledge>,
        artifact: EngineArtifact,
        localizer: Arc<dyn LocalizationScheme>,
    ) -> Self {
        let scorers = artifact.metrics.iter().map(|k| k.metric()).collect();
        let fused = artifact.metrics == MetricKind::ALL;
        Self {
            knowledge,
            artifact,
            scorers,
            fused,
            localizer,
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// The deployment knowledge baked into the engine.
    pub fn knowledge(&self) -> &Arc<DeploymentKnowledge> {
        &self.knowledge
    }

    /// The configured metrics, in scoring order.
    pub fn metrics(&self) -> &[MetricKind] {
        &self.artifact.metrics
    }

    /// The operating thresholds, parallel to [`Self::metrics`] (empty for a
    /// score-only engine).
    pub fn thresholds(&self) -> &[f64] {
        &self.artifact.thresholds
    }

    /// The τ-percentile the thresholds were trained at (`None` when they
    /// were supplied explicitly or the engine is score-only).
    pub fn tau(&self) -> Option<f64> {
        self.artifact.tau
    }

    /// The trained clean-score distributions (re-derive detectors at another
    /// τ without retraining).
    pub fn trained(&self) -> &TrainedThresholds {
        &self.artifact.trained
    }

    /// The serialisable artifact.
    pub fn artifact(&self) -> &EngineArtifact {
        &self.artifact
    }

    /// The pluggable localization scheme.
    pub fn localizer(&self) -> &Arc<dyn LocalizationScheme> {
        &self.localizer
    }

    /// Position of `metric` in the engine's scoring order.
    pub fn metric_index(&self, metric: MetricKind) -> Option<usize> {
        self.artifact.metrics.iter().position(|&m| m == metric)
    }

    // ---- the hot path ------------------------------------------------------
    //
    // Two kernels, one per job. `score_rows_range` is the sequential
    // CSR-row kernel: every configured metric or only one, µ filled fresh
    // or memoized through a `MuCache`. `score_rows_into` is the parallel
    // all-metrics kernel: the same rows fanned out over worker threads.
    // Every other scoring entry point is a thin adapter over one of them.

    /// Validates a batch's observation lengths once, at the boundary, so
    /// the per-score kernels can run on `debug_assert!`s only.
    ///
    /// # Panics
    /// Panics when any request's observation is over a different number of
    /// groups than the engine's deployment.
    fn validate_requests(&self, requests: &[DetectionRequest]) {
        let n = self.knowledge.group_count();
        if let Some(bad) = requests
            .iter()
            .position(|r| r.observation.group_count() != n)
        {
            panic!(
                "request {bad}: observation spans {} groups, engine deployment has {n}",
                requests[bad].observation.group_count()
            );
        }
    }

    /// Panics on a score-only engine (no thresholds to verify against).
    fn assert_thresholds(&self) {
        assert!(
            !self.artifact.thresholds.is_empty(),
            "score-only engine has no thresholds; build with tau() or thresholds()"
        );
    }

    /// Thresholds one request's per-metric `scores` into its verdict.
    fn verdict(&self, estimate: Point2, scores: &[f64]) -> MultiVerdict {
        let verdicts: Vec<Verdict> = self
            .artifact
            .metrics
            .iter()
            .zip(scores)
            .zip(&self.artifact.thresholds)
            .map(|((&metric, &score), &threshold)| Verdict {
                metric,
                score,
                threshold,
                anomalous: score > threshold,
            })
            .collect();
        MultiVerdict {
            estimate,
            anomalous: verdicts.iter().any(|v| v.anomalous),
            verdicts,
        }
    }

    /// Packs `(observation, estimate)` pairs into this thread's CSR scratch
    /// batch and scores them with every configured metric into `out`
    /// (`metrics().len()` scores per pair). A packed row holds only the
    /// observation's nonzeros, so the scores equal the CSR entry points'
    /// bit for bit.
    fn score_packed<'a>(
        &self,
        pairs: impl IntoIterator<Item = (&'a Observation, Point2)>,
        out: &mut [f64],
    ) {
        PACKED_ROWS.with(|cell| {
            let rows = &mut *cell.borrow_mut();
            rows.reset(self.knowledge.group_count());
            for (observation, estimate) in pairs {
                rows.push(observation, estimate);
            }
            self.score_rows_range(rows, 0..rows.len(), None, None, out);
        });
    }

    /// Scores `requests` with every configured metric over the parallel
    /// kernel: row-major, `metrics().len()` scores per request.
    fn score_requests(&self, requests: &[DetectionRequest]) -> Vec<f64> {
        self.validate_requests(requests);
        let mut out = Vec::new();
        Self::par_fill_rows(
            requests.len(),
            self.scorers.len(),
            &mut out,
            |range, rows| {
                let pairs = requests[range].iter().map(|r| (&r.observation, r.estimate));
                self.score_packed(pairs, rows);
            },
        );
        out
    }

    /// Verifies one `(observation, estimate)` pair against every configured
    /// metric. `µ(L_e)` is computed once and shared by all metrics.
    ///
    /// # Panics
    /// Panics on a score-only engine (no thresholds to compare against).
    pub fn verify(&self, observation: &Observation, estimate: Point2) -> MultiVerdict {
        self.assert_thresholds();
        self.verdict(estimate, &self.score(observation, estimate))
    }

    /// Verifies a batch of requests in parallel. Results are returned in
    /// request order, so output is deterministic regardless of scheduling.
    pub fn verify_batch(&self, requests: &[DetectionRequest]) -> Vec<MultiVerdict> {
        self.assert_thresholds();
        let scores = self.score_requests(requests);
        let width = self.scorers.len();
        requests
            .iter()
            .enumerate()
            .map(|(i, r)| self.verdict(r.estimate, &scores[i * width..(i + 1) * width]))
            .collect()
    }

    /// Raw anomaly scores for one request — one entry per configured metric,
    /// in [`Self::metrics`] order — without thresholding. `µ(L_e)` is
    /// computed once and shared by all metrics.
    pub fn score(&self, observation: &Observation, estimate: Point2) -> Vec<f64> {
        assert_eq!(
            observation.group_count(),
            self.knowledge.group_count(),
            "observation/deployment group-count mismatch"
        );
        let mut out = vec![0.0; self.scorers.len()];
        self.score_packed([(observation, estimate)], &mut out);
        out
    }

    /// Raw anomaly scores for a batch of requests, in request order. This is
    /// the entry point for ROC sweeps: collect scores once, then sweep
    /// thresholds offline.
    pub fn score_batch(&self, requests: &[DetectionRequest]) -> Vec<Vec<f64>> {
        let scores = self.score_requests(requests);
        let width = self.scorers.len();
        (0..requests.len())
            .map(|i| scores[i * width..(i + 1) * width].to_vec())
            .collect()
    }

    /// The shared parallel fan-out of the flat scoring entry points: sizes
    /// `out` to `len * width`, splits `0..len` into the usual chunks, and
    /// has `fill(range, rows)` write each chunk's disjoint output range in
    /// place from a worker thread.
    fn par_fill_rows<F>(len: usize, width: usize, out: &mut Vec<f64>, fill: F)
    where
        F: Fn(std::ops::Range<usize>, &mut [f64]) + Send + Sync,
    {
        out.clear();
        out.resize(len * width, 0.0);
        if len == 0 {
            return;
        }
        let chunk = Self::batch_chunk_size(len);
        let chunk_count = len.div_ceil(chunk);

        /// Raw output base pointer, shareable across the worker threads.
        struct OutBase(*mut f64);
        // SAFETY: the one field points into `out`, which outlives the
        // parallel loop below; workers only derive pairwise-disjoint
        // `&mut [f64]` ranges from it (see the SAFETY note at the use),
        // and `f64` is itself `Send + Sync`.
        unsafe impl Send for OutBase {}
        // SAFETY: as for `Send` — sharing `&OutBase` only hands out the
        // pointer, never aliasing writes.
        unsafe impl Sync for OutBase {}
        let base = OutBase(out.as_mut_ptr());
        let base = &base;

        (0..chunk_count).into_par_iter().for_each(|ci| {
            let start = ci * chunk;
            let end = len.min(start + chunk);
            // SAFETY: chunk `ci` covers rows `start .. end`, so the
            // `[start * width, end * width)` ranges of `out` are pairwise
            // disjoint across chunks and in bounds (`out` was resized to
            // `len * width` above and is not touched by anything else while
            // the workers run).
            let rows = unsafe {
                std::slice::from_raw_parts_mut(base.0.add(start * width), (end - start) * width)
            };
            fill(start..end, rows);
        });
    }

    /// The parallel all-metrics kernel: raw anomaly scores for a CSR
    /// observation batch, written into a flat caller-owned buffer —
    /// row-major, `self.metrics().len()` scores per row, in row order. The
    /// buffer is cleared and resized to exactly
    /// `batch.len() * metrics.len()`.
    ///
    /// The batch stores only observation nonzeros (no per-report
    /// `Observation` heap objects), the expected observation is enumerated
    /// over its O(k) support, and the fused kernel merges the two sparse
    /// sides directly. The work fans out over a chunked Rayon pool, each
    /// worker writing its chunk's disjoint output range in place. This is
    /// what evaluation and calibration run.
    ///
    /// # Panics
    /// Panics when the batch's group count differs from the engine's
    /// deployment (the once-per-batch boundary check; rows are validated at
    /// [`ObservationBatch::push`] time).
    pub fn score_rows_into(&self, batch: &ObservationBatch, out: &mut Vec<f64>) {
        Self::par_fill_rows(batch.len(), self.scorers.len(), out, |range, rows| {
            self.score_rows_range(batch, range, None, None, rows)
        });
    }

    /// The sequential CSR-row kernel behind every scoring entry point:
    /// scores rows `range` of `batch` on the calling thread into `out`.
    ///
    /// With `metric == None` every configured metric is scored
    /// (`metrics().len()` scores per row; the fused SoA kernel when the
    /// metrics are exactly [`MetricKind::ALL`]); with `Some(metric)` only
    /// that metric's sparse kernel runs (one score per row). The column
    /// values are bit-identical either way (asserted in
    /// `tests/sparse_exactness.rs`). With a `cache`, µ is memoized through
    /// it — a hit returns the `SparseMu` that `expected_sparse_into`
    /// produced for the same exact estimate bits (see [`MuCache`]), so
    /// scores are bit-identical with or without it.
    ///
    /// # Panics
    /// Panics when `metric` is not configured, when `out` does not hold
    /// exactly `range.len()` rows of scores, or when the batch's group
    /// count differs from the engine's deployment.
    fn score_rows_range(
        &self,
        batch: &ObservationBatch,
        range: std::ops::Range<usize>,
        metric: Option<MetricKind>,
        mut cache: Option<&mut MuCache>,
        out: &mut [f64],
    ) {
        assert_eq!(
            batch.group_count(),
            self.knowledge.group_count(),
            "batch/deployment group-count mismatch"
        );
        let one = metric.map(|metric| {
            self.metric_index(metric)
                .unwrap_or_else(|| panic!("metric {} not configured on this engine", metric.name()))
        });
        let width = if one.is_some() { 1 } else { self.scorers.len() };
        assert_eq!(
            out.len(),
            range.len() * width,
            "output buffer must hold {width} scores per row"
        );
        MU_SCRATCH.with(|cell| {
            let EngineScratch { smu, soa } = &mut *cell.borrow_mut();
            // `max(1)`: an engine restored with no metrics scores nothing,
            // and `chunks_exact_mut(0)` would panic.
            for (r, row_out) in range.zip(out.chunks_exact_mut(width.max(1))) {
                let mu = match cache.as_deref_mut() {
                    Some(cache) => self
                        .knowledge
                        .expected_sparse_cached(batch.estimate(r), cache),
                    None => {
                        self.knowledge.expected_sparse_into(batch.estimate(r), smu);
                        &*smu
                    }
                };
                let row = batch.row(r);
                match one {
                    Some(i) => row_out[0] = self.scorers[i].score_sparse(row, mu),
                    None if self.fused => {
                        row_out.copy_from_slice(&score_all_fused_sparse_soa(row, mu, soa))
                    }
                    None => {
                        for (slot, scorer) in row_out.iter_mut().zip(&self.scorers) {
                            *slot = scorer.score_sparse(row, mu);
                        }
                    }
                }
            }
        });
    }

    /// Scores a CSR batch with every configured metric, sequentially on
    /// the calling thread, into `out` (row-major, `self.metrics().len()`
    /// scores per row; `out` must be exactly `batch.len() * metrics.len()`
    /// long).
    ///
    /// # Panics
    /// Panics when `out` has the wrong length or the batch's group count
    /// differs from the engine's deployment.
    pub fn score_rows_seq_into(&self, batch: &ObservationBatch, out: &mut [f64]) {
        self.score_rows_range(batch, 0..batch.len(), None, None, out);
    }

    /// [`Self::score_rows_seq_into`] with the µ fill memoized through a
    /// caller-owned [`MuCache`] dedicated to this engine's deployment.
    /// Scores are bit-identical to the uncached call.
    ///
    /// # Panics
    /// As [`Self::score_rows_seq_into`].
    pub fn score_rows_seq_cached_into(
        &self,
        batch: &ObservationBatch,
        cache: &mut MuCache,
        out: &mut [f64],
    ) {
        self.score_rows_range(batch, 0..batch.len(), None, Some(cache), out);
    }

    /// Scores a CSR batch with **one** configured metric — one score per
    /// row into `out` — sequentially on the calling thread. The value is
    /// bit-identical to that metric's column of
    /// [`Self::score_rows_seq_into`]. This is what a `lad_serve` shard
    /// runs: its sequential rule reads only the decision metric.
    ///
    /// # Panics
    /// Panics when `metric` is not configured on this engine, when
    /// `out.len() != batch.len()`, or when the batch's group count differs
    /// from the engine's deployment.
    pub fn score_rows_seq_one_into(
        &self,
        batch: &ObservationBatch,
        metric: MetricKind,
        out: &mut [f64],
    ) {
        self.score_rows_range(batch, 0..batch.len(), Some(metric), None, out);
    }

    /// [`Self::score_rows_seq_one_into`] with the µ fill memoized through a
    /// caller-owned [`MuCache`]. Scores are bit-identical to the uncached
    /// call.
    ///
    /// # Panics
    /// As [`Self::score_rows_seq_one_into`].
    pub fn score_rows_seq_one_cached_into(
        &self,
        batch: &ObservationBatch,
        metric: MetricKind,
        cache: &mut MuCache,
        out: &mut [f64],
    ) {
        self.score_rows_range(batch, 0..batch.len(), Some(metric), Some(cache), out);
    }

    /// Upper bound on the number of requests each worker-thread chunk
    /// processes between scratch borrows.
    pub const MAX_BATCH_CHUNK: usize = 512;

    /// Chunk size for a batch of `len` requests: small enough that every
    /// core gets several chunks (so mid-size batches still use the whole
    /// machine), capped at [`Self::MAX_BATCH_CHUNK`] so per-chunk scratch
    /// amortisation stays effective on huge batches.
    fn batch_chunk_size(len: usize) -> usize {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        len.div_ceil(threads * 4).clamp(1, Self::MAX_BATCH_CHUNK)
    }

    // ---- localization composition -----------------------------------------

    /// Localizes `node` with the engine's scheme and verifies the result.
    /// `None` when the node cannot be localized.
    pub fn localize_and_verify(
        &self,
        network: &Network,
        node: NodeId,
    ) -> Option<(Point2, MultiVerdict)> {
        let obs = network.true_observation(node);
        let estimate = self.localizer.estimate(&self.knowledge, &obs)?;
        Some((estimate, self.verify(&obs, estimate)))
    }

    /// Localizes many nodes in parallel with the engine's scheme.
    pub fn localize_batch(&self, network: &Network, nodes: &[NodeId]) -> Vec<Option<Point2>> {
        nodes
            .par_iter()
            .map(|&node| {
                let obs = network.true_observation(node);
                self.localizer.estimate(&self.knowledge, &obs)
            })
            .collect()
    }

    // ---- serialisation -----------------------------------------------------

    /// Serialises the engine's artifact (versioned) to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.artifact).expect("engine artifact serialises")
    }

    /// Serialises the engine's artifact to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.artifact).expect("engine artifact serialises")
    }

    /// Restores an engine from [`Self::to_json`] output, rebuilding the
    /// deployment knowledge (g(z) table included) from the stored config.
    ///
    /// Versions other than [`ARTIFACT_VERSION`] are rejected with
    /// [`EngineError::UnsupportedVersion`]; JSON without a `version` field
    /// (including the pre-engine single-metric pipeline format) with
    /// [`EngineError::Parse`].
    pub fn from_json(json: &str) -> Result<Self, EngineError> {
        let value = serde_json::parse_value(json).map_err(|e| EngineError::Parse(e.to_string()))?;
        let found = value
            .get("version")
            .ok_or_else(|| {
                EngineError::Parse("not a LAD engine artifact (no `version` field)".into())
            })?
            .as_u64()
            .ok_or_else(|| EngineError::Parse("`version` must be an integer".into()))?;
        if found != ARTIFACT_VERSION as u64 {
            return Err(EngineError::UnsupportedVersion { found });
        }
        let artifact = serde_json::from_value::<EngineArtifact>(&value)
            .map_err(|e| EngineError::Parse(e.to_string()))?;
        Self::from_artifact(artifact)
    }

    /// Rebuilds an engine from a deserialised artifact.
    pub fn from_artifact(artifact: EngineArtifact) -> Result<Self, EngineError> {
        if artifact.version != ARTIFACT_VERSION {
            return Err(EngineError::UnsupportedVersion {
                found: artifact.version as u64,
            });
        }
        if !artifact.thresholds.is_empty() && artifact.thresholds.len() != artifact.metrics.len() {
            return Err(EngineError::MismatchedThresholds {
                metrics: artifact.metrics.len(),
                thresholds: artifact.thresholds.len(),
            });
        }
        let knowledge = DeploymentKnowledge::shared(&artifact.deployment);
        let localizer: Arc<dyn LocalizationScheme> = Arc::new(artifact.training.localizer);
        Ok(Self::assemble(knowledge, artifact, localizer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_localization::BeaconlessMle;

    fn quick_training() -> TrainingConfig {
        TrainingConfig {
            networks: 2,
            samples_per_network: 80,
            seed: 99,
            localizer: BeaconlessMle::new(),
        }
    }

    fn engine() -> LadEngine {
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .training(quick_training())
            .metrics(&MetricKind::ALL)
            .tau(0.99)
            .build()
            .expect("engine builds")
    }

    #[test]
    fn builder_requires_a_deployment() {
        let err = LadEngine::builder().build().unwrap_err();
        assert_eq!(err, EngineError::MissingDeployment);
    }

    #[test]
    fn builder_rejects_invalid_tau() {
        let err = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .tau(1.5)
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::InvalidTau(1.5));
    }

    #[test]
    fn builder_rejects_mismatched_explicit_thresholds() {
        let err = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .thresholds(vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::MismatchedThresholds {
                metrics: 3,
                thresholds: 1
            }
        );
    }

    #[test]
    fn verify_batch_matches_sequential_verify() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 123);
        let requests: Vec<DetectionRequest> = (0..40u32)
            .filter_map(|i| {
                let node = NodeId(i * 7);
                let obs = network.true_observation(node);
                let estimate = engine.localizer().estimate(engine.knowledge(), &obs)?;
                Some(DetectionRequest::new(obs, estimate))
            })
            .collect();
        assert!(requests.len() > 20);
        let batched = engine.verify_batch(&requests);
        for (req, verdict) in requests.iter().zip(&batched) {
            assert_eq!(*verdict, engine.verify(&req.observation, req.estimate));
            assert_eq!(verdict.verdicts.len(), 3);
            assert_eq!(
                verdict.anomalous,
                verdict.verdicts.iter().any(|v| v.anomalous)
            );
        }
    }

    #[test]
    fn forged_locations_alarm_and_honest_ones_mostly_do_not() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 5);
        let node = NodeId(250);
        let (estimate, honest) = engine
            .localize_and_verify(&network, node)
            .expect("localizable");
        // Allow the rare clean false positive, but the forged location must
        // score strictly worse on every metric.
        let obs = network.true_observation(node);
        let forged = engine.verify(&obs, Point2::new(estimate.x + 220.0, estimate.y));
        assert!(forged.anomalous);
        for (h, f) in honest.verdicts.iter().zip(&forged.verdicts) {
            assert!(
                f.score > h.score,
                "{:?}: {} <= {}",
                h.metric,
                f.score,
                h.score
            );
        }
    }

    #[test]
    fn score_batch_matches_per_metric_score_at() {
        let engine = engine();
        let knowledge = engine.knowledge();
        let obs = Observation::from_counts(vec![2; knowledge.group_count()]);
        let at = Point2::new(150.0, 220.0);
        let batch = engine.score_batch(&[DetectionRequest::new(obs.clone(), at)]);
        assert_eq!(batch.len(), 1);
        for (i, kind) in MetricKind::ALL.into_iter().enumerate() {
            let single = kind.metric().score_at(knowledge, &obs, at);
            assert!(
                (batch[0][i] - single).abs() < 1e-12,
                "{}: batched {} vs single {single}",
                kind.name(),
                batch[0][i]
            );
        }
    }

    #[test]
    fn score_batch_matches_score_rows_into_row_by_row() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 77);
        let requests: Vec<DetectionRequest> = (0..700u32)
            .map(|i| {
                let node = NodeId(i % network.node_count() as u32);
                let obs = network.true_observation(node);
                let at = Point2::new(20.0 + (i as f64 * 7.3) % 400.0, (i as f64 * 11.9) % 400.0);
                DetectionRequest::new(obs, at)
            })
            .collect();
        let nested = engine.score_batch(&requests);
        let mut rows = ObservationBatch::new(engine.knowledge().group_count());
        for r in &requests {
            rows.push(&r.observation, r.estimate);
        }
        let mut flat = vec![42.0; 3]; // pre-existing garbage must be cleared
        engine.score_rows_into(&rows, &mut flat);
        assert_eq!(flat.len(), requests.len() * engine.metrics().len());
        for (row, nested_row) in flat.chunks(engine.metrics().len()).zip(&nested) {
            assert_eq!(row, nested_row.as_slice());
        }
        // The sequential kernel produces the same rows.
        let mut seq = vec![0.0; requests.len() * engine.metrics().len()];
        engine.score_rows_seq_into(&rows, &mut seq);
        assert_eq!(seq, flat);
        // Empty batches leave an empty buffer.
        engine.score_rows_into(&ObservationBatch::new(rows.group_count()), &mut flat);
        assert!(flat.is_empty());
    }

    #[test]
    fn score_only_engine_scores_but_cannot_verify() {
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .unwrap();
        let obs = Observation::zeros(engine.knowledge().group_count());
        let scores = engine.score(&obs, Point2::new(100.0, 100.0));
        assert_eq!(scores.len(), 3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.verify(&obs, Point2::new(100.0, 100.0))
        }));
        assert!(result.is_err(), "verify on a score-only engine must panic");
    }

    #[test]
    fn explicit_thresholds_skip_training() {
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metric(MetricKind::Diff)
            .thresholds(vec![30.0])
            .build()
            .unwrap();
        assert_eq!(engine.thresholds(), &[30.0]);
        assert_eq!(engine.trained().sample_count(MetricKind::Diff), 0);
        assert!(engine.tau().is_none());
        let obs = Observation::zeros(engine.knowledge().group_count());
        let verdict = engine.verify(&obs, Point2::new(200.0, 200.0));
        assert_eq!(verdict.verdicts[0].threshold, 30.0);
    }

    #[test]
    fn custom_localization_scheme_is_used() {
        struct Pin(Point2);
        impl LocalizationScheme for Pin {
            fn scheme_name(&self) -> &'static str {
                "pin"
            }
            fn estimate(
                &self,
                _knowledge: &DeploymentKnowledge,
                _obs: &Observation,
            ) -> Option<Point2> {
                Some(self.0)
            }
        }
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metric(MetricKind::Diff)
            .thresholds(vec![1e9])
            .localizer(Pin(Point2::new(42.0, 43.0)))
            .build()
            .unwrap();
        let network = Network::generate(engine.knowledge().clone(), 9);
        let (estimate, _) = engine.localize_and_verify(&network, NodeId(3)).unwrap();
        assert_eq!(estimate, Point2::new(42.0, 43.0));
        assert_eq!(engine.localizer().scheme_name(), "pin");
    }

    #[test]
    fn json_round_trip_preserves_verdicts() {
        let engine = engine();
        let restored = LadEngine::from_json(&engine.to_json()).expect("round trip");
        assert_eq!(engine.metrics(), restored.metrics());
        assert_eq!(engine.thresholds(), restored.thresholds());
        let obs = Observation::from_counts(vec![1; engine.knowledge().group_count()]);
        for at in [Point2::new(120.0, 80.0), Point2::new(333.0, 390.0)] {
            assert_eq!(engine.verify(&obs, at), restored.verify(&obs, at));
        }
    }

    #[test]
    fn unknown_artifact_versions_are_rejected_with_the_typed_error() {
        let engine = engine();
        for wrong in [0u32, 2, 7] {
            let json =
                engine
                    .to_json()
                    .replacen("\"version\":1", &format!("\"version\":{wrong}"), 1);
            match LadEngine::from_json(&json) {
                Err(EngineError::UnsupportedVersion { found }) => {
                    assert_eq!(found, wrong as u64)
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_json_is_a_parse_error() {
        assert!(matches!(
            LadEngine::from_json("{not json"),
            Err(EngineError::Parse(_))
        ));
        assert!(matches!(
            LadEngine::from_json("{}"),
            Err(EngineError::Parse(_))
        ));
    }
}
