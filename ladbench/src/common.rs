//! Shared pieces: arguments, result printing, host tag, percentiles, and
//! the serve workload's inputs, set-up and correctness gate.

use lad_attack::{AttackClass, AttackConfig};
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_deployment::DeploymentConfig;
use lad_net::{Network, NodeId, ObservationBatch};
use lad_serve::{AttackTimeline, ServeConfig, ServeRuntime, TrafficModel};
use lad_stats::seeds::{derive_seed, seeded_partial_shuffle, splitmix64};
use lad_stats::{SequentialDetector, SequentialState};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The metric every serve workload decides on (the paper's Fig. 7 metric).
pub const DECISION_METRIC: MetricKind = MetricKind::Diff;
/// Per-round false-alarm target the CUSUM detector is calibrated to.
pub const TARGET_FAR: f64 = 0.01;
/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Command-line arguments: all four are required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The host a result was measured on: cores, CPU model, SIMD flags and the
/// compiler, as one JSON line printed before the result.
pub fn host_tag() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"cpu\": \"{}\", \"simd\": \"{}\", \"rustc\": \"{}\"}}}}",
        cpu_model().replace('"', "'"),
        simd_flags().join(","),
        env!("LADBENCH_RUSTC")
    )
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaves 0x8000_0002..=0x8000_0004 are read only when leaf
    // 0x8000_0000 reports them.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

#[cfg(target_arch = "x86_64")]
fn simd_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    if is_x86_feature_detected!("sse4.2") {
        flags.push("sse4.2");
    }
    if is_x86_feature_detected!("avx") {
        flags.push("avx");
    }
    if is_x86_feature_detected!("avx2") {
        flags.push("avx2");
    }
    if is_x86_feature_detected!("fma") {
        flags.push("fma");
    }
    if is_x86_feature_detected!("avx512f") {
        flags.push("avx512f");
    }
    flags
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_flags() -> Vec<&'static str> {
    Vec::new()
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Shape of one serve workload's traffic.
pub struct ServeSpec {
    pub reporters: usize,
    /// Pre-generated rounds, replayed cyclically under increasing round
    /// numbers.
    pub rounds: u64,
    /// Fraction of reporters compromised from round 0.
    pub attacked_nodes: f64,
    /// Reports per submitted batch.
    pub batch: usize,
    /// Clean rounds of every reporter the detector is calibrated on.
    pub calibration_rounds: u64,
}

/// One submitted batch: the reporting nodes, their rows, and the ground
/// truth of which rows are attacked.
pub struct Batch {
    pub nodes: Vec<NodeId>,
    pub rows: ObservationBatch,
    pub attacked: Vec<bool>,
}

/// Everything a serve workload replays, generated from the seed before any
/// timing starts.
pub struct ServeInputs {
    /// `rounds[r][b]`: batch `b` of pre-generated round `r`.
    pub rounds: Vec<Vec<Batch>>,
    /// Clean calibration rounds of every reporter (population order).
    pub calibration: Vec<ObservationBatch>,
    pub group_count: usize,
    pub input_s: f64,
}

/// Calibration rounds are drawn far from the replayed ones, so the
/// detector is not fitted on the very reports it then judges.
const CALIBRATION_FIRST_ROUND: u64 = 1 << 20;

/// The serve workload's engine: the paper deployment, every metric,
/// score-only — the model load every set-up pays.
pub fn build_engine() -> Arc<LadEngine> {
    Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::paper_default())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("the paper deployment builds"),
    )
}

impl ServeInputs {
    pub fn generate(spec: &ServeSpec, seed: u64) -> Self {
        let started = Instant::now();
        let engine = build_engine();
        let network = Network::generate(engine.knowledge().clone(), derive_seed(seed, &[1]));
        let traffic_seed = derive_seed(seed, &[2]);
        // Oversample, then keep the first `reporters` the localizer can
        // place, so every workload has exactly its stated population.
        let total = network.node_count();
        let want = spec.reporters.min(total);
        let candidates: Vec<NodeId> = seeded_partial_shuffle(
            total,
            (want + want / 8 + 64).min(total),
            derive_seed(seed, &[3]),
        )
        .into_iter()
        .take((want + want / 8 + 64).min(total))
        .map(NodeId)
        .collect();
        let knowledge = engine.knowledge();
        let localizable = par_map(&candidates, |&node| {
            engine
                .localizer()
                .estimate(knowledge, &network.true_observation(node))
                .is_some()
        });
        let nodes: Vec<NodeId> = candidates
            .iter()
            .zip(&localizable)
            .filter(|(_, &ok)| ok)
            .map(|(&node, _)| node)
            .take(want)
            .collect();
        let clean = TrafficModel::clean(&network, &engine, nodes, traffic_seed);
        assert_eq!(clean.nodes().len(), want, "every kept reporter localizes");
        let attacked = clean.with_attack(
            AttackTimeline::Onset { at: 0 },
            AttackConfig {
                degree_of_damage: 120.0,
                compromised_fraction: lad_eval::experiments::PAPER_COMPROMISED_FRACTION,
                class: AttackClass::DecBounded,
                targeted_metric: DECISION_METRIC,
            },
            spec.attacked_nodes,
        );
        let group_count = engine.knowledge().group_count();

        // Every round is independent: generate them on all cores.
        let jobs: Vec<(&TrafficModel, u64)> = (0..spec.rounds)
            .map(|r| (&attacked, r))
            .chain((0..spec.calibration_rounds).map(|i| (&clean, CALIBRATION_FIRST_ROUND + i)))
            .collect();
        let mut generated = par_map(&jobs, |&(model, round)| {
            let mut nodes = Vec::new();
            let mut rows = ObservationBatch::new(group_count);
            model.round_rows(&network, round, &mut nodes, &mut rows);
            (nodes, rows)
        });
        let calibration = generated
            .split_off(spec.rounds as usize)
            .into_iter()
            .map(|(_, rows)| rows)
            .collect();
        let rounds = generated
            .into_iter()
            .enumerate()
            .map(|(r, (nodes, rows))| {
                let mask = attacked.attacked_mask(r as u64);
                assert_eq!(
                    mask.len(),
                    nodes.len(),
                    "every reporter reports every round"
                );
                (0..nodes.len())
                    .step_by(spec.batch)
                    .map(|start| {
                        let end = (start + spec.batch).min(nodes.len());
                        let mut chunk = ObservationBatch::new(group_count);
                        for i in start..end {
                            chunk.push_row(&rows, i);
                        }
                        Batch {
                            nodes: nodes[start..end].to_vec(),
                            rows: chunk,
                            attacked: mask[start..end].to_vec(),
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            rounds,
            calibration,
            group_count,
            input_s: started.elapsed().as_secs_f64(),
        }
    }

    pub fn batches_per_round(&self) -> usize {
        self.rounds[0].len()
    }

    /// The batch submitted `index`-th: its round number and the
    /// pre-generated batch it replays.
    pub fn batch_at(&self, index: u64) -> (u64, &Batch) {
        let per_round = self.batches_per_round() as u64;
        let round = index / per_round;
        let pregen = (round % self.rounds.len() as u64) as usize;
        (round, &self.rounds[pregen][(index % per_round) as usize])
    }

    /// Reports in one pass over every pre-generated round.
    pub fn reports_per_pass(&self) -> usize {
        self.rounds.iter().flatten().map(|b| b.nodes.len()).sum()
    }

    /// Distinct `(x, y)` estimates across the pre-generated rounds — the
    /// working set the µ cache sees.
    pub fn distinct_estimates(&self) -> usize {
        let mut seen = HashSet::new();
        for batch in self.rounds.iter().flatten() {
            for i in 0..batch.rows.len() {
                let e = batch.rows.estimate(i);
                seen.insert((e.x.to_bits(), e.y.to_bits()));
            }
        }
        seen.len()
    }

    pub fn attacked_share(&self) -> f64 {
        let (mut attacked, mut total) = (0usize, 0usize);
        for batch in self.rounds.iter().flatten() {
            attacked += batch.attacked.iter().filter(|&&a| a).count();
            total += batch.attacked.len();
        }
        attacked as f64 / total.max(1) as f64
    }
}

/// Maps `f` over `items` on every core (item `i` on worker
/// `i % workers`, so uneven items spread evenly), keeping input order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    let f = &f;
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..items.len())
                        .step_by(workers)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("input generation does not panic"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Set-up proper: build the engine, score the calibration rounds, fit the
/// CUSUM rule. Input generation is not part of it.
pub fn calibrate(engine: &LadEngine, calibration: &[ObservationBatch]) -> SequentialDetector {
    let column = engine
        .metric_index(DECISION_METRIC)
        .expect("the engine scores the decision metric");
    let width = engine.metrics().len();
    let mut streams: Vec<Vec<f64>> = Vec::new();
    let mut scores = Vec::new();
    for rows in calibration {
        engine.score_rows_into(rows, &mut scores);
        streams.resize_with(rows.len(), Vec::new);
        for (stream, row) in streams.iter_mut().zip(scores.chunks_exact(width)) {
            stream.push(row[column]);
        }
    }
    SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), TARGET_FAR)
}

/// A started serve runtime plus what built it.
pub struct Started {
    pub engine: Arc<LadEngine>,
    pub detector: SequentialDetector,
    pub runtime: ServeRuntime,
}

/// Engine build + calibration + runtime start with default `ServeConfig`.
pub fn start_runtime(calibration: &[ObservationBatch]) -> Started {
    let engine = build_engine();
    let detector = calibrate(&engine, calibration);
    let runtime = ServeRuntime::start(engine.clone(), ServeConfig::new(DECISION_METRIC, detector))
        .expect("the default serve configuration starts");
    Started {
        engine,
        detector,
        runtime,
    }
}

/// The correctness gate's reference: every pre-generated row scored once
/// on the calling thread with the cache-free kernel, decision column only.
pub struct Reference {
    /// `scores[r][b][i]`: decision score of row `i` of batch `b` of round `r`.
    scores: Vec<Vec<Vec<f64>>>,
}

impl Reference {
    pub fn new(engine: &LadEngine, inputs: &ServeInputs) -> Self {
        let width = engine.metrics().len();
        let column = engine
            .metric_index(DECISION_METRIC)
            .expect("the engine scores the decision metric");
        let mut out = Vec::new();
        let scores = inputs
            .rounds
            .iter()
            .map(|batches| {
                batches
                    .iter()
                    .map(|batch| {
                        out.clear();
                        out.resize(batch.rows.len() * width, 0.0);
                        engine.score_rows_seq_into(&batch.rows, &mut out);
                        out.chunks_exact(width).map(|row| row[column]).collect()
                    })
                    .collect()
            })
            .collect();
        Self { scores }
    }

    /// Decision scores of the batch submitted `index`-th.
    pub fn batch_scores(&self, inputs: &ServeInputs, index: u64) -> &[f64] {
        let per_round = inputs.batches_per_round() as u64;
        let pregen = ((index / per_round) % self.scores.len() as u64) as usize;
        &self.scores[pregen][(index % per_round) as usize]
    }

    /// Folds `detector` (reset on alarm, the serve default) over the
    /// accepted batches in submission order and returns the alarms it
    /// raises.
    pub fn alarms(
        &self,
        inputs: &ServeInputs,
        detector: &SequentialDetector,
        accepted: impl IntoIterator<Item = u64>,
    ) -> AlarmSet {
        let mut states: HashMap<u32, SequentialState> = HashMap::new();
        let mut alarms = AlarmSet::default();
        for index in accepted {
            let (round, batch) = inputs.batch_at(index);
            for (node, &score) in batch.nodes.iter().zip(self.batch_scores(inputs, index)) {
                let state = states
                    .entry(node.0)
                    .or_insert_with(|| detector.initial_state());
                if detector.update(state, score) {
                    alarms.insert(node.0, round);
                    detector.reset(state);
                }
            }
        }
        alarms
    }
}

/// An order-independent summary of a set of `(node, round)` alarms: the
/// count plus a wrapping sum of per-alarm hashes. Equal sets give equal
/// summaries; unequal ones collide with chance 2^-64. Fixed memory, so the
/// benchmark's own bookkeeping does not grow with the alarm count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AlarmSet {
    pub count: u64,
    digest: u64,
}

impl AlarmSet {
    pub fn insert(&mut self, node: u32, round: u64) {
        self.count += 1;
        self.digest = self
            .digest
            .wrapping_add(splitmix64(splitmix64(node as u64) ^ round));
    }
}

/// Latencies in logarithmic bins 1% wide from 1 µs to about 10 s, so a
/// run keeps its alarm latencies in fixed memory. Quantiles interpolate
/// within a bin.
#[derive(Clone)]
pub struct LatencyHisto {
    counts: Vec<u32>,
    total: u64,
}

const HISTO_RATIO: f64 = 1.01;
const HISTO_BINS: usize = 1620;

impl LatencyHisto {
    pub fn new() -> Self {
        Self {
            counts: vec![0; HISTO_BINS],
            total: 0,
        }
    }

    pub fn record(&mut self, us: f64) {
        let bin = if us <= 1.0 {
            0
        } else {
            ((us.ln() / HISTO_RATIO.ln()) as usize).min(HISTO_BINS - 1)
        };
        self.counts[bin] += 1;
        self.total += 1;
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn quantile(&self, q: f64) -> f64 {
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0u64;
        for (bin, &count) in self.counts.iter().enumerate() {
            if count > 0 && seen + count as u64 >= target {
                let lo = HISTO_RATIO.powi(bin as i32);
                let frac = (target - seen) as f64 / count as f64;
                return lo + lo * (HISTO_RATIO - 1.0) * frac;
            }
            seen += count as u64;
        }
        0.0
    }
}

/// Every alarm drained during a serve run: the set (for the correctness
/// gate), its split against the ground truth, and the latency of each
/// alarm from its batch's start, per timing sub-window.
pub struct AlarmLog {
    pub served: AlarmSet,
    pub hits: u64,
    pub false_alarms: u64,
    /// Alarm latency per timing sub-window.
    pub windows: Vec<LatencyHisto>,
    /// Duration of each traced `poll_alarms` call, µs.
    pub poll_us: Vec<f64>,
    origin: Instant,
    per_round: u64,
    /// Where each node's report sits in a round: `(batch, row)`.
    locate: HashMap<u32, (usize, usize)>,
}

impl AlarmLog {
    pub fn new(inputs: &ServeInputs, origin: Instant) -> Self {
        let mut locate = HashMap::new();
        for (b, batch) in inputs.rounds[0].iter().enumerate() {
            for (row, node) in batch.nodes.iter().enumerate() {
                locate.insert(node.0, (b, row));
            }
        }
        Self {
            served: AlarmSet::default(),
            hits: 0,
            false_alarms: 0,
            windows: Vec::new(),
            poll_us: Vec::new(),
            origin,
            per_round: inputs.batches_per_round() as u64,
            locate,
        }
    }

    /// Drains the runtime's alarms. `timing(batch)` gives a batch's start
    /// (µs after the origin) and its timing sub-window, or `None` outside
    /// the timed window.
    pub fn drain(
        &mut self,
        runtime: &ServeRuntime,
        inputs: &ServeInputs,
        traced: bool,
        timing: impl Fn(u64) -> Option<(f64, usize)>,
    ) {
        let started = Instant::now();
        let polled = runtime.poll_alarms();
        let now = Instant::now();
        if traced {
            self.poll_us.push(micros(now - started));
        }
        let at = micros(now.saturating_duration_since(self.origin));
        for alarm in polled {
            let index = self.record(inputs, alarm.node.0, alarm.round);
            if let Some((start_us, window)) = timing(index) {
                if self.windows.len() <= window {
                    self.windows.resize_with(window + 1, LatencyHisto::new);
                }
                self.windows[window].record(at - start_us);
            }
        }
    }

    /// Records one alarm; returns the index of the batch that raised it.
    pub fn record(&mut self, inputs: &ServeInputs, node: u32, round: u64) -> u64 {
        self.served.insert(node, round);
        let (b, row) = self.locate[&node];
        let pregen = (round % inputs.rounds.len() as u64) as usize;
        if inputs.rounds[pregen][b].attacked[row] {
            self.hits += 1;
        } else {
            self.false_alarms += 1;
        }
        round * self.per_round + b as u64
    }

    /// Detection and false-alarm rates against the traffic model's ground
    /// truth, over the accepted batches.
    pub fn rates(
        &self,
        inputs: &ServeInputs,
        accepted: impl IntoIterator<Item = u64>,
    ) -> (f64, f64) {
        let (mut attacked, mut clean) = (0u64, 0u64);
        for index in accepted {
            for &is_attacked in &inputs.batch_at(index).1.attacked {
                if is_attacked {
                    attacked += 1;
                } else {
                    clean += 1;
                }
            }
        }
        (
            self.hits as f64 / attacked.max(1) as f64,
            self.false_alarms as f64 / clean.max(1) as f64,
        )
    }

    /// Alarm-latency quantile `q` of each of sub-windows `windows` that
    /// saw an alarm, µs.
    pub fn window_quantiles(&self, windows: &[usize], q: f64) -> Vec<f64> {
        windows
            .iter()
            .filter_map(|&w| self.windows.get(w))
            .filter(|h| !h.is_empty())
            .map(|h| h.quantile(q))
            .collect()
    }
}

/// Quantile `q` of each non-empty sub-window's raw samples.
pub fn window_quantiles(windows: &[Vec<f64>], q: f64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(&mut w.clone(), q))
        .collect()
}
