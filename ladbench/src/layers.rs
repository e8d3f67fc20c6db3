//! Per-layer probes for the traced run: each times one layer's public
//! entry point over the workload's own pre-generated rows, in memory, on
//! the calling thread — except the socket probe, which sends the rows
//! through a real `WireServer`.

use crate::common::{median, micros, start_runtime, Reference, ServeInputs};
use crate::Metrics;
use lad_core::engine::LadEngine;
use lad_deployment::{MuCache, SparseMu};
use lad_serve::ServeConfig;
use lad_stats::{SequentialDetector, SequentialState};
use lad_telemetry::{Stage, TelemetrySnapshot};
use lad_wire::{encode_batch, FramePoll, WireDecoder, WireFrame, WireServer, WireServerConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time budget of one probe (it runs at least `MIN_PASSES` passes).
const PROBE_BUDGET: Duration = Duration::from_millis(300);
const MIN_PASSES: usize = 3;

/// Runs `pass` until `PROBE_BUDGET` has elapsed (at least `MIN_PASSES`
/// times) and returns the median of the per-report nanoseconds it reports.
fn median_ns_per_report(mut pass: impl FnMut() -> (Duration, usize)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || started.elapsed() < PROBE_BUDGET {
        let (elapsed, reports) = pass();
        samples.push(elapsed.as_nanos() as f64 / reports.max(1) as f64);
    }
    median(&mut samples)
}

/// The per-layer numbers the probes measure.
pub struct LayerProbes {
    pub decode_ns_per_report: f64,
    pub bytes_per_report: f64,
    pub score_all_cached_ns: f64,
    pub score_all_uncached_ns: f64,
    pub score_decision_cached_ns: f64,
    pub score_decision_uncached_ns: f64,
    pub mu_fill_ns: f64,
    pub mu_cache_replay_hit_rate: f64,
    pub detector_update_ns: f64,
}

/// The µ-cache capacity a default runtime gives each shard.
pub fn default_mu_cache_capacity(detector: &SequentialDetector) -> usize {
    ServeConfig::new(crate::common::DECISION_METRIC, *detector).mu_cache_capacity
}

pub fn probe(
    engine: &LadEngine,
    detector: &SequentialDetector,
    inputs: &ServeInputs,
    reference: &Reference,
) -> LayerProbes {
    let batches: Vec<_> = inputs.rounds.iter().flatten().collect();
    let reports = inputs.reports_per_pass();
    let capacity = default_mu_cache_capacity(detector);

    // wire: decode one pass of encoded frames from memory.
    let mut frames = Vec::new();
    for (round, batch) in batches.iter().enumerate() {
        encode_batch(&mut frames, round as u64, &batch.nodes, &batch.rows);
    }
    let bytes_per_report = frames.len() as f64 / reports as f64;
    let mut decoder = WireDecoder::new(inputs.group_count);
    let decode_ns_per_report = median_ns_per_report(|| {
        let mut src: &[u8] = &frames;
        let mut decoded = 0usize;
        let started = Instant::now();
        while decoded < batches.len() {
            match decoder.poll_frame(&mut src) {
                Ok(FramePoll::Frame(WireFrame::Batch { .. })) => decoded += 1,
                other => panic!("in-memory frames decode to batches, got {other:?}"),
            }
            black_box(decoder.batch());
        }
        (started.elapsed(), reports)
    });

    // core: the four serve kernels.
    let width = engine.metrics().len();
    let metric = crate::common::DECISION_METRIC;
    let mut out = Vec::new();
    let mut kernel = |all: bool, cached: bool| {
        let mut cache = MuCache::new(capacity);
        let mut pass = |cache: &mut MuCache| {
            let started = Instant::now();
            for batch in &batches {
                out.clear();
                out.resize(batch.rows.len() * if all { width } else { 1 }, 0.0);
                match (all, cached) {
                    (true, true) => engine.score_rows_seq_cached_into(&batch.rows, cache, &mut out),
                    (true, false) => engine.score_rows_seq_into(&batch.rows, &mut out),
                    (false, true) => {
                        engine.score_rows_seq_one_cached_into(&batch.rows, metric, cache, &mut out)
                    }
                    (false, false) => engine.score_rows_seq_one_into(&batch.rows, metric, &mut out),
                }
                black_box(&out);
            }
            (started.elapsed(), reports)
        };
        pass(&mut cache); // warm the cache and the scratch buffers
        median_ns_per_report(|| pass(&mut cache))
    };
    let score_all_cached_ns = kernel(true, true);
    let score_all_uncached_ns = kernel(true, false);
    let score_decision_cached_ns = kernel(false, true);
    let score_decision_uncached_ns = kernel(false, false);

    // deployment: µ fill, and the cache replayed over the estimate stream.
    let knowledge = engine.knowledge();
    let mut smu = SparseMu::new();
    let mu_fill_ns = median_ns_per_report(|| {
        let started = Instant::now();
        for batch in &batches {
            for i in 0..batch.rows.len() {
                knowledge.expected_sparse_into(black_box(batch.rows.estimate(i)), &mut smu);
            }
        }
        black_box(&smu);
        (started.elapsed(), reports)
    });
    let mut cache = MuCache::new(capacity);
    let replay = |cache: &mut MuCache| {
        for batch in &batches {
            for i in 0..batch.rows.len() {
                black_box(knowledge.expected_sparse_cached(batch.rows.estimate(i), cache));
            }
        }
    };
    replay(&mut cache);
    cache.take_stats();
    replay(&mut cache);
    replay(&mut cache);
    let (hits, misses) = cache.take_stats();
    let mu_cache_replay_hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    // stats: the sequential fold a shard runs, over reference scores.
    let batch_count = batches.len() as u64;
    let detector_update_ns = median_ns_per_report(|| {
        let mut states: HashMap<u32, SequentialState> = HashMap::new();
        let started = Instant::now();
        for index in 0..batch_count {
            let (_, batch) = inputs.batch_at(index);
            for (node, &score) in batch
                .nodes
                .iter()
                .zip(reference.batch_scores(inputs, index))
            {
                let state = states
                    .entry(node.0)
                    .or_insert_with(|| detector.initial_state());
                if detector.update(state, black_box(score)) {
                    detector.reset(state);
                }
            }
        }
        (started.elapsed(), reports)
    });

    LayerProbes {
        decode_ns_per_report,
        bytes_per_report,
        score_all_cached_ns,
        score_all_uncached_ns,
        score_decision_cached_ns,
        score_decision_uncached_ns,
        mu_fill_ns,
        mu_cache_replay_hit_rate,
        detector_update_ns,
    }
}

/// The runtime's own spans of `stages`, folded by `ServeRuntime::stats()`.
pub fn push_stages(m: &mut Metrics, telemetry: &TelemetrySnapshot, stages: &[Stage]) {
    for &stage in stages {
        let (p50, p99) = match stage {
            Stage::Decode => ("serve.stage.Decode.p50_us", "serve.stage.Decode.p99_us"),
            Stage::Gate => ("serve.stage.Gate.p50_us", "serve.stage.Gate.p99_us"),
            Stage::QueueWait => (
                "serve.stage.QueueWait.p50_us",
                "serve.stage.QueueWait.p99_us",
            ),
            Stage::Score => ("serve.stage.Score.p50_us", "serve.stage.Score.p99_us"),
            Stage::DetectorUpdate => (
                "serve.stage.DetectorUpdate.p50_us",
                "serve.stage.DetectorUpdate.p99_us",
            ),
            other => panic!("stage {other:?} is not in the benchmark's metric list"),
        };
        m.set(p50, telemetry.stage(stage).p50_nanos as f64 / 1e3);
        m.set(p99, telemetry.stage(stage).p99_nanos as f64 / 1e3);
    }
}

/// What the workload's batches show the wire layer over a real TCP
/// connection into a default `WireServer`, one batch in flight at a time.
pub struct SocketProbe {
    /// Time blocked in each batch's socket write (encoding excluded), µs.
    pub send_block_us: Vec<f64>,
    /// Reports NACKed / reports sent.
    pub nack_frac: f64,
    /// The probe runtime's telemetry: its `Decode` and `Gate` stages.
    pub telemetry: TelemetrySnapshot,
}

/// Sends `batches` of the workload's batches through a fresh runtime and
/// server, waiting for each receipt before the next send.
pub fn socket_probe(inputs: &ServeInputs, batches: u64) -> Result<SocketProbe, String> {
    let runtime = Arc::new(start_runtime(&inputs.calibration).runtime);
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0"))
        .map_err(|e| format!("wire server start: {e}"))?;
    let addr = server.tcp_addr().ok_or("the server listens on TCP")?;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut decoder = WireDecoder::new(0);
    let mut buf = Vec::new();
    let mut send_block_us = Vec::with_capacity(batches as usize);
    let (mut sent, mut nacked) = (0usize, 0usize);
    for i in 0..batches {
        let (round, batch) = inputs.batch_at(i);
        buf.clear();
        encode_batch(&mut buf, round, &batch.nodes, &batch.rows);
        let started = Instant::now();
        stream
            .write_all(&buf)
            .map_err(|e| format!("send batch {i}: {e}"))?;
        send_block_us.push(micros(started.elapsed()));
        sent += batch.nodes.len();
        loop {
            match decoder.poll_frame(&mut stream) {
                Ok(FramePoll::Frame(WireFrame::Ack { .. })) => break,
                Ok(FramePoll::Frame(WireFrame::Nack { rows, .. })) => {
                    nacked += rows as usize;
                    break;
                }
                Ok(FramePoll::Pending) => {}
                other => return Err(format!("socket probe receipt: {other:?}")),
            }
        }
        runtime.poll_alarms();
    }
    runtime.sync();
    let telemetry = runtime.stats().telemetry;
    drop(stream);
    server.shutdown();
    Arc::into_inner(runtime)
        .ok_or("the server released its runtime handle")?
        .shutdown();
    Ok(SocketProbe {
        send_block_us,
        nack_frac: nacked as f64 / sent as f64,
        telemetry,
    })
}

/// The workload record: measured properties of the inputs.
pub fn push_inputs(m: &mut Metrics, inputs: &ServeInputs, detector: &SequentialDetector) {
    m.set("gen.input_s", inputs.input_s);
    m.set(
        "input.distinct_estimates",
        inputs.distinct_estimates() as f64,
    );
    m.set(
        "input.mu_cache_capacity",
        default_mu_cache_capacity(detector) as f64,
    );
    m.set("input.attacked_share", inputs.attacked_share());
    m.set(
        "input.batch_reports",
        inputs.rounds[0][0].nodes.len() as f64,
    );
}

impl LayerProbes {
    pub fn push(&self, m: &mut Metrics) {
        m.set("wire.decode_ns_per_report", self.decode_ns_per_report);
        m.set("wire.bytes_per_report", self.bytes_per_report);
        m.set("core.score_all_cached_ns", self.score_all_cached_ns);
        m.set("core.score_all_uncached_ns", self.score_all_uncached_ns);
        m.set(
            "core.score_decision_cached_ns",
            self.score_decision_cached_ns,
        );
        m.set(
            "core.score_decision_uncached_ns",
            self.score_decision_uncached_ns,
        );
        m.set("deployment.mu_fill_ns", self.mu_fill_ns);
        m.set(
            "deployment.mu_cache_replay_hit_rate",
            self.mu_cache_replay_hit_rate,
        );
        m.set("stats.detector_update_ns", self.detector_update_ns);
    }
}
