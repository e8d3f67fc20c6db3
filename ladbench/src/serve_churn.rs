//! `serve_churn`: an in-process closed loop. One thread calls
//! `submit_rows` as fast as it returns and drains alarms after every
//! batch; the estimate working set is about twice the µ-cache capacity,
//! so most reports pay a µ fill. The traced run also sends the workload's
//! batches through `WireServer` to measure the wire layer.

use crate::common::{
    median, micros, peak_rss_mb, quantile, start_runtime, window_quantiles, AlarmLog, Args,
    Reference, ServeInputs, ServeSpec, Started, SETUP_REPS,
};
use crate::layers::{probe, push_inputs, push_stages, socket_probe};
use crate::{Metrics, RunResult};
use lad_serve::ServeRuntime;
use lad_telemetry::Stage;
use std::ops::Range;
use std::time::{Duration, Instant};

const SPEC: ServeSpec = ServeSpec {
    reporters: 8192,
    rounds: 4,
    attacked_nodes: 0.10,
    batch: 512,
    calibration_rounds: 2,
};
/// Closed-loop traffic before the timed window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// Timing metrics are taken per sub-window of this length.
const SUB_WINDOW: Duration = Duration::from_millis(50);
/// Cadence of `stats()` calls in the traced phase.
const STATS_EVERY: Duration = Duration::from_millis(100);

/// The submit loop's state across phases, per submitted batch.
struct Loop<'a> {
    inputs: &'a ServeInputs,
    runtime: &'a ServeRuntime,
    origin: Instant,
    log: AlarmLog,
    submit_at_us: Vec<f64>,
    submit_us: Vec<f64>,
    window_of: Vec<Option<usize>>,
    /// Start of each sub-window opened so far, µs after the origin.
    window_start_us: Vec<f64>,
    stats_us: Vec<f64>,
}

impl Loop<'_> {
    /// Submits for `length`; timed phases open sub-windows. Returns the
    /// phase's sub-windows and its wall time, s.
    fn phase(&mut self, length: Duration, timed: bool, traced: bool) -> (Range<usize>, f64) {
        let started = Instant::now();
        let first_window = self.window_start_us.len();
        let mut last_stats = started;
        while started.elapsed() < length {
            let index = self.submit_at_us.len() as u64;
            let (round, batch) = self.inputs.batch_at(index);
            let t0 = Instant::now();
            self.runtime.submit_rows(round, &batch.nodes, &batch.rows);
            let t1 = Instant::now();
            let window = timed.then(|| {
                let w = first_window + ((t0 - started).as_nanos() / SUB_WINDOW.as_nanos()) as usize;
                while self.window_start_us.len() <= w {
                    self.window_start_us.push(micros(t0 - self.origin));
                }
                w
            });
            self.submit_at_us.push(micros(t0 - self.origin));
            self.submit_us.push(micros(t1 - t0));
            self.window_of.push(window);
            let (submit_at_us, window_of) = (&self.submit_at_us, &self.window_of);
            self.log.drain(self.runtime, self.inputs, traced, |b| {
                window_of[b as usize].map(|w| (submit_at_us[b as usize], w))
            });
            if traced && last_stats.elapsed() >= STATS_EVERY {
                let t = Instant::now();
                std::hint::black_box(self.runtime.stats());
                self.stats_us.push(micros(t.elapsed()));
                last_stats = Instant::now();
            }
        }
        // The last sub-window is cut short by the phase's end; drop it.
        let end = self
            .window_start_us
            .len()
            .saturating_sub(1)
            .max(first_window);
        (first_window..end, started.elapsed().as_secs_f64())
    }
}

/// The timing metrics of one phase: the median over its sub-windows.
struct PhaseStats {
    throughput: f64,
    ack_p50: f64,
    ack_p90: f64,
    alarm_p50: f64,
    alarm_p90: f64,
    pass_s: f64,
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let inputs = ServeInputs::generate(&SPEC, args.seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut detectors = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Started> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            previous.runtime.shutdown();
        }
        let started_at = Instant::now();
        let started = start_runtime(&inputs.calibration);
        setup.push(started_at.elapsed().as_secs_f64());
        detectors.push(started.detector);
        last = Some(started);
    }
    let Started {
        engine,
        detector,
        runtime,
    } = last.expect("at least one set-up");

    // Warm-up, then the timed window; in the traced run its first half
    // runs untraced and its second half traced.
    let origin = Instant::now();
    let mut lp = Loop {
        inputs: &inputs,
        runtime: &runtime,
        origin,
        log: AlarmLog::new(&inputs, origin),
        submit_at_us: Vec::new(),
        submit_us: Vec::new(),
        window_of: Vec::new(),
        window_start_us: Vec::new(),
        stats_us: Vec::new(),
    };
    lp.phase(WARMUP, false, false);
    let window = Duration::from_secs_f64(args.seconds);
    let phases: Vec<(Range<usize>, f64)> = if args.trace {
        vec![
            lp.phase(window / 2, true, false),
            lp.phase(window / 2, true, true),
        ]
    } else {
        vec![lp.phase(window, true, false)]
    };
    runtime.sync();
    lp.log.drain(&runtime, &inputs, false, |_| None);
    let Loop {
        mut log,
        submit_at_us,
        submit_us,
        window_of,
        window_start_us,
        mut stats_us,
        ..
    } = lp;
    let submitted = submit_at_us.len() as u64;
    let telemetry = args.trace.then(|| runtime.stats().telemetry);
    let hit_rate = runtime.counters().mu_cache_hit_rate();
    let report = runtime.shutdown();
    for alarm in &report.alarms {
        log.record(&inputs, alarm.node.0, alarm.round);
    }

    // Correctness gate: served alarms equal the single-threaded reference
    // fold over everything submitted; every set-up calibrated the same
    // rule; the counters account for every report.
    let reference = Reference::new(&engine, &inputs);
    let expected = reference.alarms(&inputs, &detector, 0..submitted);
    let mut correct = detectors.iter().all(|d| *d == detector);
    if expected != log.served {
        eprintln!(
            "serve_churn: alarm set differs from the reference fold ({} served, {} expected)",
            log.served.count, expected.count
        );
        correct = false;
    }
    let reports = |i: u64| inputs.batch_at(i).1.nodes.len();
    let offered: u64 = (0..submitted).map(|i| reports(i) as u64).sum();
    if report.counters.submitted != offered || report.counters.processed != offered {
        eprintln!(
            "serve_churn: counters do not reconcile: {:?}",
            report.counters
        );
        correct = false;
    }

    // Per sub-window: reports submitted (with bounded shard queues the
    // submit rate is the processing rate) and submit-call latencies. A
    // timing metric reports the median over the sub-windows of its phase:
    // short host stalls move a few sub-windows, not the median (README,
    // "Timing statistics").
    let mut window_reports = vec![0usize; window_start_us.len()];
    let mut window_acks: Vec<Vec<f64>> = vec![Vec::new(); window_start_us.len()];
    for (i, w) in window_of.iter().enumerate() {
        if let Some(w) = *w {
            window_reports[w] += reports(i as u64);
            window_acks[w].push(submit_us[i]);
        }
    }
    let pass = (inputs.batches_per_round() * inputs.rounds.len()) as u64;
    let stats_of = |windows: &Range<usize>| -> PhaseStats {
        let list: Vec<usize> = windows.clone().collect();
        // A submit call longer than a sub-window skips sub-windows; they
        // have no span and no rate.
        let mut rates: Vec<f64> = list
            .iter()
            .map(|&w| {
                (
                    window_reports[w],
                    window_start_us[w + 1] - window_start_us[w],
                )
            })
            .filter(|&(_, span_us)| span_us > 0.0)
            .map(|(reports, span_us)| reports as f64 / (span_us / 1e6))
            .collect();
        let acks: Vec<Vec<f64>> = list.iter().map(|&w| window_acks[w].clone()).collect();
        // Whole passes inside the phase: first submit to the next pass's.
        let inside = |b: u64| window_of[b as usize].is_some_and(|w| windows.contains(&w));
        let mut pass_s = (0..submitted / pass)
            .filter(|&p| inside(p * pass) && (p + 1) * pass < submitted && inside((p + 1) * pass))
            .map(|p| {
                (submit_at_us[((p + 1) * pass) as usize] - submit_at_us[(p * pass) as usize]) / 1e6
            })
            .collect::<Vec<f64>>();
        PhaseStats {
            throughput: median(&mut rates),
            ack_p50: median(&mut window_quantiles(&acks, 0.5)),
            ack_p90: median(&mut window_quantiles(&acks, 0.9)),
            alarm_p50: median(&mut log.window_quantiles(&list, 0.5)),
            alarm_p90: median(&mut log.window_quantiles(&list, 0.9)),
            pass_s: median(&mut pass_s),
        }
    };
    let (measured_windows, measured_s) = phases.last().expect("one timed phase");
    let measured = stats_of(measured_windows);
    let finite = [
        measured.throughput,
        measured.ack_p50,
        measured.alarm_p50,
        measured.pass_s,
    ];
    if finite.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err("the timed window held no whole sub-window, pass or alarm".into());
    }
    let (detection_rate, false_alarm_rate) = log.rates(&inputs, 0..submitted);

    let mut m = Metrics::default();
    m.set("setup_s", median(&mut setup));
    m.set("throughput_rps", measured.throughput);
    m.set("ack_p50_us", measured.ack_p50);
    m.set("ack_p90_us", measured.ack_p90);
    m.set("alarm_p50_us", measured.alarm_p50);
    m.set("alarm_p90_us", measured.alarm_p90);
    m.set(
        "accepted_frac",
        report.counters.submitted as f64 / offered as f64,
    );
    m.set("detection_rate", detection_rate);
    m.set("false_alarm_rate", false_alarm_rate);
    m.set("job_s", measured.pass_s);
    m.set("peak_rss_mb", peak_rss_mb());

    if let Some(telemetry) = telemetry {
        let plain = stats_of(&phases[0].0);
        let probes = probe(&engine, &detector, &inputs, &reference);
        probes.push(&mut m);
        push_stages(
            &mut m,
            &telemetry,
            &[Stage::QueueWait, Stage::Score, Stage::DetectorUpdate],
        );
        push_inputs(&mut m, &inputs, &detector);
        // The wire layer over a real socket: two passes of this workload's
        // batches, one in flight at a time.
        let socket = socket_probe(&inputs, 2 * pass)?;
        push_stages(&mut m, &socket.telemetry, &[Stage::Decode, Stage::Gate]);
        let mut block_us = socket.send_block_us;
        m.set("wire.send_block_us_p50", quantile(&mut block_us, 0.5));
        m.set("wire.send_block_us_p99", quantile(&mut block_us, 0.99));
        m.set("wire.nack_frac", socket.nack_frac);
        let decode_stage_us = socket.telemetry.stage(Stage::Decode).p50_nanos as f64 / 1e3;
        let first_traced = window_of
            .iter()
            .position(|w| w.is_some_and(|w| w >= measured_windows.start))
            .unwrap_or(submit_us.len());
        let mut traced_submit: Vec<f64> = submit_us[first_traced..].to_vec();
        let busy = traced_submit.iter().sum::<f64>() / (measured_s * 1e6);
        // The stage spans cover every batch since the runtime started, so
        // the ledger's end-to-end figure does too.
        let loop_s = (submit_at_us[submitted as usize - 1] - submit_at_us[0]) / 1e6;
        let loop_rate = (0..submitted - 1).map(reports).sum::<usize>() as f64 / loop_s;
        m.set("serve.submit_us_p50", quantile(&mut traced_submit, 0.5));
        m.set("serve.submit_us_p99", quantile(&mut traced_submit, 0.99));
        m.set("serve.submit_busy_frac", busy);
        m.set("serve.mu_cache_hit_rate", hit_rate);
        m.set("serve.poll_alarms_us", median(&mut log.poll_us));
        m.set("serve.stats_us", median(&mut stats_us));

        // Ledger of the shard, the closed loop's bottleneck: the mean of
        // each step it runs per batch against the mean batch period.
        let batch = SPEC.batch as f64;
        let mean_us = |s: Stage| telemetry.stage(s).mean_nanos / 1e3;
        let steps = [
            ("score (µ lookup/fill + kernel)", mean_us(Stage::Score)),
            ("detector update", mean_us(Stage::DetectorUpdate)),
        ];
        let overhead = (plain.throughput - measured.throughput) / plain.throughput;
        let notes = [
            format!(
                "probes per report: score_all cached {:.0} ns, uncached {:.0} ns, µ fill {:.0} \
                 ns, detector update {:.1} ns; runtime µ-cache hit rate {hit_rate:.3}",
                probes.score_all_cached_ns,
                probes.score_all_uncached_ns,
                probes.mu_fill_ns,
                probes.detector_update_ns,
            ),
            format!(
                "submit thread (runs beside the shard): {:.0}% of its time inside submit_rows",
                busy * 100.0
            ),
            format!(
                "wire: runtime Decode stage p50 {decode_stage_us:.1} µs per batch (socket \
                 probe; the span includes the wait on the socket read) vs in-memory decode \
                 {:.1} µs per batch",
                probes.decode_ns_per_report * batch / 1e3
            ),
            format!(
                "tracing overhead: throughput {:.0} reports/s traced vs {:.0} \
                 untraced ({:+.1}%)",
                measured.throughput,
                plain.throughput,
                overhead * 100.0
            ),
        ];
        crate::ledger(
            &mut m,
            &format!("serve_churn: shard time per {batch}-report batch, mean µs"),
            &steps,
            (
                "end to end (batch / whole-loop throughput)",
                batch / loop_rate * 1e6,
            ),
            "queue hand-off, per-batch copies, shard idle",
            &notes,
            overhead,
        );
    }

    Ok(RunResult {
        correct,
        attempted: offered,
        failed: offered - report.counters.submitted,
        metrics: m,
    })
}
