//! `ladbench` — the LAD benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path ladbench/Cargo.toml -- \
//!     --workload <serve_churn|paper_batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric; with
//! `--trace 1` it prints every per-layer metric and a ledger. The last
//! stdout line is the result JSON; the line before it is the host tag.
//! See `ladbench/README.md` for the metric definitions per workload.

mod common;
mod layers;
mod paper_batch;
mod serve_churn;

use common::Args;
use std::collections::BTreeMap;

/// End-to-end metrics: every workload prints all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "reports/s"),
    ("ack_p50_us", "us"),
    ("ack_p90_us", "us"),
    ("alarm_p50_us", "us"),
    ("alarm_p90_us", "us"),
    ("accepted_frac", "ratio"),
    ("detection_rate", "ratio"),
    ("false_alarm_rate", "ratio"),
    ("job_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not run
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("wire.decode_ns_per_report", "ns"),
    ("wire.bytes_per_report", "B"),
    ("wire.send_block_us_p50", "us"),
    ("wire.send_block_us_p99", "us"),
    ("wire.nack_frac", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.submit_busy_frac", "ratio"),
    ("serve.mu_cache_hit_rate", "ratio"),
    ("serve.poll_alarms_us", "us"),
    ("serve.stats_us", "us"),
    ("serve.stage.Decode.p50_us", "us"),
    ("serve.stage.Decode.p99_us", "us"),
    ("serve.stage.Gate.p50_us", "us"),
    ("serve.stage.Gate.p99_us", "us"),
    ("serve.stage.QueueWait.p50_us", "us"),
    ("serve.stage.QueueWait.p99_us", "us"),
    ("serve.stage.Score.p50_us", "us"),
    ("serve.stage.Score.p99_us", "us"),
    ("serve.stage.DetectorUpdate.p50_us", "us"),
    ("serve.stage.DetectorUpdate.p99_us", "us"),
    ("core.score_all_cached_ns", "ns"),
    ("core.score_all_uncached_ns", "ns"),
    ("core.score_decision_cached_ns", "ns"),
    ("core.score_decision_uncached_ns", "ns"),
    ("deployment.mu_fill_ns", "ns"),
    ("deployment.mu_cache_replay_hit_rate", "ratio"),
    ("stats.detector_update_ns", "ns"),
    ("eval.substrate_s", "s"),
    ("eval.fig4_s", "s"),
    ("eval.fig5_6_s", "s"),
    ("eval.fig7_s", "s"),
    ("eval.fig8_s", "s"),
    ("eval.fig9_s", "s"),
    ("gen.input_s", "s"),
    ("input.distinct_estimates", "count"),
    ("input.mu_cache_capacity", "count"),
    ("input.attacked_share", "ratio"),
    ("input.batch_reports", "count"),
    ("ledger.e2e_us", "us"),
    ("ledger.attributed_us", "us"),
    ("ledger.remainder_us", "us"),
    ("ledger.remainder_frac", "ratio"),
    ("ledger.trace_overhead_frac", "ratio"),
];

/// The metrics one run measured, by name. Per-layer names a workload
/// never sets read 0 (the layer did no work in it).
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not in the benchmark's metric list");
        self.0.insert(name, value);
    }
}

/// One workload's run: the gate verdict, operation counts and metrics.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Prints a ledger — each step's cost, their sum, the end-to-end figure
/// and the unattributed remainder, all µs — and records its totals as
/// per-layer metrics.
pub fn ledger(
    m: &mut Metrics,
    title: &str,
    steps: &[(&str, f64)],
    (e2e_name, e2e): (&str, f64),
    remainder_is: &str,
    notes: &[String],
    trace_overhead: f64,
) {
    let attributed: f64 = steps.iter().map(|s| s.1).sum();
    println!("ledger {title}");
    for (name, us) in steps {
        println!("ledger   {name:<40} {us:>14.1}");
    }
    println!("ledger   {:<40} {attributed:>14.1}", "attributed");
    println!("ledger   {e2e_name:<40} {e2e:>14.1}");
    println!(
        "ledger   {:<40} {:>14.1}  ({remainder_is})",
        "unattributed remainder",
        e2e - attributed
    );
    for note in notes {
        println!("ledger   {note}");
    }
    m.set("ledger.e2e_us", e2e);
    m.set("ledger.attributed_us", attributed);
    m.set("ledger.remainder_us", e2e - attributed);
    m.set("ledger.remainder_frac", (e2e - attributed) / e2e);
    m.set("ledger.trace_overhead_frac", trace_overhead);
}

fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "serve_churn" => serve_churn::run(args),
        "paper_batch" => paper_batch::run(args),
        other => Err(format!(
            "unknown workload {other} (serve_churn, paper_batch)"
        )),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with every digit Rust's shortest round-trip
/// formatting keeps. A metric a workload did not measure fails the run,
/// except in the traced run, where a layer the workload does not exercise
/// reads 0.
fn result_line(args: &Args, result: &RunResult) -> Result<String, String> {
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match result.metrics.0.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let number = format!("{value}");
        let number = if number.contains(['.', 'e']) {
            number
        } else {
            format!("{number}.0")
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        body.join(", ")
    ))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args).and_then(|result| result_line(&args, &result)) {
        Ok(line) => {
            println!("{}", common::host_tag());
            println!("{line}");
        }
        Err(e) => {
            eprintln!("ladbench: {e}");
            std::process::exit(1);
        }
    }
}
