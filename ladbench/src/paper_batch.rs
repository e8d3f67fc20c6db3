//! `paper_batch`: the paper's figures 4, 5–6, 7, 8 and 9 at
//! `EvalConfig::paper()` scale, repeated for the run's duration with a
//! fresh substrate cache each time.

use crate::common::{build_engine, median, peak_rss_mb, quantile, Args, SETUP_REPS};
use crate::{Metrics, RunResult};
use lad_eval::experiments::{self, PAPER_FP_BUDGET};
use lad_eval::{EvalConfig, FigureReport, SubstrateCache};
use lad_stats::seeds::derive_seed;
use std::time::{Duration, Instant};

type Figure = fn(&EvalConfig, &SubstrateCache) -> FigureReport;

const FIGURES: [(&str, Figure); 5] = [
    ("eval.fig4_s", experiments::fig4_roc_metrics),
    ("eval.fig5_6_s", experiments::fig56_roc_attacks),
    ("eval.fig7_s", experiments::fig7_dr_vs_damage),
    ("eval.fig8_s", experiments::fig8_dr_vs_compromise),
    ("eval.fig9_s", fig9),
];

/// The density sweep `reproduce --paper` runs Figure 9 over.
const PAPER_DENSITIES: [usize; 4] = [100, 300, 600, 1000];

fn fig9(base: &EvalConfig, cache: &SubstrateCache) -> FigureReport {
    experiments::fig9_dr_vs_density(base, &PAPER_DENSITIES, cache)
}

/// One job: the five figure reports plus its timings.
struct Job {
    reports: Vec<FigureReport>,
    job_s: f64,
    /// Wall time of the standard substrate when built as its own step
    /// (traced jobs only).
    substrate_s: Option<f64>,
    figure_s: Vec<f64>,
    /// Seconds from the job's start to each figure's finished report.
    finished_s: Vec<f64>,
}

fn job(base: &EvalConfig, traced: bool) -> Job {
    let cache = SubstrateCache::new();
    let started = Instant::now();
    let substrate_s = traced.then(|| {
        let t = Instant::now();
        experiments::standard_substrate(base, &cache);
        t.elapsed().as_secs_f64()
    });
    let mut reports = Vec::with_capacity(FIGURES.len());
    let mut figure_s = Vec::with_capacity(FIGURES.len());
    let mut finished_s = Vec::with_capacity(FIGURES.len());
    for (_, figure) in FIGURES {
        let t = Instant::now();
        reports.push(figure(base, &cache));
        figure_s.push(t.elapsed().as_secs_f64());
        finished_s.push(started.elapsed().as_secs_f64());
    }
    Job {
        reports,
        job_s: started.elapsed().as_secs_f64(),
        substrate_s,
        figure_s,
        finished_s,
    }
}

/// Every series point of every report, as bits: two jobs with the same
/// seed must agree exactly.
fn fingerprint(reports: &[FigureReport]) -> Vec<(String, Vec<(u64, u64)>)> {
    reports
        .iter()
        .flat_map(|r| {
            r.series.iter().map(move |s| {
                (
                    format!("{}/{}", r.id, s.label),
                    s.points
                        .iter()
                        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                        .collect(),
                )
            })
        })
        .collect()
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let base = EvalConfig::paper().with_seed(derive_seed(args.seed, &[7]));

    // Set-up: the paper deployment's score-only engine, the model load
    // every substrate of the job pays.
    let mut setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(build_engine());
            t.elapsed().as_secs_f64()
        })
        .collect();

    // Jobs until the run's time is spent, at least two (the determinism
    // gate compares them) and, traced, at least two of each kind: a traced
    // run alternates untraced and traced jobs.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let min_jobs = if args.trace { 4 } else { 2 };
    while jobs.len() < min_jobs || started.elapsed() < budget {
        let traced = args.trace && jobs.len() % 2 == 1;
        jobs.push(job(&base, traced));
    }

    let first = fingerprint(&jobs[0].reports);
    let correct = jobs.iter().all(|j| fingerprint(&j.reports) == first);
    if !correct {
        eprintln!("paper_batch: a repeated job with the same seed gave different figures");
    }

    let reports = &jobs[0].reports;
    let by_id = |id: &str| {
        reports
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("figure {id} is in the job"))
    };
    // Grid cells: one ROC series per cell in Figures 4 and 5–6, one point
    // per cell in Figures 7–9.
    let cells: usize = by_id("fig4").series.len()
        + by_id("fig5_6").series.len()
        + ["fig7", "fig8", "fig9"]
            .iter()
            .map(|id| {
                by_id(id)
                    .series
                    .iter()
                    .map(|s| s.points.len())
                    .sum::<usize>()
            })
            .sum::<usize>();
    let fig7: Vec<f64> = by_id("fig7")
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .collect();
    let finite = fig7.iter().filter(|v| v.is_finite()).count();
    let detection_rate = fig7.iter().sum::<f64>() / fig7.len() as f64;
    // The false-positive rate at the 1% operating point of every ROC curve
    // of Figures 4 and 5–6: the point each curve's detection rate is read
    // at.
    let fp_at_budget: Vec<f64> = ["fig4", "fig5_6"]
        .iter()
        .flat_map(|id| by_id(id).series.iter())
        .map(|s| {
            s.points
                .iter()
                .filter(|p| p.0 <= PAPER_FP_BUDGET + 1e-12)
                .fold(
                    (0.0f64, -1.0f64),
                    |best, &(fp, dr)| {
                        if dr > best.1 {
                            (fp, dr)
                        } else {
                            best
                        }
                    },
                )
                .0
        })
        .collect();
    let false_alarm_rate = fp_at_budget.iter().sum::<f64>() / fp_at_budget.len() as f64;

    // Timing metrics report the best job (README: the host's speed swings
    // by tens of percent over seconds; the best job tracks the code).
    let untraced: Vec<&Job> = jobs.iter().filter(|j| j.substrate_s.is_none()).collect();
    let best = |jobs: &[&Job], of: &dyn Fn(&Job) -> f64| {
        jobs.iter().map(|j| of(j)).fold(f64::INFINITY, f64::min)
    };
    let job_s = best(&untraced, &|j| j.job_s);
    // Per figure: its best wall time, and its best finish since job start.
    let mut figure_us: Vec<f64> = (0..FIGURES.len())
        .map(|k| best(&untraced, &|j| j.figure_s[k]) * 1e6)
        .collect();
    let mut finished_us: Vec<f64> = (0..FIGURES.len())
        .map(|k| best(&untraced, &|j| j.finished_s[k]) * 1e6)
        .collect();
    let victims = cells * base.total_victims();

    let mut m = Metrics::default();
    m.set("setup_s", median(&mut setup));
    m.set("throughput_rps", victims as f64 / job_s);
    m.set("ack_p50_us", quantile(&mut figure_us, 0.5));
    m.set("ack_p90_us", quantile(&mut figure_us, 0.9));
    m.set("alarm_p50_us", quantile(&mut finished_us, 0.5));
    m.set("alarm_p90_us", quantile(&mut finished_us, 0.9));
    m.set("accepted_frac", finite as f64 / fig7.len() as f64);
    m.set("detection_rate", detection_rate);
    m.set("false_alarm_rate", false_alarm_rate);
    m.set("job_s", job_s);
    m.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        let traced: Vec<&Job> = jobs.iter().filter(|j| j.substrate_s.is_some()).collect();
        let substrate_s = best(&traced, &|j| j.substrate_s.expect("traced job"));
        m.set("eval.substrate_s", substrate_s);
        let mut steps = vec![("standard substrate", substrate_s * 1e6)];
        for (k, (name, _)) in FIGURES.iter().enumerate() {
            let t = best(&traced, &|j| j.figure_s[k]);
            m.set(name, t);
            steps.push((*name, t * 1e6));
        }
        let traced_job = best(&traced, &|j| j.job_s);
        let overhead = (traced_job - job_s) / job_s;
        let notes = [format!(
            "tracing overhead: best job {traced_job:.3} s traced vs {job_s:.3} s untraced \
             ({:+.1}%)",
            overhead * 100.0
        )];
        crate::ledger(
            &mut m,
            "paper_batch: one job, best of the run's jobs, µs",
            &steps,
            ("end to end (job)", traced_job * 1e6),
            "cache set-up and report assembly",
            &notes,
            overhead,
        );
    }

    let attempted = (cells * jobs.len()) as u64;
    Ok(RunResult {
        correct,
        attempted,
        failed: (fig7.len() - finite) as u64,
        metrics: m,
    })
}
