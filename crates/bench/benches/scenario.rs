//! Scenario-layer bench: the streaming (binned) accumulator layout vs the
//! exact one, on the same grid at equal sample counts.
//!
//! Both contenders run the same `{Diff} × {Dec-Bounded} × 4 damages ×
//! 3 fractions` grid (12 cells) through the `ScenarioRunner`, against the
//! same cached deployment substrate:
//!
//! * **exact_grid** — `AccumulatorConfig::exact()`: every attacked score is
//!   kept (O(samples) memory per cell) and the ROC is the exact sort-based
//!   curve.
//! * **streaming_grid** — forced binned (`exact_limit: 0`), so the streaming
//!   path is actually exercised at bench scale: O(bins) memory per cell.
//!
//! The trial simulation dominates and is identical on both sides, so the
//! wall-clock gap is the streaming layer's overhead — a few percent at
//! equal counts. What the streaming side buys for that overhead is the
//! memory ceiling: per-cell state is ~2k bins instead of every score, which
//! is what lets sample counts grow 10–100× past the exact layout.

use criterion::{criterion_group, criterion_main, Criterion};
use lad_attack::AttackClass;
use lad_bench::bench_config;
use lad_core::MetricKind;
use lad_eval::scenario::{AttackMix, ParamGrid, ScenarioRunner, ScenarioSpec};
use lad_stats::AccumulatorConfig;

const DAMAGES: [f64; 4] = [40.0, 80.0, 120.0, 160.0];
const FRACTIONS: [f64; 3] = [0.1, 0.2, 0.3];

fn grid() -> ParamGrid {
    ParamGrid {
        metrics: vec![MetricKind::Diff],
        attacks: vec![AttackMix::pure(AttackClass::DecBounded)],
        damages: DAMAGES.to_vec(),
        fractions: FRACTIONS.to_vec(),
    }
}

fn bench_scenario(c: &mut Criterion) {
    let base = bench_config();
    let mut group = c.benchmark_group("scenario_grid");
    group.sample_size(10);

    let cache = lad_eval::scenario::SubstrateCache::new();
    let spec = |accumulator| {
        ScenarioSpec::new(
            "bench_grid",
            "bench grid",
            lad_eval::experiments::standard_axis(&base),
            grid(),
            base.sampling_plan(),
        )
        .with_accumulator(accumulator)
    };
    let exact = spec(AccumulatorConfig::exact());
    // Always binned: O(bins) memory per cell.
    let streaming = spec(AccumulatorConfig {
        exact_limit: 0,
        ..AccumulatorConfig::default()
    });
    for (name, spec) in [("exact_grid", &exact), ("streaming_grid", &streaming)] {
        // Substrates are built outside the timed loop: both sides reuse
        // their pre-built clean scores.
        let _ = cache.substrate(&spec.deployments[0], &spec.sampling, spec.accumulator);
        group.bench_function(name, |b| {
            b.iter(|| {
                let result = ScenarioRunner::with_cache(spec, &cache).run();
                let dep = result.single();
                dep.cells
                    .iter()
                    .map(|cell| dep.detection_rate(cell, 0.01))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario);
criterion_main!(benches);
