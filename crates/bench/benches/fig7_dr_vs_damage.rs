//! Figure 7 bench: detection rate vs degree of damage (DR-D-x).

use criterion::{criterion_group, criterion_main, Criterion};
use lad_bench::{bench_cache, bench_config};
use lad_eval::experiments::fig7_dr_vs_damage;

fn bench_fig7(c: &mut Criterion) {
    let base = bench_config();
    let cache = bench_cache();

    let report = fig7_dr_vs_damage(&base, &cache);
    for series in &report.series {
        let row: Vec<String> = series
            .points
            .iter()
            .map(|(d, dr)| format!("D={d:.0}:{dr:.2}"))
            .collect();
        println!("[fig7] {} -> {}", series.label, row.join(" "));
    }

    let mut group = c.benchmark_group("fig7_dr_vs_damage");
    group.sample_size(10);
    group.bench_function("full_figure", |b| {
        b.iter(|| fig7_dr_vs_damage(&base, &cache))
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
