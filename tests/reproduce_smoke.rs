//! Smoke test of the figure-reproduction harness: every experiment runs on
//! the reduced configuration through the scenario layer, produces
//! well-formed reports, and the headline qualitative claims of the paper
//! hold.

use lad::eval::experiments;
use lad::eval::scenario::DeploymentResult;
use lad::prelude::*;
use lad::stats::AccumulatorConfig;

/// Runs `grid` exactly (no binning) on the reduced standard deployment;
/// `cache` shares that deployment's substrate across calls.
fn run_exact(grid: ParamGrid, cache: &SubstrateCache) -> DeploymentResult {
    let base = EvalConfig::bench();
    let spec = ScenarioSpec::new(
        "smoke",
        "smoke grid",
        experiments::standard_axis(&base),
        grid,
        base.sampling_plan(),
    )
    .with_accumulator(AccumulatorConfig::exact());
    let mut result = ScenarioRunner::with_cache(&spec, cache).run();
    result.deployments.remove(0)
}

#[test]
fn all_experiments_produce_saveable_reports() {
    let base = EvalConfig::bench();
    let cache = SubstrateCache::new();
    let substrate = experiments::standard_substrate(&base, &cache);
    let dir = std::env::temp_dir().join("lad-reproduce-smoke");
    let _ = std::fs::remove_dir_all(&dir);

    let reports = vec![
        experiments::deployment_figures(&substrate),
        experiments::attack_showcase(&substrate),
        experiments::fig4_roc_metrics(&base, &cache),
        experiments::fig56_roc_attacks(&base, &cache),
        experiments::fig7_dr_vs_damage(&base, &cache),
        experiments::fig8_dr_vs_compromise(&base, &cache),
        experiments::fig9_dr_vs_density(&base, &[40, 100], &cache),
        experiments::heatmap_damage_compromise(&base, &cache),
        experiments::mixed_attack_workload(&base, &cache),
        experiments::temporal_detection(&base, &cache),
        experiments::containment(&base, &cache),
        experiments::ablation_gz_table(&substrate),
        experiments::ablation_localizers(&base, &cache),
        experiments::ablation_model_mismatch(&base, &cache),
    ];

    for report in &reports {
        assert!(!report.series.is_empty(), "{} has no series", report.id);
        for series in &report.series {
            assert!(
                !series.points.is_empty(),
                "{}/{} empty",
                report.id,
                series.label
            );
            for (x, y) in &series.points {
                assert!(
                    x.is_finite() && y.is_finite(),
                    "{} has non-finite point",
                    report.id
                );
            }
        }
        report
            .save(&dir)
            .expect("experiment artefacts can be written");
        assert!(dir.join(format!("{}.csv", report.id)).exists());
    }
    // The standard deployment point was shared: far fewer substrates than
    // experiments (standard + fig9's two densities + localizer/mismatch
    // axes).
    assert!(
        cache.len() < reports.len(),
        "cache holds {} substrates for {} experiments",
        cache.len(),
        reports.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn headline_claims_of_the_paper_hold_on_the_reduced_setup() {
    let cache = SubstrateCache::new();
    let dr = |class, degree, fraction, max_fp| {
        let dep = run_exact(
            ParamGrid::single(MetricKind::Diff, class, degree, fraction),
            &cache,
        );
        dep.detection_rate(&dep.cells[0], max_fp)
    };

    // Claim 1 (§7.6): detection rate approaches 1 as the degree of damage grows.
    let dr_small = dr(AttackClass::DecBounded, 40.0, 0.10, 0.05);
    let dr_large = dr(AttackClass::DecBounded, 160.0, 0.10, 0.05);
    assert!(dr_large >= dr_small);
    assert!(dr_large > 0.8, "DR at D=160 is only {dr_large}");

    // Claim 2 (§7.5): Dec-Only attacks are easier to detect than Dec-Bounded
    // attacks at small D, and the two converge at large D.
    let small_gap =
        dr(AttackClass::DecOnly, 40.0, 0.10, 0.10) - dr(AttackClass::DecBounded, 40.0, 0.10, 0.10);
    let large_gap = dr(AttackClass::DecOnly, 160.0, 0.10, 0.10)
        - dr(AttackClass::DecBounded, 160.0, 0.10, 0.10);
    assert!(small_gap >= -0.05, "Dec-Only should not be harder at D=40");
    assert!(
        large_gap <= small_gap + 0.1,
        "classes should converge as D grows"
    );

    // Claim 3 (§7.7): higher damage tolerates more node compromise.
    let dr_d160_x50 = dr(AttackClass::DecBounded, 160.0, 0.50, 0.05);
    let dr_d80_x50 = dr(AttackClass::DecBounded, 80.0, 0.50, 0.05);
    assert!(dr_d160_x50 + 0.1 >= dr_d80_x50);
}

#[test]
fn roc_curves_are_valid_probability_curves() {
    let grid = ParamGrid {
        metrics: MetricKind::ALL.to_vec(),
        attacks: vec![AttackMix::pure(AttackClass::DecBounded)],
        damages: vec![120.0],
        fractions: vec![0.10],
    };
    let dep = run_exact(grid, &SubstrateCache::new());
    for cell in &dep.cells {
        let roc = dep.roc(cell);
        assert!((0.0..=1.0).contains(&roc.auc()));
        assert!(
            roc.auc() > 0.5,
            "{:?} should beat chance at D = 120 (AUC {})",
            cell.params.metric,
            roc.auc()
        );
        let mut prev_fp = -1.0;
        for p in roc.points() {
            assert!((0.0..=1.0).contains(&p.false_positive_rate));
            assert!((0.0..=1.0).contains(&p.detection_rate));
            assert!(p.false_positive_rate >= prev_fp);
            prev_fp = p.false_positive_rate;
        }
    }
}
