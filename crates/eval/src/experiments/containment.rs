//! Containment: how fast does the closed loop identify and neutralise an
//! attack — and what does that cost in collateral revocations?
//!
//! The `temporal` experiment measures *time-to-detection*: the first
//! alarm. This experiment measures what matters operationally once a
//! response layer exists: **time-to-containment** — how many rounds after
//! attack onset until each persistent attacker is *revoked* (and therefore
//! silent), driven end to end through the real serving stack:
//!
//! ```text
//! TrafficModel → ServeRuntime (shard, score, decide)
//!             → ResponseController (journal → suspicion → ThresholdRevoke)
//!             → ResponseFilter installed back into the runtime
//!             → revoked attackers fall silent in the traffic model
//! ```
//!
//! At one calibrated per-round false-alarm target (shared with `temporal`)
//! and one calibrated collateral budget, the experiment compares a
//! **one-shot-fed** response (the paper's detector applied every round)
//! with a **CUSUM-fed** response across the damage × compromised-fraction
//! grid, reporting per cell:
//!
//! * the median per-attacker time-to-containment (rounds from onset to
//!   revocation, censored at `HORIZON + 1`; without a response layer every
//!   attacker is censored *by construction* — nothing ever revokes),
//! * identification precision and recall (revoked ∩ attackers vs revoked,
//!   vs attackers), and
//! * the collateral-revocation rate (honest nodes revoked / honest nodes).

use crate::config::EvalConfig;
use crate::experiments::{median, standard_substrate};
use crate::report::{FigureReport, Series};
use crate::scenario::SubstrateCache;
use lad_attack::{AttackClass, AttackConfig};
use lad_core::MetricKind;
use lad_net::NodeId;
use lad_response::{clean_alarm_rounds, ResponseConfig, ResponseController, ThresholdRevoke};
use lad_serve::{AttackTimeline, ServeConfig, ServeRuntime, TrafficModel};
use lad_stats::seeds::derive_seed;
use lad_stats::SequentialDetector;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Degrees of damage swept on the x axis (the same frontier band as
/// `temporal`). A containment-specific finding falls out of the
/// comparison: once an attack is blatant enough to fire the one-shot rule
/// at all, the one-shot-fed loop *contains faster* than the CUSUM-fed one
/// — the memoryless rule re-fires every attacked round, while the CUSUM
/// must re-accumulate to its threshold after each reset-on-alarm, so its
/// earlier *first* alarm (the `temporal` win) does not translate into
/// faster *repeat* evidence. The suspicion layer integrates repetition.
pub const DAMAGE_SWEEP: [f64; 3] = [100.0, 125.0, 150.0];

/// Compromised-neighbour fractions (one containment curve per detector per
/// fraction). Beyond x ≈ 20 % the greedy taint keeps a growing share of
/// attackers below any equal-FAR detector permanently — containment
/// inherits detection's stealth frontier.
pub const FRACTIONS: [f64; 2] = [0.10, 0.20];

/// Clean warm-up rounds: detector calibration *and* revocation-budget
/// calibration both happen here.
pub const WARMUP_ROUNDS: u64 = 40;

/// Attacked rounds after onset (the containment measurement horizon).
pub const HORIZON: u64 = 60;

/// Round at which the compromised half of the population turns hostile
/// (after the warm-up, so everything measured is held out).
pub const ONSET: u64 = WARMUP_ROUNDS;

/// The calibrated per-round false-alarm target shared by both rules (the
/// `temporal` target).
pub const TARGET_FAR: f64 = 0.005;

/// The calibrated collateral budget: at most this fraction of clean nodes
/// may ever cross the revocation budget on the calibration streams.
pub const TARGET_COLLATERAL: f64 = 0.01;

/// The outcome of one closed-loop cell.
struct CellOutcome {
    /// Median per-attacker time-to-containment (censored at HORIZON + 1).
    median_ttc: f64,
    /// Fraction of attackers revoked within the horizon.
    recall: f64,
    /// Fraction of revoked nodes that were attackers (1.0 when nothing was
    /// revoked — no wrong revocations happened).
    precision: f64,
    /// Honest nodes revoked / honest nodes.
    collateral: f64,
}

/// Runs one closed-loop cell: serve the attacked trace through a real
/// runtime with a `ThresholdRevoke` response controller, feeding
/// revocations back into the traffic model (revoked attackers fall
/// silent), and score the containment outcome against the ground-truth
/// attacker set.
fn run_cell(
    engine: &Arc<lad_core::engine::LadEngine>,
    network: &lad_net::Network,
    clean: &TrafficModel,
    detector: SequentialDetector,
    policy: ThresholdRevoke,
    response_config: ResponseConfig,
    attack: AttackConfig,
) -> CellOutcome {
    let mut traffic = clean.with_attack(AttackTimeline::Onset { at: ONSET }, attack, 0.5);
    let population = traffic.nodes();
    let attackers: BTreeSet<u32> = population
        .iter()
        .zip(traffic.attacked_mask(ONSET))
        .filter_map(|(node, hostile)| hostile.then_some(node.0))
        .collect();
    assert!(!attackers.is_empty(), "cells have attackers");

    let runtime = ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector))
        .expect("runtime starts");
    let mut controller = ResponseController::new(response_config).with_policy(Box::new(policy));

    let mut revocation_round: Vec<(u32, u64)> = Vec::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut rows = lad_net::ObservationBatch::new(engine.knowledge().group_count());
    for round in 0..ONSET + HORIZON {
        traffic.round_rows(network, round, &mut nodes, &mut rows);
        runtime.submit_rows(round, &nodes, &rows);
        let outcome = controller.step(&runtime, round);
        if !outcome.newly_revoked.is_empty() {
            for node in &outcome.newly_revoked {
                revocation_round.push((node.0, round));
            }
            // Close the loop: revoked nodes fall silent from the next round.
            traffic.revoke_nodes(&outcome.newly_revoked, round + 1);
        }
    }
    runtime.shutdown();

    let revoked: BTreeSet<u32> = revocation_round.iter().map(|&(n, _)| n).collect();
    let revoked_attackers = revoked.intersection(&attackers).count();
    let honest = population.len() - attackers.len();
    let collateral_revoked = revoked.len() - revoked_attackers;

    let mut ttcs: Vec<f64> = attackers
        .iter()
        .map(|&a| {
            revocation_round
                .iter()
                .find(|&&(n, _)| n == a)
                // A node revoked during the warm-up (a collateral call on
                // a would-be attacker) is contained before it ever
                // attacks: TTC 1, not an underflow.
                .map(|&(_, round)| (round.saturating_sub(ONSET) + 1) as f64)
                .unwrap_or((HORIZON + 1) as f64)
        })
        .collect();
    CellOutcome {
        median_ttc: median(&mut ttcs).expect("attackers exist"),
        recall: revoked_attackers as f64 / attackers.len() as f64,
        precision: if revoked.is_empty() {
            1.0
        } else {
            revoked_attackers as f64 / revoked.len() as f64
        },
        collateral: if honest == 0 {
            0.0
        } else {
            collateral_revoked as f64 / honest as f64
        },
    }
}

/// The containment experiment: closed-loop time-to-containment,
/// identification precision/recall and collateral-revocation rate for
/// one-shot-fed vs CUSUM-fed response at equal calibrated FAR, across the
/// damage × compromise grid on the shared standard-deployment substrate.
pub fn containment(base: &EvalConfig, cache: &SubstrateCache) -> FigureReport {
    let substrate = standard_substrate(base, cache);
    let engine_ref = substrate.engine();
    let network = &substrate.networks()[0];
    let seed = derive_seed(base.seed, &[0x0C04_7A14]);

    let population = crate::scenario::sample_node_ids(
        network,
        base.clean_samples_per_network,
        derive_seed(seed, &[1]),
    );
    let clean = TrafficModel::clean(network, engine_ref, population, seed);

    // Both rules calibrated at the same per-round FAR on the same clean
    // warm-up; each rule's revocation budget calibrated on *its own* clean
    // alarm behaviour at the same collateral target — equal footing end to
    // end.
    let warmup = clean.score_streams(network, engine_ref, MetricKind::Diff, 0..WARMUP_ROUNDS);
    let streams = || warmup.iter().map(Vec::as_slice);
    let detectors = [
        SequentialDetector::calibrate_one_shot(streams(), TARGET_FAR),
        SequentialDetector::calibrate_cusum(streams(), TARGET_FAR),
    ];
    // Slower decay than the library default: the CUSUM re-fires every
    // ~10–15 rounds on a frontier attacker (threshold / per-round drift),
    // and suspicion must integrate across that cadence to separate repeat
    // offenders from one-off false alarms.
    let response_config = ResponseConfig {
        decay: 0.9,
        ..ResponseConfig::default()
    };
    let policies: Vec<ThresholdRevoke> = detectors
        .iter()
        .map(|detector| {
            ThresholdRevoke::calibrate(
                &clean_alarm_rounds(detector, &warmup),
                WARMUP_ROUNDS,
                response_config,
                TARGET_COLLATERAL,
            )
        })
        .collect();

    // The serving runtime wants an `Arc<LadEngine>`; the substrate owns
    // its engine by value, so rebuild an identical one through the
    // versioned artifact (bit-identical scoring — the artifact round trip
    // is asserted by the engine test suite).
    let engine = Arc::new(
        lad_core::engine::LadEngine::from_json(&engine_ref.to_json())
            .expect("substrate engine round-trips"),
    );

    let mut report = FigureReport::new(
        "containment",
        "Time-to-containment: closed-loop revocation, one-shot-fed vs CUSUM-fed",
        "degree of damage D (m)",
        "median rounds from onset to attacker revocation (censored at horizon+1)",
    );
    report.push_note(format!(
        "per-round false-alarm target {TARGET_FAR}, collateral target {TARGET_COLLATERAL}; {} \
         reporting nodes (half turn hostile at round {ONSET}); warm-up {WARMUP_ROUNDS} rounds, \
         horizon {HORIZON} rounds; Diff metric, Dec-Bounded attacks; ThresholdRevoke budgets: \
         one-shot {:.2}, cusum {:.2} (suspicion decay {})",
        clean.nodes().len(),
        policies[0].budget,
        policies[1].budget,
        response_config.decay,
    ));
    report.push_note(format!(
        "without a response layer every attacker is censored at {} by construction — nothing \
         ever revokes",
        HORIZON + 1
    ));

    for (detector, policy) in detectors.iter().zip(&policies) {
        let mut worst_precision = f64::INFINITY;
        let mut worst_collateral: f64 = 0.0;
        let mut best_recall: f64 = 0.0;
        for &fraction in &FRACTIONS {
            let mut curve = Vec::new();
            for &damage in &DAMAGE_SWEEP {
                let outcome = run_cell(
                    &engine,
                    network,
                    &clean,
                    *detector,
                    *policy,
                    response_config,
                    AttackConfig {
                        degree_of_damage: damage,
                        compromised_fraction: fraction,
                        class: AttackClass::DecBounded,
                        targeted_metric: MetricKind::Diff,
                    },
                );
                curve.push((damage, outcome.median_ttc));
                worst_precision = worst_precision.min(outcome.precision);
                worst_collateral = worst_collateral.max(outcome.collateral);
                best_recall = best_recall.max(outcome.recall);
            }
            report.push_series(Series::new(
                format!("{} x={:.0}%", detector.name(), fraction * 100.0),
                curve,
            ));
        }
        report.push_note(format!(
            "{}-fed response: identification precision >= {:.2} across the grid, best-cell \
             recall {:.2}, collateral-revocation rate <= {:.4} of honest nodes",
            detector.name(),
            if worst_precision.is_finite() {
                worst_precision
            } else {
                1.0
            },
            best_recall,
            worst_collateral,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_label(detector: &str, fraction: f64) -> String {
        format!("{detector} x={:.0}%", fraction * 100.0)
    }

    #[test]
    fn closed_loop_contains_persistent_attackers_with_high_precision() {
        let report = containment(&EvalConfig::bench(), &SubstrateCache::new());
        assert_eq!(report.series.len(), 2 * FRACTIONS.len());
        let censored = (HORIZON + 1) as f64;

        // The CUSUM-fed response contains the blatant-attack cells in
        // finite time (vs censored-by-construction without response), and
        // containment never gets slower as damage grows.
        let mut cusum_finite = false;
        for &fraction in &FRACTIONS {
            let cusum = report
                .series_by_label(&series_label("cusum", fraction))
                .unwrap();
            for (i, &(_, ttc)) in cusum.points.iter().enumerate() {
                assert!(ttc >= 1.0 && ttc <= censored);
                cusum_finite |= ttc < censored;
                if i > 0 {
                    assert!(
                        ttc <= cusum.points[i - 1].1 + 1e-9,
                        "containment slows down with damage: {:?}",
                        cusum.points
                    );
                }
            }
            // The biggest-damage cell must be contained in well under the
            // horizon.
            assert!(
                cusum.points.last().unwrap().1 < censored,
                "D={} x={fraction} not contained: {:?}",
                DAMAGE_SWEEP[DAMAGE_SWEEP.len() - 1],
                cusum.points
            );
        }
        assert!(cusum_finite, "median TTC must be finite somewhere");
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("censored") && n.contains("without a response layer")),
            "the censored-without-response baseline must be stated"
        );

        // Identification precision >= 0.9 at the default calibrated budget
        // for the headline CUSUM-fed loop (worst cell across the grid; the
        // one-shot-fed loop can revoke *nothing but* its single collateral
        // node on cells below its detection frontier, which degenerates
        // the ratio), and the collateral rate is reported for both rules.
        for rule in ["one-shot", "cusum"] {
            let note = report
                .notes
                .iter()
                .find(|n| n.starts_with(&format!("{rule}-fed response")))
                .expect("per-detector containment note");
            assert!(
                note.contains("collateral-revocation rate"),
                "collateral must be reported"
            );
            if rule == "cusum" {
                let precision: f64 = note
                    .split("precision >= ")
                    .nth(1)
                    .and_then(|s| s.split(' ').next())
                    .and_then(|s| s.trim_end_matches(',').parse().ok())
                    .expect("note carries precision");
                assert!(
                    precision >= 0.9,
                    "{rule}: identification precision {precision} < 0.9"
                );
            }
        }
    }
}
