//! The full closed loop, end to end: calibrate → serve → alarm →
//! attribute → revoke/quarantine → the adaptive attacker reacts →
//! containment report → snapshot/resume (serve v2 + response state).
//!
//! A score-only engine watches a simulated deployment. Clean warm-up
//! traffic calibrates a CUSUM detector at a per-round false-alarm target
//! *and* a revocation budget at a collateral target. Then a handful of
//! nodes turn hostile — adaptive ones: when the response layer quarantines
//! their alarm focus, they abandon the burnt forged location and rotate to
//! a fresh one ([`Evasion::RotateForgery`]). Rotation evades the *region*,
//! but per-node suspicion follows the *node*: within a few more alarms the
//! `ThresholdRevoke` budget is crossed, the node is revoked, the traffic
//! model silences it, and once the quarantined regions go quiet they are
//! lifted again (recovery). Both the runtime snapshot (v2 — including
//! fired-but-undrained alarms) and the response controller snapshot are
//! round-tripped through JSON mid-run to show a restart loses nothing.
//!
//! ```text
//! cargo run --release --example closed_loop            # full demo
//! cargo run --release --example closed_loop -- --smoke # CI-sized
//! ```

use lad::prelude::*;
use lad::response::{
    clean_alarm_rounds, ClusterQuarantine, ResponseConfig, ResponseController, ResponseSnapshot,
    ThresholdRevoke,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other} (try --smoke)");
                std::process::exit(2);
            }
        }
    }
    let (population, warmup, horizon) = if smoke { (64, 24, 40) } else { (160, 40, 60) };
    let onset = warmup + 4;
    let target_far = 0.01;
    let target_collateral = 0.02;

    // Offline: fit the engine, simulate the deployment it will watch.
    let config = DeploymentConfig::small_test();
    let sigma = config.sigma;
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&config)
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0xC105ED);
    let stride = (network.node_count() as u32 / population as u32).max(1);
    let nodes: Vec<NodeId> = (0..population as u32)
        .map(|i| NodeId((i * stride) % network.node_count() as u32))
        .collect();

    // Calibration: the detector at a false-alarm target, the revocation
    // budget at a collateral target — both on the same clean warm-up.
    let clean = TrafficModel::clean(&network, &engine, nodes, 0x100F);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..warmup);
    let detector =
        SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), target_far);
    let response_config = ResponseConfig {
        decay: 0.9,
        ..ResponseConfig::default()
    };
    let revoke = ThresholdRevoke::calibrate(
        &clean_alarm_rounds(&detector, &streams),
        warmup,
        response_config,
        target_collateral,
    );
    let quarantine = ClusterQuarantine {
        link_radius: 1.5 * sigma,
        window: 10,
        min_alarms: 3,
        suspicion_budget: 1.5,
        margin: sigma,
        lift_after: 8,
    };
    println!(
        "calibrated {} at FAR {target_far}: {detector:?}; revocation budget {:.2} at \
         collateral target {target_collateral}",
        detector.name(),
        revoke.budget,
    );

    // The live workload: a few adaptive attackers (rotate-forgery) from
    // `onset` on.
    let mut traffic = clean
        .with_attack(
            AttackTimeline::Onset { at: onset },
            AttackConfig {
                degree_of_damage: 170.0,
                compromised_fraction: 0.1,
                class: AttackClass::DecBounded,
                targeted_metric: MetricKind::Diff,
            },
            0.08,
        )
        .with_evasion(Evasion::RotateForgery);
    let population_nodes = traffic.nodes();
    let attackers: BTreeSet<u32> = population_nodes
        .iter()
        .zip(traffic.attacked_mask(onset))
        .filter_map(|(node, hostile)| hostile.then_some(node.0))
        .collect();
    println!(
        "{} reporters, {} adaptive attackers from round {onset}",
        population_nodes.len(),
        attackers.len()
    );

    let runtime = ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector))
        .expect("runtime starts");
    let mut controller = ResponseController::new(response_config)
        .with_policy(Box::new(revoke))
        .with_policy(Box::new(quarantine));

    let mut revocation_round: Vec<(u32, u64)> = Vec::new();
    // The round each attacker last got an attack report *through* —
    // neither silenced by revocation nor suppressed by a quarantine. An
    // attacker is contained from the round after its last effective one.
    let mut last_effective: BTreeMap<u32, u64> = BTreeMap::new();
    let mut quarantines = 0usize;
    let mut notices = 0usize;
    let mut lifted = 0usize;
    let serve_from = warmup;
    let half_way = onset + horizon / 2;
    let (mut ids, mut rows) = (Vec::new(), ObservationBatch::new(0));
    for round in serve_from..onset + horizon {
        traffic.round_rows(&network, round, &mut ids, &mut rows);
        let filter = runtime.response_filter();
        for (i, &node) in ids.iter().enumerate() {
            if attackers.contains(&node.0)
                && traffic.is_attacked(node, round)
                && !filter.suppresses(node, rows.estimate(i))
            {
                last_effective.insert(node.0, round);
            }
        }
        runtime.submit_rows(round, &ids, &rows);
        let outcome = controller.step(&runtime, round);
        for node in &outcome.newly_revoked {
            revocation_round.push((node.0, round));
            println!(
                "round {round}: REVOKED n{} (suspicion budget {:.2} crossed)",
                node.0, revoke.budget
            );
        }
        if !outcome.newly_revoked.is_empty() {
            traffic.revoke_nodes(&outcome.newly_revoked, round + 1);
        }
        for region in &outcome.newly_quarantined {
            quarantines += 1;
            let members: Vec<NodeId> = region.nodes.iter().map(|&n| NodeId(n)).collect();
            notices += members.len();
            println!(
                "round {round}: QUARANTINED r={:.0} around ({:.0}, {:.0}) after {} alarms — \
                 notifying {:?} (they rotate their forgery)",
                region.region.radius,
                region.region.center.x,
                region.region.center.y,
                region.alarms,
                region.nodes,
            );
            traffic.notify_quarantine(&members, round);
        }
        lifted += outcome.lifted;

        // Mid-run restart drill: snapshot both layers to JSON, drop the
        // live objects, restore, and keep serving. The runtime snapshot is
        // v2: alarms fired but not yet drained ride along.
        if round == half_way {
            let serve_json = runtime.snapshot().to_json();
            let response_json = controller.snapshot().to_json();
            let serve_snapshot = ServeSnapshot::from_json(&serve_json).expect("serve v2 parses");
            println!(
                "round {round}: snapshot drill — serve v{} ({} node states, {} pending alarms), \
                 response v{} ({} journal entries, {} revoked)",
                serve_snapshot.version,
                serve_snapshot.states.len(),
                serve_snapshot.pending_alarms.len(),
                controller.snapshot().version,
                controller.journal().len(),
                controller.revocations().revoked.len(),
            );
            let restored = ResponseSnapshot::from_json(&response_json).expect("response parses");
            assert_eq!(
                restored,
                controller.snapshot(),
                "response state round-trips"
            );
            let resumed = ResponseController::from_snapshot(restored)
                .with_policy(Box::new(revoke))
                .with_policy(Box::new(quarantine));
            assert_eq!(
                resumed.revocations(),
                controller.revocations(),
                "resumed controller agrees"
            );
            controller = resumed;
            // Resume enforcement: re-install the filter (and restart the
            // suppression-telemetry baseline) in the runtime.
            controller.install(&runtime);
        }
    }

    runtime.sync();
    let counters = runtime.counters();
    let revoked: BTreeSet<u32> = revocation_round.iter().map(|&(n, _)| n).collect();
    let revoked_attackers: BTreeSet<u32> = revoked.intersection(&attackers).copied().collect();
    let collateral = revoked.len() - revoked_attackers.len();
    // Time-to-containment per attacker: rounds from onset until its last
    // *effective* attack report (one that was neither silenced by a
    // revocation nor suppressed by a quarantine) — an attacker can be
    // neutralised by revocation OR by being permanently suppressed, e.g.
    // after rotating its forgery into another active quarantine region.
    // Censored when it still got a report through in the final round.
    let last_round = onset + horizon - 1;
    let mut ttcs: Vec<u64> = attackers
        .iter()
        .map(|&a| match last_effective.get(&a) {
            // saturating: contained during the clean lead-in counts as 1.
            Some(&r) if r < last_round => (r + 1).saturating_sub(onset) + 1,
            Some(_) => horizon + 1, // still effective at the end: censored
            None => 1,              // never landed a single attack report
        })
        .collect();
    ttcs.sort_unstable();
    println!("\n=== containment report ===");
    println!(
        "attackers {} | revoked {} (precision {:.2}, recall {:.2}) | collateral {} honest",
        attackers.len(),
        revoked.len(),
        if revoked.is_empty() {
            1.0
        } else {
            revoked_attackers.len() as f64 / revoked.len() as f64
        },
        revoked_attackers.len() as f64 / attackers.len() as f64,
        collateral,
    );
    println!(
        "median time-to-containment {} rounds (revoked or fully suppressed; censored at {}) | \
         quarantines {quarantines} (notices {notices}, lifted {lifted}) | {} reports suppressed \
         pre-scoring | {} alarms",
        ttcs[ttcs.len() / 2],
        horizon + 1,
        counters.suppressed,
        counters.alarms,
    );
    runtime.shutdown();

    // The loop must have closed: the adaptive attackers were quarantined,
    // reacted, and were still pinned down by per-node suspicion.
    assert!(quarantines > 0, "at least one focus must be quarantined");
    assert!(
        notices > 0,
        "the adaptive attackers must have been notified"
    );
    assert!(
        !revoked_attackers.is_empty(),
        "rotation must not save the attackers from revocation"
    );
    assert!(
        ttcs[ttcs.len() / 2] <= horizon,
        "median time-to-containment must be finite"
    );
    assert!(
        counters.suppressed > 0,
        "revoked/quarantined work must have been suppressed pre-scoring"
    );
    println!("closed loop OK");
}
