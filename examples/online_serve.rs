//! Online sharded serving, end to end: calibrate → serve → detect →
//! snapshot → resume.
//!
//! A score-only engine watches a simulated deployment. Clean warm-up
//! traffic calibrates a CUSUM detector at a per-round false-alarm target;
//! the sharded runtime then ingests live rounds, and when half the
//! population turns hostile at the onset round, the alarm stream lights up
//! within a few rounds. The runtime state is snapshotted to versioned JSON
//! and restored into a fresh runtime with a different shard count —
//! decisions continue bit-identically.
//!
//! ```text
//! cargo run --release --example online_serve            # full demo
//! cargo run --release --example online_serve -- --smoke # CI-sized
//! cargo run --release --example online_serve -- --shards 8
//! ```

use lad::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut smoke = false;
    let mut shards = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs a number");
            }
            other => {
                eprintln!("unknown argument: {other} (try --smoke, --shards N)");
                std::process::exit(2);
            }
        }
    }
    let (population, warmup, horizon) = if smoke { (64, 16, 24) } else { (256, 40, 60) };
    // Live traffic starts where the calibration window ends, so everything
    // served (false alarms included) is out-of-sample for the detector.
    let serve_from = warmup;
    let onset = serve_from + horizon / 3;
    let target_far = 0.005;

    // Offline: fit the engine, simulate the deployment it will watch.
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0x1AD);
    let stride = (network.node_count() as u32 / population as u32).max(1);
    let nodes: Vec<NodeId> = (0..population as u32)
        .map(|i| NodeId((i * stride) % network.node_count() as u32))
        .collect();

    // Clean warm-up → calibrated sequential detector.
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xC0FFEE);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..warmup);
    let detector =
        SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), target_far);
    println!(
        "calibrated {} on {} clean node-rounds at FAR target {target_far}: {detector:?}",
        detector.name(),
        streams.iter().map(Vec::len).sum::<usize>(),
    );

    // The live workload: half the population turns hostile at `onset`.
    let traffic = clean.with_attack(
        AttackTimeline::Onset { at: onset },
        AttackConfig {
            degree_of_damage: 140.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.5,
    );

    // Serve. Traffic is generated up front so the timed region (and the
    // printed reports/s) measures the serving path — partition, queue,
    // score, decide — not the simulator.
    let rounds: Vec<_> = (serve_from..serve_from + horizon)
        .map(|round| {
            let (mut ids, mut rows) = (Vec::new(), ObservationBatch::new(0));
            traffic.round_rows(&network, round, &mut ids, &mut rows);
            (round, ids, rows)
        })
        .collect();
    let runtime = ServeRuntime::start(
        engine.clone(),
        ServeConfig::new(MetricKind::Diff, detector).with_shards(shards),
    )
    .expect("runtime starts");
    let t0 = Instant::now();
    for (round, ids, rows) in &rounds {
        runtime.submit_rows(*round, ids, rows);
    }
    runtime.sync();
    let elapsed = t0.elapsed();
    let counters = runtime.counters();
    println!(
        "served {} reports over {} rounds on {shards} shard(s) in {elapsed:.1?} \
         ({:.0} reports/s), queue now {}",
        counters.submitted,
        horizon,
        counters.submitted as f64 / elapsed.as_secs_f64(),
        counters.queue_depth(),
    );

    let alarms = runtime.drain_alarms();
    let pre_onset = alarms.iter().filter(|a| a.round < onset).count();
    let first = alarms
        .iter()
        .filter(|a| a.round >= onset)
        .map(|a| a.round)
        .min();
    println!(
        "{} alarms: {pre_onset} false (before onset at round {onset}), first detection at {:?}",
        alarms.len(),
        first,
    );
    assert!(
        first.is_some(),
        "the D=140 half-population attack must be detected"
    );

    // Snapshot, restore into a differently-sharded runtime, keep serving.
    let snapshot = runtime.snapshot();
    let json = snapshot.to_json();
    println!(
        "snapshot v{}: {} node states, {} bytes of JSON",
        snapshot.version,
        snapshot.states.len(),
        json.len()
    );
    runtime.shutdown();

    let restored = ServeSnapshot::from_json(&json).expect("snapshot parses");
    let resumed = ServeRuntime::start(
        engine,
        ServeConfig::new(MetricKind::Diff, detector).with_shards(shards * 2),
    )
    .expect("resumed runtime starts");
    resumed.restore(&restored).expect("snapshot restores");
    let (mut ids, mut rows) = (Vec::new(), ObservationBatch::new(0));
    for round in serve_from + horizon..serve_from + horizon + 4 {
        traffic.round_rows(&network, round, &mut ids, &mut rows);
        resumed.submit_rows(round, &ids, &rows);
    }
    let resumed_alarms = resumed.drain_alarms();
    println!(
        "resumed on {} shards: {} more alarms in {} extra rounds",
        shards * 2,
        resumed_alarms.len(),
        4
    );
    resumed.shutdown();
}
