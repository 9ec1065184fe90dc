//! The resilience layer under deterministic chaos: seeded fault
//! schedules (crash, restart, partition, slow storage, corrupted
//! frames), membership suspicion and probe re-admission, heartbeat
//! anti-entropy, hedged reads, and join rebalancing — all on the
//! in-process cluster with the virtual clock, so every run replays.
//!
//! The invariant every test enforces: demand never errors because of
//! cluster topology. Faults cost locality or latency, never
//! availability.

use std::sync::Mutex;
use std::time::Duration;
use viz_cluster::chaos::run_plan;
use viz_cluster::{
    ChaosAction, ChaosOptions, ChaosPlan, ClusterConfig, NodeId, RouterConfig, ShardStrategy,
    TestCluster,
};
use viz_telemetry::EventKind;
use viz_volume::{BlockId, BlockKey};

/// Serializes the tests that enable + drain the global telemetry trace.
static TRACE: Mutex<()> = Mutex::new(());

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn seed(cluster: &TestCluster, n: u32) -> Vec<BlockKey> {
    (0..n)
        .map(|i| {
            let k = key(i);
            cluster.insert(k, vec![i as f32; 16]);
            k
        })
        .collect()
}

fn owned_by(cluster: &TestCluster, keys: &[BlockKey], node: NodeId) -> Vec<BlockKey> {
    keys.iter().copied().filter(|&k| cluster.map().owner(k) == Some(node)).collect()
}

#[test]
fn seeded_plans_zero_demand_errors_across_seeds() {
    for seed in [11u64, 17, 23] {
        let mut cluster = TestCluster::new(4, ShardStrategy::Ring);
        let mut router = cluster.router("chaos");
        let plan = ChaosPlan::seeded(seed, 4, 40);
        assert!(!plan.events.is_empty(), "seed {seed}: plan scheduled nothing");
        let faults = plan
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ChaosAction::Crash(_) | ChaosAction::Isolate(_) | ChaosAction::Corrupt(_)
                )
            })
            .count();
        let repairs = plan
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ChaosAction::Restart(_) | ChaosAction::Heal(_) | ChaosAction::Uncorrupt(_)
                )
            })
            .count();

        let report = run_plan(&mut cluster, &mut router, &plan, &ChaosOptions::default());

        assert_eq!(report.demand_errors, 0, "seed {seed}: demand must never error");
        assert!(report.demand_blocks > 0, "seed {seed}: the workload ran");
        assert_eq!(
            report.detections.len(),
            faults,
            "seed {seed}: every unreachability fault was detected"
        );
        assert_eq!(
            report.recoveries.len(),
            repairs,
            "seed {seed}: every repaired node was re-admitted"
        );
        assert!(
            report.detections.iter().all(|&d| d <= 2),
            "seed {seed}: detection within 2 steps, got {:?}",
            report.detections
        );
        assert!(
            report.recoveries.iter().all(|&r| r <= 3),
            "seed {seed}: re-admission within 3 steps, got {:?}",
            report.recoveries
        );
        assert!(router.down_nodes().is_empty(), "seed {seed}: nothing down once healed");
        assert_eq!(cluster.live_nodes().len(), 4, "seed {seed}: every crashed node restarted");
        for id in cluster.live_nodes() {
            assert!(
                cluster.node(id).unwrap().suspects().is_empty(),
                "seed {seed}: {id} still suspects someone after the quiet tail"
            );
        }
    }
}

#[test]
fn seeded_plan_replays_identically() {
    let mut c1 = TestCluster::new(4, ShardStrategy::Ring);
    let mut r1 = c1.router("a");
    let mut c2 = TestCluster::new(4, ShardStrategy::Ring);
    let mut r2 = c2.router("a");
    let plan = ChaosPlan::seeded(17, 4, 40);
    let opts = ChaosOptions::default();
    let a = run_plan(&mut c1, &mut r1, &plan, &opts);
    let b = run_plan(&mut c2, &mut r2, &plan, &opts);
    assert_eq!(a.demand_blocks, b.demand_blocks);
    assert_eq!(a.demand_errors, b.demand_errors);
    assert_eq!(a.detections, b.detections);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.frame_ticks, b.frame_ticks);
}

/// The router-revival regression: a node that crashed (marked down) and
/// restarted under the *same* map version can only re-admit through the
/// periodic probe — no map change will ever clear the flag for it.
#[test]
fn crashed_then_restarted_node_resumes_traffic_via_probe() {
    let mut cluster = TestCluster::new(3, ShardStrategy::Ring);
    let keys = seed(&cluster, 96);
    let mut router =
        cluster.router_with("viewer", RouterConfig { probe_every: 4, ..RouterConfig::default() });
    let victim = NodeId(1);
    let owned = owned_by(&cluster, &keys, victim);
    assert!(!owned.is_empty());

    let r = router.fetch(owned.clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()));
    assert!(cluster.reads(victim) > 0, "the victim served its keys before the crash");

    // Crash without reassignment: the next frame fails over whole and
    // marks the node down.
    cluster.partition_node(victim);
    let r = router.fetch(owned.clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()), "failover keeps demand whole");
    assert_eq!(router.down_nodes(), vec![victim]);

    // Restart under the unchanged map: only the probe can re-admit.
    cluster.restart_node(victim);
    let before = cluster.reads(victim);
    let mut readmitted = false;
    for _ in 0..8 {
        let r = router.fetch(owned.clone(), vec![]);
        assert!(r.blocks.iter().all(|b| b.result.is_ok()));
        if router.down_nodes().is_empty() {
            readmitted = true;
            break;
        }
    }
    assert!(readmitted, "the periodic probe re-admitted the restarted node");
    // The re-admitting frame itself routed to the victim (cold pool →
    // storage reads through its tap).
    assert!(cluster.reads(victim) > before, "the restarted node serves its keys again");
}

/// Membership suspicion routes demand around an unreachable peer
/// *before* any read pays for the discovery, and a successful heartbeat
/// re-admits it.
#[test]
fn isolation_suspects_and_heal_readmits_with_zero_errors() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let cluster = TestCluster::new(3, ShardStrategy::Ring);
    let keys = seed(&cluster, 96);
    let victim = NodeId(2);
    let owned = owned_by(&cluster, &keys, victim);
    assert!(!owned.is_empty());

    cluster.isolate(victim);
    cluster.clock().advance(10);
    cluster.heartbeat_all();
    for id in [NodeId(0), NodeId(1)] {
        assert!(cluster.node(id).unwrap().is_suspect(victim), "{id} suspects the isolated node");
    }

    // Demand lands on a healthy replica up front: zero errors, zero
    // failure-driven fallbacks, and nothing reaches the victim.
    let victim_reads = cluster.reads(victim);
    let mut client = cluster.client(NodeId(0));
    client.open("viewer").unwrap();
    let out = client.fetch(owned.clone(), vec![]).unwrap();
    assert!(out.blocks.iter().all(|b| b.result.is_ok()));
    assert_eq!(cluster.reads(victim), victim_reads, "the suspect node saw no demand");

    cluster.heal(victim);
    cluster.clock().advance(10);
    cluster.heartbeat_all();
    for id in [NodeId(0), NodeId(1)] {
        assert!(!cluster.node(id).unwrap().is_suspect(victim), "{id} re-admitted after heal");
    }

    let trace = viz_telemetry::drain();
    assert!(trace.count(EventKind::HeartbeatSent) >= 4, "heartbeats recorded");
    assert!(trace.count(EventKind::SuspectNode) >= 2, "suspicion recorded");
    assert!(trace.count(EventKind::NodeRecovered) >= 2, "re-admission recorded");
    assert_eq!(
        trace.count(EventKind::PeerFallback),
        0,
        "reads routed around the suspect proactively, not through failure fallback"
    );
    viz_telemetry::set_enabled(false);
}

/// With hedging on, a slow owner does not stall demand: past the
/// threshold the node reads its local replica and answers from
/// whichever source lands first.
#[test]
fn slow_owner_hedged_read_serves_from_local_replica() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let mut cfg = ClusterConfig::deterministic();
    cfg.hedge_after = Some(Duration::from_millis(2));
    let cluster =
        TestCluster::with_configs(2, ShardStrategy::Ring, viz_serve::ServeConfig::default(), cfg);
    let keys = seed(&cluster, 64);
    let slow = NodeId(1);
    let owned: Vec<BlockKey> = owned_by(&cluster, &keys, slow).into_iter().take(4).collect();
    assert!(!owned.is_empty());
    cluster.set_read_delay(slow, Duration::from_millis(50));

    let mut client = cluster.client(NodeId(0));
    client.open("viewer").unwrap();
    let t0 = std::time::Instant::now();
    let out = client.fetch(owned.clone(), vec![]).unwrap();
    let elapsed = t0.elapsed();
    assert!(out.blocks.iter().all(|b| b.result.is_ok()));

    let trace = viz_telemetry::drain();
    assert!(trace.count(EventKind::HedgedRead) >= 1, "the hedge fired");
    // Each primary read sleeps 50ms; the hedged local path answers in
    // ~the 2ms threshold. Generous bound: anything under one primary
    // read proves demand did not wait out the slow chain.
    assert!(
        elapsed < Duration::from_millis(50 * owned.len() as u64),
        "demand stalled: {elapsed:?}"
    );
    viz_telemetry::set_enabled(false);
}

/// A router left behind by a reassignment learns the newer map from its
/// first heartbeat — before any demand fetch pays for the skew.
#[test]
fn stale_router_learns_newer_map_from_heartbeat() {
    let mut cluster = TestCluster::new(3, ShardStrategy::Ring);
    let keys = seed(&cluster, 48);
    let mut router = cluster.router("viewer");
    assert_eq!(router.map().version(), 1);

    cluster.fail_node(NodeId(2)); // survivors install v2; the router still holds v1

    let answered = router.heartbeat();
    assert_eq!(answered, 2, "both survivors answered the heartbeat");
    assert_eq!(router.map().version(), 2, "the heartbeat pulled the newer map");

    let r = router.fetch(keys.clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()));
    assert_eq!(r.rounds, 1, "no failed round needed to discover the reassignment");
}

/// Nodes converge divergent map versions through heartbeat
/// anti-entropy: each behind node pulls off the Pong of the peer that is
/// ahead, within one heartbeat round.
#[test]
fn nodes_converge_map_versions_through_heartbeats() {
    let cluster = TestCluster::new(3, ShardStrategy::Ring);
    seed(&cluster, 16);
    let newer = cluster.map().without(NodeId(2));
    assert_eq!(newer.version(), 2);
    assert!(cluster.node(NodeId(0)).unwrap().install_map(newer));
    assert_eq!(cluster.node(NodeId(1)).unwrap().map().version(), 1);
    assert_eq!(cluster.node(NodeId(2)).unwrap().map().version(), 1);

    cluster.heartbeat_all();

    for id in [0u32, 1, 2] {
        assert_eq!(
            cluster.node(NodeId(id)).unwrap().map().version(),
            2,
            "node {id} converged after one heartbeat round"
        );
    }
}

/// Join choreography over [`viz_cluster::ShardMap::with`]: bounded key
/// movement (only keys the newcomer gains move), zero demand errors for
/// a router still holding the pre-join map, and the newcomer actually
/// serving once the router catches up.
#[test]
fn join_moves_only_gained_keys_and_serves_during_rebalance() {
    let mut cluster = TestCluster::new(3, ShardStrategy::Ring);
    let keys = seed(&cluster, 128);
    let mut router = cluster.router("viewer");
    let before: Vec<Option<NodeId>> = keys.iter().map(|&k| cluster.map().owner(k)).collect();

    let r = router.fetch(keys.clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()));

    let v = cluster.join_node(NodeId(3));
    assert_eq!(v, 2);

    let mut gained = 0;
    for (i, &k) in keys.iter().enumerate() {
        let now = cluster.map().owner(k);
        if now != before[i] {
            assert_eq!(now, Some(NodeId(3)), "key {i} moved to a node other than the joiner");
            gained += 1;
        }
    }
    assert!(gained > 0, "the joiner took over some keys");
    assert!(gained < keys.len(), "the joiner did not take everything");

    // Stale-router frame mid-rebalance: nodes forward under the new map,
    // demand stays whole.
    let r = router.fetch(keys.clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()), "zero errors mid-rebalance");

    router.heartbeat();
    assert_eq!(router.map().version(), 2, "heartbeat anti-entropy reached the router");
    let joiner_reads = cluster.reads(NodeId(3));
    let r = router.fetch(keys.clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()));
    assert_eq!(r.rounds, 1);
    assert!(cluster.reads(NodeId(3)) > joiner_reads, "the joiner serves its gained keys");
}
