//! End-to-end coordinator/worker runs with in-process workers (threads
//! running `run_worker` against a real TCP coordinator). Process-level
//! runs — including killing a worker process mid-lease and the full chaos
//! soak — live in the facade's `tests/cluster.rs` and `tests/chaos.rs`,
//! which can spawn the `locec` binary.

use locec_cluster::frame::FrameType;
use locec_cluster::protocol::DivideParams;
use locec_cluster::{
    run_worker, ClusterError, CoordinateConfig, CoordinateOutcome, Coordinator, FaultPlan,
    RejectReason, RetryPolicy, WorkerOptions,
};
use locec_core::phase1::{divide, DivisionResult};
use locec_core::LocecConfig;
use locec_store::{save_division_checkpoint, DivisionCheckpoint, DivisionShard};
use locec_synth::{Scenario, SynthConfig};
use std::time::Duration;

fn assert_division_eq(a: &DivisionResult, b: &DivisionResult) {
    assert_eq!(a.num_communities(), b.num_communities());
    for (x, y) in a.communities.iter().zip(&b.communities) {
        assert_eq!(x.ego, y.ego);
        assert_eq!(x.members, y.members);
        assert_eq!(
            x.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            y.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }
    assert_eq!(a.membership_table(), b.membership_table());
}

/// A worker that gives up on the first connection loss (the
/// pre-reconnect behavior) running the given fault plan.
fn doomed(plan: &str) -> WorkerOptions {
    WorkerOptions {
        fault_plan: Some(FaultPlan::parse(plan, 7).unwrap()),
        retry: RetryPolicy {
            max_reconnects: 0,
            ..RetryPolicy::default()
        },
        ..WorkerOptions::default()
    }
}

/// Runs a coordination with `healthy` plain workers plus the given faulty
/// ones, all in-process, shipping the world inline. Returns the outcome
/// and the single-process division it must equal.
fn coordinate_with(
    seed: u64,
    healthy: usize,
    faulty: Vec<WorkerOptions>,
    lease_timeout: Duration,
    explicit_tasks: Option<u32>,
) -> (CoordinateOutcome, DivisionResult) {
    let scenario = Scenario::generate(&SynthConfig::tiny(seed));
    let config = LocecConfig {
        threads: 1,
        ..LocecConfig::fast()
    };
    let expected = divide(&scenario.graph, &config);

    let mut cfg = CoordinateConfig::new(config, 0);
    cfg.ship_world_bytes = true;
    cfg.lease_timeout = lease_timeout;
    cfg.explicit_tasks = explicit_tasks;
    cfg.stall_timeout = Duration::from_secs(60);
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();

    let mut handles = Vec::new();
    for opts in faulty {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || run_worker(&addr, &opts)));
    }
    for _ in 0..healthy {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            run_worker(&addr, &WorkerOptions::default())
        }));
    }

    let outcome = coordinator.run().expect("coordination completes");
    for h in handles {
        // Worker threads end when the coordinator shuts their sockets down;
        // faulty ones return errors by design.
        let _ = h.join().expect("worker thread not poisoned");
    }
    (outcome, expected)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("locec_inproc_{}_{name}", std::process::id()));
    p
}

#[test]
fn cluster_divide_matches_single_process_bit_for_bit() {
    let (outcome, expected) = coordinate_with(41, 3, Vec::new(), Duration::from_secs(10), Some(11));
    assert_division_eq(&outcome.division, &expected);
    let stats = &outcome.stats;
    assert_eq!(stats.tasks, 11);
    assert_eq!(stats.workers_seen, 3);
    assert_eq!(stats.requeues, 0);
    assert_eq!(stats.duplicates_dropped, 0);

    // The run record: one lease wall per task, one metrics block per
    // worker, and the two agree on which worker did which lease.
    assert_eq!(stats.lease_walls.len(), 11, "{stats:?}");
    assert_eq!(stats.workers.len(), 3, "{stats:?}");
    let completed: u64 = stats.workers.iter().map(|(_, m)| m.leases_completed).sum();
    assert_eq!(completed, 11, "{stats:?}");
    for (id, m) in &stats.workers {
        let walls = stats.lease_walls.iter().filter(|(w, _)| w == id).count();
        assert_eq!(m.leases_completed, walls as u64, "worker #{id}: {stats:?}");
    }
    assert_eq!(stats.frames_sent[FrameType::Lease as usize], 11);
    assert_eq!(stats.frames_received[FrameType::ShardResult as usize], 11);
}

#[test]
fn single_worker_cluster_still_completes() {
    let (outcome, expected) = coordinate_with(42, 1, Vec::new(), Duration::from_secs(10), None);
    assert_division_eq(&outcome.division, &expected);
    assert!(outcome.stats.tasks >= 1);
}

#[test]
fn abrupt_worker_death_mid_lease_is_requeued_and_result_is_identical() {
    // One worker's connection dies the moment it receives its first lease
    // (the wire behavior of a killed process); with no retry budget it
    // stays dead, and the healthy worker absorbs the re-queued range.
    let faulty = vec![doomed("lease:1:disconnect")];
    let (outcome, expected) = coordinate_with(43, 1, faulty, Duration::from_secs(10), Some(6));
    assert_division_eq(&outcome.division, &expected);
    let stats = &outcome.stats;
    assert!(
        stats.requeues >= 1,
        "the dead worker's lease must be re-queued (stats: {stats:?})"
    );
    // The re-queued task is timed once, by the lease that delivered it.
    assert_eq!(stats.lease_walls.len(), 6, "{stats:?}");
}

#[test]
fn hung_worker_lease_times_out_and_is_requeued() {
    // One worker wedges on its first lease — connection open, heartbeats
    // swallowed by the stall. The coordinator must expire the lease, cut
    // the worker off and re-queue the range.
    let faulty = vec![doomed("lease:1:stall")];
    let (outcome, expected) = coordinate_with(44, 1, faulty, Duration::from_millis(400), Some(6));
    assert_division_eq(&outcome.division, &expected);
    let stats = &outcome.stats;
    assert!(
        stats.requeues >= 1,
        "the hung worker's lease must time out and re-queue (stats: {stats:?})"
    );
}

#[test]
fn worker_reconnects_after_a_truncated_result_and_the_run_completes() {
    // The only worker truncates its first shard-result mid-frame (a torn
    // TCP stream), reconnects with its prior identity, and re-delivers.
    // The division must still match single-process output bit for bit.
    let faulty = vec![WorkerOptions {
        fault_plan: Some(FaultPlan::parse("shard-result:1:truncate", 11).unwrap()),
        retry: RetryPolicy {
            max_reconnects: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(200),
            seed: 1,
        },
        ..WorkerOptions::default()
    }];
    let (outcome, expected) = coordinate_with(45, 0, faulty, Duration::from_secs(10), Some(6));
    assert_division_eq(&outcome.division, &expected);
    let stats = &outcome.stats;
    assert!(
        stats.reconnects >= 1,
        "the worker must resume its prior identity (stats: {stats:?})"
    );
    assert!(
        stats.requeues >= 1,
        "the torn result's lease must be re-queued (stats: {stats:?})"
    );
}

#[test]
fn worker_returns_promptly_when_the_run_ends_mid_heartbeat_interval() {
    // The heartbeat thread must wake when its connection ends, not sleep
    // out the interval: with a 30 s cadence the worker may not outlive the
    // coordinator's run by more than a few seconds.
    let scenario = Scenario::generate(&SynthConfig::tiny(49));
    let config = LocecConfig {
        threads: 1,
        ..LocecConfig::fast()
    };
    let mut cfg = CoordinateConfig::new(config, 1);
    cfg.ship_world_bytes = true;
    cfg.heartbeat_interval = Some(Duration::from_secs(30));
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(run_worker(&addr, &WorkerOptions::default()));
    });
    coordinator.run().expect("coordination completes");
    let metrics = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("the worker returns within 5 s of the run's end")
        .expect("worker succeeds");
    worker.join().expect("worker thread not poisoned");
    assert!(metrics.leases_completed >= 1);
}

#[test]
fn authenticated_handshake_accepts_the_secret_and_rejects_the_rest() {
    let scenario = Scenario::generate(&SynthConfig::tiny(46));
    let config = LocecConfig {
        threads: 1,
        ..LocecConfig::fast()
    };
    let expected = divide(&scenario.graph, &config);

    let mut cfg = CoordinateConfig::new(config.clone(), 0);
    cfg.ship_world_bytes = true;
    cfg.explicit_tasks = Some(4);
    cfg.stall_timeout = Duration::from_secs(60);
    cfg.secret = Some("open sesame".into());
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();

    let no_retry = RetryPolicy {
        max_reconnects: 0,
        ..RetryPolicy::default()
    };
    let spawn_with = |opts: WorkerOptions| {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&addr, &opts))
    };
    let good = spawn_with(WorkerOptions {
        secret: Some("open sesame".into()),
        ..WorkerOptions::default()
    });
    let wrong = spawn_with(WorkerOptions {
        secret: Some("swordfish".into()),
        retry: no_retry,
        ..WorkerOptions::default()
    });
    let unauthenticated = spawn_with(WorkerOptions {
        retry: no_retry,
        ..WorkerOptions::default()
    });

    let outcome = coordinator.run().expect("coordination completes");
    assert_division_eq(&outcome.division, &expected);
    assert_eq!(
        outcome.stats.workers_seen, 1,
        "rejected peers must never count as workers"
    );
    good.join().unwrap().expect("authenticated worker succeeds");
    for handle in [wrong, unauthenticated] {
        let err = handle.join().unwrap().unwrap_err();
        assert!(
            matches!(err, ClusterError::Rejected(RejectReason::Auth)),
            "expected a typed auth rejection, got: {err}"
        );
    }

    // The mirror failure: a worker demanding a secret from a coordinator
    // that has none must refuse the unproven Welcome.
    let mut cfg = CoordinateConfig::new(config, 0);
    cfg.ship_world_bytes = true;
    cfg.explicit_tasks = Some(4);
    cfg.stall_timeout = Duration::from_secs(60);
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let addr2 = addr.clone();
    let suspicious = std::thread::spawn(move || {
        run_worker(
            &addr2,
            &WorkerOptions {
                secret: Some("open sesame".into()),
                retry: RetryPolicy {
                    max_reconnects: 0,
                    ..RetryPolicy::default()
                },
                ..WorkerOptions::default()
            },
        )
    });
    let plain = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    coordinator.run().expect("coordination completes");
    let err = suspicious.join().unwrap().unwrap_err();
    assert!(
        matches!(err, ClusterError::AuthFailed(_)),
        "expected AuthFailed, got: {err}"
    );
    let _ = plain.join().unwrap();
}

#[test]
fn checkpoint_resume_completes_without_workers() {
    let scenario = Scenario::generate(&SynthConfig::tiny(47));
    let config = LocecConfig {
        threads: 1,
        ..LocecConfig::fast()
    };
    let expected = divide(&scenario.graph, &config);
    let ckpt = tmp("complete.lsnap");

    let mut cfg = CoordinateConfig::new(config.clone(), 0);
    cfg.ship_world_bytes = true;
    cfg.explicit_tasks = Some(5);
    cfg.stall_timeout = Duration::from_secs(60);
    cfg.checkpoint = Some(ckpt.clone());
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    let outcome = coordinator.run().expect("coordination completes");
    worker.join().unwrap().expect("worker succeeds");
    assert!(
        outcome.stats.checkpoints_written >= 1,
        "default cadence checkpoints every absorption (stats: {:?})",
        outcome.stats
    );

    // The final checkpoint covers every range: a resume needs no workers
    // at all and must reproduce the division bit for bit.
    let mut cfg = CoordinateConfig::new(config, 0);
    cfg.ship_world_bytes = true;
    cfg.explicit_tasks = Some(99); // ignored: the checkpoint's tiling wins
    cfg.stall_timeout = Duration::from_secs(5);
    cfg.resume_from = Some(ckpt.clone());
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let outcome = coordinator.run().expect("resume completes with no workers");
    assert_division_eq(&outcome.division, &expected);
    assert_eq!(
        outcome.stats.tasks, 5,
        "task tiling comes from the checkpoint"
    );
    assert_eq!(outcome.stats.workers_seen, 0);
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn partial_checkpoint_resume_requeues_only_uncovered_tasks() {
    let scenario = Scenario::generate(&SynthConfig::tiny(48));
    let config = LocecConfig {
        threads: 1,
        ..LocecConfig::fast()
    };
    let expected = divide(&scenario.graph, &config);
    let n = scenario.graph.num_nodes();
    let params = DivideParams::from_config(&config);

    // Hand-build the checkpoint of a run that died after absorbing tasks
    // 0..3 of 6: merged coverage [0, b), communities spliced up to b.
    let covered_end = DivisionShard::ego_range(2, 6, n).end;
    let ckpt_path = tmp("partial.lsnap");
    save_division_checkpoint(
        &ckpt_path,
        &DivisionCheckpoint {
            num_nodes: n as u32,
            task_count: 6,
            detector: params.detector,
            seed: params.seed,
            gn_max_friends: params.gn_max_friends,
            merged: vec![(0, covered_end)],
            communities: expected
                .communities
                .iter()
                .take_while(|c| c.ego.0 < covered_end)
                .cloned()
                .collect(),
        },
    )
    .unwrap();

    let mut cfg = CoordinateConfig::new(config, 0);
    cfg.ship_world_bytes = true;
    cfg.stall_timeout = Duration::from_secs(60);
    cfg.resume_from = Some(ckpt_path.clone());
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    let outcome = coordinator.run().expect("resume completes");
    let metrics = worker.join().unwrap().expect("worker succeeds");

    assert_division_eq(&outcome.division, &expected);
    assert_eq!(outcome.stats.tasks, 6);
    assert_eq!(
        metrics.egos_divided,
        u64::from(n as u32 - covered_end),
        "only the uncovered tail may be re-divided"
    );
    std::fs::remove_file(&ckpt_path).ok();
}

#[test]
fn version_mismatch_is_rejected_by_the_worker() {
    // A worker pointed at something that is not a coordinator fails with a
    // typed error instead of hanging: here, a socket that closes without a
    // Welcome (no retry budget, as a real deployment's first probe).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
    });
    let opts = WorkerOptions {
        retry: RetryPolicy {
            max_reconnects: 0,
            ..RetryPolicy::default()
        },
        ..WorkerOptions::default()
    };
    let err = run_worker(&addr, &opts).unwrap_err();
    server.join().unwrap();
    assert!(
        matches!(
            err,
            ClusterError::ConnectionClosed | ClusterError::Protocol(_) | ClusterError::Io(_)
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn coordination_with_no_workers_stalls_with_a_typed_error() {
    // One worker joins, dies on its first lease, and nobody replaces it:
    // the coordinator must fail with a Stalled diagnosis naming the dead
    // worker's last-known state instead of hanging forever.
    let scenario = Scenario::generate(&SynthConfig::tiny(44));
    let config = LocecConfig {
        threads: 1,
        ..LocecConfig::fast()
    };
    let mut cfg = CoordinateConfig::new(config, 0);
    cfg.ship_world_bytes = true;
    cfg.explicit_tasks = Some(4);
    cfg.lease_timeout = Duration::from_millis(300);
    cfg.stall_timeout = Duration::from_millis(700);
    let mut coordinator = Coordinator::bind(None, scenario.graph.clone(), cfg).unwrap();
    let addr = coordinator.local_addr().to_string();
    let h = std::thread::spawn(move || run_worker(&addr, &doomed("lease:1:disconnect")));
    let err = match coordinator.run() {
        Ok(_) => panic!("must stall, not complete"),
        Err(e) => e,
    };
    let _ = h.join().expect("worker thread not poisoned");
    match err {
        ClusterError::Stalled(msg) => {
            assert!(msg.contains("absorbed"), "no task progress in: {msg}");
            assert!(msg.contains("worker #1"), "no per-worker state in: {msg}");
            assert!(msg.contains("disconnected"), "no liveness in: {msg}");
            assert!(
                msg.contains("lease(s) completed"),
                "no lease count in: {msg}"
            );
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}
