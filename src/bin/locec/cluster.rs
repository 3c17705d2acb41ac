//! `locec coordinate` and `locec worker`: Phase I across processes.

use super::{vobj, Args, CliError, RunReport, Value, Verb};
use locec::cluster::frame::FrameType;
use locec::cluster::{
    run_worker, CoordinateConfig, CoordinateStats, Coordinator, FaultPlan, RetryPolicy,
    WorkerMetrics, WorkerOptions, WorkerSpawn,
};
use locec::store::{save_division, StoredWorld};
use std::path::PathBuf;

pub const COORDINATE: Verb = Verb {
    flags: "world out workers listen tasks lease-timeout-ms stall-timeout-ms heartbeat-ms \
            checkpoint checkpoint-every-ms resume secret fault-plan worker-fault-plan fault-seed",
    switches: "ship-world",
    config: true,
    ..Verb::new("coordinate", coordinate)
};

pub const WORKER: Verb = Verb {
    flags: "connect threads secret retry-max retry-base-ms retry-cap-ms fault-plan fault-seed",
    ..Verb::new("worker", worker)
};

/// `locec coordinate`: distributed Phase I. Spawns local worker processes
/// (re-running this same binary with the `worker` subcommand), accepts any
/// remote workers that connect, leases ego ranges dynamically, merges
/// shard results as they stream in, and writes a division snapshot
/// byte-identical to a single-process `locec divide`.
fn coordinate(p: &Args, report: &mut RunReport) -> Result<(), CliError> {
    let world = p.path("world")?;
    let out = p.path("out")?;
    let config = p.locec_config()?;
    let workers = p.num::<usize>("workers")?.unwrap_or(2);
    let fault_seed = p.num::<u64>("fault-seed")?.unwrap_or(0);
    let graph = StoredWorld::load_graph(&world)?;

    let mut cfg = CoordinateConfig::new(config, workers);
    if let Some(listen) = p.str("listen") {
        cfg.listen = listen.to_owned();
    }
    if workers > 0 {
        let program =
            std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        // Spawned workers inherit the shared secret and, when asked, their
        // own deterministic fault plan.
        let mut worker_args = Vec::new();
        if let Some(secret) = p.str("secret") {
            worker_args.extend(["--secret".to_owned(), secret.to_owned()]);
        }
        if let Some(spec) = p.str("worker-fault-plan") {
            FaultPlan::parse(spec, fault_seed)?; // fail at launch, not in children
            worker_args.extend([
                "--fault-plan".to_owned(),
                spec.to_owned(),
                "--fault-seed".to_owned(),
                fault_seed.to_string(),
            ]);
        }
        cfg.spawn = Some(WorkerSpawn {
            program,
            worker_args,
        });
    }
    cfg.explicit_tasks = p.num::<u32>("tasks")?;
    cfg.lease_timeout = p
        .millis("lease-timeout-ms", 100)?
        .unwrap_or(cfg.lease_timeout);
    cfg.stall_timeout = p
        .millis("stall-timeout-ms", 100)?
        .unwrap_or(cfg.stall_timeout);
    cfg.heartbeat_interval = p.millis("heartbeat-ms", 10)?.or(cfg.heartbeat_interval);
    cfg.checkpoint = p.str("checkpoint").map(PathBuf::from);
    cfg.checkpoint_every = p
        .millis("checkpoint-every-ms", 0)?
        .unwrap_or(cfg.checkpoint_every);
    cfg.resume_from = p.str("resume").map(PathBuf::from);
    cfg.secret = p.str("secret").map(str::to_owned);
    cfg.fault_plan = p
        .str("fault-plan")
        .map(|spec| FaultPlan::parse(spec, fault_seed))
        .transpose()?;
    cfg.ship_world_bytes = p.has("ship-world");

    // Local workers load the world by path; shipping bytes supports
    // remote-only setups with no shared filesystem.
    let world_path = if cfg.ship_world_bytes {
        None
    } else {
        // Workers may run in another working directory: hand them an
        // absolute path.
        Some(
            world
                .canonicalize()
                .map_err(|e| format!("{}: {e}", world.display()))?,
        )
    };
    let mut coordinator = Coordinator::bind(world_path, graph, cfg)?;
    println!(
        "coordinate: listening on {} ({} local workers)",
        coordinator.local_addr(),
        workers
    );
    let outcome = coordinator.run()?;
    save_division(&out, coordinator.graph(), &outcome.division)?;
    let s = &outcome.stats;
    cluster_sections(report, s);
    println!(
        "coordinate: {} tasks over {} workers ({} requeued, {} duplicate shards, \
         {} respawns, {} reconnects, {} checkpoints) -> {} communities in {:.3}s -> {}",
        s.tasks,
        s.workers_seen,
        s.requeues,
        s.duplicates_dropped,
        s.respawns,
        s.reconnects,
        s.checkpoints_written,
        outcome.division.num_communities(),
        s.wall.as_secs_f64(),
        out.display()
    );
    Ok(())
}

/// `locec worker`: one cluster worker. Normally spawned by `coordinate`,
/// but equally happy connecting across machines.
fn worker(p: &Args, report: &mut RunReport) -> Result<(), CliError> {
    let addr = p.str("connect").ok_or("missing required --connect")?;
    let fault_seed = p.num::<u64>("fault-seed")?.unwrap_or(0);
    let default = RetryPolicy::default();
    let retry = RetryPolicy {
        max_reconnects: p.num("retry-max")?.unwrap_or(default.max_reconnects),
        base: p.millis("retry-base-ms", 1)?.unwrap_or(default.base),
        cap: p.millis("retry-cap-ms", 1)?.unwrap_or(default.cap),
        seed: fault_seed,
    };
    let opts = WorkerOptions {
        threads: p.num::<usize>("threads")?,
        fault_plan: p
            .str("fault-plan")
            .map(|spec| FaultPlan::parse(spec, fault_seed))
            .transpose()?,
        secret: p.str("secret").map(str::to_owned),
        retry,
    };
    let metrics = run_worker(addr, &opts)?;
    report.set_section("worker", worker_metrics_obj(None, &metrics));
    println!(
        "worker: completed {} leases ({} egos divided, {} reconnects, {} faults fired)",
        metrics.leases_completed, metrics.egos_divided, metrics.reconnects, metrics.faults_fired
    );
    Ok(())
}

/// A per-frame-type counter array rendered as `{"hello": 1, ...}`, keyed
/// by the wire spelling. Slot 0 is unused by the protocol and omitted.
fn frames_obj(frames: &[u64; 8]) -> Value {
    let mut fields = Vec::new();
    for (slot, &n) in frames.iter().enumerate() {
        if let Some(ft) = FrameType::from_u8(slot as u8) {
            fields.push((ft.name().to_owned(), Value::Uint(n)));
        }
    }
    Value::Object(fields)
}

/// One worker's cumulative self-observed metrics block, led by its id in
/// the coordinator's `workers` section.
fn worker_metrics_obj(id: Option<u64>, m: &WorkerMetrics) -> Value {
    let id = id.map(|id| ("worker_id", Value::Uint(id)));
    vobj(id.into_iter().chain([
        ("egos_divided", Value::Uint(m.egos_divided)),
        ("leases_completed", Value::Uint(m.leases_completed)),
        ("compute_nanos", Value::Uint(m.compute_nanos)),
        ("wire_nanos", Value::Uint(m.wire_nanos)),
        ("bytes_sent", Value::Uint(m.bytes_sent)),
        ("bytes_received", Value::Uint(m.bytes_received)),
        ("frames_sent", frames_obj(&m.frames_sent)),
        ("frames_received", frames_obj(&m.frames_received)),
        ("frames_dropped", frames_obj(&m.frames_dropped)),
        ("reconnects", Value::Uint(m.reconnects)),
        ("faults_fired", Value::Uint(m.faults_fired)),
    ]))
}

/// The `cluster` + `workers` report sections from a coordination's run
/// record.
fn cluster_sections(report: &mut RunReport, s: &CoordinateStats) {
    let lease_total: u64 = s.lease_walls.iter().map(|&(_, ns)| ns).sum();
    let lease_max = s.lease_walls.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
    report.set_section(
        "cluster",
        vobj(vec![
            ("wall_seconds", Value::Float(s.wall.as_secs_f64())),
            ("tasks", Value::Uint(u64::from(s.tasks))),
            ("workers_seen", Value::Uint(s.workers_seen)),
            ("requeues", Value::Uint(s.requeues)),
            ("duplicates_dropped", Value::Uint(s.duplicates_dropped)),
            ("respawns", Value::Uint(u64::from(s.respawns))),
            ("reconnects", Value::Uint(s.reconnects)),
            ("checkpoints_written", Value::Uint(s.checkpoints_written)),
            ("frames_sent", frames_obj(&s.frames_sent)),
            ("frames_received", frames_obj(&s.frames_received)),
            ("frames_dropped", frames_obj(&s.frames_dropped)),
            ("bytes_sent", Value::Uint(s.bytes_sent)),
            ("bytes_received", Value::Uint(s.bytes_received)),
            ("faults_fired", Value::Uint(s.faults_fired)),
            ("merge_nanos", Value::Uint(s.merge_nanos)),
            ("leases_timed", Value::Uint(s.lease_walls.len() as u64)),
            ("lease_wall_nanos_total", Value::Uint(lease_total)),
            ("lease_wall_nanos_max", Value::Uint(lease_max)),
        ]),
    );
    report.set_section(
        "workers",
        Value::Array(
            s.workers
                .iter()
                .map(|(id, m)| worker_metrics_obj(Some(*id), m))
                .collect(),
        ),
    );
}
