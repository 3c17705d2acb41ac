//! The coordinator: accepts workers, hands out leases, merges shard
//! results as they stream in, and survives worker failure — including its
//! own, via checkpoint-resume.
//!
//! ## Threads
//!
//! One accept thread (blocking `accept`, woken by [`wake_accept`]) and
//! one reader thread per connection feed a single `mpsc` event channel;
//! the coordinator's own thread is the only writer to worker sockets and
//! the only mutator of queue/merge state, so there is no shared-state
//! locking beyond the channel and the shard gate.
//!
//! Each piece of run state lives in one place. The worker table holds a
//! worker's write half (gone once the worker is cut off), its last
//! heartbeat and its last metrics block; the work queue holds each lease,
//! grant time included; the coordinator's one [`FaultyTransport`] meters
//! every frame it writes and its readers receive; and the
//! [`CoordinateStats`] run record is filled from these as the run ends.
//!
//! ## Streaming merge and the shard gate
//!
//! Shard results are spliced into the growing division the moment they
//! arrive ([`locec_store::IncrementalMerge`]), never collected. To make the
//! "one unmerged shard in memory" bound real rather than probabilistic,
//! reader threads must acquire a single-permit `Gate` *before* reading a
//! shard payload off the wire; the permit is returned only after the
//! coordinator has absorbed (or deduped) that shard. Readers announce the
//! incoming result first, so the lease deadline of a worker queued at the
//! gate is suspended rather than expiring mid-transfer.
//!
//! ## Failure semantics
//!
//! A worker that disconnects, misses its lease deadline (heartbeats
//! refresh it), delivers a bad result or fails a write is cut off through
//! one path: its socket is shut down and its leases are re-queued at the
//! front of the work queue. A worker whose heartbeats report it *idle*
//! while it nominally holds a lease lost that lease (or its result) in
//! transit, and the task is re-queued without waiting out the deadline. A
//! reconnecting worker presents its prior worker id and this run's nonce,
//! so its dead incarnation is cut off and its leases re-queued at once.
//! Re-queues can race a slow delivery, so absorption is idempotent: a
//! result for a task already absorbed is dropped and counted before it
//! reaches the merge, which itself never absorbs a range twice. If the
//! coordinator spawned local workers, dead ones are respawned from a
//! bounded budget; when the budget is exhausted and no worker remains,
//! coordination fails with a typed error carrying each worker's
//! last-known state instead of hanging.
//!
//! ## Checkpoint-resume
//!
//! With [`CoordinateConfig::checkpoint`] set, the absorbed merge state is
//! persisted after absorptions (throttled by
//! [`CoordinateConfig::checkpoint_every`]) as an atomic
//! [`locec_store::DivisionCheckpoint`] snapshot. A restarted coordinator
//! pointed at that file via [`CoordinateConfig::resume_from`] re-queues
//! only the tasks whose ranges the checkpoint does not cover — the divide
//! parameters are cross-checked so a resume under a different
//! configuration is a typed error, never a silently mixed division.

use crate::fault::{splitmix64, FaultPlan, FaultyTransport};
use crate::frame::{read_header, read_payload, write_frame, FrameType};
use crate::protocol::{
    decode_heartbeat, decode_hello, decode_shard_result, encode_lease, encode_reject,
    encode_welcome, handshake_mac, DivideParams, Hello, Lease, RejectReason, Welcome,
    WorkerMetrics, WorldPayload, AUTH_KEYED, PROTOCOL_VERSION,
};
use crate::queue::WorkQueue;
use crate::ClusterError;
use locec_core::phase1::DivisionResult;
use locec_core::LocecConfig;
use locec_graph::CsrGraph;
use locec_obs::metrics::saturating_nanos;
use locec_store::{
    load_division_checkpoint, save_division_checkpoint, shard_from_bytes, DivisionCheckpoint,
    IncrementalMerge, StoredWorld,
};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How to launch a local worker process: `program worker --connect ADDR
/// [worker_args…]`.
#[derive(Clone, Debug)]
pub struct WorkerSpawn {
    /// The binary to execute (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments appended after `worker --connect ADDR` — how spawned
    /// workers get their own `--fault-plan`, `--secret` or retry flags.
    pub worker_args: Vec<String>,
}

/// Work-queue granularity: tasks per (expected) worker. Tasks are
/// deliberately smaller than `1/workers` of the ego range so fast workers
/// dynamically steal more of the skew.
const TASKS_PER_WORKER: u32 = 4;

/// Replacement spawns allowed after local workers die.
const MAX_RESPAWNS: u32 = 8;

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordinateConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`Coordinator::local_addr`]).
    pub listen: String,
    /// Local worker processes to spawn (0 = wait for external workers).
    pub local_workers: usize,
    /// How to spawn local workers; `None` disables spawning (and
    /// respawning) regardless of `local_workers`.
    pub spawn: Option<WorkerSpawn>,
    /// Explicit total task count, overriding the default of four tasks per
    /// local worker.
    pub explicit_tasks: Option<u32>,
    /// A lease with no heartbeat for this long is re-queued and its worker
    /// declared dead.
    pub lease_timeout: Duration,
    /// Cadence of both directions' liveness pings; `None` derives
    /// `lease_timeout / 4`.
    pub heartbeat_interval: Option<Duration>,
    /// Ship the (graph-only) world inline in the Welcome instead of a
    /// snapshot path — for workers that share no filesystem.
    pub ship_world_bytes: bool,
    /// Give up when no worker is connected and nothing has happened for
    /// this long.
    pub stall_timeout: Duration,
    /// Persist the merge state here after absorptions (atomic
    /// write-then-rename), making the run resumable after a crash.
    pub checkpoint: Option<PathBuf>,
    /// Minimum time between checkpoint writes; zero (the default)
    /// checkpoints after every absorbed shard.
    pub checkpoint_every: Duration,
    /// Resume from a checkpoint written by an earlier run over the same
    /// world and divide parameters: only uncovered tasks are re-queued.
    pub resume_from: Option<PathBuf>,
    /// Shared secret for the authenticated handshake; workers that do not
    /// prove it are rejected with a typed reason.
    pub secret: Option<String>,
    /// Deterministic fault injection on the coordinator's outgoing frames.
    pub fault_plan: Option<FaultPlan>,
    /// The divide configuration (Phase-I-relevant fields are shipped to
    /// workers; `threads` also sizes the final membership-table build).
    pub divide: LocecConfig,
}

impl CoordinateConfig {
    /// Defaults for a local run of `workers` processes.
    pub fn new(divide: LocecConfig, workers: usize) -> Self {
        CoordinateConfig {
            listen: "127.0.0.1:0".into(),
            local_workers: workers,
            spawn: None,
            explicit_tasks: None,
            lease_timeout: Duration::from_secs(10),
            heartbeat_interval: None,
            ship_world_bytes: false,
            stall_timeout: Duration::from_secs(300),
            checkpoint: None,
            checkpoint_every: Duration::ZERO,
            resume_from: None,
            secret: None,
            fault_plan: None,
            divide,
        }
    }
}

/// The record of one coordination run — everything the `--report` JSON's
/// `cluster` and `workers` sections are built from. Worker blocks are the
/// cumulative [`WorkerMetrics`] each worker last piggybacked on a
/// Heartbeat or ShardResult frame, so the coordinator's view covers the
/// fleet without extra round-trips.
#[derive(Clone, Debug, Default)]
pub struct CoordinateStats {
    /// Total tasks in the queue.
    pub tasks: u32,
    /// Workers that completed a *first* handshake (reconnects excluded).
    pub workers_seen: u64,
    /// Tasks re-queued after lease loss.
    pub requeues: u64,
    /// Duplicate shard deliveries dropped.
    pub duplicates_dropped: u64,
    /// Replacement local workers spawned.
    pub respawns: u32,
    /// Handshakes that resumed a prior worker identity of this run.
    pub reconnects: u64,
    /// Checkpoint snapshots written.
    pub checkpoints_written: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Last metrics block shipped by each worker, sorted by worker id.
    pub workers: Vec<(u64, WorkerMetrics)>,
    /// Per-lease wall time, lease grant → shard absorbed, tagged with the
    /// worker that delivered it. A task re-queued and redone elsewhere is
    /// timed by the grant that delivers it; a result that arrives after
    /// its lease was re-queued is absorbed untimed.
    pub lease_walls: Vec<(u64, u64)>,
    /// Total nanos the coordinator thread spent absorbing shards into the
    /// streaming merge.
    pub merge_nanos: u64,
    /// Frames the coordinator wrote, by `FrameType as u8` slot.
    pub frames_sent: [u64; 8],
    /// Frames the coordinator's readers received, by slot.
    pub frames_received: [u64; 8],
    /// Frames swallowed by coordinator-side injected faults, by slot.
    pub frames_dropped: [u64; 8],
    /// Payload bytes the coordinator wrote.
    pub bytes_sent: u64,
    /// Payload bytes the coordinator's readers received.
    pub bytes_received: u64,
    /// Coordinator-side fault-plan rules that fired.
    pub faults_fired: u64,
}

/// What a successful coordination returns.
pub struct CoordinateOutcome {
    /// The merged division — bit-identical to a single-process
    /// [`locec_core::phase1::divide`] of the same graph.
    pub division: DivisionResult,
    /// The run record.
    pub stats: CoordinateStats,
}

/// Events the accept/reader threads feed the coordinator.
enum Event {
    Connected {
        id: u64,
        hello: Hello,
        stream: TcpStream,
    },
    Heartbeat {
        id: u64,
        busy: bool,
        /// Boxed: the metrics block is several times the other variants.
        metrics: Box<WorkerMetrics>,
    },
    ResultIncoming {
        id: u64,
    },
    Result {
        id: u64,
        payload: Vec<u8>,
    },
    Disconnected {
        id: u64,
    },
}

/// One worker that completed a handshake this run. Entries outlive the
/// connection, so a run that dies with [`ClusterError::Stalled`] says
/// what each worker was last seen doing instead of just "no progress",
/// and the run record keeps every worker's metrics block.
struct Worker {
    /// The coordinator's write half; `None` once the worker is cut off.
    stream: Option<TcpStream>,
    last_heartbeat: Instant,
    /// Last cumulative metrics block this worker shipped (heartbeats and
    /// shard results both carry one; last value wins).
    metrics: WorkerMetrics,
}

/// A single-permit gate bounding how many unmerged shard payloads exist in
/// coordinator memory at once. `close` releases all waiters (they abandon
/// their reads) so shutdown never strands a reader thread.
struct Gate {
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Gate {
            state: Mutex::new((permits, false)),
            cv: Condvar::new(),
        }
    }

    /// Blocks for a permit; `false` means the gate closed instead.
    fn acquire(&self) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.1 {
                return false;
            }
            if st.0 > 0 {
                st.0 -= 1;
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.0 += 1;
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.1 = true;
        self.cv.notify_all();
    }
}

/// A bound coordinator: the listener is live (so workers can already
/// connect) but no lease has been handed out until [`Coordinator::run`].
pub struct Coordinator {
    cfg: CoordinateConfig,
    graph: CsrGraph,
    world_path: Option<PathBuf>,
    listener: TcpListener,
    addr: SocketAddr,
    /// Id handed to the next accepted connection. Owned by this
    /// coordinator (not the process), so its first worker is always #1.
    next_worker_id: Arc<AtomicU64>,
}

impl Coordinator {
    /// Binds the listen socket. `world_path` is what path-mode workers are
    /// told to load; it may be `None` only with
    /// [`CoordinateConfig::ship_world_bytes`] set.
    pub fn bind(
        world_path: Option<PathBuf>,
        graph: CsrGraph,
        cfg: CoordinateConfig,
    ) -> Result<Self, ClusterError> {
        if world_path.is_none() && !cfg.ship_world_bytes {
            return Err(ClusterError::Protocol(
                "no world path and ship_world_bytes disabled",
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        Ok(Coordinator {
            cfg,
            graph,
            world_path,
            listener,
            addr,
            next_worker_id: Arc::new(AtomicU64::new(1)),
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The graph the division is computed on.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Runs the coordination to completion: spawn/accept workers, drain the
    /// work queue through leases, merge shards as they stream in, shut
    /// everything down, and return the division.
    pub fn run(&mut self) -> Result<CoordinateOutcome, ClusterError> {
        let started = Instant::now();
        let n = self.graph.num_nodes();
        let params = DivideParams::from_config(&self.cfg.divide);
        // A restart identifies itself with a fresh nonce so worker ids
        // minted by a previous run are never honored by this one.
        let run_nonce = splitmix64(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x6E6F_6E63)
                ^ (u64::from(std::process::id()) << 32),
        );

        let resumed = match &self.cfg.resume_from {
            Some(path) => {
                let ckpt = load_division_checkpoint(path)?;
                if ckpt.num_nodes as usize != n {
                    return Err(ClusterError::Protocol(
                        "resume checkpoint was written for a different world",
                    ));
                }
                if ckpt.detector != params.detector
                    || ckpt.seed != params.seed
                    || ckpt.gn_max_friends != params.gn_max_friends
                {
                    return Err(ClusterError::Protocol(
                        "resume checkpoint was written with different divide parameters",
                    ));
                }
                Some(ckpt)
            }
            None => None,
        };
        let task_count = match &resumed {
            // The checkpoint's tiling wins: covered ranges must align with
            // task boundaries for the mark-done scan below.
            Some(ckpt) => ckpt.task_count,
            None => self
                .cfg
                .explicit_tasks
                .unwrap_or_else(|| {
                    (self.cfg.local_workers.max(1) as u32).saturating_mul(TASKS_PER_WORKER)
                })
                .max(1),
        };
        let mut queue = WorkQueue::new(n, task_count);
        let mut merge = match resumed {
            Some(ckpt) => {
                let merge = IncrementalMerge::resume(&self.graph, ckpt.communities, ckpt.merged)?;
                for t in 0..queue.task_count() {
                    let task = queue.task(t);
                    if merge.range_is_covered(task.start, task.end) {
                        queue.mark_done(t);
                    }
                }
                merge
            }
            None => IncrementalMerge::new(&self.graph),
        };

        let hb_interval = self
            .cfg
            .heartbeat_interval
            .unwrap_or(self.cfg.lease_timeout / 4)
            .max(Duration::from_millis(10));
        // Per-connection Welcomes share this template; only the worker id
        // and the challenge answer differ, so the (possibly large) world
        // payload is encoded from one copy.
        let mut welcome = Welcome {
            protocol_version: PROTOCOL_VERSION,
            worker_id: 0,
            run_nonce,
            server_mac: 0,
            num_nodes: n as u64,
            heartbeat_interval_ms: hb_interval.as_millis() as u64,
            params,
            world: if self.cfg.ship_world_bytes {
                WorldPayload::Bytes(StoredWorld::graph_only_bytes(&self.graph))
            } else {
                let p = self.world_path.as_ref().ok_or(ClusterError::Protocol(
                    "coordinator built without a world path or --ship-world",
                ))?;
                WorldPayload::Path(p.to_string_lossy().into_owned())
            },
        };
        let transport = FaultyTransport::new(self.cfg.fault_plan.clone());
        let checkpoint_path = self.cfg.checkpoint.clone();
        let checkpoint_every = self.cfg.checkpoint_every;
        let mut last_checkpoint: Option<Instant> = None;

        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        let gate = Arc::new(Gate::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = spawn_accept_thread(
            self.listener.try_clone()?,
            Arc::clone(&stop),
            Arc::clone(&self.next_worker_id),
            ReaderCtx {
                tx,
                gate: Arc::clone(&gate),
                hb_interval,
                secret: self.cfg.secret.clone(),
                transport: transport.clone(),
            },
        )?;

        let spawner = self.cfg.spawn.clone();
        let mut children: Vec<Child> = Vec::new();

        let mut stats = CoordinateStats {
            tasks: queue.task_count(),
            ..CoordinateStats::default()
        };
        let mut workers: HashMap<u64, Worker> = HashMap::new();
        let mut last_progress = Instant::now();
        let mut last_ping = Instant::now();
        let lease_timeout = self.cfg.lease_timeout;

        let run_result = (|| -> Result<(), ClusterError> {
            // Spawning inside the guarded closure means a failed exec still
            // flows through the teardown below (accept thread stopped, gate
            // closed) instead of leaking them on early return.
            if let Some(spawn) = &spawner {
                for _ in 0..self.cfg.local_workers {
                    children.push(spawn_local_worker(spawn, self.addr)?);
                }
            }
            while !merge.is_complete() {
                // Block for one event, then drain the backlog before any
                // deadline work: a burst of deliveries (or one slow Welcome
                // write) must never leave heartbeats sitting unread in the
                // channel while the expiry scan declares their senders dead.
                let mut next = match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(ClusterError::Protocol("event channel closed"));
                    }
                };
                while let Some(ev) = next {
                    match ev {
                        Event::Connected { id, hello, stream } => {
                            // A reconnect presents the id (and run nonce) of
                            // its previous incarnation: cut that connection
                            // and requeue its leases right now rather than
                            // waiting for its deadline. Ids minted by some
                            // other (crashed, restarted) run are ignored.
                            if hello.prior_worker_id != 0
                                && hello.prior_worker_id != id
                                && hello.run_nonce == run_nonce
                            {
                                fail_worker(hello.prior_worker_id, &mut workers, &mut queue);
                                stats.reconnects += 1;
                                locec_obs::log::warn(
                                    "coordinator",
                                    "worker reconnected",
                                    &[
                                        ("worker", &id.to_string()),
                                        ("was", &hello.prior_worker_id.to_string()),
                                    ],
                                );
                            }
                            welcome.worker_id = id;
                            welcome.server_mac = match &self.cfg.secret {
                                Some(s) => handshake_mac(s, "welcome", hello.client_nonce),
                                None => 0,
                            };
                            let mut s = stream;
                            if transport
                                .write_frame(&mut s, FrameType::Welcome, &encode_welcome(&welcome))
                                .is_ok()
                            {
                                workers.insert(
                                    id,
                                    Worker {
                                        stream: Some(s),
                                        last_heartbeat: Instant::now(),
                                        metrics: WorkerMetrics::default(),
                                    },
                                );
                                if hello.prior_worker_id == 0 {
                                    stats.workers_seen += 1;
                                }
                                last_progress = Instant::now();
                                locec_obs::log::debug(
                                    "coordinator",
                                    "worker joined",
                                    &[("worker", &id.to_string())],
                                );
                            }
                        }
                        Event::Heartbeat { id, busy, metrics } => {
                            let lost = queue.heartbeat(id, busy, Instant::now(), lease_timeout);
                            if let Some(w) = workers.get_mut(&id) {
                                w.last_heartbeat = Instant::now();
                                w.metrics = *metrics;
                            }
                            if lost > 0 {
                                locec_obs::log::warn(
                                    "coordinator",
                                    "worker reported idle under a lease; re-queued lost leases",
                                    &[("worker", &id.to_string()), ("lost", &lost.to_string())],
                                );
                            }
                        }
                        Event::ResultIncoming { id } => {
                            queue.result_incoming(id, Instant::now(), lease_timeout);
                        }
                        Event::Result { id, payload } => {
                            let outcome = process_result(
                                &payload,
                                id,
                                &mut queue,
                                &mut merge,
                                &mut stats,
                                &mut workers,
                            );
                            gate.release();
                            match outcome {
                                Ok(()) => {
                                    last_progress = Instant::now();
                                    if let Some(path) = &checkpoint_path {
                                        let due = last_checkpoint
                                            .is_none_or(|t| t.elapsed() >= checkpoint_every);
                                        if due {
                                            write_checkpoint(path, &queue, &merge, &params, n)?;
                                            stats.checkpoints_written += 1;
                                            last_checkpoint = Some(Instant::now());
                                        }
                                    }
                                }
                                Err(e) => {
                                    locec_obs::log::warn(
                                        "coordinator",
                                        "dropping worker over a bad result",
                                        &[("worker", &id.to_string()), ("error", &e.to_string())],
                                    );
                                    fail_worker(id, &mut workers, &mut queue);
                                }
                            }
                        }
                        Event::Disconnected { id } => {
                            let requeued = fail_worker(id, &mut workers, &mut queue);
                            if requeued > 0 {
                                locec_obs::log::warn(
                                    "coordinator",
                                    "worker disconnected; re-queued its leases",
                                    &[
                                        ("worker", &id.to_string()),
                                        ("requeued", &requeued.to_string()),
                                    ],
                                );
                            }
                        }
                    }
                    if merge.is_complete() {
                        return Ok(());
                    }
                    next = rx.try_recv().ok();
                }

                // Expire silent leases and declare their workers dead.
                for id in queue.expired_workers(Instant::now()) {
                    locec_obs::log::warn(
                        "coordinator",
                        "worker missed its lease deadline",
                        &[("worker", &id.to_string())],
                    );
                    fail_worker(id, &mut workers, &mut queue);
                }

                // Keep the local fleet at strength (bounded respawn budget).
                let none_connected = workers.values().all(|w| w.stream.is_none());
                if let Some(spawn) = &spawner {
                    children.retain_mut(|c| matches!(c.try_wait(), Ok(None)));
                    if children.len() < self.cfg.local_workers && stats.respawns < MAX_RESPAWNS {
                        children.push(spawn_local_worker(spawn, self.addr)?);
                        stats.respawns += 1;
                        locec_obs::log::debug("coordinator", "respawned a local worker", &[]);
                    }
                    if children.is_empty() && none_connected {
                        return Err(ClusterError::Stalled(stall_report(
                            "every local worker died and the respawn budget is spent",
                            &workers,
                            &queue,
                        )));
                    }
                }
                if none_connected && last_progress.elapsed() > self.cfg.stall_timeout {
                    return Err(ClusterError::Stalled(stall_report(
                        &format!("no worker connected for {:?}", self.cfg.stall_timeout),
                        &workers,
                        &queue,
                    )));
                }

                // Ping every worker on the heartbeat cadence. Workers bound
                // their reads by this (a coordinator host that vanishes
                // without FIN would otherwise strand remote workers in a
                // timeout-less read forever); a failed ping write is the
                // usual sign of a dead peer.
                if last_ping.elapsed() >= hb_interval {
                    last_ping = Instant::now();
                    let unreachable: Vec<u64> = workers
                        .iter_mut()
                        .filter_map(|(&id, w)| {
                            let stream = w.stream.as_mut()?;
                            let sent = transport.write_frame(stream, FrameType::Heartbeat, &[]);
                            sent.is_err().then_some(id)
                        })
                        .collect();
                    for id in unreachable {
                        fail_worker(id, &mut workers, &mut queue);
                    }
                }

                // Hand pending work to idle workers; a failed send means the
                // worker is gone.
                let idle: Vec<u64> = workers
                    .iter()
                    .filter(|&(&id, w)| w.stream.is_some() && !queue.worker_is_busy(id))
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    if !queue.has_pending() {
                        break;
                    }
                    let Some(stream) = workers.get_mut(&id).and_then(|w| w.stream.as_mut()) else {
                        continue;
                    };
                    let Some((lease_id, task)) =
                        queue.lease_next(id, Instant::now(), lease_timeout)
                    else {
                        break;
                    };
                    let lease = Lease {
                        lease_id,
                        task_index: task.index,
                        task_count: queue.task_count(),
                        ego_start: task.start,
                        ego_end: task.end,
                    };
                    if transport
                        .write_frame(stream, FrameType::Lease, &encode_lease(&lease))
                        .is_err()
                    {
                        fail_worker(id, &mut workers, &mut queue);
                    }
                }
            }
            Ok(())
        })();

        // Teardown (always): stop accepting, free gate waiters, tell every
        // worker to exit, unstick reader threads, reap children.
        stop.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        gate.close();
        for stream in workers.values_mut().filter_map(|w| w.stream.as_mut()) {
            let _ = transport.write_frame(stream, FrameType::Shutdown, &[]);
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = accept_handle.join();
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in &mut children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        drop(rx);

        run_result?;
        stats.requeues = queue.requeues();
        stats.wall = started.elapsed();
        stats.workers = workers.iter().map(|(&id, w)| (id, w.metrics)).collect();
        stats.workers.sort_unstable_by_key(|&(id, _)| id);
        let meter = transport.meter();
        stats.frames_sent = meter.frames_sent();
        stats.frames_received = meter.frames_received();
        stats.frames_dropped = meter.frames_dropped();
        stats.bytes_sent = meter.bytes_sent();
        stats.bytes_received = meter.bytes_received();
        stats.faults_fired = transport.faults_fired();
        // Mirror the run counters into the process-global recorder so a
        // host embedding the coordinator (the CLI, the bench) sees them in
        // its metrics snapshot alongside the pipeline counters.
        let recorder = locec_obs::Recorder::global();
        recorder.counter("cluster.requeues").add(stats.requeues);
        recorder.counter("cluster.reconnects").add(stats.reconnects);
        recorder
            .counter("cluster.workers_joined")
            .add(stats.workers_seen);
        recorder
            .counter("cluster.duplicates_dropped")
            .add(stats.duplicates_dropped);
        recorder
            .counter("cluster.faults_fired")
            .add(stats.faults_fired);

        let division = merge.finish(self.cfg.divide.threads)?;
        Ok(CoordinateOutcome { division, stats })
    }
}

/// Renders a stall into a diagnosis: overall task progress plus each
/// worker's last-known state (heartbeat age, completed leases, outstanding
/// ranges) — the difference between "it hung" and "worker #2 went silent
/// holding [250, 500)".
fn stall_report(reason: &str, workers: &HashMap<u64, Worker>, queue: &WorkQueue) -> String {
    use std::fmt::Write as _;
    let done = (0..queue.task_count())
        .filter(|&t| queue.is_done(t))
        .count();
    let mut s = format!("{reason}; tasks {done}/{} absorbed", queue.task_count());
    let mut ids: Vec<u64> = workers.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let Some(w) = workers.get(&id) else { continue };
        let _ = write!(s, "; worker #{id}: ");
        if w.stream.is_some() {
            let _ = write!(
                s,
                "last heartbeat {:.1}s ago",
                w.last_heartbeat.elapsed().as_secs_f64()
            );
        } else {
            s.push_str("disconnected");
        }
        // The worker's own cumulative metrics block tells the difference
        // between "never started", "computing but not delivering" and
        // "delivering into a faulty wire".
        let m = &w.metrics;
        let _ = write!(s, ", {} lease(s) completed", m.leases_completed);
        let _ = write!(
            s,
            ", {} egos divided, compute {}ms, wire {}ms",
            m.egos_divided,
            m.compute_nanos / 1_000_000,
            m.wire_nanos / 1_000_000
        );
        let dropped: u64 = m.frames_dropped.iter().sum();
        if dropped > 0 {
            let _ = write!(s, ", {dropped} frame(s) dropped by faults");
        }
        let held = queue.worker_leases(id);
        if !held.is_empty() {
            s.push_str(", outstanding");
            for t in held {
                let _ = write!(s, " [{}, {})", t.start, t.end);
            }
        }
    }
    s
}

/// Persists the current merge state atomically (see
/// [`locec_store::save_division_checkpoint`]).
fn write_checkpoint(
    path: &Path,
    queue: &WorkQueue,
    merge: &IncrementalMerge<'_>,
    params: &DivideParams,
    num_nodes: usize,
) -> Result<(), ClusterError> {
    let ckpt = DivisionCheckpoint {
        num_nodes: num_nodes as u32,
        task_count: queue.task_count(),
        detector: params.detector,
        seed: params.seed,
        gn_max_friends: params.gn_max_friends,
        merged: merge.merged_ranges().to_vec(),
        communities: merge.communities().to_vec(),
    };
    Ok(save_division_checkpoint(path, &ckpt)?)
}

/// Validates and absorbs one delivered shard. Any error means the sending
/// worker is misbehaving and should be dropped (its work is re-queued).
fn process_result(
    payload: &[u8],
    id: u64,
    queue: &mut WorkQueue,
    merge: &mut IncrementalMerge<'_>,
    stats: &mut CoordinateStats,
    workers: &mut HashMap<u64, Worker>,
) -> Result<(), ClusterError> {
    let msg = decode_shard_result(payload)?;
    // The result carries the sender's cumulative metrics block — fresher
    // than any heartbeat, since it was built after this very lease.
    if let Some(w) = workers.get_mut(&id) {
        w.metrics = msg.metrics;
    }
    let lease = queue.remove_lease(msg.lease_id);
    let shard = match shard_from_bytes(&msg.shard_bytes) {
        Ok(s) => s,
        Err(e) => {
            // The worker's lease is gone; put the work back first.
            if let Some((task, _)) = lease {
                queue.requeue_task(task);
            }
            return Err(e.into());
        }
    };
    let task = shard.shard_index;
    if shard.shard_count != queue.task_count()
        || task >= queue.task_count()
        || queue.task(task).start != shard.ego_start
        || queue.task(task).end != shard.ego_end
    {
        if let Some((t, _)) = lease {
            queue.requeue_task(t);
        }
        return Err(ClusterError::Protocol(
            "shard result does not match any task of this run",
        ));
    }
    if queue.is_done(task) {
        // A re-queued lease already delivered this range.
        stats.duplicates_dropped += 1;
        return Ok(());
    }
    let t_merge = Instant::now();
    let absorbed = merge.absorb(shard);
    let merge_nanos = saturating_nanos(t_merge);
    stats.merge_nanos = stats.merge_nanos.saturating_add(merge_nanos);
    locec_obs::Recorder::global()
        .histogram("cluster.merge_nanos")
        .record(merge_nanos);
    match absorbed {
        Ok(_) => {
            queue.mark_done(task);
            if let Some((_, granted)) = lease {
                let wall = saturating_nanos(granted);
                stats.lease_walls.push((id, wall));
                locec_obs::Recorder::global()
                    .histogram("cluster.lease_wall_nanos")
                    .record(wall);
            }
            Ok(())
        }
        Err(e) => {
            queue.requeue_task(task);
            Err(e.into())
        }
    }
}

/// Cuts a worker off — it disconnected, missed its lease deadline, sent a
/// bad result or failed a write — and re-queues its leases. Returns how
/// many were re-queued.
fn fail_worker(id: u64, workers: &mut HashMap<u64, Worker>, queue: &mut WorkQueue) -> usize {
    if let Some(stream) = workers.get_mut(&id).and_then(|w| w.stream.take()) {
        let _ = stream.shutdown(Shutdown::Both);
    }
    queue.requeue_worker(id)
}

fn spawn_local_worker(spawn: &WorkerSpawn, addr: SocketAddr) -> Result<Child, ClusterError> {
    Ok(Command::new(&spawn.program)
        .arg("worker")
        .arg("--connect")
        .arg(addr.to_string())
        .args(&spawn.worker_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?)
}

/// What every connection's reader thread shares with the coordinator.
#[derive(Clone)]
struct ReaderCtx {
    tx: Sender<Event>,
    gate: Arc<Gate>,
    hb_interval: Duration,
    secret: Option<String>,
    /// The coordinator's transport, whose meter counts what readers
    /// receive.
    transport: FaultyTransport,
}

/// Accepts connections until the stop flag flips, spawning one reader
/// thread per worker. `accept` blocks; teardown sets the flag and then
/// calls [`wake_accept`], so the thread sees the flag and exits.
fn spawn_accept_thread(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    next_worker_id: Arc<AtomicU64>,
    ctx: ReaderCtx,
) -> Result<std::thread::JoinHandle<()>, ClusterError> {
    let handle = std::thread::Builder::new()
        .name("locec-cluster-accept".into())
        .spawn(move || loop {
            let accepted = listener.accept();
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // A failed accept (a peer that reset before it was taken) is
            // skipped; the listener itself stays usable.
            if let Ok((stream, _)) = accepted {
                let id = next_worker_id.fetch_add(1, Ordering::Relaxed);
                let ctx = ctx.clone();
                let _ = std::thread::Builder::new()
                    .name(format!("locec-cluster-reader-{id}"))
                    .spawn(move || reader_thread(stream, id, ctx));
            }
        })?;
    Ok(handle)
}

/// Wakes a thread blocked in `accept` on the listener bound to `addr` by
/// connecting to it once. The caller sets its stop flag first, so the
/// woken loop drops this connection and exits. An unspecified listen
/// address is reached through the loopback of its family.
pub fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// Per-connection reader: handshake (with typed rejection of version and
/// auth failures), then decode frames into events until the peer goes
/// away. Shard payloads pass through the gate (see module docs) so at most
/// one unmerged shard is ever in coordinator memory.
fn reader_thread(mut stream: TcpStream, id: u64, ctx: ReaderCtx) {
    let ReaderCtx {
        tx,
        gate,
        hb_interval,
        secret,
        transport,
    } = ctx;
    let meter = transport.meter();
    let _ = stream.set_nodelay(true);
    // Heartbeats arrive every hb_interval; a read this patient only
    // triggers for a peer that is wedged outright.
    let _ = stream.set_read_timeout(Some((hb_interval * 16).max(Duration::from_secs(4))));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));

    let Ok(header) = read_header(&mut stream) else {
        return;
    };
    if header.frame_type != FrameType::Hello {
        return;
    }
    let Ok(payload) = read_payload(&mut stream, &header) else {
        return;
    };
    // Reader threads read raw frames (faults are injected on the worker
    // side of these flows), so received traffic is metered by hand here.
    meter.record_recv(FrameType::Hello, payload.len());
    let hello = match decode_hello(&payload) {
        Ok(h) => h,
        Err(_) => {
            // A Hello that does not decode is either a foreign protocol
            // revision (tell it which) or garbage.
            let reason = if payload.len() >= 4
                && u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]])
                    != PROTOCOL_VERSION
            {
                RejectReason::Version
            } else {
                RejectReason::Malformed
            };
            // Rejects bypass fault injection: a refused peer always learns
            // why (write_frame, not the coordinator's FaultyTransport).
            let _ = write_frame(&mut stream, FrameType::Reject, &encode_reject(reason));
            return;
        }
    };
    if hello.protocol_version != PROTOCOL_VERSION {
        let _ = write_frame(
            &mut stream,
            FrameType::Reject,
            &encode_reject(RejectReason::Version),
        );
        return;
    }
    if let Some(secret) = &secret {
        let proven = hello.auth == AUTH_KEYED
            && hello.client_mac == handshake_mac(secret, "hello", hello.client_nonce);
        if !proven {
            let _ = write_frame(
                &mut stream,
                FrameType::Reject,
                &encode_reject(RejectReason::Auth),
            );
            return;
        }
    }
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if tx
        .send(Event::Connected {
            id,
            hello,
            stream: writer,
        })
        .is_err()
    {
        return;
    }

    while let Ok(header) = read_header(&mut stream) {
        match header.frame_type {
            FrameType::Heartbeat => {
                let Ok(payload) = read_payload(&mut stream, &header) else {
                    break;
                };
                meter.record_recv(FrameType::Heartbeat, payload.len());
                let Ok(info) = decode_heartbeat(&payload) else {
                    break;
                };
                if tx
                    .send(Event::Heartbeat {
                        id,
                        busy: info.busy,
                        metrics: Box::new(info.metrics),
                    })
                    .is_err()
                {
                    break;
                }
            }
            FrameType::ShardResult => {
                if tx.send(Event::ResultIncoming { id }).is_err() {
                    break;
                }
                if !gate.acquire() {
                    break; // coordinator is done; abandon the read
                }
                match read_payload(&mut stream, &header) {
                    Ok(payload) => {
                        meter.record_recv(FrameType::ShardResult, payload.len());
                        if tx.send(Event::Result { id, payload }).is_err() {
                            gate.release();
                            break;
                        }
                    }
                    Err(_) => {
                        gate.release();
                        break;
                    }
                }
            }
            _ => break, // workers send nothing else
        }
    }
    let _ = tx.send(Event::Disconnected { id });
}
