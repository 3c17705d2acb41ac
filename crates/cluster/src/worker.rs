//! The worker: connect, receive the world, loop over leased ego ranges —
//! and reconnect when the wire fails.
//!
//! Workers are deliberately thin. All policy (task sizing, retries,
//! dedup) lives in the coordinator; a worker just runs
//! [`locec_core::phase1::divide_range`] over whatever contiguous range it
//! is leased — on as many threads as the shipped `threads` parameter
//! allows — and ships the result back as the exact
//! shard snapshot bytes `locec divide --shard` would write. A side thread
//! heartbeats on the interval the coordinator dictated (reporting whether
//! the worker is busy, plus its cumulative metrics), so a long
//! divide never looks like a dead worker — and a lease lost on the wire
//! shows up as an idle worker the coordinator can re-queue around.
//!
//! **Reconnect**: transient failures — a dropped connection, a corrupt or
//! truncated frame, a coordinator restart — do not kill the process.
//! [`run_worker`] retries the connection with capped exponential backoff
//! plus deterministic jitter ([`RetryPolicy`]), re-Hellos with the worker
//! id and run nonce from its previous `Welcome` (so the coordinator
//! requeues the dead incarnation's leases immediately), and keeps the
//! parsed graph cached across reconnects. Only *permanent* refusals —
//! protocol version mismatch, a typed [`RejectReason`] from the
//! coordinator, a failed shared-secret challenge — abort without retry.
//!
//! **Fault injection**: a seeded [`FaultPlan`] in
//! [`WorkerOptions::fault_plan`] wraps this worker's transport, firing
//! drop/delay/corrupt/truncate/disconnect/stall faults on exact frame
//! occurrences (the general replacement for the old
//! `--fail-after-leases`/`--hang-after-leases` flags).

use crate::fault::{splitmix64, FaultPlan, FaultyTransport};
use crate::protocol::{
    decode_lease, decode_reject, decode_welcome, encode_heartbeat, encode_hello,
    encode_shard_result, handshake_mac, HeartbeatInfo, Hello, ShardResult, Welcome, WorkerMetrics,
    WorldPayload, AUTH_KEYED, AUTH_NONE, PROTOCOL_VERSION,
};
use crate::{frame::FrameType, ClusterError, RejectReason};
use locec_core::phase1::divide_range;
use locec_graph::CsrGraph;
use locec_obs::metrics::saturating_nanos;
use locec_store::{shard_to_bytes, DivisionShard, StoredWorld};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a worker retries lost coordinator connections.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Consecutive failed connection attempts tolerated before giving up
    /// (0 = fail on the first loss, the pre-reconnect behavior). The
    /// counter resets after every completed handshake.
    pub max_reconnects: u32,
    /// First backoff delay; doubles per consecutive failure.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Seed for the deterministic jitter added to each delay.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_reconnects: 4,
            base: Duration::from_millis(200),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt` (1-based): capped exponential
    /// backoff plus a deterministic jitter of up to half the base delay,
    /// so a fleet sharing a policy but not a seed does not reconnect in
    /// lockstep — and the same seed replays the same schedule.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let jitter_range = (self.base.as_millis() as u64 / 2).max(1);
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % jitter_range;
        exp.min(self.cap) + Duration::from_millis(jitter)
    }
}

/// Worker-side knobs.
#[derive(Clone, Debug, Default)]
pub struct WorkerOptions {
    /// Override the coordinator-shipped thread count (results are
    /// thread-count invariant, so this is purely a throughput knob).
    pub threads: Option<usize>,
    /// Deterministic fault injection over this worker's transport (both
    /// read and write sides share one occurrence clock).
    pub fault_plan: Option<FaultPlan>,
    /// Shared secret for the authenticated handshake; must match the
    /// coordinator's `--secret` (or both must be absent).
    pub secret: Option<String>,
    /// Reconnect/backoff behavior on transient failures.
    pub retry: RetryPolicy,
}

/// What the lease loop and the heartbeat thread share for a whole run:
/// the transport (its fault clock and meter outlive reconnects) and the
/// cumulative metric counters. Deliberately **per run**, not
/// process-global: a host running several in-process workers (the scaling
/// bench, the chaos tests) must not blend their fleets' numbers.
#[derive(Debug, Default)]
struct Shared {
    transport: FaultyTransport,
    egos_divided: AtomicU64,
    leases_completed: AtomicU64,
    compute_nanos: AtomicU64,
    wire_nanos: AtomicU64,
    reconnects: AtomicU64,
}

impl Shared {
    /// The cumulative [`WorkerMetrics`] block shipped on every Heartbeat
    /// and ShardResult frame (last value wins at the coordinator).
    fn snapshot(&self) -> WorkerMetrics {
        let meter = self.transport.meter();
        WorkerMetrics {
            egos_divided: self.egos_divided.load(Ordering::Relaxed),
            leases_completed: self.leases_completed.load(Ordering::Relaxed),
            compute_nanos: self.compute_nanos.load(Ordering::Relaxed),
            wire_nanos: self.wire_nanos.load(Ordering::Relaxed),
            bytes_sent: meter.bytes_sent(),
            bytes_received: meter.bytes_received(),
            frames_sent: meter.frames_sent(),
            frames_received: meter.frames_received(),
            frames_dropped: meter.frames_dropped(),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            faults_fired: self.transport.faults_fired(),
        }
    }
}

/// Identity carried across reconnects: who the coordinator said we are,
/// and which coordinator run said it.
#[derive(Clone, Copy, Debug, Default)]
struct PriorIdentity {
    worker_id: u64,
    run_nonce: u64,
}

/// Failures no reconnect can fix: the peer deliberately refused us.
fn is_permanent(e: &ClusterError) -> bool {
    matches!(
        e,
        ClusterError::VersionMismatch { .. }
            | ClusterError::Rejected(_)
            | ClusterError::AuthFailed(_)
    )
}

/// A per-connection challenge nonce. Uniqueness across processes and
/// attempts is all that is required of it (the MAC it feeds is not a
/// defense against replay by an active adversary — see
/// [`crate::protocol`]).
fn fresh_nonce(salt: u64) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    splitmix64(nanos ^ (u64::from(std::process::id()) << 32) ^ salt)
}

/// Connects to a coordinator and serves leases until it says Shutdown,
/// reconnecting through transient failures per [`WorkerOptions::retry`].
/// Returns the cumulative metrics block this worker ships its coordinator,
/// as of shutdown. Its `leases_completed` counts every lease whose divide
/// finished, whether or not the result survived the wire: a lease lost to
/// a write fault is requeued and redone elsewhere, and the counter records
/// the work performed.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<WorkerMetrics, ClusterError> {
    let shared = Arc::new(Shared {
        transport: FaultyTransport::new(opts.fault_plan.clone()),
        ..Shared::default()
    });
    let mut identity = PriorIdentity::default();
    let mut cached_graph: Option<CsrGraph> = None;
    let mut attempts = 0u32;
    loop {
        // A replaced connection un-wedges a stalled transport; the stall
        // rule has already fired and will not re-fire.
        shared.transport.clear_stall();
        let mut progressed = false;
        let result = run_connection(
            addr,
            opts,
            &shared,
            &mut identity,
            &mut cached_graph,
            &mut progressed,
        );
        let err = match result {
            Ok(()) => return Ok(shared.snapshot()),
            Err(e) => e,
        };
        if is_permanent(&err) {
            return Err(err);
        }
        if progressed {
            // The handshake completed this cycle: the coordinator is (or
            // was) reachable, so the failure budget starts over.
            attempts = 0;
        }
        attempts += 1;
        if attempts > opts.retry.max_reconnects {
            return Err(if opts.retry.max_reconnects == 0 {
                err
            } else {
                ClusterError::RetriesExhausted {
                    attempts,
                    last: Box::new(err),
                }
            });
        }
        shared.reconnects.fetch_add(1, Ordering::Relaxed);
        locec_obs::log::warn(
            "worker",
            "connection lost; reconnecting",
            &[
                ("attempt", &attempts.to_string()),
                ("error", &err.to_string()),
            ],
        );
        std::thread::sleep(opts.retry.backoff(attempts));
    }
}

/// One connection lifetime: handshake, heartbeat thread, lease loop.
/// `progressed` is set once the handshake completes, so the caller can
/// reset the consecutive-failure budget.
fn run_connection(
    addr: &str,
    opts: &WorkerOptions,
    shared: &Arc<Shared>,
    identity: &mut PriorIdentity,
    cached_graph: &mut Option<CsrGraph>,
    progressed: &mut bool,
) -> Result<(), ClusterError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Provisional handshake timeout; replaced below once the coordinator
    // announces its ping cadence.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;

    let client_nonce = fresh_nonce(identity.worker_id ^ shared.reconnects.load(Ordering::Relaxed));
    let transport = &shared.transport;
    let (auth, client_mac) = match &opts.secret {
        Some(secret) => (AUTH_KEYED, handshake_mac(secret, "hello", client_nonce)),
        None => (AUTH_NONE, 0),
    };
    transport.write_frame(
        &mut stream,
        FrameType::Hello,
        &encode_hello(&Hello {
            protocol_version: PROTOCOL_VERSION,
            prior_worker_id: identity.worker_id,
            run_nonce: identity.run_nonce,
            auth,
            client_nonce,
            client_mac,
        }),
    )?;
    let (ftype, payload) = transport.read_frame(&mut stream)?;
    let welcome = match ftype {
        FrameType::Welcome => decode_welcome(&payload)?,
        FrameType::Reject => return Err(ClusterError::Rejected(decode_reject(&payload)?)),
        _ => return Err(ClusterError::Protocol("expected Welcome")),
    };
    if welcome.protocol_version != PROTOCOL_VERSION {
        return Err(ClusterError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: welcome.protocol_version,
        });
    }
    if let Some(secret) = &opts.secret {
        // The coordinator's half of the mutual challenge-response: it must
        // prove the same secret over our nonce before we trust its work.
        if welcome.server_mac != handshake_mac(secret, "welcome", client_nonce) {
            return Err(ClusterError::AuthFailed(
                "coordinator failed the shared-secret challenge",
            ));
        }
    }
    identity.worker_id = welcome.worker_id;
    identity.run_nonce = welcome.run_nonce;
    *progressed = true;

    // The coordinator pings on the heartbeat cadence even when no lease is
    // ready, so a read this patient only fires when the coordinator's
    // process or host is actually gone (a vanished host sends no FIN — a
    // timeout-less read would hang this worker forever).
    let interval = Duration::from_millis(welcome.heartbeat_interval_ms.max(10));
    stream.set_read_timeout(Some((interval * 16).max(Duration::from_secs(30))))?;

    // Heartbeats run on a side thread from the moment the handshake
    // completes, so even the world load below cannot starve them. The
    // writer mutex keeps heartbeat and result frames from interleaving;
    // the busy flag and metrics block ride along as last-known state.
    // The thread waits out each interval on a channel nothing is ever sent
    // on: dropping `hb_stop` when the lease loop ends wakes it at once.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let (hb_stop, stopped) = mpsc::channel::<()>();
    let busy = Arc::new(AtomicBool::new(false));
    let hb_handle = {
        let writer = Arc::clone(&writer);
        let busy = Arc::clone(&busy);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("locec-worker-heartbeat".into())
            .spawn(move || {
                let transport = &shared.transport;
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    // Snapshot under the lock: a block taken before a
                    // ShardResult's but written after it would roll the
                    // coordinator's last-value-wins view back.
                    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                    let payload = encode_heartbeat(&HeartbeatInfo {
                        busy: busy.load(Ordering::SeqCst),
                        metrics: shared.snapshot(),
                    });
                    // locec-lint: allow(R5) — the writer mutex exists precisely to serialize whole frames onto the shared socket; heartbeats are tiny frames, so the hold is bounded.
                    let sent = transport.write_frame(&mut *w, FrameType::Heartbeat, &payload);
                    if sent.is_err() {
                        return;
                    }
                }
            })?
    };

    let result = serve_leases(
        &mut stream,
        &writer,
        shared,
        &welcome,
        opts,
        cached_graph,
        &busy,
    );

    drop(hb_stop);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = hb_handle.join();
    result
}

fn serve_leases(
    stream: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared,
    welcome: &Welcome,
    opts: &WorkerOptions,
    cached_graph: &mut Option<CsrGraph>,
    busy: &Arc<AtomicBool>,
) -> Result<(), ClusterError> {
    // Reuse the graph a previous connection to this coordinator already
    // parsed — a reconnect re-ships the world payload, but re-decoding it
    // is pure waste when the node count matches.
    let reusable = cached_graph
        .as_ref()
        .is_some_and(|g| g.num_nodes() as u64 == welcome.num_nodes);
    if !reusable {
        let graph = match &welcome.world {
            WorldPayload::Path(p) => StoredWorld::load_graph(Path::new(p))?,
            WorldPayload::Bytes(b) => StoredWorld::graph_from_bytes(b)?,
        };
        *cached_graph = Some(graph);
    }
    let Some(graph) = cached_graph.as_ref() else {
        return Err(ClusterError::Protocol("world graph failed to load"));
    };
    if graph.num_nodes() as u64 != welcome.num_nodes {
        return Err(ClusterError::Protocol(
            "world node count differs from the coordinator's",
        ));
    }
    let mut config = welcome.params.to_config()?;
    if let Some(t) = opts.threads {
        config.threads = t.max(1);
    }
    let transport = &shared.transport;

    loop {
        let (ftype, payload) = transport.read_frame(stream)?;
        match ftype {
            FrameType::Lease => {
                let lease = decode_lease(&payload)?;
                if lease.ego_end as usize > graph.num_nodes() {
                    return Err(ClusterError::Protocol("lease exceeds the graph"));
                }
                if transport.stalled() {
                    // A fired stall rule wedged this worker: stay connected,
                    // ignore the work, let the coordinator time us out.
                    continue;
                }
                busy.store(true, Ordering::SeqCst);
                let t_compute = Instant::now();
                let communities = divide_range(graph, lease.ego_start..lease.ego_end, &config);
                shared
                    .compute_nanos
                    .fetch_add(saturating_nanos(t_compute), Ordering::Relaxed);
                let shard = DivisionShard {
                    ego_start: lease.ego_start,
                    ego_end: lease.ego_end,
                    num_nodes: graph.num_nodes() as u32,
                    shard_index: lease.task_index,
                    shard_count: lease.task_count,
                    communities,
                };
                // The completed-work counters advance *before* the result
                // frame is encoded, so the metrics block on this very
                // ShardResult already covers the lease it carries.
                shared.leases_completed.fetch_add(1, Ordering::SeqCst);
                shared
                    .egos_divided
                    .fetch_add(u64::from(lease.ego_end - lease.ego_start), Ordering::SeqCst);
                let msg = ShardResult {
                    lease_id: lease.lease_id,
                    shard_bytes: shard_to_bytes(&shard),
                    metrics: shared.snapshot(),
                };
                let t_wire = Instant::now();
                let write_result = {
                    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                    // locec-lint: allow(R5) — a shard result must be written as one atomic frame; the heartbeat thread shares this socket and would interleave bytes mid-frame without the lock.
                    transport.write_frame(
                        &mut *w,
                        FrameType::ShardResult,
                        &encode_shard_result(&msg),
                    )
                };
                shared
                    .wire_nanos
                    .fetch_add(saturating_nanos(t_wire), Ordering::Relaxed);
                busy.store(false, Ordering::SeqCst);
                write_result?;
            }
            // Coordinator liveness ping: its only job was resetting the
            // read timeout above.
            FrameType::Heartbeat => {}
            FrameType::Shutdown => return Ok(()),
            FrameType::Reject => {
                return Err(ClusterError::Rejected(
                    decode_reject(&payload).unwrap_or(RejectReason::Malformed),
                ))
            }
            _ => return Err(ClusterError::Protocol("unexpected frame from coordinator")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        let policy = RetryPolicy {
            max_reconnects: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(1),
            seed: 7,
        };
        let delays: Vec<Duration> = (1..=8).map(|a| policy.backoff(a)).collect();
        // Deterministic: the same policy replays the same schedule.
        assert_eq!(
            delays,
            (1..=8).map(|a| policy.backoff(a)).collect::<Vec<_>>()
        );
        // Exponential up to the cap (jitter < base/2 cannot mask doubling).
        assert!(delays[1] > delays[0]);
        assert!(delays[2] > delays[1]);
        for d in &delays {
            assert!(*d <= Duration::from_secs(1) + Duration::from_millis(50));
        }
        // A different seed moves the jitter.
        let other = RetryPolicy { seed: 8, ..policy };
        assert!((1..=8).any(|a| other.backoff(a) != policy.backoff(a)));
    }

    #[test]
    fn permanence_classification_covers_the_refusals() {
        assert!(is_permanent(&ClusterError::VersionMismatch {
            ours: 2,
            theirs: 1
        }));
        assert!(is_permanent(&ClusterError::Rejected(RejectReason::Auth)));
        assert!(is_permanent(&ClusterError::AuthFailed("x")));
        assert!(!is_permanent(&ClusterError::ConnectionClosed));
        assert!(!is_permanent(&ClusterError::FaultInjected("x")));
        assert!(!is_permanent(&ClusterError::Protocol("x")));
    }
}
