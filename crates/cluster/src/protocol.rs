//! Message payloads, encoded with the `locec_store` section codec
//! ([`Enc`]/[`Dec`]): little-endian scalars and bulk byte runs, fully
//! bounds-checked on decode.
//!
//! The conversation is deliberately small:
//!
//! ```text
//! worker                      coordinator
//!   Hello{version, prior id,
//!         run nonce, auth}  ──▶
//!                       ◀──  Welcome{version, worker id, run nonce,
//!                            server mac, n, params, world path|bytes}
//!                       ◀──  (or Reject{reason} and hang up)
//!                       ◀──  Lease{lease_id, task i/T, egos [s, e)}
//!   Heartbeat{busy, metrics} ──▶   (periodic, from a side thread)
//!   ShardResult{id, …}  ──▶
//!                       ◀──  Lease … (repeat until the queue drains)
//!                       ◀──  Shutdown
//! ```
//!
//! Protocol revision 2 adds reconnect identity and an optional
//! authenticated handshake. A worker reconnecting after a connection loss
//! re-Hellos with its **prior worker id** and the coordinator's **run
//! nonce** from its last `Welcome`, so the coordinator can requeue the old
//! incarnation's leases immediately instead of waiting for a timeout (and
//! can tell a reconnect to *this* run from a stale id minted by a
//! restarted coordinator). When both sides share a `--secret`, the worker
//! sends a keyed MAC over a fresh nonce and the coordinator answers with
//! its own MAC over the same nonce — a mutual challenge-response.
//! Unauthenticated or mismatched peers get a typed [`RejectReason`]
//! instead of a silent hang-up. The MAC is a keyed splitmix64 absorption
//! ([`handshake_mac`]): honest-peer mutual proof of a shared key, **not**
//! a defense against an active adversary (the LAN trust caveat in the
//! README still applies — there is no transport encryption).
//!
//! Protocol revision 3 appends a compact [`WorkerMetrics`] block to every
//! `Heartbeat` and `ShardResult`, so the coordinator's run report (and
//! its stall diagnostics) cover the whole fleet without any extra frame
//! type: per-frame-type send/receive/drop counters, byte totals,
//! compute-vs-wire nanoseconds, egos divided, reconnects and faults
//! fired, all as observed by the worker itself.
//!
//! Protocol revision 4 drops the completed-lease count that `Heartbeat`
//! carried ahead of its metrics block since revision 2: the block's
//! [`WorkerMetrics::leases_completed`] is the same number, and unlike the
//! separate field a `ShardResult` refreshes it too.

use crate::fault::splitmix64;
use crate::ClusterError;
use locec_core::{CommunityDetector, LocecConfig};
use locec_store::format::{Dec, Enc};
use std::fmt;

/// The protocol revision both sides must agree on.
pub const PROTOCOL_VERSION: u32 = 4;

/// `Hello.auth`: no shared secret; the MAC fields are zero.
pub const AUTH_NONE: u8 = 0;

/// `Hello.auth`: the worker proves a shared secret and expects the
/// coordinator to prove it back in `Welcome.server_mac`.
pub const AUTH_KEYED: u8 = 1;

/// Worker → coordinator handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The protocol revision the worker speaks.
    pub protocol_version: u32,
    /// The worker id a previous connection to this coordinator run
    /// assigned (0 = first connection): lets the coordinator requeue the
    /// dead incarnation's leases at once.
    pub prior_worker_id: u64,
    /// The run nonce from the previous `Welcome` (0 = first connection);
    /// a coordinator ignores `prior_worker_id` minted by a different run.
    pub run_nonce: u64,
    /// [`AUTH_NONE`] or [`AUTH_KEYED`].
    pub auth: u8,
    /// Fresh challenge nonce; also the input to the coordinator's reply
    /// MAC.
    pub client_nonce: u64,
    /// `handshake_mac(secret, "hello", client_nonce)` when keyed, else 0.
    pub client_mac: u64,
}

/// Why a coordinator refused a handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The worker speaks a different [`PROTOCOL_VERSION`].
    Version = 1,
    /// The coordinator requires a shared secret the worker did not prove.
    Auth = 2,
    /// The Hello payload did not decode.
    Malformed = 3,
}

impl RejectReason {
    /// Parses the wire byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => RejectReason::Version,
            2 => RejectReason::Auth,
            3 => RejectReason::Malformed,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Version => write!(f, "protocol version mismatch"),
            RejectReason::Auth => write!(f, "shared-secret authentication failed"),
            RejectReason::Malformed => write!(f, "malformed handshake"),
        }
    }
}

/// The keyed handshake MAC: absorbs the secret, a direction label and the
/// challenge nonce through splitmix64. Deterministic, dependency-free,
/// and collision-resistant enough to prove "I know the same secret" to an
/// honest peer — not hardened against an active attacker (see the module
/// docs).
pub fn handshake_mac(secret: &str, label: &str, nonce: u64) -> u64 {
    let mut h = splitmix64(0x6C6F_6365_635F_6D61 ^ nonce); // "locec_ma"
    for &b in secret.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h = splitmix64(h ^ (secret.len() as u64) << 32);
    for &b in label.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ nonce)
}

/// The Phase-I-relevant slice of [`LocecConfig`] a worker needs to
/// reproduce the coordinator's divide bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivideParams {
    /// Community detector (0 = Girvan–Newman, 1 = Louvain, 2 = label
    /// propagation).
    pub detector: u8,
    /// Seed for the seeded detectors.
    pub seed: u64,
    /// Girvan–Newman ego-size cap (larger ego networks fall back to
    /// Louvain).
    pub gn_max_friends: u64,
    /// Worker threads per worker process (results are thread-count
    /// invariant; workers may override locally).
    pub threads: u32,
}

impl DivideParams {
    /// Captures the divide-relevant fields of a pipeline config.
    pub fn from_config(config: &LocecConfig) -> Self {
        DivideParams {
            detector: match config.detector {
                CommunityDetector::GirvanNewman => 0,
                CommunityDetector::Louvain => 1,
                CommunityDetector::LabelPropagation => 2,
            },
            seed: config.seed,
            gn_max_friends: config.gn_max_friends as u64,
            threads: config.threads as u32,
        }
    }

    /// Rebuilds a config whose Phase I output matches the coordinator's.
    /// (Fields Phase I never reads keep their defaults.)
    pub fn to_config(self) -> Result<LocecConfig, ClusterError> {
        let detector = match self.detector {
            0 => CommunityDetector::GirvanNewman,
            1 => CommunityDetector::Louvain,
            2 => CommunityDetector::LabelPropagation,
            _ => return Err(ClusterError::Protocol("unknown detector id")),
        };
        Ok(LocecConfig {
            detector,
            seed: self.seed,
            gn_max_friends: self.gn_max_friends as usize,
            threads: (self.threads as usize).max(1),
            ..LocecConfig::default()
        })
    }
}

/// How the coordinator hands the worker its input graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldPayload {
    /// Path to a world snapshot on a filesystem the worker shares.
    Path(String),
    /// Inline world snapshot bytes (graph-only; see
    /// [`locec_store::StoredWorld::graph_only_bytes`]) for workers with no
    /// shared filesystem.
    Bytes(Vec<u8>),
}

/// Coordinator → worker handshake reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Welcome {
    /// The protocol revision the coordinator speaks.
    pub protocol_version: u32,
    /// The id this coordinator run assigned to the worker; echoed as
    /// `Hello.prior_worker_id` on reconnect.
    pub worker_id: u64,
    /// Identifies this coordinator run; echoed as `Hello.run_nonce` on
    /// reconnect so stale worker ids from a restarted coordinator are
    /// ignored.
    pub run_nonce: u64,
    /// `handshake_mac(secret, "welcome", Hello.client_nonce)` when the
    /// coordinator holds a secret, else 0 — the coordinator's half of the
    /// mutual challenge-response.
    pub server_mac: u64,
    /// Node count of the world — a cheap cross-check that both sides are
    /// dividing the same graph.
    pub num_nodes: u64,
    /// How often the worker must heartbeat.
    pub heartbeat_interval_ms: u64,
    /// Divide parameters.
    pub params: DivideParams,
    /// The input world.
    pub world: WorldPayload,
}

/// The compact self-observed metrics block a worker piggybacks on every
/// `Heartbeat` and `ShardResult` (protocol revision 3). Totals are
/// cumulative over the worker process (across reconnects), so the
/// coordinator can keep last-value-wins state per worker and report the
/// fleet without extra round trips.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Egos divided across all completed leases.
    pub egos_divided: u64,
    /// Leases completed.
    pub leases_completed: u64,
    /// Nanoseconds spent inside `divide_range` (pure compute).
    pub compute_nanos: u64,
    /// Nanoseconds spent serializing + writing result/heartbeat frames
    /// under the writer lock (the wire side of a lease).
    pub wire_nanos: u64,
    /// Payload bytes actually written, all frame types.
    pub bytes_sent: u64,
    /// Payload bytes successfully read, all frame types.
    pub bytes_received: u64,
    /// Frames actually written, indexed by `FrameType as u8` (slot 0
    /// unused).
    pub frames_sent: [u64; 8],
    /// Frames successfully read, same indexing.
    pub frames_received: [u64; 8],
    /// Frames swallowed by injected drop/stall faults before reaching
    /// the wire, same indexing.
    pub frames_dropped: [u64; 8],
    /// Completed reconnect attempts (0 on a first, unbroken connection).
    pub reconnects: u64,
    /// Injected faults that have fired on this worker's transport.
    pub faults_fired: u64,
}

/// Worker → coordinator liveness signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatInfo {
    /// Whether the worker is currently computing a lease. A worker that
    /// reports idle while the coordinator believes it holds a lease lost
    /// that lease in transit (a dropped frame on either side); the
    /// coordinator requeues it without waiting for the lease deadline.
    pub busy: bool,
    /// The worker's cumulative self-observed metrics.
    pub metrics: WorkerMetrics,
}

/// One leased unit of work: the task's canonical contiguous ego range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// Unique per handed-out lease (re-queues mint a fresh id).
    pub lease_id: u64,
    /// The task's index in `0..task_count` — doubles as the shard index of
    /// the result.
    pub task_index: u32,
    /// Total task count of the run (the result's shard count).
    pub task_count: u32,
    /// First ego (inclusive).
    pub ego_start: u32,
    /// One past the last ego.
    pub ego_end: u32,
}

/// Worker → coordinator: a completed lease's shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardResult {
    /// The lease this result answers.
    pub lease_id: u64,
    /// A serialized [`locec_store::DivisionShard`] snapshot — the exact
    /// bytes `locec divide --shard` would write to disk.
    pub shard_bytes: Vec<u8>,
    /// The worker's cumulative self-observed metrics as of this result.
    pub metrics: WorkerMetrics,
}

/// Encodes [`Hello`].
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(h.protocol_version);
    enc.u64(h.prior_worker_id);
    enc.u64(h.run_nonce);
    enc.u8(h.auth);
    enc.u64(h.client_nonce);
    enc.u64(h.client_mac);
    enc.finish()
}

/// Decodes [`Hello`].
pub fn decode_hello(payload: &[u8]) -> Result<Hello, ClusterError> {
    let mut dec = Dec::new(payload);
    let hello = Hello {
        protocol_version: dec.u32()?,
        prior_worker_id: dec.u64()?,
        run_nonce: dec.u64()?,
        auth: dec.u8()?,
        client_nonce: dec.u64()?,
        client_mac: dec.u64()?,
    };
    dec.done()?;
    if hello.auth != AUTH_NONE && hello.auth != AUTH_KEYED {
        return Err(ClusterError::Protocol("unknown auth mode"));
    }
    Ok(hello)
}

/// Encodes a [`FrameType::Reject`](crate::frame::FrameType) payload.
pub fn encode_reject(reason: RejectReason) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(reason as u8);
    enc.finish()
}

/// Decodes a reject payload.
pub fn decode_reject(payload: &[u8]) -> Result<RejectReason, ClusterError> {
    let mut dec = Dec::new(payload);
    let reason = dec.u8()?;
    dec.done()?;
    RejectReason::from_u8(reason).ok_or(ClusterError::Protocol("unknown reject reason"))
}

/// Encodes [`Welcome`].
pub fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(w.protocol_version);
    enc.u64(w.worker_id);
    enc.u64(w.run_nonce);
    enc.u64(w.server_mac);
    enc.u64(w.num_nodes);
    enc.u64(w.heartbeat_interval_ms);
    enc.u8(w.params.detector);
    enc.u64(w.params.seed);
    enc.u64(w.params.gn_max_friends);
    enc.u32(w.params.threads);
    match &w.world {
        WorldPayload::Path(p) => {
            enc.u8(0);
            enc.u64(p.len() as u64);
            enc.u8_slice(p.as_bytes());
        }
        WorldPayload::Bytes(b) => {
            enc.u8(1);
            enc.u64(b.len() as u64);
            enc.u8_slice(b);
        }
    }
    enc.finish()
}

/// Decodes [`Welcome`].
pub fn decode_welcome(payload: &[u8]) -> Result<Welcome, ClusterError> {
    let mut dec = Dec::new(payload);
    let protocol_version = dec.u32()?;
    let worker_id = dec.u64()?;
    let run_nonce = dec.u64()?;
    let server_mac = dec.u64()?;
    let num_nodes = dec.u64()?;
    let heartbeat_interval_ms = dec.u64()?;
    let params = DivideParams {
        detector: dec.u8()?,
        seed: dec.u64()?,
        gn_max_friends: dec.u64()?,
        threads: dec.u32()?,
    };
    let mode = dec.u8()?;
    let len = dec.count()?;
    let bytes = dec.u8_vec(len)?;
    dec.done()?;
    let world = match mode {
        0 => WorldPayload::Path(
            String::from_utf8(bytes)
                .map_err(|_| ClusterError::Protocol("world path is not UTF-8"))?,
        ),
        1 => WorldPayload::Bytes(bytes),
        _ => return Err(ClusterError::Protocol("unknown world payload mode")),
    };
    Ok(Welcome {
        protocol_version,
        worker_id,
        run_nonce,
        server_mac,
        num_nodes,
        heartbeat_interval_ms,
        params,
        world,
    })
}

/// Appends a [`WorkerMetrics`] block to a payload under construction.
fn encode_worker_metrics(enc: &mut Enc, m: &WorkerMetrics) {
    enc.u64(m.egos_divided);
    enc.u64(m.leases_completed);
    enc.u64(m.compute_nanos);
    enc.u64(m.wire_nanos);
    enc.u64(m.bytes_sent);
    enc.u64(m.bytes_received);
    for v in m.frames_sent {
        enc.u64(v);
    }
    for v in m.frames_received {
        enc.u64(v);
    }
    for v in m.frames_dropped {
        enc.u64(v);
    }
    enc.u64(m.reconnects);
    enc.u64(m.faults_fired);
}

/// Reads a [`WorkerMetrics`] block.
fn decode_worker_metrics(dec: &mut Dec<'_>) -> Result<WorkerMetrics, ClusterError> {
    let mut m = WorkerMetrics {
        egos_divided: dec.u64()?,
        leases_completed: dec.u64()?,
        compute_nanos: dec.u64()?,
        wire_nanos: dec.u64()?,
        bytes_sent: dec.u64()?,
        bytes_received: dec.u64()?,
        ..WorkerMetrics::default()
    };
    for v in m.frames_sent.iter_mut() {
        *v = dec.u64()?;
    }
    for v in m.frames_received.iter_mut() {
        *v = dec.u64()?;
    }
    for v in m.frames_dropped.iter_mut() {
        *v = dec.u64()?;
    }
    m.reconnects = dec.u64()?;
    m.faults_fired = dec.u64()?;
    Ok(m)
}

/// Encodes [`HeartbeatInfo`].
pub fn encode_heartbeat(h: &HeartbeatInfo) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(u8::from(h.busy));
    encode_worker_metrics(&mut enc, &h.metrics);
    enc.finish()
}

/// Decodes [`HeartbeatInfo`].
pub fn decode_heartbeat(payload: &[u8]) -> Result<HeartbeatInfo, ClusterError> {
    let mut dec = Dec::new(payload);
    let busy = dec.u8()? != 0;
    let metrics = decode_worker_metrics(&mut dec)?;
    dec.done()?;
    Ok(HeartbeatInfo { busy, metrics })
}

/// Encodes [`Lease`].
pub fn encode_lease(l: &Lease) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(l.lease_id);
    enc.u32(l.task_index);
    enc.u32(l.task_count);
    enc.u32(l.ego_start);
    enc.u32(l.ego_end);
    enc.finish()
}

/// Decodes [`Lease`].
pub fn decode_lease(payload: &[u8]) -> Result<Lease, ClusterError> {
    let mut dec = Dec::new(payload);
    let lease = Lease {
        lease_id: dec.u64()?,
        task_index: dec.u32()?,
        task_count: dec.u32()?,
        ego_start: dec.u32()?,
        ego_end: dec.u32()?,
    };
    dec.done()?;
    if lease.ego_start > lease.ego_end || lease.task_index >= lease.task_count {
        return Err(ClusterError::Protocol("inconsistent lease"));
    }
    Ok(lease)
}

/// Encodes [`ShardResult`].
pub fn encode_shard_result(r: &ShardResult) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(r.lease_id);
    enc.u64(r.shard_bytes.len() as u64);
    enc.u8_slice(&r.shard_bytes);
    encode_worker_metrics(&mut enc, &r.metrics);
    enc.finish()
}

/// Decodes [`ShardResult`].
pub fn decode_shard_result(payload: &[u8]) -> Result<ShardResult, ClusterError> {
    let mut dec = Dec::new(payload);
    let lease_id = dec.u64()?;
    let len = dec.count()?;
    let shard_bytes = dec.u8_vec(len)?;
    let metrics = decode_worker_metrics(&mut dec)?;
    dec.done()?;
    Ok(ShardResult {
        lease_id,
        shard_bytes,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_roundtrip() {
        let h = Hello {
            protocol_version: PROTOCOL_VERSION,
            prior_worker_id: 4,
            run_nonce: 0xFEED,
            auth: AUTH_KEYED,
            client_nonce: 0xD00D,
            client_mac: handshake_mac("swordfish", "hello", 0xD00D),
        };
        assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);

        let params = DivideParams {
            detector: 0,
            seed: 7,
            gn_max_friends: 120,
            threads: 3,
        };
        for world in [
            WorldPayload::Path("/tmp/world.lsnap".into()),
            WorldPayload::Bytes(vec![1, 2, 3, 4, 5]),
        ] {
            let w = Welcome {
                protocol_version: PROTOCOL_VERSION,
                worker_id: 17,
                run_nonce: 0xFEED,
                server_mac: handshake_mac("swordfish", "welcome", 0xD00D),
                num_nodes: 300,
                heartbeat_interval_ms: 500,
                params,
                world,
            };
            assert_eq!(decode_welcome(&encode_welcome(&w)).unwrap(), w);
        }

        let l = Lease {
            lease_id: 9,
            task_index: 2,
            task_count: 8,
            ego_start: 75,
            ego_end: 112,
        };
        assert_eq!(decode_lease(&encode_lease(&l)).unwrap(), l);

        let metrics = WorkerMetrics {
            egos_divided: 1000,
            leases_completed: 4,
            compute_nanos: 5_000_000,
            wire_nanos: 250_000,
            bytes_sent: 4096,
            bytes_received: 8192,
            frames_sent: [0, 1, 0, 0, 4, 9, 0, 0],
            frames_received: [0, 0, 1, 5, 0, 0, 1, 0],
            frames_dropped: [0, 0, 0, 0, 0, 2, 0, 0],
            reconnects: 1,
            faults_fired: 3,
        };
        let r = ShardResult {
            lease_id: 9,
            shard_bytes: vec![0xAB; 64],
            metrics,
        };
        assert_eq!(decode_shard_result(&encode_shard_result(&r)).unwrap(), r);

        for hb in [
            HeartbeatInfo {
                busy: true,
                metrics: WorkerMetrics::default(),
            },
            HeartbeatInfo {
                busy: false,
                metrics,
            },
        ] {
            assert_eq!(decode_heartbeat(&encode_heartbeat(&hb)).unwrap(), hb);
        }

        for reason in [
            RejectReason::Version,
            RejectReason::Auth,
            RejectReason::Malformed,
        ] {
            assert_eq!(decode_reject(&encode_reject(reason)).unwrap(), reason);
        }
        assert_eq!(RejectReason::from_u8(0), None);
        assert_eq!(
            RejectReason::from_u8(RejectReason::Malformed as u8 + 1),
            None
        );
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(decode_hello(&[1, 2]).is_err());
        // Unknown auth mode.
        let mut h = encode_hello(&Hello {
            protocol_version: PROTOCOL_VERSION,
            prior_worker_id: 0,
            run_nonce: 0,
            auth: AUTH_NONE,
            client_nonce: 0,
            client_mac: 0,
        });
        h[4 + 8 + 8] = 9; // the auth byte follows version + prior id + run nonce
        assert!(matches!(
            decode_hello(&h),
            Err(ClusterError::Protocol("unknown auth mode"))
        ));
        assert!(decode_reject(&[9]).is_err());
        assert!(decode_heartbeat(&[1]).is_err());
        let mut bad = encode_lease(&Lease {
            lease_id: 1,
            task_index: 5,
            task_count: 8,
            ego_start: 10,
            ego_end: 20,
        });
        bad.truncate(bad.len() - 1);
        assert!(decode_lease(&bad).is_err());
        // Inverted ego range.
        let bad = encode_lease(&Lease {
            lease_id: 1,
            task_index: 0,
            task_count: 1,
            ego_start: 20,
            ego_end: 10,
        });
        assert!(matches!(
            decode_lease(&bad),
            Err(ClusterError::Protocol("inconsistent lease"))
        ));
        // Unknown world mode.
        let mut w = encode_welcome(&Welcome {
            protocol_version: PROTOCOL_VERSION,
            worker_id: 1,
            run_nonce: 0,
            server_mac: 0,
            num_nodes: 1,
            heartbeat_interval_ms: 1,
            params: DivideParams {
                detector: 0,
                seed: 0,
                gn_max_friends: 0,
                threads: 1,
            },
            world: WorldPayload::Path(String::new()),
        });
        let mode_at = w.len() - 8 - 1; // mode byte precedes the empty-path length
        w[mode_at] = 7;
        assert!(decode_welcome(&w).is_err());
        // Unknown detector id surfaces at config rebuild.
        let params = DivideParams {
            detector: 9,
            seed: 0,
            gn_max_friends: 0,
            threads: 1,
        };
        assert!(params.to_config().is_err());
    }

    #[test]
    fn handshake_mac_separates_secrets_labels_and_nonces() {
        let m = handshake_mac("secret", "hello", 42);
        assert_eq!(m, handshake_mac("secret", "hello", 42), "deterministic");
        assert_ne!(m, handshake_mac("Secret", "hello", 42), "keyed");
        assert_ne!(m, handshake_mac("secret", "welcome", 42), "direction-bound");
        assert_ne!(m, handshake_mac("secret", "hello", 43), "nonce-bound");
        assert_ne!(
            handshake_mac("", "hello", 42),
            handshake_mac("", "welcome", 42)
        );
    }

    #[test]
    fn params_reproduce_the_divide_config() {
        let config = LocecConfig {
            detector: CommunityDetector::Louvain,
            seed: 99,
            gn_max_friends: 64,
            threads: 5,
            ..LocecConfig::fast()
        };
        let rebuilt = DivideParams::from_config(&config).to_config().unwrap();
        assert_eq!(rebuilt.detector, config.detector);
        assert_eq!(rebuilt.seed, config.seed);
        assert_eq!(rebuilt.gn_max_friends, config.gn_max_friends);
        assert_eq!(rebuilt.threads, config.threads);
    }
}
