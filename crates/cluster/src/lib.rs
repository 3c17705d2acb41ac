#![forbid(unsafe_code)]
//! # locec_cluster — coordinator/worker distributed divide
//!
//! The orchestration layer that turns the sharded Phase I CLI
//! (`divide --shard i/n` + `--merge`, PR 3) into a self-driving cluster
//! run: one **coordinator** owns a dynamic work queue of ego ranges and a
//! streaming shard merge, and any number of **workers** (local processes
//! it spawns, or remote ones that connect) lease ranges, divide them and
//! ship the resulting [`locec_store::DivisionShard`]s back over TCP.
//!
//! Everything is `std`-only. The wire format ([`frame`]) is a
//! length-prefixed, CRC32-checked frame protocol whose payloads reuse the
//! `locec_store` section encoding ([`protocol`]); shard results travel as
//! the exact bytes `locec divide --shard` would have written to disk.
//!
//! Fault tolerance is lease-based ([`queue`]): every handed-out ego range
//! carries a heartbeat-refreshed deadline, and a worker that disconnects
//! or stops heartbeating has its ranges re-queued for the surviving
//! workers. Because re-queues can race a slow delivery, shard absorption
//! is idempotent — a result for an already-absorbed task is dropped, and
//! the merge ([`locec_store::IncrementalMerge`]) never absorbs an ego
//! range twice. Shards are merged the moment they arrive (a single-permit
//! gate keeps at most one unmerged shard in coordinator memory), and the
//! final division snapshot is byte-identical to a single-process
//! `locec divide` of the same world.
//!
//! On top of that sits the robustness layer:
//!
//! * **deterministic fault injection** ([`fault`]) — a seeded
//!   [`FaultPlan`] threaded through a [`FaultyTransport`] wrapper fires
//!   drop/delay/corrupt/truncate/disconnect/stall faults on exact frame
//!   occurrences, so every recovery path below is testable on demand and
//!   replayable from a seed;
//! * **worker retry/backoff/reconnect** ([`worker`]) — a worker that
//!   loses the coordinator reconnects with capped exponential backoff and
//!   deterministic jitter, re-Hellos with its prior worker id, and
//!   resumes leasing;
//! * **coordinator checkpoint-resume** ([`coordinator`]) — absorbed merge
//!   state persists as a [`locec_store::DivisionCheckpoint`] snapshot and
//!   `--resume` requeues only unabsorbed ranges after a coordinator
//!   crash;
//! * **authenticated handshake** ([`protocol`]) — an optional shared
//!   secret adds a mutual challenge-response to Hello/Welcome, rejecting
//!   unauthenticated peers with a typed [`protocol::RejectReason`].

pub mod coordinator;
pub mod fault;
pub mod frame;
pub mod protocol;
pub mod queue;
pub mod worker;

pub use coordinator::{
    CoordinateConfig, CoordinateOutcome, CoordinateStats, Coordinator, WorkerSpawn,
};
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultyTransport, TransportMeter};
pub use frame::FrameError;
pub use protocol::RejectReason;
pub use protocol::WorkerMetrics;
pub use worker::{run_worker, RetryPolicy, WorkerOptions};

use locec_store::SnapshotError;
use std::fmt;

/// Everything that can go wrong on either side of the cluster protocol.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// The peer sent bytes that are not a valid frame or message.
    Protocol(&'static str),
    /// The peer closed the connection at a frame boundary.
    ConnectionClosed,
    /// A frame failed to arrive intact — truncated, corrupt, oversize or
    /// mistyped bytes on the wire (see [`FrameError`]).
    Frame(FrameError),
    /// A snapshot payload (world or shard) failed to decode.
    Snapshot(SnapshotError),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version this build speaks.
        ours: u32,
        /// The version the peer announced.
        theirs: u32,
    },
    /// The coordinator refused the handshake and said why.
    Rejected(RejectReason),
    /// The shared-secret challenge failed (the peer does not hold the
    /// same `--secret`).
    AuthFailed(&'static str),
    /// The coordinator ran out of workers (and respawn budget) with work
    /// still pending.
    Stalled(String),
    /// A scheduled [`FaultPlan`] rule fired on this connection — chaos
    /// instrumentation, handled like the real failure it simulates.
    FaultInjected(&'static str),
    /// The worker's reconnect budget is spent; `last` is the error that
    /// ended the final attempt.
    RetriesExhausted {
        /// Consecutive failed connection attempts.
        attempts: u32,
        /// The terminal error.
        last: Box<ClusterError>,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "i/o error: {e}"),
            ClusterError::Protocol(what) => write!(f, "protocol error: {what}"),
            ClusterError::ConnectionClosed => write!(f, "peer closed the connection"),
            ClusterError::Frame(e) => write!(f, "frame error: {e}"),
            ClusterError::Snapshot(e) => write!(f, "snapshot payload error: {e}"),
            ClusterError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch (ours {ours}, peer {theirs})")
            }
            ClusterError::Rejected(reason) => {
                write!(f, "coordinator rejected the handshake: {reason}")
            }
            ClusterError::AuthFailed(why) => write!(f, "authentication failed: {why}"),
            ClusterError::Stalled(why) => write!(f, "coordination stalled: {why}"),
            ClusterError::FaultInjected(what) => {
                write!(f, "injected fault fired: {what}")
            }
            ClusterError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<SnapshotError> for ClusterError {
    fn from(e: SnapshotError) -> Self {
        ClusterError::Snapshot(e)
    }
}

impl From<FrameError> for ClusterError {
    fn from(e: FrameError) -> Self {
        match e {
            // A clean hang-up between frames keeps its historical variant
            // so callers can keep matching on ConnectionClosed.
            FrameError::Closed => ClusterError::ConnectionClosed,
            FrameError::Io(e) => ClusterError::Io(e),
            other => ClusterError::Frame(other),
        }
    }
}
