//! Deterministic fault injection for the cluster transport.
//!
//! A [`FaultPlan`] is a seeded schedule of failures keyed by frame type ×
//! occurrence count: `"lease:2:disconnect,shard-result:1:corrupt"` means
//! "sever the connection when the second `Lease` frame crosses this
//! transport, and corrupt the first `ShardResult`". The plan is threaded
//! through a [`FaultyTransport`] wrapper around the frame reader/writer on
//! both the coordinator and worker sides, so every failure mode the
//! cluster claims to survive can be fired on demand — and because the
//! schedule depends only on the spec, the seed, and the frame sequence,
//! the same plan + seed replays the same failure schedule run after run.
//!
//! Occurrence counters are kept **per frame type across both directions**
//! of a transport: a `heartbeat:3:drop` rule fires on the third heartbeat
//! frame this transport touches, whether it was read or written. Counters
//! live for the whole process (they are not reset on reconnect), so a
//! rule fires exactly once.
//!
//! The fault kinds:
//!
//! * `drop` — the frame silently vanishes (written to nowhere / read and
//!   discarded);
//! * `delay=MS` — the frame is delivered late by `MS` milliseconds;
//! * `corrupt` — a seeded payload (or CRC) byte is flipped on write, so
//!   the peer sees a typed [`FrameError::ChecksumMismatch`]; on read the
//!   mismatch is surfaced directly;
//! * `truncate` — only a seeded prefix of the frame is written before the
//!   transport reports failure, so the peer sees a truncated header or
//!   payload;
//! * `disconnect` — the transport reports failure without touching the
//!   wire, as if the TCP connection died;
//! * `stall` — the transport goes silent: every later write is swallowed
//!   (the classic wedged-but-alive straggler), until
//!   [`FaultyTransport::clear_stall`] on reconnect.

use crate::frame::{self, FrameError, FrameType};
use crate::ClusterError;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One deterministic pseudo-random step — the same mixer the synth crate's
/// generators build on. Used here to pick corrupt-byte positions and
/// truncation lengths from the plan seed, and by the worker's backoff
/// jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a fired fault does to the frame it hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame vanishes; the transport reports success.
    Drop,
    /// The frame is delivered after this many milliseconds.
    Delay(u64),
    /// One seeded byte of the written frame is flipped.
    Corrupt,
    /// Only a seeded prefix of the frame reaches the wire.
    Truncate,
    /// The connection dies instead of carrying the frame.
    Disconnect,
    /// The transport goes permanently silent (until a reconnect clears it).
    Stall,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay(_) => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::Disconnect => "disconnect",
            FaultKind::Stall => "stall",
        }
    }
}

/// One scheduled fault: fire `kind` on the `occurrence`-th frame of
/// `frame_type` (1-based) that crosses the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// Which frame type the rule watches.
    pub frame_type: FrameType,
    /// 1-based count of frames of that type; the rule fires when the
    /// counter reaches exactly this value.
    pub occurrence: u32,
    /// What happens to the matched frame.
    pub kind: FaultKind,
}

/// A parsed, seeded fault schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
}

impl FaultPlan {
    /// Parses a `--fault-plan` spec: comma-separated
    /// `FRAME:OCCURRENCE:KIND` rules, where `FRAME` is a frame-type name
    /// (`hello`, `welcome`, `lease`, `shard-result`, `heartbeat`,
    /// `shutdown`, `reject`), `OCCURRENCE` is a 1-based count, and `KIND`
    /// is `drop`, `delay=MS`, `corrupt`, `truncate`, `disconnect` or
    /// `stall`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for rule in spec.split(',') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            let mut parts = rule.splitn(3, ':');
            let (frame, occurrence, kind) = match (parts.next(), parts.next(), parts.next()) {
                (Some(f), Some(o), Some(k)) => (f, o, k),
                _ => return Err(format!("fault rule `{rule}` is not FRAME:OCCURRENCE:KIND")),
            };
            let frame_type = parse_frame_name(frame)
                .ok_or_else(|| format!("unknown frame type `{frame}` in fault rule `{rule}`"))?;
            let occurrence: u32 = occurrence.parse().map_err(|_| {
                format!("occurrence `{occurrence}` in fault rule `{rule}` is not a number")
            })?;
            if occurrence == 0 {
                return Err(format!("occurrence in fault rule `{rule}` is 1-based"));
            }
            let kind = parse_kind(kind)
                .ok_or_else(|| format!("unknown fault kind `{kind}` in fault rule `{rule}`"))?;
            rules.push(FaultRule {
                frame_type,
                occurrence,
                kind,
            });
        }
        if rules.is_empty() {
            return Err("fault plan has no rules".to_owned());
        }
        Ok(FaultPlan { rules, seed })
    }

    /// The rules, in spec order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The seed that fixes corrupt-byte and truncation choices.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Renders the plan back into spec syntax (diagnostics).
    pub fn spec(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r.frame_type.name());
            out.push(':');
            out.push_str(&r.occurrence.to_string());
            out.push(':');
            out.push_str(r.kind.name());
            if let FaultKind::Delay(ms) = r.kind {
                out.push('=');
                out.push_str(&ms.to_string());
            }
        }
        out
    }
}

fn parse_frame_name(name: &str) -> Option<FrameType> {
    let all = [
        FrameType::Hello,
        FrameType::Welcome,
        FrameType::Lease,
        FrameType::ShardResult,
        FrameType::Heartbeat,
        FrameType::Shutdown,
        FrameType::Reject,
    ];
    all.into_iter().find(|ft| ft.name() == name)
}

fn parse_kind(kind: &str) -> Option<FaultKind> {
    if let Some(ms) = kind.strip_prefix("delay=") {
        return ms.parse().ok().map(FaultKind::Delay);
    }
    Some(match kind {
        "drop" => FaultKind::Drop,
        "corrupt" => FaultKind::Corrupt,
        "truncate" => FaultKind::Truncate,
        "disconnect" => FaultKind::Disconnect,
        "stall" => FaultKind::Stall,
        _ => return None,
    })
}

/// The runtime state of a plan: per-frame-type occurrence counters and
/// per-rule fired flags, shared by every reader/writer of one logical
/// peer (the worker's heartbeat thread and serve loop share one clock).
#[derive(Debug)]
pub struct FaultClock {
    plan: FaultPlan,
    state: Mutex<ClockState>,
    stalled: AtomicBool,
}

#[derive(Debug)]
struct ClockState {
    /// Indexed by `FrameType as u8` (slot 0 unused).
    counts: [u32; 8],
    fired: Vec<bool>,
}

impl FaultClock {
    /// Fresh counters for a plan.
    pub fn new(plan: FaultPlan) -> FaultClock {
        let rules = plan.rules.len();
        FaultClock {
            plan,
            state: Mutex::new(ClockState {
                counts: [0; 8],
                fired: vec![false; rules],
            }),
            stalled: AtomicBool::new(false),
        }
    }

    /// Counts one frame of `ft` and returns the fault to fire on it, if
    /// any, plus the seeded mix value that fixes byte/length choices.
    pub fn next_fault(&self, ft: FrameType) -> Option<(FaultKind, u64)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = ft as u8 as usize % 8;
        state.counts[slot] = state.counts[slot].saturating_add(1);
        let count = state.counts[slot];
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.frame_type == ft && rule.occurrence == count && !state.fired[i] {
                state.fired[i] = true;
                let mix = splitmix64(self.plan.seed ^ ((ft as u64) << 32) ^ u64::from(count));
                return Some((rule.kind, mix));
            }
        }
        None
    }

    /// How many rules have fired so far.
    pub fn fired(&self) -> u64 {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.fired.iter().filter(|&&f| f).count() as u64
    }

    fn set_stalled(&self) {
        self.stalled.store(true, Ordering::SeqCst);
    }

    fn stalled(&self) -> bool {
        self.stalled.load(Ordering::SeqCst)
    }

    fn clear_stall(&self) {
        self.stalled.store(false, Ordering::SeqCst);
    }
}

/// Per-frame-type traffic accounting for one transport endpoint:
/// frames/bytes actually written, frames/bytes successfully read, and
/// frames swallowed by injected drop/stall faults before reaching the
/// wire. Indexed by `FrameType as u8` (slot 0 unused). Shared by
/// every clone of its [`FaultyTransport`]; all relaxed atomics, so
/// metering never serializes frame I/O.
#[derive(Debug, Default)]
pub struct TransportMeter {
    frames_sent: [AtomicU64; 8],
    frames_received: [AtomicU64; 8],
    frames_dropped: [AtomicU64; 8],
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl TransportMeter {
    /// Counts one frame of `ft` with `payload_len` payload bytes written.
    pub fn record_send(&self, ft: FrameType, payload_len: usize) {
        self.frames_sent[ft as u8 as usize % 8].fetch_add(1, Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(payload_len as u64, Ordering::Relaxed);
    }

    /// Counts one frame of `ft` with `payload_len` payload bytes read.
    pub fn record_recv(&self, ft: FrameType, payload_len: usize) {
        self.frames_received[ft as u8 as usize % 8].fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(payload_len as u64, Ordering::Relaxed);
    }

    /// Counts one frame of `ft` swallowed by a drop/stall fault.
    pub fn record_drop(&self, ft: FrameType) {
        self.frames_dropped[ft as u8 as usize % 8].fetch_add(1, Ordering::Relaxed);
    }

    /// Frames written, by `FrameType as u8` slot.
    pub fn frames_sent(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.frames_sent[i].load(Ordering::Relaxed))
    }

    /// Frames read, by slot.
    pub fn frames_received(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.frames_received[i].load(Ordering::Relaxed))
    }

    /// Frames dropped by injected faults, by slot.
    pub fn frames_dropped(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.frames_dropped[i].load(Ordering::Relaxed))
    }

    /// Total payload bytes written.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes read.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }
}

/// A frame reader/writer that consults an optional [`FaultClock`] before
/// touching the wire and accounts every frame on its [`TransportMeter`]
/// after. Without a plan it is a metered passthrough to
/// [`frame::read_frame`]/[`frame::write_frame`]. Clones share the clock
/// and the meter; the default injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultyTransport {
    clock: Option<Arc<FaultClock>>,
    meter: Arc<TransportMeter>,
}

impl FaultyTransport {
    /// A transport driven by `plan` (injecting nothing for `None`), with a
    /// fresh meter.
    pub fn new(plan: Option<FaultPlan>) -> FaultyTransport {
        FaultyTransport {
            clock: plan.map(|p| Arc::new(FaultClock::new(p))),
            meter: Arc::default(),
        }
    }

    /// The traffic this transport (and every clone of it) has carried.
    pub fn meter(&self) -> &TransportMeter {
        &self.meter
    }

    /// Whether a `stall` fault has wedged this transport.
    pub fn stalled(&self) -> bool {
        self.clock.as_ref().is_some_and(|c| c.stalled())
    }

    /// Un-wedges the transport — called when a connection is replaced.
    pub fn clear_stall(&self) {
        if let Some(c) = &self.clock {
            c.clear_stall();
        }
    }

    /// How many plan rules have fired.
    pub fn faults_fired(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.fired())
    }

    /// Writes one frame, subject to the plan. `Drop` and `Stall` swallow
    /// the frame and report success; `Truncate` and `Disconnect` report
    /// [`ClusterError::FaultInjected`] after damaging (or skipping) the
    /// write, so the caller tears the connection down exactly as it would
    /// for a real socket failure.
    pub fn write_frame<W: Write>(
        &self,
        w: &mut W,
        ft: FrameType,
        payload: &[u8],
    ) -> Result<(), ClusterError> {
        let Some(clock) = &self.clock else {
            frame::write_frame(w, ft, payload)?;
            self.meter.record_send(ft, payload.len());
            return Ok(());
        };
        if clock.stalled() {
            // A stalled peer is alive but silent: every write vanishes.
            let _ = clock.next_fault(ft);
            self.meter.record_drop(ft);
            return Ok(());
        }
        match clock.next_fault(ft) {
            None => {
                frame::write_frame(w, ft, payload)?;
                self.meter.record_send(ft, payload.len());
                Ok(())
            }
            Some((FaultKind::Drop, _)) => {
                self.meter.record_drop(ft);
                Ok(())
            }
            Some((FaultKind::Delay(ms), _)) => {
                std::thread::sleep(Duration::from_millis(ms));
                frame::write_frame(w, ft, payload)?;
                self.meter.record_send(ft, payload.len());
                Ok(())
            }
            Some((FaultKind::Corrupt, mix)) => {
                let mut bytes = frame::frame_bytes(ft, payload)?;
                // Flip a seeded payload byte, or a CRC byte when there is
                // no payload; either way the receiver sees a checksum
                // mismatch, never a misparsed length.
                let idx = if payload.is_empty() {
                    9 + (mix as usize % 4)
                } else {
                    13 + (mix as usize % payload.len())
                };
                bytes[idx] ^= 1 | (mix >> 32) as u8;
                w.write_all(&bytes).map_err(FrameError::Io)?;
                w.flush().map_err(FrameError::Io)?;
                // The damaged frame did hit the wire: count it as sent.
                self.meter.record_send(ft, payload.len());
                Ok(())
            }
            Some((FaultKind::Truncate, mix)) => {
                let bytes = frame::frame_bytes(ft, payload)?;
                let keep = 1 + (mix as usize % (bytes.len() - 1));
                w.write_all(&bytes[..keep]).map_err(FrameError::Io)?;
                w.flush().map_err(FrameError::Io)?;
                Err(ClusterError::FaultInjected(
                    "fault plan truncated a frame mid-write",
                ))
            }
            Some((FaultKind::Disconnect, _)) => Err(ClusterError::FaultInjected(
                "fault plan severed the connection before a write",
            )),
            Some((FaultKind::Stall, _)) => {
                clock.set_stalled();
                self.meter.record_drop(ft);
                Ok(())
            }
        }
    }

    /// Reads one frame, subject to the plan. `Drop` discards the frame
    /// and reads the next; `Corrupt`/`Truncate` surface the typed
    /// [`FrameError`] the equivalent wire damage would have produced.
    pub fn read_frame<R: Read>(&self, r: &mut R) -> Result<(FrameType, Vec<u8>), ClusterError> {
        let Some(clock) = &self.clock else {
            let (ft, payload) = frame::read_frame(r)?;
            self.meter.record_recv(ft, payload.len());
            return Ok((ft, payload));
        };
        loop {
            let (ft, payload) = frame::read_frame(r)?;
            match clock.next_fault(ft) {
                None => {
                    self.meter.record_recv(ft, payload.len());
                    return Ok((ft, payload));
                }
                Some((FaultKind::Drop, _)) => {
                    self.meter.record_drop(ft);
                    continue;
                }
                Some((FaultKind::Delay(ms), _)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    self.meter.record_recv(ft, payload.len());
                    return Ok((ft, payload));
                }
                Some((FaultKind::Corrupt, _)) => {
                    return Err(ClusterError::Frame(FrameError::ChecksumMismatch))
                }
                Some((FaultKind::Truncate, _)) => {
                    return Err(ClusterError::Frame(FrameError::TruncatedPayload))
                }
                Some((FaultKind::Disconnect, _)) => {
                    return Err(ClusterError::FaultInjected(
                        "fault plan severed the connection after a read",
                    ))
                }
                Some((FaultKind::Stall, _)) => {
                    clock.set_stalled();
                    self.meter.record_recv(ft, payload.len());
                    return Ok((ft, payload));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_render() {
        let plan = FaultPlan::parse(
            "lease:2:disconnect, shard-result:1:corrupt,heartbeat:3:delay=25",
            7,
        )
        .unwrap();
        assert_eq!(plan.rules().len(), 3);
        assert_eq!(
            plan.rules()[0],
            FaultRule {
                frame_type: FrameType::Lease,
                occurrence: 2,
                kind: FaultKind::Disconnect,
            }
        );
        assert_eq!(plan.rules()[2].kind, FaultKind::Delay(25));
        assert_eq!(
            plan.spec(),
            "lease:2:disconnect,shard-result:1:corrupt,heartbeat:3:delay=25"
        );

        for bad in [
            "",
            "lease:corrupt",
            "frob:1:drop",
            "lease:0:drop",
            "lease:x:drop",
            "lease:1:explode",
            "lease:1:delay=abc",
        ] {
            assert!(
                FaultPlan::parse(bad, 7).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    /// The acceptance-criterion pin: the same plan + seed driven over the
    /// same frame sequence makes identical decisions, byte choices
    /// included — chaos runs are replayable.
    #[test]
    fn same_plan_and_seed_replay_the_same_schedule() {
        let spec = "lease:2:corrupt,shard-result:1:truncate,heartbeat:3:delay=5,welcome:1:drop";
        let sequence = [
            FrameType::Hello,
            FrameType::Welcome,
            FrameType::Lease,
            FrameType::Heartbeat,
            FrameType::ShardResult,
            FrameType::Lease,
            FrameType::Heartbeat,
            FrameType::Heartbeat,
            FrameType::Lease,
            FrameType::ShardResult,
        ];
        let drive = || {
            let clock = FaultClock::new(FaultPlan::parse(spec, 42).unwrap());
            sequence
                .iter()
                .map(|&ft| clock.next_fault(ft))
                .collect::<Vec<_>>()
        };
        let first = drive();
        assert_eq!(first, drive(), "schedule must replay exactly");
        // The schedule fires where the spec says and nowhere else.
        let fired: Vec<Option<FaultKind>> = first.iter().map(|d| d.map(|(k, _)| k)).collect();
        assert_eq!(
            fired,
            vec![
                None,
                Some(FaultKind::Drop),
                None,
                None,
                Some(FaultKind::Truncate),
                Some(FaultKind::Corrupt),
                None,
                Some(FaultKind::Delay(5)),
                None,
                None,
            ]
        );
        // A different seed keeps the schedule but moves the byte choices.
        let other = FaultClock::new(FaultPlan::parse(spec, 43).unwrap());
        let other: Vec<_> = sequence.iter().map(|&ft| other.next_fault(ft)).collect();
        assert_eq!(
            other.iter().map(|d| d.map(|(k, _)| k)).collect::<Vec<_>>(),
            fired
        );
        assert_ne!(first, other, "the seed must reach the mix values");
    }

    #[test]
    fn corrupt_and_truncate_produce_the_matching_frame_errors() {
        let plan = FaultPlan::parse("shard-result:1:corrupt,lease:1:truncate", 9).unwrap();
        let t = FaultyTransport::new(Some(plan));

        // Corrupt: the written frame decodes as a checksum mismatch.
        let mut wire = Vec::new();
        t.write_frame(&mut wire, FrameType::ShardResult, b"shard bytes")
            .unwrap();
        assert!(matches!(
            frame::read_frame(&mut wire.as_slice()),
            Err(FrameError::ChecksumMismatch)
        ));

        // Truncate: the write reports an injected fault and the peer sees
        // a truncated header or payload.
        let mut wire = Vec::new();
        let err = t
            .write_frame(&mut wire, FrameType::Lease, b"lease")
            .unwrap_err();
        assert!(matches!(err, ClusterError::FaultInjected(_)));
        assert!(!wire.is_empty());
        assert!(
            wire.len()
                < frame::frame_bytes(FrameType::Lease, b"lease")
                    .unwrap()
                    .len()
        );
        assert!(matches!(
            frame::read_frame(&mut wire.as_slice()),
            Err(FrameError::TruncatedHeader | FrameError::TruncatedPayload)
        ));
    }

    #[test]
    fn drop_and_stall_swallow_frames_silently() {
        let plan = FaultPlan::parse("heartbeat:2:drop,shard-result:1:stall", 3).unwrap();
        let t = FaultyTransport::new(Some(plan));
        let mut wire = Vec::new();
        t.write_frame(&mut wire, FrameType::Heartbeat, b"").unwrap();
        let after_first = wire.len();
        assert!(after_first > 0);
        // Second heartbeat is dropped: nothing lands on the wire.
        t.write_frame(&mut wire, FrameType::Heartbeat, b"").unwrap();
        assert_eq!(wire.len(), after_first);
        // Stall wedges the transport: this and every later write vanish.
        assert!(!t.stalled());
        t.write_frame(&mut wire, FrameType::ShardResult, b"xyz")
            .unwrap();
        assert!(t.stalled());
        t.write_frame(&mut wire, FrameType::Heartbeat, b"").unwrap();
        assert_eq!(wire.len(), after_first);
        assert_eq!(t.faults_fired(), 2);
        // A reconnect clears the wedge.
        t.clear_stall();
        t.write_frame(&mut wire, FrameType::Heartbeat, b"").unwrap();
        assert!(wire.len() > after_first);
    }

    #[test]
    fn meter_accounts_sends_drops_and_recvs() {
        let plan = FaultPlan::parse("heartbeat:2:drop,lease:1:drop", 11).unwrap();
        let t = FaultyTransport::new(Some(plan));
        let meter = t.meter();

        let mut wire = Vec::new();
        t.write_frame(&mut wire, FrameType::Heartbeat, b"hb")
            .unwrap();
        t.write_frame(&mut wire, FrameType::Heartbeat, b"hb")
            .unwrap(); // dropped
        t.write_frame(&mut wire, FrameType::ShardResult, b"shard")
            .unwrap();
        let hb = FrameType::Heartbeat as u8 as usize;
        let sr = FrameType::ShardResult as u8 as usize;
        assert_eq!(meter.frames_sent()[hb], 1);
        assert_eq!(meter.frames_sent()[sr], 1);
        assert_eq!(meter.frames_dropped()[hb], 1);
        assert_eq!(meter.bytes_sent(), 2 + 5);

        // Read side: the dropped lease is counted as dropped, the
        // delivered frames as received.
        let mut inbound = Vec::new();
        frame::write_frame(&mut inbound, FrameType::Lease, b"abc").unwrap();
        frame::write_frame(&mut inbound, FrameType::Lease, b"defg").unwrap();
        let mut r = inbound.as_slice();
        assert_eq!(
            t.read_frame(&mut r).unwrap(),
            (FrameType::Lease, b"defg".to_vec())
        );
        let le = FrameType::Lease as u8 as usize;
        assert_eq!(meter.frames_dropped()[le], 1);
        assert_eq!(meter.frames_received()[le], 1);
        assert_eq!(meter.bytes_received(), 4);

        // A transport without a plan still accounts traffic.
        let p = FaultyTransport::new(None);
        let meter2 = p.meter();
        let mut wire = Vec::new();
        p.write_frame(&mut wire, FrameType::Hello, b"hi").unwrap();
        let mut r = wire.as_slice();
        p.read_frame(&mut r).unwrap();
        let hello = FrameType::Hello as u8 as usize;
        assert_eq!(meter2.frames_sent()[hello], 1);
        assert_eq!(meter2.frames_received()[hello], 1);
        assert_eq!(meter2.bytes_sent(), 2);
        assert_eq!(meter2.bytes_received(), 2);
    }

    #[test]
    fn read_side_faults_fire_on_received_frames() {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, FrameType::Heartbeat, b"").unwrap();
        frame::write_frame(&mut wire, FrameType::Lease, b"a").unwrap();
        frame::write_frame(&mut wire, FrameType::Lease, b"b").unwrap();
        frame::write_frame(&mut wire, FrameType::Lease, b"c").unwrap();

        let plan = FaultPlan::parse("lease:1:drop,lease:3:disconnect", 5).unwrap();
        let t = FaultyTransport::new(Some(plan));
        let mut r = wire.as_slice();
        assert_eq!(
            t.read_frame(&mut r).unwrap(),
            (FrameType::Heartbeat, Vec::new())
        );
        // Lease "a" is dropped; the transport hands back "b".
        assert_eq!(
            t.read_frame(&mut r).unwrap(),
            (FrameType::Lease, b"b".to_vec())
        );
        assert!(matches!(
            t.read_frame(&mut r),
            Err(ClusterError::FaultInjected(_))
        ));
    }
}
