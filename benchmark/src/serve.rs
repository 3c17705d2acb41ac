//! The serve section: an in-process `locec_serve` daemon on loopback TCP,
//! loaded from the snapshots the pipeline section wrote, driven by the
//! benchmark's own client threads in three phases.
//!
//! * **saturate** — closed loop: each of `C` clients sends its next
//!   request when the previous reply arrives. Gives `serve_qps`.
//! * **paced** — open loop: requests are due on a seeded schedule of
//!   exponential gaps, whatever the server does; latency runs from the due
//!   time, so a stall is charged to every request it delays. Gives
//!   `serve_p50_us`.
//! * **reload** — the paced traffic goes on while a control connection
//!   hot-reloads the division: no request may be dropped or answered
//!   wrongly across a swap. Then the same reloads on the idle daemon give
//!   `reload_s`.
//!
//! Every classify-edge reply is compared bit for bit with the offline
//! answer; a wrong, refused or failed reply counts as a failed operation.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locec_cluster::frame::{read_frame, write_frame, FrameType};
use locec_core::phase2::CommunityClassifier;
use locec_graph::EdgeId;
use locec_obs::Recorder;
use locec_serve::{
    CommunityQuery, CommunityReply, EdgeOutcome, EdgeQuery, EdgeReply, ServeAssets, ServeClient,
    ServeHello, Server, TopKQuery, TopKReply, SERVE_PROTOCOL_VERSION,
};
use locec_store::{load_community_model, load_division, load_edge_model, InferenceWorld};

use crate::spec::{LATE_NS, MIX, PACED_RATE, TOP_K};
use crate::stats::percentile;
use crate::workload::{sample_indices, splitmix, Ctx, Rep};

/// How many distinct edges the classify-edge queries target.
const TARGET_EDGES: usize = 5_000;
/// Community-of and top-k queries ask about the first endpoint of the
/// first this-many targets. Both sets are small enough to warm before the
/// phases start, so the phases measure the steady state, not how far the
/// epoch's embedding memo has filled.
const TARGET_NODES: usize = 300;

/// One query target: an edge and the offline pipeline's answer for it.
struct Target {
    u: u32,
    v: u32,
    label: u8,
    proba_bits: Vec<u32>,
}

/// Loads what `locec serve` loads — world, division and both models from
/// their snapshots — and assembles the daemon's assets.
pub fn load_serving_state(ctx: &Ctx) -> (InferenceWorld, ServeAssets, locec_core::DivisionResult) {
    let world = InferenceWorld::load(&ctx.path("world.lsnap")).expect("load inference world");
    let division = load_division(&ctx.path("division.lsnap")).expect("load division");
    let community_model =
        load_community_model(&ctx.path("cmodel.lsnap")).expect("load community model");
    let edge_model = load_edge_model(&ctx.path("emodel.lsnap")).expect("load edge model");
    // The CNN's feature matrix keeps its trained height.
    let k = match &community_model {
        CommunityClassifier::Cnn(cnn) => cnn.input_shape().0,
        _ => ctx.config.k,
    };
    let assets = ServeAssets {
        community_model,
        edge_model,
        k,
        row_order: ctx.config.row_order,
        seed: ctx.config.seed,
    };
    (world, assets, division)
}

fn targets(ctx: &Ctx, rep: &Rep) -> Vec<Target> {
    let graph = &rep.world.graph;
    sample_indices(graph.num_edges(), TARGET_EDGES, splitmix(ctx.seed ^ 0x7A26))
        .into_iter()
        .map(|i| {
            let e = EdgeId(i as u32);
            let (u, v) = graph.endpoints(e);
            let proba = rep
                .edge_model
                .predict_proba(graph, &rep.division, &rep.agg, e)
                .expect("a full division covers every edge");
            Target {
                u: u.0,
                v: v.0,
                label: rep.labels[i].label() as u8,
                proba_bits: proba.iter().map(|p| p.to_bits()).collect(),
            }
        })
        .collect()
}

/// Which target and which verb request number `i` of client `client` is.
fn pick(targets: &[Target], seed: u64, client: u64, i: u64) -> (&Target, u64) {
    let roll = splitmix(seed ^ client.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i);
    let kind = roll % MIX.iter().sum::<u64>();
    let among = if kind < MIX[0] {
        targets.len()
    } else {
        targets.len().min(TARGET_NODES)
    };
    (&targets[(splitmix(roll) % among as u64) as usize], kind)
}

/// A query connection. It speaks the serve protocol's own frames and
/// payload types like `ServeClient`, but sending and receiving are apart,
/// so the saturate phase can keep several requests in flight on one
/// connection. The daemon answers a connection's requests in order.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Option<Conn> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        let hello = ServeHello {
            protocol_version: SERVE_PROTOCOL_VERSION,
        };
        write_frame(&mut stream, FrameType::ServeHello, &hello.encode()).ok()?;
        match read_frame(&mut stream).ok()? {
            (FrameType::ServeWelcome, _) => Some(Conn { stream }),
            _ => None,
        }
    }

    /// Sends the query `kind` selects from [`MIX`] about `target`.
    fn send(&mut self, target: &Target, kind: u64) -> bool {
        let (frame, payload) = if kind < MIX[0] {
            let q = EdgeQuery {
                u: target.u,
                v: target.v,
            };
            (FrameType::EdgeQuery, q.encode())
        } else if kind < MIX[0] + MIX[1] {
            (
                FrameType::CommunityQuery,
                CommunityQuery { node: target.u }.encode(),
            )
        } else {
            let q = TopKQuery {
                node: target.u,
                k: TOP_K,
            };
            (FrameType::TopKQuery, q.encode())
        };
        write_frame(&mut self.stream, frame, &payload).is_ok()
    }

    /// Reads the next reply and checks it against what `send(target,
    /// kind)` asked: classify-edge bit for bit against the offline answer,
    /// the other verbs for an epoch stamp and a non-empty answer.
    fn receive(&mut self, target: &Target, kind: u64) -> bool {
        let Ok((frame, payload)) = read_frame(&mut self.stream) else {
            return false;
        };
        match frame {
            FrameType::EdgeReply if kind < MIX[0] => match EdgeReply::decode(&payload) {
                Ok(EdgeReply {
                    outcome: EdgeOutcome::Classified { label, proba },
                    ..
                }) => {
                    label == target.label
                        && proba.len() == target.proba_bits.len()
                        && proba
                            .iter()
                            .zip(&target.proba_bits)
                            .all(|(p, b)| p.to_bits() == *b)
                }
                _ => false,
            },
            FrameType::CommunityReply if kind >= MIX[0] && kind < MIX[0] + MIX[1] => {
                CommunityReply::decode(&payload)
                    .is_ok_and(|r| r.epoch > 0 && !r.memberships.is_empty())
            }
            FrameType::TopKReply if kind >= MIX[0] + MIX[1] => {
                TopKReply::decode(&payload).is_ok_and(|r| r.epoch > 0 && !r.neighbors.is_empty())
            }
            _ => false,
        }
    }

    /// One request and its reply.
    fn round_trip(&mut self, target: &Target, kind: u64) -> bool {
        self.send(target, kind) && self.receive(target, kind)
    }
}

// ------------------------------------------------------------ open loop

/// The time source of the open-loop scheduler, so a test can drive it with
/// a simulated clock.
pub trait Clock {
    /// Nanoseconds since the phase started.
    fn now_ns(&self) -> u64;
    /// Returns no earlier than `t` nanoseconds since the phase started.
    fn sleep_until_ns(&self, t: u64);
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
    fn sleep_until_ns(&self, t: u64) {
        let now = self.now_ns();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// One paced request: when it was due, when it was sent, when its reply
/// arrived (nanoseconds since the phase started).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paced {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Paced {
    /// Latency counted from the due time, not from the send: the wait a
    /// late send imposes is part of what the request's user saw.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }
    /// How long after its due time the request was sent.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Due times of an open-loop schedule: exponential gaps at `rate` per
/// second from `seed`, up to `horizon_ns`.
pub fn schedule(rate: f64, horizon_ns: u64, seed: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    let mut i = 0u64;
    loop {
        // Uniform in (0, 1]: never ln(0).
        let u = ((splitmix(seed ^ i) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
        i += 1;
    }
}

/// Runs one connection's schedule: waits for each due time, sends, waits
/// for the reply. A request whose predecessor is still in flight at its
/// due time goes out late and that wait counts against it. Stops early
/// when `stop` is set. Returns the samples and how many requests failed.
pub fn run_schedule(
    clock: &impl Clock,
    due: &[u64],
    stop: &AtomicBool,
    mut send: impl FnMut(u64) -> bool,
) -> (Vec<Paced>, u64) {
    let mut samples = Vec::with_capacity(due.len());
    let mut failed = 0;
    for (i, &due_ns) in due.iter().enumerate() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        clock.sleep_until_ns(due_ns);
        let sent_ns = clock.now_ns();
        if !send(i as u64) {
            failed += 1;
        }
        samples.push(Paced {
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
        });
    }
    (samples, failed)
}

// --------------------------------------------------------------- phases

struct Load {
    addr: String,
    targets: Arc<Vec<Target>>,
    seed: u64,
    clients: usize,
}

/// Requests each saturate connection keeps in flight. With one, a
/// two-core box spends the phase waking idle cores and the rate says more
/// about the scheduler than about the daemon; with a window the handler
/// threads always have a next request and the rate is the daemon's.
const WINDOW: usize = 8;

/// What a saturate phase saw.
struct Saturated {
    /// Per-request latency, send to reply, ns, ascending.
    latencies: Vec<u64>,
    /// Replies per second: the median over [`SLICE_NS`] slices of the phase.
    qps: f64,
    failed: u64,
}

/// Length of the slices the saturate rate is a median over. A burst of
/// interference from outside the process spoils a few slices, not the
/// median.
const SLICE_NS: u64 = 100_000_000;

/// Replies per second as the median over the full slices of `seconds`,
/// from the replies' arrival times (ns since the phase started).
fn median_rate(arrivals: &[u64], seconds: f64) -> f64 {
    let slices = ((seconds * 1e9) as u64 / SLICE_NS).max(1) as usize;
    let mut counts = vec![0.0f64; slices];
    for &t in arrivals {
        if let Some(c) = counts.get_mut((t / SLICE_NS) as usize) {
            *c += 1.0;
        }
    }
    crate::stats::median(&counts) * 1e9 / SLICE_NS as f64
}

/// Closed loop for `seconds`: every client keeps [`WINDOW`] requests in
/// flight and sends the next when a reply arrives.
fn saturate(load: &Load, phase: u64, seconds: f64) -> Saturated {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let handles: Vec<_> = (0..load.clients as u64)
        .map(|c| {
            let (addr, targets, seed) = (
                load.addr.clone(),
                Arc::clone(&load.targets),
                load.seed ^ phase,
            );
            std::thread::spawn(move || {
                let (mut latencies, mut arrivals) = (Vec::new(), Vec::new());
                let Some(mut conn) = Conn::connect(&addr) else {
                    return (latencies, arrivals, 1);
                };
                let mut failed = 0u64;
                let mut in_flight: VecDeque<(&Target, u64, Instant)> = VecDeque::new();
                let mut i = 0u64;
                loop {
                    while in_flight.len() < WINDOW && Instant::now() < deadline {
                        let (target, kind) = pick(&targets, seed, c, i);
                        i += 1;
                        in_flight.push_back((target, kind, Instant::now()));
                        failed += u64::from(!conn.send(target, kind));
                    }
                    let Some((target, kind, sent)) = in_flight.pop_front() else {
                        break;
                    };
                    failed += u64::from(!conn.receive(target, kind));
                    latencies.push(sent.elapsed().as_nanos() as u64);
                    arrivals.push(t0.elapsed().as_nanos() as u64);
                }
                (latencies, arrivals, failed)
            })
        })
        .collect();
    let (mut latencies, mut arrivals) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for h in handles {
        let (l, a, f) = h.join().expect("client thread");
        latencies.extend(l);
        arrivals.extend(a);
        failed += f;
    }
    latencies.sort_unstable();
    Saturated {
        qps: median_rate(&arrivals, seconds),
        latencies,
        failed,
    }
}

/// Open loop at [`PACED_RATE`] over the clients until `horizon` or `stop`;
/// `control` runs on the calling thread meanwhile and its result is
/// returned with the samples and the failure count.
fn paced<T>(
    load: &Load,
    phase: u64,
    horizon: Duration,
    control: impl FnOnce(&WallClock, &AtomicBool) -> T,
) -> (Vec<Paced>, u64, T) {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..load.clients as u64)
        .map(|c| {
            let (addr, targets, seed) = (
                load.addr.clone(),
                Arc::clone(&load.targets),
                load.seed ^ phase,
            );
            let stop = Arc::clone(&stop);
            let due = schedule(
                PACED_RATE / load.clients as f64,
                horizon.as_nanos() as u64,
                splitmix(seed ^ c),
            );
            std::thread::spawn(move || {
                let Some(mut conn) = Conn::connect(&addr) else {
                    return (Vec::new(), 1);
                };
                run_schedule(&WallClock(start), &due, &stop, |i| {
                    let (target, kind) = pick(&targets, seed, c, i);
                    conn.round_trip(target, kind)
                })
            })
        })
        .collect();
    let out = control(&WallClock(start), &stop);
    let mut samples = Vec::new();
    let mut failed = 0;
    for h in handles {
        let (s, f) = h.join().expect("client thread");
        samples.extend(s);
        failed += f;
    }
    (samples, failed, out)
}

fn sorted_latencies(samples: &[Paced]) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(Paced::latency_ns).collect();
    v.sort_unstable();
    v
}

/// Sum of the daemon's per-verb handler histograms, nanoseconds.
fn handler_nanos() -> u64 {
    let snap = Recorder::global().snapshot();
    [
        "serve.edge_nanos",
        "serve.community_nanos",
        "serve.top_k_nanos",
    ]
    .iter()
    .map(|h| snap.histograms.get(*h).map_or(0, |h| h.sum))
    .sum()
}

/// What the serve section measured.
pub struct ServeOut {
    pub startup_s: f64,
    pub warmup_s: f64,
    pub qps: f64,
    pub sat_p50_us: f64,
    pub sat_p99_us: f64,
    pub paced_p50_us: f64,
    pub paced_p99_us: f64,
    pub paced_p999_us: f64,
    pub paced_late_frac: f64,
    /// Reload times on the idle daemon, and under the paced traffic.
    pub reload_s: Vec<f64>,
    pub busy_reload_s: Vec<f64>,
    pub reload_window_p99_us: f64,
    /// Traced runs only: share of client-observed time spent outside the
    /// daemon's handlers, and what the recorder costs in throughput.
    pub wire_share: f64,
    pub overhead_frac: f64,
}

/// Hot reloads under paced traffic, and afterwards on the idle daemon.
const BUSY_RELOADS: usize = 7;
const QUIET_RELOADS: usize = 15;

pub fn serve_section(ctx: &mut Ctx, rep: &Rep) -> ServeOut {
    let t0 = Instant::now();
    let (world, assets, division) = load_serving_state(ctx);
    let server =
        Arc::new(Server::bind(world, assets, division, "127.0.0.1:0").expect("bind daemon"));
    let startup_s = t0.elapsed().as_secs_f64();
    let addr = server.local_addr().expect("daemon address").to_string();
    let daemon = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let load = Load {
        addr: addr.clone(),
        targets: Arc::new(targets(ctx, rep)),
        seed: splitmix(ctx.seed ^ 0x5E27),
        clients: ctx.sizing.clients,
    };
    let phase_s = ctx.serve_phase_s();
    let us = |ns: u64| ns as f64 / 1e3;

    // Warm-up: every query the phases can send, once. Counted and checked
    // like any other request.
    let t0 = Instant::now();
    let mut warm_requests = 0u64;
    let mut warm_failed = 0u64;
    match Conn::connect(&addr) {
        Some(mut conn) => {
            for (i, target) in load.targets.iter().enumerate() {
                let kinds: &[u64] = if i < TARGET_NODES {
                    &[0, MIX[0], MIX[0] + MIX[1]]
                } else {
                    &[0]
                };
                for &kind in kinds {
                    warm_requests += 1;
                    warm_failed += u64::from(!conn.round_trip(target, kind));
                }
            }
        }
        None => warm_failed += 1,
    }
    let warmup_s = t0.elapsed().as_secs_f64();

    // A: saturate. A traced run spends half of the phase with the recorder
    // on, for the wire share and the recorder's cost.
    let sat = saturate(&load, 1, if ctx.traced { phase_s / 2.0 } else { phase_s });
    let (mut wire_share, mut overhead_frac) = (0.0, 0.0);
    let mut requests = warm_requests + sat.latencies.len() as u64;
    let mut failed = warm_failed + sat.failed;
    if ctx.traced {
        ctx.set_tracing(true);
        let before = handler_nanos();
        let traced = ctx
            .tracer
            .span("serve.saturate", || saturate(&load, 2, phase_s / 2.0));
        let inside = handler_nanos() - before;
        ctx.set_tracing(false);
        // With a window, a request's latency includes its wait behind the
        // requests ahead of it; the busy time of the connections is what
        // the handlers' time is a share of.
        let observed = load.clients as f64 * phase_s / 2.0 * 1e9;
        wire_share = 1.0 - inside as f64 / observed;
        overhead_frac = sat.qps / traced.qps - 1.0;
        requests += traced.latencies.len() as u64;
        failed += traced.failed;
    }

    // B: paced.
    ctx.set_tracing(ctx.traced);
    let (paced_samples, failed_b, ()) = ctx.tracer.span("serve.paced", || {
        paced(&load, 3, Duration::from_secs_f64(phase_s), |_, _| ())
    });
    let paced_sorted = sorted_latencies(&paced_samples);
    let late = paced_samples
        .iter()
        .filter(|s| s.lateness_ns() > LATE_NS)
        .count();

    // C: the paced traffic goes on while the control connection reloads
    // the division the daemon already serves, so the offline answers stay
    // valid across every swap.
    let division_path = ctx.path("division.lsnap");
    let division_path = division_path
        .to_str()
        .expect("utf-8 scratch path")
        .to_owned();
    let gap = Duration::from_secs_f64(phase_s / BUSY_RELOADS as f64 / 2.0);
    let (reload_samples, failed_c, reloads) = ctx.tracer.span("serve.reload", || {
        // The horizon only bounds the schedule; `stop` ends the phase.
        paced(&load, 4, Duration::from_secs(120), |clock, stop| {
            let mut windows: Vec<(u64, u64, bool)> = Vec::new();
            let mut control = ServeClient::connect(&addr).ok();
            for _ in 0..BUSY_RELOADS {
                std::thread::sleep(gap);
                let start_ns = clock.now_ns();
                let ok = control
                    .as_mut()
                    .and_then(|c| c.reload(None, &division_path).ok())
                    .is_some_and(|r| r.outcome.is_ok());
                windows.push((start_ns, clock.now_ns(), ok));
            }
            std::thread::sleep(gap);
            stop.store(true, Ordering::Relaxed);
            windows
        })
    });
    ctx.set_tracing(false);
    let mut in_window: Vec<u64> = reload_samples
        .iter()
        .filter(|s| {
            reloads
                .iter()
                .any(|&(a, b, _)| s.due_ns >= a && s.due_ns <= b)
        })
        .map(Paced::latency_ns)
        .collect();
    in_window.sort_unstable();
    let mut reloads_failed = reloads.iter().filter(|r| !r.2).count() as u64;

    // D: the same reload with no other traffic. Beside the paced clients a
    // reload shares two cores with four other threads and its time follows
    // the scheduler (one seed, six runs: 11 to 18 ms); alone it is the
    // daemon's own (9.4 to 10.4 ms), so this is what `reload_s` reports.
    let mut quiet_reload_s = Vec::with_capacity(QUIET_RELOADS);
    let mut control = ServeClient::connect(&addr).ok();
    for _ in 0..QUIET_RELOADS {
        let t = Instant::now();
        let ok = control
            .as_mut()
            .and_then(|c| c.reload(None, &division_path).ok())
            .is_some_and(|r| r.outcome.is_ok());
        quiet_reload_s.push(t.elapsed().as_secs_f64());
        reloads_failed += u64::from(!ok);
    }
    drop(control);

    server.stop();
    let summary = daemon.join().expect("daemon thread").expect("daemon run");

    requests += (paced_samples.len() + reload_samples.len()) as u64;
    failed += failed_b + failed_c;
    ctx.attempted += requests + (BUSY_RELOADS + QUIET_RELOADS) as u64;
    ctx.failed += failed + reloads_failed;
    ctx.gate(
        failed == 0,
        "every served reply is right, bit-equal to offline for classify-edge",
    );
    ctx.gate(
        reloads_failed == 0 && summary.reloads == (BUSY_RELOADS + QUIET_RELOADS) as u64,
        "every hot reload succeeds",
    );
    ctx.gate(
        summary.edge_queries + summary.community_queries + summary.top_k_queries == requests,
        "the daemon answered exactly the requests sent: none dropped across reloads",
    );

    ServeOut {
        startup_s,
        warmup_s,
        qps: sat.qps,
        sat_p50_us: us(percentile(&sat.latencies, 0.5)),
        sat_p99_us: us(percentile(&sat.latencies, 0.99)),
        paced_p50_us: us(percentile(&paced_sorted, 0.5)),
        paced_p99_us: us(percentile(&paced_sorted, 0.99)),
        paced_p999_us: us(percentile(&paced_sorted, 0.999)),
        paced_late_frac: late as f64 / paced_samples.len().max(1) as f64,
        reload_s: quiet_reload_s,
        busy_reload_s: reloads
            .iter()
            .map(|&(a, b, _)| (b - a) as f64 / 1e9)
            .collect(),
        reload_window_p99_us: us(percentile(&in_window, 0.99)),
        wire_share,
        overhead_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the target,
    /// a request takes `service_ns`.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until_ns(&self, t: u64) {
            self.now.set(self.now.get().max(t));
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_is_reported() {
        let clock = FakeClock { now: Cell::new(0) };
        let stop = AtomicBool::new(false);
        // Due at 100, 200, 300; each request takes 250: the second and
        // third go out late, behind their predecessors.
        let (samples, failed) = run_schedule(&clock, &[100, 200, 300], &stop, |_| {
            clock.now.set(clock.now.get() + 250);
            true
        });
        assert_eq!(failed, 0);
        assert_eq!(
            samples,
            vec![
                Paced {
                    due_ns: 100,
                    sent_ns: 100,
                    done_ns: 350
                },
                Paced {
                    due_ns: 200,
                    sent_ns: 350,
                    done_ns: 600
                },
                Paced {
                    due_ns: 300,
                    sent_ns: 600,
                    done_ns: 850
                },
            ]
        );
        let latency: Vec<u64> = samples.iter().map(Paced::latency_ns).collect();
        let lateness: Vec<u64> = samples.iter().map(Paced::lateness_ns).collect();
        assert_eq!(
            latency,
            vec![250, 400, 550],
            "the queueing delay is charged to the request"
        );
        assert_eq!(lateness, vec![0, 150, 300]);
    }

    #[test]
    fn failures_are_counted_and_stop_ends_the_schedule() {
        let clock = FakeClock { now: Cell::new(0) };
        let stop = AtomicBool::new(false);
        let (samples, failed) = run_schedule(&clock, &[10, 20, 30, 40], &stop, |i| {
            if i == 1 {
                stop.store(true, Ordering::Relaxed);
            }
            i != 0
        });
        assert_eq!(samples.len(), 2, "requests after the stop are never sent");
        assert_eq!(failed, 1);
    }

    #[test]
    fn saturate_rate_is_the_median_slice_not_the_mean() {
        // Three 100 ms slices with 10, 1000 and 30 replies: the median
        // slice has 30, that is 300 replies per second.
        let mut arrivals = vec![5u64; 10];
        arrivals.extend(vec![SLICE_NS + 5; 1000]);
        arrivals.extend(vec![2 * SLICE_NS + 5; 30]);
        // Replies after the last full slice are not counted.
        arrivals.extend(vec![3 * SLICE_NS + 5; 7]);
        assert_eq!(median_rate(&arrivals, 0.3), 300.0);
        assert_eq!(median_rate(&[], 0.3), 0.0);
    }

    #[test]
    fn schedule_is_seeded_ascending_and_close_to_its_rate() {
        let a = schedule(2_000.0, 5_000_000_000, 7);
        assert_eq!(a, schedule(2_000.0, 5_000_000_000, 7));
        assert_ne!(a, schedule(2_000.0, 5_000_000_000, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < 5_000_000_000));
        let expected = 10_000.0;
        assert!(
            (a.len() as f64 - expected).abs() < 0.05 * expected,
            "{} requests",
            a.len()
        );
    }
}
