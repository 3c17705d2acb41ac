//! The `locec serve` daemon: one accept loop, one handler thread per
//! connection, all answering from the atomically swappable epoch handle.
//!
//! ## Concurrency shape
//!
//! [`Server::run`] blocks in `accept` and gives each connection a scoped
//! handler thread that borrows the shared state. A handler blocks in its
//! socket read between requests and wakes when bytes arrive. Each has its
//! own [`Scratch`] arena (reused across that connection's CNN inferences,
//! the immutable-forward contract). Handlers pin the current epoch `Arc`
//! once per request, so a mid-request reload never mixes epochs within one
//! answer; the reply carries the pinned epoch's id.
//!
//! ## Shutdown
//!
//! A `Shutdown` frame (the same frame type the cluster protocol uses) and
//! [`Server::stop`] do the same three things: set the stop flag, shut the
//! read side of every open connection, and connect once to the listener.
//! A handler parked in a read sees the connection close and exits; one
//! computing a reply still writes it (only the read side is shut) and
//! checks the flag before its next read. The wake connection returns
//! `accept`, which sees the flag and stops accepting. `run` returns once
//! every handler has — no in-flight request is dropped.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use locec_cluster::coordinator::wake_accept;
use locec_cluster::frame::{read_frame, write_frame, FrameType};
use locec_cluster::{FrameError, RejectReason};
use locec_core::DivisionResult;
use locec_ml::Scratch;
use locec_obs::{log, Recorder};
use locec_store::{load_division, InferenceWorld};

use crate::epoch::{EpochHandle, ServeAssets, ServingEpoch};
use crate::protocol::{
    CommunityQuery, CommunityReply, EdgeQuery, EdgeReply, Reload, ReloadReply, ServeHello,
    ServeWelcome, StatusReply, TopKQuery, TopKReply, SERVE_PROTOCOL_VERSION,
};
use crate::ServeError;

/// Per-verb request totals, shared by all handler threads.
#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    edge_queries: AtomicU64,
    community_queries: AtomicU64,
    top_k_queries: AtomicU64,
    reloads: AtomicU64,
}

/// State shared between the accept loop and every handler thread.
struct Shared {
    handle: EpochHandle,
    stats: Stats,
    stop: AtomicBool,
    next_epoch: AtomicU64,
    started: Instant,
    /// The listener's address, connected to once to wake `accept`.
    addr: SocketAddr,
    /// Every open connection by accept number, for `stop` to shut its reads.
    open: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    fn open(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops the daemon; see the module doc's "Shutdown".
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for conn in self.open().values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        wake_accept(self.addr);
    }
}

/// Totals reported when the daemon exits, for the CLI's `serve` report
/// section.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// classify-edge requests answered.
    pub edge_queries: u64,
    /// community-of requests answered.
    pub community_queries: u64,
    /// top-k-intimate requests answered.
    pub top_k_queries: u64,
    /// Completed hot reloads.
    pub reloads: u64,
    /// Id of the epoch that was serving at shutdown.
    pub final_epoch: u64,
}

/// The daemon. [`Server::bind`] validates state and binds the listener;
/// [`Server::run`] serves until a `Shutdown` frame (or [`Server::stop`])
/// and returns the lifetime totals.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Builds the initial epoch (validating that the division matches the
    /// world) and binds the listen address. `listen` may use port 0 to let
    /// the OS pick; see [`Server::local_addr`].
    pub fn bind(
        world: InferenceWorld,
        assets: ServeAssets,
        division: DivisionResult,
        listen: &str,
    ) -> Result<Server, ServeError> {
        let epoch = ServingEpoch::new(1, Arc::new(world), Arc::new(assets), division)?;
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Shared {
                handle: EpochHandle::new(epoch),
                stats: Stats::default(),
                stop: AtomicBool::new(false),
                next_epoch: AtomicU64::new(2),
                started: Instant::now(),
                addr,
                open: Mutex::default(),
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// Requests shutdown from outside the protocol (tests, signal
    /// handlers). Equivalent to receiving a `Shutdown` frame.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Serves until stopped. The handlers are scoped threads, so `run`
    /// returns only after every in-flight request has been answered.
    pub fn run(&self) -> Result<ServeSummary, ServeError> {
        let shared = &self.shared;
        let accepting: std::io::Result<()> = std::thread::scope(|scope| loop {
            let accepted = self.listener.accept();
            // A stop connects once to get here; that connection goes uncounted.
            if shared.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            // On a failed accept, wake every handler so the scope can join.
            let (stream, peer) = accepted.inspect_err(|_| shared.stop())?;
            let id = shared.stats.connections.fetch_add(1, Ordering::Relaxed);
            Recorder::global().counter("serve.connections").incr();
            scope.spawn(move || {
                let result = handle_connection(stream, id, shared);
                shared.open().remove(&id);
                if let Err(e) = result {
                    Recorder::global().counter("serve.connection_errors").incr();
                    log::debug(
                        "serve",
                        "connection ended with error",
                        &[("peer", &peer.to_string()), ("error", &e.to_string())],
                    );
                }
            });
        });
        accepting?;
        let stats = &shared.stats;
        Ok(ServeSummary {
            connections: stats.connections.load(Ordering::Relaxed),
            edge_queries: stats.edge_queries.load(Ordering::Relaxed),
            community_queries: stats.community_queries.load(Ordering::Relaxed),
            top_k_queries: stats.top_k_queries.load(Ordering::Relaxed),
            reloads: stats.reloads.load(Ordering::Relaxed),
            final_epoch: shared.handle.current().id(),
        })
    }
}

/// Waits for the next frame. Returns `Ok(None)` once the daemon is
/// stopping or the peer closed between frames; a stop shuts the read side,
/// so a read blocked here ends as a clean close.
fn next_frame(
    stream: &mut TcpStream,
    shared: &Shared,
) -> Result<Option<(FrameType, Vec<u8>)>, ServeError> {
    if shared.stop.load(Ordering::SeqCst) {
        return Ok(None);
    }
    match read_frame(stream) {
        Ok(frame) => Ok(Some(frame)),
        Err(FrameError::Closed) => Ok(None),
        Err(e) => Err(ServeError::Frame(e)),
    }
}

/// Runs one connection: handshake, then a request/reply loop until the
/// peer hangs up, a `Shutdown` frame arrives, or the daemon stops. The
/// caller removes the connection from `shared.open` afterwards.
fn handle_connection(mut stream: TcpStream, id: u64, shared: &Shared) -> Result<(), ServeError> {
    stream.set_nodelay(true).ok();
    // Registered before the first read checks the stop flag, so a stop
    // either shuts this connection's read side or is seen by that check.
    shared.open().insert(id, stream.try_clone()?);
    let recorder = Recorder::global();

    // --- handshake ---
    let Some((frame_type, payload)) = next_frame(&mut stream, shared)? else {
        return Ok(());
    };
    if frame_type != FrameType::ServeHello {
        write_frame(
            &mut stream,
            FrameType::Reject,
            &[RejectReason::Malformed as u8],
        )?;
        return Err(ServeError::Unexpected {
            expected: "serve-hello",
            got: frame_type,
        });
    }
    let hello = ServeHello::decode(&payload)?;
    if hello.protocol_version != SERVE_PROTOCOL_VERSION {
        write_frame(
            &mut stream,
            FrameType::Reject,
            &[RejectReason::Version as u8],
        )?;
        return Ok(());
    }
    let epoch = shared.handle.current();
    let graph = &epoch.world().graph;
    let welcome = ServeWelcome {
        protocol_version: SERVE_PROTOCOL_VERSION,
        epoch: epoch.id(),
        num_nodes: graph.num_nodes() as u64,
        num_edges: graph.num_edges() as u64,
        num_communities: epoch.num_communities() as u64,
    };
    write_frame(&mut stream, FrameType::ServeWelcome, &welcome.encode())?;
    drop(epoch);

    // --- request/reply loop ---
    let mut scratch = Scratch::new();
    while let Some((frame_type, payload)) = next_frame(&mut stream, shared)? {
        let t0 = Instant::now();
        match frame_type {
            FrameType::EdgeQuery => {
                let q = EdgeQuery::decode(&payload)?;
                let epoch = shared.handle.current();
                let reply = EdgeReply {
                    epoch: epoch.id(),
                    outcome: epoch.classify_edge(q.u, q.v, &mut scratch),
                };
                write_frame(&mut stream, FrameType::EdgeReply, &reply.encode())?;
                shared.stats.edge_queries.fetch_add(1, Ordering::Relaxed);
                recorder.counter("serve.edge_queries").incr();
                recorder.histogram("serve.edge_nanos").record_since(t0);
            }
            FrameType::CommunityQuery => {
                let q = CommunityQuery::decode(&payload)?;
                let epoch = shared.handle.current();
                let reply = CommunityReply {
                    epoch: epoch.id(),
                    memberships: epoch.communities_of(q.node, &mut scratch),
                };
                write_frame(&mut stream, FrameType::CommunityReply, &reply.encode())?;
                shared
                    .stats
                    .community_queries
                    .fetch_add(1, Ordering::Relaxed);
                recorder.counter("serve.community_queries").incr();
                recorder.histogram("serve.community_nanos").record_since(t0);
            }
            FrameType::TopKQuery => {
                let q = TopKQuery::decode(&payload)?;
                let epoch = shared.handle.current();
                let reply = TopKReply {
                    epoch: epoch.id(),
                    neighbors: epoch.top_k_intimate(q.node, q.k),
                };
                write_frame(&mut stream, FrameType::TopKReply, &reply.encode())?;
                shared.stats.top_k_queries.fetch_add(1, Ordering::Relaxed);
                recorder.counter("serve.top_k_queries").incr();
                recorder.histogram("serve.top_k_nanos").record_since(t0);
            }
            FrameType::StatusQuery => {
                let epoch = shared.handle.current();
                let graph = &epoch.world().graph;
                let stats = &shared.stats;
                let reply = StatusReply {
                    epoch: epoch.id(),
                    uptime_nanos: locec_obs::metrics::saturating_nanos(shared.started),
                    reloads: stats.reloads.load(Ordering::Relaxed),
                    connections: stats.connections.load(Ordering::Relaxed),
                    edge_queries: stats.edge_queries.load(Ordering::Relaxed),
                    community_queries: stats.community_queries.load(Ordering::Relaxed),
                    top_k_queries: stats.top_k_queries.load(Ordering::Relaxed),
                    num_nodes: graph.num_nodes() as u64,
                    num_edges: graph.num_edges() as u64,
                    num_communities: epoch.num_communities() as u64,
                    cached_embeddings: epoch.cached_embeddings(),
                };
                write_frame(&mut stream, FrameType::StatusReply, &reply.encode())?;
                recorder.counter("serve.status_queries").incr();
            }
            FrameType::Reload => {
                let req = Reload::decode(&payload)?;
                let reply = apply_reload(shared, &req);
                write_frame(&mut stream, FrameType::ReloadReply, &reply.encode())?;
                recorder.histogram("serve.reload_nanos").record_since(t0);
            }
            FrameType::Shutdown => {
                log::info("serve", "shutdown frame received", &[]);
                shared.stop();
                return Ok(());
            }
            other => {
                write_frame(
                    &mut stream,
                    FrameType::Reject,
                    &[RejectReason::Malformed as u8],
                )?;
                return Err(ServeError::Unexpected {
                    expected: "a serve request",
                    got: other,
                });
            }
        }
    }
    Ok(())
}

/// Builds the next epoch off to the side and swaps it in. On any failure
/// the current epoch keeps serving and the error travels back to the
/// client as a printable reason.
fn apply_reload(shared: &Shared, req: &Reload) -> ReloadReply {
    let current = shared.handle.current();
    let result = (|| -> Result<(u64, u64), ServeError> {
        let division = load_division(Path::new(&req.division_path))?;
        let world = match &req.world_path {
            Some(w) => Arc::new(InferenceWorld::load(Path::new(w))?),
            None => current.share_world(),
        };
        let id = shared.next_epoch.fetch_add(1, Ordering::SeqCst);
        let epoch = ServingEpoch::new(id, world, current.share_assets(), division)?;
        let communities = epoch.num_communities() as u64;
        shared.handle.swap(epoch);
        shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
        Recorder::global().counter("serve.reloads").incr();
        log::info(
            "serve",
            "hot-swapped serving epoch",
            &[("epoch", &id.to_string()), ("division", &req.division_path)],
        );
        Ok((id, communities))
    })();
    match result {
        Ok(ok) => ReloadReply { outcome: Ok(ok) },
        Err(e) => ReloadReply {
            outcome: Err(e.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::EdgeOutcome;
    use crate::testfix::{fixture, Fixture};
    use locec_core::CommunityModelKind;
    use locec_graph::EdgeId;

    fn start(fx: Fixture) -> (Arc<Server>, std::thread::JoinHandle<ServeSummary>) {
        let Fixture {
            world,
            assets,
            division,
            ..
        } = fx;
        let server = Arc::new(Server::bind(world, assets, division, "127.0.0.1:0").expect("bind"));
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run().expect("serve run"));
        (server, handle)
    }

    #[test]
    fn end_to_end_queries_match_offline_answers() {
        let fx = fixture(CommunityModelKind::Xgb, 7);
        let expected = fx.expected.clone();
        let num_edges: Vec<(u32, u32)> = {
            let g = &fx.world.graph;
            (0..g.num_edges())
                .map(|i| {
                    let (u, v) = g.endpoints(EdgeId(i as u32));
                    (u.0, v.0)
                })
                .collect()
        };
        let (server, handle) = start(fx);
        let addr = server.local_addr().unwrap().to_string();

        let mut client = ServeClient::connect(&addr).expect("connect");
        assert_eq!(client.welcome().epoch, 1);
        assert_eq!(client.welcome().num_edges as usize, num_edges.len());

        for (i, &(u, v)) in num_edges.iter().enumerate() {
            let reply = client.classify_edge(u, v).expect("edge query");
            assert_eq!(reply.epoch, 1);
            let (want_label, want_proba) = &expected[i];
            match reply.outcome {
                EdgeOutcome::Classified { label, proba } => {
                    assert_eq!(label, *want_label, "edge {i}");
                    let got: Vec<u32> = proba.iter().map(|p| p.to_bits()).collect();
                    let want: Vec<u32> = want_proba.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(got, want, "edge {i} served proba != offline");
                }
                other => panic!("edge {i} unexpectedly {other:?}"),
            }
        }

        // Non-edges and community/top-k verbs answer without touching the
        // edge path.
        let (u0, _) = num_edges[0];
        let memberships = client.communities_of(u0).expect("community query");
        assert_eq!(memberships.epoch, 1);
        let top = client.top_k_intimate(u0, 3).expect("top-k query");
        assert!(top.neighbors.len() <= 3);

        let status = client.status().expect("status");
        assert_eq!(status.epoch, 1);
        assert_eq!(status.edge_queries, num_edges.len() as u64);
        assert_eq!(status.community_queries, 1);
        assert_eq!(status.top_k_queries, 1);
        assert_eq!(status.reloads, 0);
        assert!(status.cached_embeddings > 0);

        client.shutdown().expect("shutdown");
        let summary = handle.join().expect("join server");
        assert_eq!(summary.edge_queries, num_edges.len() as u64);
        assert_eq!(summary.final_epoch, 1);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let fx = fixture(CommunityModelKind::Xgb, 3);
        let (server, handle) = start(fx);
        let addr = server.local_addr().unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = ServeHello {
            protocol_version: SERVE_PROTOCOL_VERSION + 1,
        };
        write_frame(&mut stream, FrameType::ServeHello, &hello.encode()).unwrap();
        let (ft, payload) = read_frame(&mut stream).unwrap();
        assert_eq!(ft, FrameType::Reject);
        assert_eq!(
            RejectReason::from_u8(payload[0]),
            Some(RejectReason::Version)
        );

        server.stop();
        handle.join().unwrap();
    }

    #[test]
    fn reload_of_a_missing_division_keeps_the_old_epoch() {
        let fx = fixture(CommunityModelKind::Xgb, 5);
        let (server, handle) = start(fx);
        let addr = server.local_addr().unwrap().to_string();

        let mut client = ServeClient::connect(&addr).unwrap();
        let reply = client
            .reload(None, "definitely/not/a/file.snap")
            .expect("reload roundtrip");
        assert!(reply.outcome.is_err());
        let status = client.status().unwrap();
        assert_eq!(status.epoch, 1, "failed reload must not advance the epoch");
        assert_eq!(status.reloads, 0);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// Joins the daemon thread, failing the test instead of hanging it
    /// when `run` does not return within a generous bound.
    fn finishes(handle: std::thread::JoinHandle<ServeSummary>) -> ServeSummary {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(handle.join()));
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("run() did not return after the stop")
            .expect("serve thread panicked")
    }

    /// Sends the serve handshake on a raw stream and reads the welcome.
    fn handshake(stream: &mut TcpStream) {
        let hello = ServeHello {
            protocol_version: SERVE_PROTOCOL_VERSION,
        };
        write_frame(stream, FrameType::ServeHello, &hello.encode()).unwrap();
        let (ft, _) = read_frame(stream).unwrap();
        assert_eq!(ft, FrameType::ServeWelcome);
    }

    #[test]
    fn stop_ends_an_idle_connection_and_counts_only_real_ones() {
        let (server, handle) = start(fixture(CommunityModelKind::Xgb, 9));
        let addr = server.local_addr().unwrap().to_string();
        let idle = ServeClient::connect(&addr).expect("connect");

        server.stop();
        let summary = finishes(handle);
        assert_eq!(summary.connections, 1, "the wake connection was counted");
        drop(idle);
    }

    #[test]
    fn a_shutdown_frame_closes_the_other_idle_connections() {
        let (server, handle) = start(fixture(CommunityModelKind::Xgb, 4));
        let addr = server.local_addr().unwrap();
        let mut idle = TcpStream::connect(addr).unwrap();
        handshake(&mut idle);

        ServeClient::connect(&addr.to_string())
            .unwrap()
            .shutdown()
            .unwrap();
        assert_eq!(finishes(handle).connections, 2);
        assert!(matches!(read_frame(&mut idle), Err(FrameError::Closed)));
    }

    #[test]
    fn stop_before_run_returns_at_once() {
        let Fixture {
            world,
            assets,
            division,
            ..
        } = fixture(CommunityModelKind::Xgb, 6);
        let server = Server::bind(world, assets, division, "127.0.0.1:0").expect("bind");
        server.stop();
        let handle = std::thread::spawn(move || server.run().expect("serve run"));
        assert_eq!(finishes(handle).connections, 0);
    }
}
