//! Property test for the atomic epoch hot-swap.
//!
//! One daemon serves two divisions of the same world (Girvan–Newman and
//! label propagation), hot-swapped back and forth *while* client threads
//! hammer classify-edge. The properties:
//!
//! * **Single consistent epoch** — every reply is computed entirely from
//!   one epoch, and is bit-identical to the offline pipeline's answer for
//!   that epoch's division. A reply mixing epochs would mismatch both
//!   references.
//! * **Zero drops** — every request issued during the swap window gets a
//!   reply; connection and query counts balance exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use locec_core::phase1::divide;
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::pipeline::{split_edges, train_communities};
use locec_core::{CommunityDetector, CommunityModelKind, DivisionResult, LocecConfig};
use locec_graph::EdgeId;
use locec_serve::{EdgeOutcome, ServeAssets, ServeClient, Server};
use locec_store::{save_division, InferenceWorld};
use locec_synth::{Scenario, SynthConfig};

/// Everything the cases share: a running daemon, the two division
/// snapshots, and the per-division offline reference answers.
struct SwapFixture {
    addr: String,
    /// `(u, v)` endpoint pairs per `EdgeId`.
    edges: Vec<(u32, u32)>,
    /// Offline `(label, probabilities)` per edge, one table per division.
    expected: [Vec<(u8, Vec<f32>)>; 2],
    /// On-disk division snapshots the reload verb points at.
    division_paths: [PathBuf; 2],
    /// Community counts per division (echoed in reload replies).
    communities: [u64; 2],
    /// Serializes reload issuers so epoch ids stay sequential.
    reload_lock: Mutex<()>,
    /// The next epoch id a reload will create.
    next_epoch: AtomicU64,
}

/// Epoch ids map to divisions deterministically: the daemon assigns them
/// sequentially (1, 2, 3, ...) and the reload driver alternates targets,
/// so odd epochs serve division 0 and even epochs division 1.
fn division_of_epoch(epoch: u64) -> usize {
    ((epoch + 1) % 2) as usize
}

fn offline_answers(
    world: &InferenceWorld,
    division: &DivisionResult,
    config: &LocecConfig,
    train: &[(EdgeId, locec_synth::RelationType)],
) -> (CommunityClassifier, EdgeClassifier, Vec<(u8, Vec<f32>)>) {
    let data = world.dataset();
    let (community_model, _) =
        train_communities(&data, division, train, config).expect("some community is labeled");
    let agg = community_model.predict_all(&data, division, config);
    let edge_model = EdgeClassifier::train(data.graph, division, &agg, train, &config.lr);
    let expected = (0..data.graph.num_edges())
        .map(|i| {
            let e = EdgeId(i as u32);
            let label = edge_model
                .predict(data.graph, division, &agg, e)
                .expect("division covers every edge")
                .label() as u8;
            let proba = edge_model
                .predict_proba(data.graph, division, &agg, e)
                .expect("division covers every edge");
            (label, proba)
        })
        .collect();
    (community_model, edge_model, expected)
}

fn fixture() -> &'static SwapFixture {
    static FIX: OnceLock<SwapFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let scenario = Scenario::generate(&SynthConfig::tiny(11));
        let config = LocecConfig {
            community_model: CommunityModelKind::Xgb,
            ..LocecConfig::fast()
        };
        let world = InferenceWorld::from_parts(
            scenario.graph.clone(),
            scenario.user_features().to_vec(),
            scenario.interactions.clone(),
        );
        let data = world.dataset();

        // Two genuinely different divisions of the same world.
        let division_a = divide(data.graph, &config);
        let lp_config = LocecConfig {
            detector: CommunityDetector::LabelPropagation,
            ..config.clone()
        };
        let division_b = divide(data.graph, &lp_config);

        // Train once (on division A's labels) and score both divisions
        // offline with the same models — exactly what the daemon serves
        // after a division-only hot swap.
        let labeled = {
            let sc_data = scenario.dataset();
            sc_data.labeled_edges_sorted()
        };
        let (train, _test) = split_edges(&labeled, 0.8, config.seed);
        let (community_model, edge_model, expected_a) =
            offline_answers(&world, &division_a, &config, &train);
        let agg_b = community_model.predict_all(&data, &division_b, &config);
        let expected_b: Vec<(u8, Vec<f32>)> = (0..data.graph.num_edges())
            .map(|i| {
                let e = EdgeId(i as u32);
                let label = edge_model
                    .predict(data.graph, &division_b, &agg_b, e)
                    .expect("division covers every edge")
                    .label() as u8;
                let proba = edge_model
                    .predict_proba(data.graph, &division_b, &agg_b, e)
                    .expect("division covers every edge");
                (label, proba)
            })
            .collect();

        let edges: Vec<(u32, u32)> = (0..data.graph.num_edges())
            .map(|i| {
                let (u, v) = data.graph.endpoints(EdgeId(i as u32));
                (u.0, v.0)
            })
            .collect();

        let dir = std::env::temp_dir().join(format!("locec_hot_swap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create snapshot dir");
        let path_a = dir.join("division_a.snap");
        let path_b = dir.join("division_b.snap");
        save_division(&path_a, &scenario.graph, &division_a).expect("save division A");
        save_division(&path_b, &scenario.graph, &division_b).expect("save division B");

        let communities = [
            division_a.num_communities() as u64,
            division_b.num_communities() as u64,
        ];
        let assets = ServeAssets::new(community_model, edge_model, &config);
        let server = Server::bind(world, assets, division_a, "127.0.0.1:0").expect("bind daemon");
        let addr = server.local_addr().expect("local addr").to_string();
        // The daemon outlives all cases; the thread is deliberately
        // detached and dies with the test process.
        std::thread::spawn(move || {
            let _ = server.run();
        });

        SwapFixture {
            addr,
            edges,
            expected: [expected_a, expected_b],
            division_paths: [path_a, path_b],
            communities,
            reload_lock: Mutex::new(()),
            next_epoch: AtomicU64::new(2),
        }
    })
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One client worker: issues `queries` classify-edge requests and checks
/// every reply bitwise against the offline table of the epoch it claims.
fn run_client(fx: &SwapFixture, seed: u64, queries: usize) -> usize {
    let mut client = ServeClient::connect(&fx.addr).expect("connect");
    let mut answered = 0;
    for i in 0..queries {
        let pick = splitmix(seed ^ (i as u64).wrapping_mul(0x9E37)) as usize % fx.edges.len();
        let (u, v) = fx.edges[pick];
        let reply = client
            .classify_edge(u, v)
            .expect("query must not be dropped");
        let division = division_of_epoch(reply.epoch);
        let (want_label, want_proba) = &fx.expected[division][pick];
        match reply.outcome {
            EdgeOutcome::Classified { label, proba } => {
                assert_eq!(
                    label, *want_label,
                    "edge {pick} label from epoch {} != offline division {division}",
                    reply.epoch
                );
                let got: Vec<u32> = proba.iter().map(|p| p.to_bits()).collect();
                let want: Vec<u32> = want_proba.iter().map(|p| p.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "edge {pick} probabilities from epoch {} are not bit-identical to the \
                     offline answer for division {division} — the reply mixed epochs",
                    reply.epoch
                );
            }
            other => panic!("edge {pick} unexpectedly {other:?}"),
        }
        answered += 1;
    }
    answered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn responses_during_a_swap_come_from_exactly_one_consistent_epoch(case_seed in 0u64..1_000_000) {
        let fx = fixture();
        let queries_per_client = 40;
        let clients = 2;

        let answered: Vec<std::thread::JoinHandle<usize>> = (0..clients)
            .map(|c| {
                let seed = splitmix(case_seed ^ (c as u64) << 17);
                std::thread::spawn(move || run_client(fixture(), seed, queries_per_client))
            })
            .collect();

        // Two hot swaps mid-traffic, serialized so epoch ids stay
        // sequential and their division mapping stays deterministic.
        {
            let _guard = fx.reload_lock.lock().unwrap_or_else(|p| p.into_inner());
            let mut control = ServeClient::connect(&fx.addr).expect("control connect");
            for _ in 0..2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let epoch = fx.next_epoch.fetch_add(1, Ordering::SeqCst);
                let target = division_of_epoch(epoch);
                let reply = control
                    .reload(None, fx.division_paths[target].to_str().expect("utf-8 path"))
                    .expect("reload roundtrip");
                prop_assert_eq!(reply.outcome, Ok((epoch, fx.communities[target])));
            }
        }

        for handle in answered {
            let done = handle.join().expect("client thread");
            prop_assert_eq!(done, queries_per_client, "a request was dropped during the swap");
        }
    }
}
