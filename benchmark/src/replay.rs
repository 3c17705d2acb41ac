//! The replay section of a traced run.
//!
//! The staged path cannot separate some stage internals from outside: ego
//! extraction vs. Girvan–Newman vs. Louvain inside Phase I, the GEMM inside
//! the CNN, the CRC inside a snapshot read, the frame codec and the epoch
//! calls inside a served request, the cluster's cost over a plain divide.
//! This section calls each of those public functions directly, on seeded
//! samples of the run's own world, and times the calls.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use locec_cluster::frame::{read_frame, write_frame, FrameType};
use locec_cluster::{run_worker, CoordinateConfig, Coordinator, WorkerOptions};
use locec_community::{girvan_newman_with, louvain, GnScratch};
use locec_core::features::FEATURE_COLS;
use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1::{self, DivisionResult};
use locec_core::{community_feature_matrix, CommCnn, CommCnnConfig, LocecConfig};
use locec_graph::{dirty_egos, EgoNetwork, EgoScratch, GraphDelta, NodeId};
use locec_ml::kernel::sgemm::sgemm;
use locec_ml::{Scratch, Tensor};
use locec_serve::ServingEpoch;
use locec_store::format::crc32;
use locec_synth::evolve::EvolveConfig;
use locec_synth::{RelationType, WorldDelta};

use crate::serve::load_serving_state;
use crate::spec::TOP_K;
use crate::workload::{sample_indices, splitmix, Ctx, Rep};

/// Egos sampled for the Phase I internals.
const EGO_SAMPLE: usize = 2_000;
/// Communities sampled for the feature-matrix and CNN-inference replays.
const COMMUNITY_SAMPLE: usize = 5_000;
/// Labelled communities the CNN-training replay uses, and its epochs.
const CNN_TRAIN_SAMPLE: usize = 512;
const CNN_TRAIN_EPOCHS: usize = 2;
/// Direct epoch calls per verb.
const EPOCH_CALLS: usize = 2_000;

/// What the replays measured, keyed like the per-layer metrics.
#[derive(Default)]
pub struct ReplayOut {
    pub ego_extract_s: f64,
    pub gn_s: f64,
    pub louvain_s: f64,
    pub divide_t1_s: f64,
    pub parallel_efficiency: f64,
    pub update_1pct_s: f64,
    pub matrix_s: f64,
    pub cnn_train_samples_per_s: f64,
    pub cnn_infer_samples_per_s: f64,
    pub sgemm_gflops: f64,
    pub crc32_mb_per_s: f64,
    pub frame_roundtrip_ns: f64,
    pub coordinate_s: f64,
    pub epoch_build_s: f64,
    pub classify_edge_ns: f64,
    pub communities_of_ns: f64,
    pub top_k_ns: f64,
    pub seconds: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn replay_section(ctx: &mut Ctx, rep: &Rep) -> ReplayOut {
    let started = Instant::now();
    ctx.set_tracing(true);
    let mut out = ReplayOut::default();
    let mut cluster_division: Option<DivisionResult> = None;
    {
        let t = &ctx.tracer;
        t.span("replay", || {
            t.span("replay.phase1_internals", || {
                phase1_internals(ctx, rep, &mut out)
            });
            t.span("replay.runtime", || runtime(ctx, rep, &mut out));
            t.span("replay.update_1pct", || update_1pct(ctx, rep, &mut out));
            t.span("replay.ml", || ml(ctx, rep, &mut out));
            t.span("replay.codecs", || codecs(&mut out));
            t.span("replay.cluster", || {
                cluster_division = Some(cluster(ctx, rep, &mut out))
            });
            t.span("replay.epoch", || epoch(ctx, rep, &mut out));
        });
    }
    ctx.set_tracing(false);
    let clustered = cluster_division.expect("the cluster replay ran");
    let same = clustered.membership_table() == rep.division.membership_table()
        && clustered.communities.len() == rep.division.communities.len()
        && clustered
            .communities
            .iter()
            .zip(&rep.division.communities)
            .all(|(a, b)| {
                a.ego == b.ego
                    && a.members == b.members
                    && a.tightness
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(b.tightness.iter().map(|x| x.to_bits()))
            });
    ctx.gate(
        same,
        "the cluster's division is identical to the single-process divide",
    );
    out.seconds = secs(started);
    out
}

/// Ego extraction, Girvan–Newman and Louvain over one sample of egos. GN
/// runs where Phase I would run it (up to `gn_max_friends` friends);
/// Louvain runs on every sampled ego, as it does when it is the detector.
fn phase1_internals(ctx: &Ctx, rep: &Rep, out: &mut ReplayOut) {
    let graph = &rep.world.graph;
    let egos = sample_indices(graph.num_nodes(), EGO_SAMPLE, splitmix(ctx.seed ^ 0xE60));
    let mut net = EgoNetwork::default();
    let mut scratch = EgoScratch::default();
    let mut gn = GnScratch::default();
    let t = Instant::now();
    for &e in &egos {
        net.rebuild(graph, NodeId(e as u32), &mut scratch);
        black_box(net.num_friends());
    }
    out.ego_extract_s = secs(t);
    for &e in &egos {
        net.rebuild(graph, NodeId(e as u32), &mut scratch);
        let friends = net.num_friends();
        if friends == 0 {
            continue;
        }
        if friends <= ctx.config.gn_max_friends {
            let t = Instant::now();
            black_box(girvan_newman_with(&net.graph, &Default::default(), &mut gn));
            out.gn_s += secs(t);
        }
        let t = Instant::now();
        black_box(louvain(&net.graph, ctx.config.seed));
        out.louvain_s += secs(t);
    }
}

/// The same ego range divided at one thread and at `T`: how much of the
/// pool's parallelism turns into speed. A quarter of the egos keeps the
/// replay short.
fn runtime(ctx: &Ctx, rep: &Rep, out: &mut ReplayOut) {
    let graph = &rep.world.graph;
    let range = 0..(graph.num_nodes() / 4).max(1) as u32;
    let one = LocecConfig {
        threads: 1,
        ..ctx.config.clone()
    };
    let t = Instant::now();
    black_box(phase1::divide_range(graph, range.clone(), &one));
    out.divide_t1_s = secs(t);
    let t = Instant::now();
    black_box(phase1::divide_range(graph, range, &ctx.config));
    let t_many = secs(t);
    out.parallel_efficiency = out.divide_t1_s / (ctx.sizing.threads as f64 * t_many);
}

/// One 1 % batch through the incremental path, against the base division.
fn update_1pct(ctx: &Ctx, rep: &Rep, out: &mut ReplayOut) {
    let graph = &rep.world.graph;
    let stream = WorldDelta::generate(
        graph,
        &EvolveConfig {
            seed: splitmix(ctx.seed ^ 0x1FC),
            insert_fraction: 0.005,
            remove_fraction: 0.005,
            batches: 1,
            ..EvolveConfig::default()
        },
    );
    let t = Instant::now();
    let (inserts, _, removes) = stream.flatten();
    let delta = GraphDelta::new(graph.num_nodes(), inserts, removes).expect("valid delta");
    let applied = graph.apply_delta(&delta).expect("delta applies");
    let dirty = dirty_egos(graph, &delta);
    black_box(phase1::divide_update(
        &applied.graph,
        &rep.division,
        &dirty,
        &ctx.config,
    ));
    out.update_1pct_s = secs(t);
}

/// Feature matrices, CNN training and batched inference on the run's own
/// communities, and the conv-shaped GEMM alone.
fn ml(ctx: &Ctx, rep: &Rep, out: &mut ReplayOut) {
    let world = &rep.world;
    let k = ctx.config.k;
    let matrix = |idx: usize| -> Tensor {
        community_feature_matrix(
            &world.graph,
            &world.interactions,
            &world.user_features,
            &rep.division.communities[idx],
            k,
        )
    };
    let sample = sample_indices(
        rep.division.num_communities(),
        COMMUNITY_SAMPLE,
        splitmix(ctx.seed ^ 0xC0),
    );
    let t = Instant::now();
    let matrices: Vec<Tensor> = sample.iter().map(|&i| matrix(i)).collect();
    out.matrix_s = secs(t);

    let train: HashMap<_, _> = world.train_edges.iter().copied().collect();
    let labelled = community_ground_truth(
        &world.graph,
        &rep.division,
        &train,
        ctx.config.community_label_min_coverage,
    );
    let labelled = &labelled[..labelled.len().min(CNN_TRAIN_SAMPLE)];
    let train_matrices: Vec<Tensor> = labelled.iter().map(|&(i, _)| matrix(i as usize)).collect();
    let train_labels: Vec<usize> = labelled.iter().map(|&(_, l)| l.label()).collect();
    let mut cnn = CommCnn::new(
        k,
        FEATURE_COLS,
        RelationType::COUNT,
        &CommCnnConfig {
            epochs: CNN_TRAIN_EPOCHS,
            // Never stop early: the sample count below assumes every epoch.
            target_loss: 0.0,
            ..ctx.config.commcnn.clone()
        },
    );
    let t = Instant::now();
    black_box(cnn.train(&train_matrices, &train_labels));
    out.cnn_train_samples_per_s = (CNN_TRAIN_EPOCHS * train_matrices.len()) as f64 / secs(t);

    let refs: Vec<&Tensor> = matrices.iter().collect();
    let t = Instant::now();
    black_box(cnn.predict_proba_batch(&refs, ctx.config.threads));
    out.cnn_infer_samples_per_s = refs.len() as f64 / secs(t);

    // The batched conv forward is one GEMM of the filter matrix (c_out ×
    // c_in·kh·kw) by the im2col columns (… × batch·positions). The rate is
    // computed from the shape, 2·m·n·k per call, not counted by hardware.
    let (m, k, n, calls) = (8usize, 72usize, 32_768usize, 16usize);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut pack = Vec::new();
    let t = Instant::now();
    for _ in 0..calls {
        sgemm(m, n, k, &a, &b, &mut c, &mut pack);
        black_box(&mut c);
    }
    out.sgemm_gflops = (2 * m * n * k * calls) as f64 / secs(t) / 1e9;
}

/// The snapshot checksum over 64 MiB and an in-memory frame round-trip.
fn codecs(out: &mut ReplayOut) {
    let buffer: Vec<u8> = (0..64usize << 20).map(|i| (i ^ (i >> 11)) as u8).collect();
    let t = Instant::now();
    black_box(crc32(black_box(&buffer)));
    out.crc32_mb_per_s = 64.0 / secs(t);

    let payload = [0xA5u8; 64];
    let mut wire = Vec::with_capacity(128);
    let rounds = 20_000;
    let t = Instant::now();
    for _ in 0..rounds {
        wire.clear();
        write_frame(&mut wire, FrameType::EdgeQuery, &payload).expect("encode frame");
        let (_, body) = read_frame(&mut wire.as_slice()).expect("decode frame");
        black_box(body);
    }
    out.frame_roundtrip_ns = secs(t) * 1e9 / rounds as f64;
}

/// Phase I through an in-process coordinator and `T` single-thread worker
/// threads over loopback TCP, the world shipped inline.
fn cluster(ctx: &Ctx, rep: &Rep, out: &mut ReplayOut) -> DivisionResult {
    let divide = LocecConfig {
        threads: 1,
        ..ctx.config.clone()
    };
    let mut cfg = CoordinateConfig::new(divide, 0);
    cfg.ship_world_bytes = true;
    // A worker's heartbeat thread sleeps one interval before it notices the
    // shutdown; the default (a quarter of the 10 s lease) would hold the
    // joins below for seconds.
    cfg.heartbeat_interval = Some(std::time::Duration::from_millis(200));
    let t = Instant::now();
    let mut coordinator =
        Coordinator::bind(None, rep.world.graph.clone(), cfg).expect("bind coordinator");
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..ctx.sizing.threads)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()))
        })
        .collect();
    let outcome = coordinator.run().expect("coordination completes");
    out.coordinate_s = secs(t);
    for w in workers {
        // A worker may see its socket closed at shutdown; the division is
        // what is checked.
        let _ = w.join().expect("worker thread");
    }
    outcome.division
}

/// Epoch construction and direct calls of the three query verbs, no wire.
fn epoch(ctx: &Ctx, rep: &Rep, out: &mut ReplayOut) {
    let (world, assets, division) = load_serving_state(ctx);
    let (world, assets) = (Arc::new(world), Arc::new(assets));
    let t = Instant::now();
    let epoch = ServingEpoch::new(1, world, assets, division).expect("division matches world");
    out.epoch_build_s = secs(t);

    let graph = &rep.world.graph;
    let edges = sample_indices(graph.num_edges(), EPOCH_CALLS, splitmix(ctx.seed ^ 0xE9));
    let pairs: Vec<(u32, u32)> = edges
        .iter()
        .map(|&i| {
            let (u, v) = graph.endpoints(locec_graph::EdgeId(i as u32));
            (u.0, v.0)
        })
        .collect();
    let mut scratch = Scratch::new();
    let per_call = |t: Instant| secs(t) * 1e9 / pairs.len() as f64;
    let t = Instant::now();
    for &(u, v) in &pairs {
        black_box(epoch.classify_edge(u, v, &mut scratch));
    }
    out.classify_edge_ns = per_call(t);
    let t = Instant::now();
    for &(u, _) in &pairs {
        black_box(epoch.communities_of(u, &mut scratch));
    }
    out.communities_of_ns = per_call(t);
    let t = Instant::now();
    for &(u, _) in &pairs {
        black_box(epoch.top_k_intimate(u, TOP_K));
    }
    out.top_k_ns = per_call(t);
}
