//! One workload run: set-up, the staged batch pipeline, the delta-update
//! stream and their correctness gates. The serve section lives in
//! [`crate::serve`], the sampled replays in [`crate::replay`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1::{self, DivisionResult};
use locec_core::phase2::{AggregationResult, CommunityClassifier};
use locec_core::phase3::EdgeClassifier;
use locec_core::pipeline::split_communities;
use locec_core::{LocecConfig, LocecPipeline};
use locec_graph::{dirty_egos, CsrGraph, GraphDelta};
use locec_obs::Recorder;
use locec_store::format::crc32;
use locec_store::{
    load_aggregation, load_division, load_edge_model, load_world_delta, save_aggregation,
    save_community_model, save_division, save_edge_model, save_labels, save_world_delta,
    StoredWorld,
};
use locec_synth::evolve::EvolveConfig;
use locec_synth::{RelationType, Scenario, SynthConfig, WorldDelta};

use crate::spec::{Sizing, Spec, BATCH_CHURN, NOMINAL_SECONDS};
use crate::stats::Summary;
use crate::trace::Tracer;

/// Everything a section needs to know about the run it is part of.
pub struct Ctx {
    pub spec: &'static Spec,
    pub users: usize,
    pub surveyed: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizing: Sizing,
    pub config: LocecConfig,
    /// Scratch directory of this process, inside the checkout.
    pub dir: PathBuf,
    pub tracer: Tracer,
    /// Operations (stages, batches, requests) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness gate that did not hold.
    pub gate_failures: Vec<String>,
}

impl Ctx {
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    fn scale(&self) -> f64 {
        self.seconds / NOMINAL_SECONDS
    }

    /// Timed staged-pipeline repetitions of this run (a warm-up repetition
    /// comes before them). A traced run needs two: one traced and one not.
    pub fn pipeline_reps(&self) -> usize {
        let reps = (self.spec.reps as f64 * self.scale()).round() as usize;
        reps.max(if self.traced { 2 } else { 1 })
    }

    /// Update batches of this run. A traced run halves the update and
    /// serve sections and spends the time in the replays.
    pub fn update_batches(&self) -> usize {
        let batches = self.spec.batches as f64 * self.scale() * self.traced_cut();
        (batches.round() as usize).max(MIN_BATCHES)
    }

    /// Seconds of each of the three serve phases.
    pub fn serve_phase_s(&self) -> f64 {
        self.spec.serve_s * self.scale() * self.traced_cut() / 3.0
    }

    fn traced_cut(&self) -> f64 {
        if self.traced {
            0.5
        } else {
            1.0
        }
    }

    /// Records a gate outcome; a failed gate fails the run.
    pub fn gate(&mut self, holds: bool, what: &str) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.gate_failures.push(what.to_owned());
            eprintln!("GATE FAILED: {what}");
        }
    }

    /// Turns the program's own recorder and the benchmark's spans on or
    /// off together: a measurement is either fully traced or not at all.
    pub fn set_tracing(&self, on: bool) {
        Recorder::global().set_enabled(on);
        self.tracer.set_on(on);
    }
}

/// A seeded splitmix64 step, the benchmark's only random source besides
/// the generators it seeds.
pub fn splitmix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `count` distinct indices below `n` (all of them when `count >= n`),
/// ascending, drawn from `seed`.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if count >= n {
        return (0..n).collect();
    }
    let mut picked = std::collections::BTreeSet::new();
    let mut i = 0u64;
    while picked.len() < count {
        picked.insert((splitmix(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407)) % n as u64) as usize);
        i += 1;
    }
    picked.into_iter().collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn file_crc(path: &Path) -> u32 {
    crc32(&std::fs::read(path).expect("snapshot written earlier in this run"))
}

// ---------------------------------------------------------------- set-up

/// What set-up leaves behind for the measured sections.
pub struct Inputs {
    pub nodes: usize,
    pub edges: usize,
    pub delta_paths: Vec<PathBuf>,
    /// Wall seconds of each full set-up pass.
    pub setup_s: Vec<f64>,
    /// Seconds inside `Scenario::generate` of each pass.
    pub synth_s: Vec<f64>,
}

/// How often set-up is repeated to get a median.
const SETUP_PASSES: usize = 3;

/// Generates the inputs from the seed and writes them where the program
/// under test reads them: the world snapshot and one world-delta snapshot
/// per update batch. Done [`SETUP_PASSES`] times over (same seed, same
/// files), so `setup_s` is a median and not one sample.
pub fn set_up(ctx: &Ctx) -> Inputs {
    let batches = ctx.update_batches();
    let mut inputs = Inputs {
        nodes: 0,
        edges: 0,
        delta_paths: Vec::new(),
        setup_s: Vec::new(),
        synth_s: Vec::new(),
    };
    for _ in 0..SETUP_PASSES {
        let t0 = Instant::now();
        let scenario = Scenario::generate(&SynthConfig {
            num_users: ctx.users,
            surveyed_users: ctx.surveyed,
            seed: ctx.seed,
            ..SynthConfig::default()
        });
        inputs.synth_s.push(t0.elapsed().as_secs_f64());
        let world = StoredWorld::from_scenario(&scenario, ctx.spec.train_fraction, ctx.seed);
        world
            .save(&ctx.path("world.lsnap"))
            .expect("write world snapshot");
        inputs.nodes = world.graph.num_nodes();
        inputs.edges = world.graph.num_edges();

        // One evolve call yields every batch: pairs are distinct across the
        // stream, so batch i is a valid delta of the graph after batches
        // 0..i and no intermediate graph has to be built here.
        let stream = WorldDelta::generate(
            &world.graph,
            &EvolveConfig {
                seed: splitmix(ctx.seed),
                insert_fraction: BATCH_CHURN / 2.0 * batches as f64,
                remove_fraction: BATCH_CHURN / 2.0 * batches as f64,
                batches,
                ..EvolveConfig::default()
            },
        );
        let mut base_num_edges = stream.base_num_edges;
        inputs.delta_paths.clear();
        for (i, batch) in stream.batches.into_iter().enumerate() {
            let next = base_num_edges + batch.inserts.len() as u64 - batch.removes.len() as u64;
            let delta = WorldDelta {
                num_nodes: stream.num_nodes,
                base_num_edges,
                batches: vec![batch],
            };
            let path = ctx.path(&format!("delta_{i:03}.lsnap"));
            save_world_delta(&path, &delta).expect("write delta snapshot");
            inputs.delta_paths.push(path);
            base_num_edges = next;
        }
        inputs.setup_s.push(t0.elapsed().as_secs_f64());
    }
    inputs
}

// ------------------------------------------------------- staged pipeline

/// Stages of one staged-pipeline repetition, for the operation count.
const PIPELINE_STAGES: u64 = 15;

/// What one repetition of the staged pipeline leaves in memory.
pub struct Rep {
    pub world: StoredWorld,
    pub division: DivisionResult,
    pub agg: AggregationResult,
    pub edge_model: EdgeClassifier,
    pub labels: Vec<RelationType>,
    pub seconds: f64,
    pub division_crc32: u32,
    pub labels_crc32: u32,
}

/// World snapshot → edge-label snapshot, every artefact through its
/// snapshot file as the `locec` CLI stages do: `divide → aggregate → train
/// → classify`. Timed from before the world is read until the labels are
/// on disk.
pub fn pipeline_rep(ctx: &Ctx, traced: bool) -> Rep {
    ctx.set_tracing(traced);
    let t = &ctx.tracer;
    let config = &ctx.config;
    let (world_p, div_p, agg_p) = (
        ctx.path("world.lsnap"),
        ctx.path("division.lsnap"),
        ctx.path("agg.lsnap"),
    );
    let (cmodel_p, emodel_p, labels_p) = (
        ctx.path("cmodel.lsnap"),
        ctx.path("emodel.lsnap"),
        ctx.path("labels.lsnap"),
    );

    let t0 = Instant::now();
    let (world, division, agg, edge_model, labels) = t.span("pipeline", || {
        let world = t
            .span("store.world_load", || StoredWorld::load(&world_p))
            .expect("load world");
        // divide
        let division = t.span("phase1.divide", || phase1::divide(&world.graph, config));
        t.span("store.division_save", || {
            save_division(&div_p, &world.graph, &division)
        })
        .expect("save division");
        drop(division);
        // aggregate
        let division = t
            .span("store.division_load", || load_division(&div_p))
            .expect("load division");
        let data = world.dataset();
        let labeled = t.span("phase2.ground_truth", || {
            let train: HashMap<_, _> = world.train_edges.iter().copied().collect();
            community_ground_truth(
                &world.graph,
                &division,
                &train,
                config.community_label_min_coverage,
            )
        });
        let (community_train, _) = split_communities(&labeled, 0.8, config.seed);
        let mut model = t.span("phase2.train", || {
            CommunityClassifier::train(&data, &division, &community_train, config)
        });
        let agg = t.span("phase2.predict", || {
            model.predict_all(&data, &division, config)
        });
        t.span("store.agg_save", || save_aggregation(&agg_p, &agg))
            .expect("save aggregation");
        t.span("store.models_save_load", || {
            save_community_model(&cmodel_p, &mut model)
        })
        .expect("save community model");
        drop(agg);
        // train
        let agg = t
            .span("store.agg_load", || load_aggregation(&agg_p))
            .expect("load aggregation");
        let edge_model = t.span("phase3.train", || {
            EdgeClassifier::train(
                &world.graph,
                &division,
                &agg,
                &world.train_edges,
                &config.lr,
            )
        });
        t.span("store.models_save_load", || {
            save_edge_model(&emodel_p, &edge_model)
        })
        .expect("save edge model");
        drop(edge_model);
        // classify
        let edge_model = t
            .span("store.models_save_load", || load_edge_model(&emodel_p))
            .expect("load edge model");
        let labels = t.span("phase3.predict", || {
            edge_model.predict_all(&world.graph, &division, &agg, config.threads)
        });
        t.span("store.labels_save", || save_labels(&labels_p, &labels))
            .expect("save labels");
        (world, division, agg, edge_model, labels)
    });
    let seconds = t0.elapsed().as_secs_f64();
    ctx.set_tracing(false);
    Rep {
        world,
        division,
        agg,
        edge_model,
        labels,
        seconds,
        division_crc32: file_crc(&div_p),
        labels_crc32: file_crc(&labels_p),
    }
}

/// What the pipeline section measured.
pub struct PipelineOut {
    pub last: Rep,
    /// Seconds of every untraced repetition (the end-to-end samples).
    pub untraced_s: Vec<f64>,
    /// Seconds of every traced repetition.
    pub traced_s: Vec<f64>,
    pub macro_f1: f64,
    pub min_class_f1: f64,
    /// `ml.gemm_nanos`, `ml.im2col_nanos` and Phase I detector-run counter
    /// deltas summed over the traced repetitions.
    pub gemm_ns: u64,
    pub im2col_ns: u64,
    pub gn_runs: u64,
    pub detector_runs: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

/// Repeats the staged pipeline, then checks the gates on the last
/// repetition. The first repetition is a warm-up and is not timed: in a
/// fresh process it runs 10–20 % slower than every later one (the
/// allocator has yet to grow its heap), and the repetitions are too few
/// for a median to shrug that off. A traced run traces every second timed
/// repetition.
pub fn pipeline_section(ctx: &mut Ctx) -> PipelineOut {
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut gemm_ns, mut im2col_ns, mut gn_runs, mut detector_runs) = (0, 0, 0, 0);
    let mut digests: Vec<(u32, u32)> = Vec::new();
    let mut last: Option<Rep> = None;
    for reps in 0..=ctx.pipeline_reps() {
        // Free the previous repetition's artefacts first: two worlds,
        // divisions and aggregations at once would double `peak_rss_mb`.
        drop(last.take());
        let traced = ctx.traced && reps > 0 && reps % 2 == 0;
        let before = Recorder::global().snapshot();
        let rep = pipeline_rep(ctx, traced);
        if traced {
            let after = Recorder::global().snapshot();
            let delta = |name: &str| after.counter(name) - before.counter(name);
            gemm_ns += delta("ml.gemm_nanos");
            im2col_ns += delta("ml.im2col_nanos");
            gn_runs += delta("phase1.gn_runs");
            detector_runs += delta("phase1.gn_runs")
                + delta("phase1.louvain_runs")
                + delta("phase1.labelprop_runs");
            traced_s.push(rep.seconds);
        } else if reps > 0 {
            // Repetition 0 is the warm-up: checked like the others, not timed.
            untraced_s.push(rep.seconds);
        }
        ctx.attempted += PIPELINE_STAGES;
        digests.push((rep.division_crc32, rep.labels_crc32));
        last = Some(rep);
    }
    let last = last.expect("at least one repetition ran");

    ctx.gate(
        digests.iter().all(|d| *d == digests[0]),
        "every pipeline repetition writes the same division and label bytes",
    );

    // The staged labels must be what the in-memory pipeline computes on the
    // same division and the same splits.
    let world = &last.world;
    let outcome = LocecPipeline::new(ctx.config.clone()).run_with_division(
        &world.dataset(),
        &last.division,
        Duration::ZERO,
        &world.train_edges,
        &world.test_edges,
    );
    ctx.gate(
        outcome.edge_predictions == last.labels,
        "staged labels equal the in-memory LocecPipeline result",
    );
    let eval =
        last.edge_model
            .evaluate_on(&world.graph, &last.division, &last.agg, &world.test_edges);
    ctx.gate(
        eval.overall.f1 == outcome.edge_eval.overall.f1,
        "staged test-edge F1 equals the in-memory pipeline's",
    );

    // A division read back and written again must not change by a byte.
    let resaved = ctx.path("division_resaved.lsnap");
    let reloaded = load_division(&ctx.path("division.lsnap")).expect("reload division");
    save_division(&resaved, &world.graph, &reloaded).expect("re-save division");
    ctx.gate(
        std::fs::read(&resaved).ok() == std::fs::read(ctx.path("division.lsnap")).ok(),
        "re-saved division is byte-identical",
    );
    std::fs::remove_file(&resaved).ok();

    let len = |f: &str| file_len(&ctx.path(f));
    PipelineOut {
        macro_f1: eval.overall.f1,
        min_class_f1: eval
            .per_class
            .iter()
            .map(|c| c.f1)
            .fold(f64::INFINITY, f64::min),
        untraced_s,
        traced_s,
        gemm_ns,
        im2col_ns,
        gn_runs,
        detector_runs,
        bytes_written: len("division.lsnap")
            + len("agg.lsnap")
            + len("cmodel.lsnap")
            + len("emodel.lsnap")
            + len("labels.lsnap"),
        bytes_read: len("world.lsnap")
            + len("division.lsnap")
            + len("agg.lsnap")
            + len("emodel.lsnap"),
        last,
    }
}

// ---------------------------------------------------------- update stream

/// What the update section measured.
pub struct UpdateOut {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    /// Dirty egos of the first batch (repeats exactly for a seed).
    pub first_dirty: usize,
    pub final_division_crc32: u32,
}

/// Fewest batches a run applies, however short it is.
const MIN_BATCHES: usize = 6;

/// Applies the delta batches one after another. Per batch, timed: load the delta
/// snapshot → `apply_delta` → `dirty_egos` → `divide_update` → write the
/// whole division. The final division must equal a full divide of the
/// evolved graph, byte for byte.
pub fn update_section(ctx: &mut Ctx, inputs: &Inputs, base_graph: &CsrGraph) -> UpdateOut {
    let out_p = ctx.path("division_updated.lsnap");
    // The stage starts from the base division on disk, as `divide --update
    // --base` does; loading it is not part of a batch.
    let mut division = load_division(&ctx.path("division.lsnap")).expect("load base division");
    let mut graph = base_graph.clone();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first_dirty = 0;
    for (i, delta_p) in inputs.delta_paths.iter().enumerate() {
        let traced = ctx.traced && i % 2 == 1;
        ctx.set_tracing(traced);
        let t = &ctx.tracer;
        let config = &ctx.config;
        let t0 = Instant::now();
        let (next_graph, next_division, dirty_len) = t.span("update", || {
            let delta = t
                .span("store.delta_load", || load_world_delta(delta_p))
                .expect("load delta");
            let (inserts, _, removes) = delta.flatten();
            let delta = GraphDelta::new(graph.num_nodes(), inserts, removes)
                .expect("evolve emits a valid delta");
            let applied = t
                .span("graph.apply_delta", || graph.apply_delta(&delta))
                .expect("delta applies to the graph it was drawn against");
            let dirty = t.span("graph.dirty_egos", || dirty_egos(&graph, &delta));
            let base = std::mem::take(&mut division);
            let updated = t.span("phase1.update_divide", || {
                phase1::divide_update_owned(&applied.graph, base, &dirty, config)
            });
            t.span("store.division_rewrite", || {
                save_division(&out_p, &applied.graph, &updated)
            })
            .expect("save updated division");
            (applied.graph, updated, dirty.len())
        });
        let seconds = t0.elapsed().as_secs_f64();
        ctx.set_tracing(false);
        graph = next_graph;
        division = next_division;
        if i == 0 {
            first_dirty = dirty_len;
        }
        if traced {
            traced_s.push(seconds);
        } else {
            untraced_s.push(seconds);
        }
        ctx.attempted += 1;
    }
    drop(division);

    let full_p = ctx.path("division_full.lsnap");
    let full = phase1::divide(&graph, &ctx.config);
    save_division(&full_p, &graph, &full).expect("save full division");
    let identical = std::fs::read(&full_p).ok() == std::fs::read(&out_p).ok();
    ctx.gate(
        identical,
        "the incrementally updated division equals a full divide of the evolved graph",
    );
    let final_division_crc32 = file_crc(&out_p);
    std::fs::remove_file(&full_p).ok();
    UpdateOut {
        untraced_s,
        traced_s,
        first_dirty,
        final_division_crc32,
    }
}

/// `(traced − untraced) ÷ untraced` of two sample sets' medians; 0 when
/// either is empty.
pub fn overhead_frac(untraced: &[f64], traced: &[f64]) -> f64 {
    match (Summary::of(untraced), Summary::of(traced)) {
        (Some(u), Some(t)) if u.median > 0.0 => (t.median - u.median) / u.median,
        _ => 0.0,
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
