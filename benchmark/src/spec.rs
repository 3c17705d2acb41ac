//! What the benchmark runs and what it reports: the four workloads, the
//! machine sizing, and the metric tables that `BENCHMARK.json` mirrors.

use locec_core::{CommunityDetector, CommunityModelKind, LocecConfig};

/// One workload. Every workload walks the same life-cycle — staged batch
/// pipeline, delta updates, serving — so every end-to-end metric exists on
/// every workload; they differ in world, detector, model and in which
/// section gets most of the run.
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` repeats it).
    pub why: &'static str,
    pub users: usize,
    /// Surveyed users: sets how many edges carry labels.
    pub surveyed: usize,
    /// Share of labelled edges used for training; the rest is the test set
    /// the F1 metrics are computed on.
    pub train_fraction: f64,
    pub detector: CommunityDetector,
    pub model: CommunityModelKind,
    /// How much each section measures in a run of [`NOMINAL_SECONDS`]:
    /// timed staged-pipeline repetitions, update batches, and seconds for
    /// the three serve phases together. All three scale with `--seconds`.
    /// Counts, not time budgets, so that a run does the same work on every
    /// commit and a median is always over the same number of samples.
    pub reps: usize,
    pub batches: usize,
    pub serve_s: f64,
}

/// The run length the workloads are sized for (`run_seconds` in
/// `BENCHMARK.json`).
pub const NOMINAL_SECONDS: f64 = 20.0;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "batch_xgb",
        why: "paper default (GN + xgb): Phase I is about half of the staged pipeline and store a quarter, ml almost none",
        users: 25_000,
        surveyed: 1_200,
        train_fraction: 0.4,
        detector: CommunityDetector::GirvanNewman,
        model: CommunityModelKind::Xgb,
        reps: 3,
        batches: 20,
        serve_s: 6.0,
    },
    Spec {
        name: "batch_cnn",
        why: "Louvain + CommCNN inverts the shares: ml (GEMM, im2col) dominates and Phase I is small, so a kernel change shows here and a GN change does not",
        users: 5_000,
        surveyed: 250,
        train_fraction: 0.6,
        detector: CommunityDetector::Louvain,
        model: CommunityModelKind::Cnn,
        reps: 3,
        batches: 40,
        serve_s: 6.0,
    },
    Spec {
        name: "update_stream",
        why: "many 0.1 % delta batches: tiny dirty sets, splice and a full division rewrite per batch, so a batch gain that costs the incremental path shows",
        users: 20_000,
        surveyed: 1_200,
        train_fraction: 0.4,
        detector: CommunityDetector::GirvanNewman,
        model: CommunityModelKind::Xgb,
        reps: 3,
        batches: 80,
        serve_s: 6.0,
    },
    Spec {
        name: "serve_mix",
        why: "8:1:1 query mix over loopback TCP, closed loop, paced open loop and hot reloads: serve, frame codec and wire dominate, training does nothing",
        users: 20_000,
        surveyed: 1_200,
        train_fraction: 0.4,
        detector: CommunityDetector::GirvanNewman,
        model: CommunityModelKind::Xgb,
        reps: 3,
        batches: 20,
        serve_s: 12.0,
    },
];

/// The `--smoke` scale: a world and a run length small enough that the
/// whole suite ends in well under 30 s (`serve_mix` then has 1 s phases).
pub const SMOKE_USERS: usize = 2_000;
pub const SMOKE_SURVEYED: usize = 80;
pub const SMOKE_SECONDS: f64 = 5.0;

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Thread and connection counts, clamped to the machine.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub hardware_threads: usize,
    /// `T`: threads the program under test may use.
    pub threads: usize,
    /// `C`: load-generator connections.
    pub clients: usize,
}

impl Sizing {
    pub fn detect() -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        Sizing::for_hardware(hw)
    }

    pub fn for_hardware(hardware_threads: usize) -> Self {
        let hw = hardware_threads.max(1);
        Sizing {
            hardware_threads: hw,
            threads: hw.min(4),
            clients: hw.min(2),
        }
    }
}

impl Spec {
    /// The pipeline configuration: the `fast` preset with this workload's
    /// detector and model at `threads` threads. Its seed stays fixed: it is
    /// a setting of the program, not an input.
    pub fn locec_config(&self, threads: usize) -> LocecConfig {
        LocecConfig {
            detector: self.detector,
            community_model: self.model,
            threads,
            ..LocecConfig::fast()
        }
    }
}

/// Total paced request rate of the open-loop phases, requests per second.
pub const PACED_RATE: f64 = 2_000.0;
/// Query mix edge : community-of : top-k.
pub const MIX: [u64; 3] = [8, 1, 1];
/// `k` of the top-k-intimate queries.
pub const TOP_K: u32 = 8;
/// Churn of one update batch as a share of the edge count, half inserts
/// and half removes.
pub const BATCH_CHURN: f64 = 0.001;
/// A paced request counts as late when it is sent more than this after
/// its due time.
pub const LATE_NS: u64 = 1_000_000;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("pipeline_s", "s", false, 0.25),
    e2e("macro_f1", "f1", true, 0.1),
    e2e("min_class_f1", "f1", true, 0.2),
    e2e("update_s", "s", false, 0.25),
    e2e("serve_qps", "1/s", true, 0.25),
    e2e("serve_p50_us", "us", false, 0.25),
    e2e("reload_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// The per-layer metrics of the traced run.
pub const PER_LAYER: [MetricDef; 69] = [
    layer("synth.generate_s", "s", false),
    layer("graph.ego_extract_s", "s", false),
    layer("graph.apply_delta_s", "s", false),
    layer("graph.dirty_egos_s", "s", false),
    layer("graph.dirty_egos", "count", false),
    layer("community.gn_s", "s", false),
    layer("community.louvain_s", "s", false),
    layer("community.gn_share", "ratio", true),
    layer("runtime.divide_t1_s", "s", false),
    layer("runtime.parallel_efficiency", "ratio", true),
    layer("phase1.divide_s", "s", false),
    layer("phase1.egos_per_s", "1/s", true),
    layer("phase1.communities", "count", false),
    layer("phase1.update_divide_s", "s", false),
    layer("phase1.update_1pct_s", "s", false),
    layer("phase2.ground_truth_s", "s", false),
    layer("phase2.train_s", "s", false),
    layer("phase2.predict_s", "s", false),
    layer("phase2.communities_per_s", "1/s", true),
    layer("features.matrix_s", "s", false),
    layer("ml.cnn_train_samples_per_s", "1/s", true),
    layer("ml.cnn_infer_samples_per_s", "1/s", true),
    layer("ml.sgemm_gflops", "gflop/s", true),
    layer("ml.gemm_s", "s", false),
    layer("ml.im2col_s", "s", false),
    layer("phase3.train_s", "s", false),
    layer("phase3.predict_s", "s", false),
    layer("phase3.edges_per_s", "1/s", true),
    layer("store.world_load_s", "s", false),
    layer("store.division_save_s", "s", false),
    layer("store.division_load_s", "s", false),
    layer("store.agg_save_s", "s", false),
    layer("store.agg_load_s", "s", false),
    layer("store.models_save_load_s", "s", false),
    layer("store.labels_save_s", "s", false),
    layer("store.delta_load_s", "s", false),
    layer("store.division_rewrite_s", "s", false),
    layer("store.bytes_written", "bytes", false),
    layer("store.bytes_read", "bytes", false),
    layer("store.crc32_mb_per_s", "MB/s", true),
    layer("store.io_share", "ratio", false),
    layer("cluster.frame_roundtrip_ns", "ns", false),
    layer("cluster.coordinate_s", "s", false),
    layer("cluster.overhead_ratio", "ratio", false),
    layer("serve.startup_s", "s", false),
    layer("serve.warmup_s", "s", false),
    layer("serve.classify_edge_ns", "ns", false),
    layer("serve.communities_of_ns", "ns", false),
    layer("serve.top_k_ns", "ns", false),
    layer("serve.wire_share", "ratio", false),
    layer("serve.sat_p50_us", "us", false),
    layer("serve.sat_p99_us", "us", false),
    layer("serve.paced_p99_us", "us", false),
    layer("serve.paced_p999_us", "us", false),
    layer("serve.paced_late_frac", "ratio", false),
    layer("serve.reload_window_p99_us", "us", false),
    layer("serve.epoch_build_s", "s", false),
    layer("serve.busy_reload_s", "s", false),
    layer("obs.overhead_frac", "ratio", false),
    layer("obs.update_overhead_frac", "ratio", false),
    layer("obs.serve_overhead_frac", "ratio", false),
    layer("trace.pipeline_s", "s", false),
    layer("trace.update_s", "s", false),
    layer("trace.pipeline_self_sum_frac", "ratio", true),
    layer("trace.update_self_sum_frac", "ratio", true),
    layer("trace.phase1_share", "ratio", false),
    layer("trace.ml_share", "ratio", false),
    layer("trace.update_rewrite_share", "ratio", false),
    layer("trace.replay_s", "s", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use locec_obs::json::Value;

    #[test]
    fn thread_and_client_counts_never_exceed_the_machine() {
        for hw in [0usize, 1, 2, 3, 4, 8, 64] {
            let s = Sizing::for_hardware(hw);
            assert!(s.threads >= 1 && s.threads <= hw.max(1) && s.threads <= 4);
            assert!(s.clients >= 1 && s.clients <= hw.max(1) && s.clients <= 2);
        }
    }

    #[test]
    fn names_are_unique() {
        for w in &WORKLOADS {
            assert!(workload(w.name).is_some());
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Value::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_owned();

        let workloads = json.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200);
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = json.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(field(j, "name"), m.name);
                assert_eq!(field(j, "unit"), m.unit);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field(j, "better"), better, "{}", m.name);
                if key == "end_to_end" {
                    assert_eq!(
                        j.get("bound").and_then(Value::as_f64),
                        Some(m.bound),
                        "{}",
                        m.name
                    );
                }
            }
        }
    }
}
