//! Thread-count invariance of the semantic Phase I and Phase III counters.
//!
//! The observability layer's counters fall in two classes: *semantic*
//! counters describe the work itself (egos divided, detector runs, work
//! chunks — fixed by the input and config) and *scheduling* counters
//! describe how the pool happened to execute it (steals, broadcasts,
//! busy time — legitimately different on every run). A report is only
//! trustworthy if the semantic class is bit-identical no matter how many
//! worker threads the divide — or the Phase III train + classify — ran on;
//! this test pins that contract across pool sizes 1, 2, 4 and 8.
//!
//! Deltas are measured against the process-global recorder, so this file
//! holds exactly one `#[test]` — a sibling test in the same binary would
//! race the counters.

use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1::{divide, divide_egos, divide_range};
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::{CommunityModelKind, LocecConfig};
use locec_graph::NodeId;
use locec_obs::Recorder;
use locec_synth::{Scenario, SynthConfig};

/// Counters whose totals may not depend on parallelism. `pool.chunks` is
/// semantic because the chunk grain is a constant: the chunk count is a
/// function of the ego count alone.
const SEMANTIC: &[&str] = &[
    "phase1.egos",
    "phase1.gn_runs",
    "phase1.gn_removals",
    "phase1.gn_splits",
    "phase1.gn_sources",
    "phase1.gn_bound_stops",
    "phase1.louvain_runs",
    "phase1.labelprop_runs",
    "phase1.louvain_fallbacks",
    "pool.chunks",
];

/// Phase III counters with the same property: the logistic regression's
/// GEMM count is fixed by the sample counts and constant block sizes, the
/// epoch count by the data.
const SEMANTIC_PHASE3: &[&str] = &["ml.linear_gemm_calls", "phase3.train_epochs"];

#[test]
fn semantic_counters_are_thread_count_invariant() {
    let scenario = Scenario::generate(&SynthConfig::tiny(99));
    let n = scenario.graph.num_nodes() as u32;
    let recorder = Recorder::global();

    let mut per_pool: Vec<(usize, Vec<u64>, usize)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let config = LocecConfig {
            threads,
            ..LocecConfig::fast()
        };
        let before = recorder.snapshot();
        let communities = divide_range(&scenario.graph, 0..n, &config);
        let after = recorder.snapshot();
        let deltas = SEMANTIC
            .iter()
            .map(|name| after.counter(name) - before.counter(name))
            .collect();
        per_pool.push((threads, deltas, communities.len()));
    }

    let (_, baseline, num_communities) = &per_pool[0];
    assert!(
        baseline.iter().sum::<u64>() > 0,
        "divide recorded no semantic counters at all — instrumentation went dark"
    );
    for (threads, deltas, communities) in &per_pool[1..] {
        assert_eq!(
            communities, num_communities,
            "community count diverged at {threads} threads"
        );
        for (name, (got, want)) in SEMANTIC.iter().zip(deltas.iter().zip(baseline)) {
            assert_eq!(
                got, want,
                "{name} diverged: {got} at {threads} threads vs {want} at 1 thread"
            );
        }
    }

    // Both Phase I entry points run the one pool driver, so each call —
    // a full range or the scattered ego list of `divide --update` — records
    // exactly one `phase1.wall_nanos` span.
    let wall_spans = || recorder.histogram("phase1.wall_nanos").snapshot().count;
    let config = LocecConfig::fast();
    let spans = wall_spans();
    divide_range(&scenario.graph, 0..n, &config);
    assert_eq!(wall_spans(), spans + 1, "divide_range recorded no span");
    let scattered: Vec<NodeId> = (0..n).step_by(7).map(NodeId).collect();
    divide_egos(&scenario.graph, &scattered, &config);
    assert_eq!(wall_spans(), spans + 2, "divide_egos recorded no span");

    // Phase III: train + classify every edge on the same aggregation.
    let config = LocecConfig {
        community_model: CommunityModelKind::Xgb,
        ..LocecConfig::fast()
    };
    let division = divide(&scenario.graph, &config);
    let ds = scenario.dataset();
    let labeled = community_ground_truth(
        ds.graph,
        &division,
        ds.labeled_edges,
        config.community_label_min_coverage,
    );
    let agg = CommunityClassifier::train(&ds, &division, &labeled, &config)
        .predict_all(&ds, &division, &config);
    let train_edges = ds.labeled_edges_sorted();
    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 8] {
        let before = recorder.snapshot();
        let clf = EdgeClassifier::train(ds.graph, &division, &agg, &train_edges, &config.lr);
        let labels = clf.predict_all(ds.graph, &division, &agg, threads);
        let after = recorder.snapshot();
        assert_eq!(labels.len(), ds.graph.num_edges());
        let deltas: Vec<u64> = SEMANTIC_PHASE3
            .iter()
            .map(|name| after.counter(name) - before.counter(name))
            .collect();
        assert!(
            deltas.iter().all(|&d| d > 0),
            "Phase III recorded nothing under one of {SEMANTIC_PHASE3:?}: {deltas:?}"
        );
        let want = baseline.get_or_insert_with(|| deltas.clone());
        assert_eq!(
            &deltas, want,
            "{SEMANTIC_PHASE3:?} diverged at {threads} threads"
        );
    }
}
