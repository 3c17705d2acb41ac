//! End-to-end test of the snapshot-pipelined CLI: a sharded multi-process
//! `locec` run must reproduce the in-process `LocecPipeline::run` output
//! exactly — the same division bit for bit, and the same label for every
//! edge.

use locec::core::phase1::divide;
use locec::core::{CommunityModelKind, LocecConfig, LocecPipeline};
use locec::store::{load_division, load_labels, StoredWorld};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_locec")
}

fn run(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(bin())
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn locec");
    assert!(
        out.status.success(),
        "locec {args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sharded_cli_pipeline_matches_in_process_run() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("locec_cli_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The full sharded pipeline, stage by stage, each in its own process.
    run(
        &dir,
        &[
            "synth",
            "--preset",
            "tiny",
            "--seed",
            "51",
            "--out",
            "world.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--shard",
            "0/2",
            "--out",
            "s0.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--shard",
            "1/2",
            "--out",
            "s1.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--merge",
            "--out",
            "division.lsnap",
            "s0.lsnap",
            "s1.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "aggregate",
            "--world",
            "world.lsnap",
            "--division",
            "division.lsnap",
            "--out-agg",
            "agg.lsnap",
            "--out-model",
            "community.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "train",
            "--world",
            "world.lsnap",
            "--division",
            "division.lsnap",
            "--agg",
            "agg.lsnap",
            "--out",
            "edge.lsnap",
        ],
    );
    // `--verify-pipeline` makes the classify stage itself re-run the
    // monolithic pipeline and fail on any label difference.
    let classify_out = run(
        &dir,
        &[
            "classify",
            "--world",
            "world.lsnap",
            "--division",
            "division.lsnap",
            "--agg",
            "agg.lsnap",
            "--model",
            "edge.lsnap",
            "--out",
            "labels.lsnap",
            "--verify-pipeline",
        ],
    );
    assert!(
        classify_out.contains("verify-pipeline: OK"),
        "missing verification line in: {classify_out}"
    );
    run(
        &dir,
        &["inspect", "world.lsnap", "division.lsnap", "labels.lsnap"],
    );

    // Independently re-check the equivalences in this process.
    let world = StoredWorld::load(&dir.join("world.lsnap")).unwrap();
    let config = LocecConfig {
        community_model: CommunityModelKind::Xgb,
        ..LocecConfig::fast()
    };

    // 1. The merged 2-shard division is bit-identical to a single-process
    //    divide of the same graph.
    let merged = load_division(&dir.join("division.lsnap")).unwrap();
    let single = divide(&world.graph, &config);
    assert_eq!(merged.num_communities(), single.num_communities());
    for (a, b) in merged.communities.iter().zip(&single.communities) {
        assert_eq!(a.ego, b.ego);
        assert_eq!(a.members, b.members);
        assert_eq!(
            a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }
    assert_eq!(merged.membership_table(), single.membership_table());

    // 2. The classified labels equal the in-process pipeline's output on
    //    the same world and split.
    let labels = load_labels(&dir.join("labels.lsnap")).unwrap();
    let mut pipeline = LocecPipeline::new(config);
    let outcome = pipeline.run_with_splits(&world.dataset(), &world.train_edges, &world.test_edges);
    assert_eq!(labels.len(), outcome.edge_predictions.len());
    assert_eq!(labels, outcome.edge_predictions);
    assert!(outcome.edge_eval.overall.f1 > 0.5);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_update_cli_matches_full_divide_byte_for_byte() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("locec_cli_update_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Base pipeline: world + full division.
    run(
        &dir,
        &[
            "synth",
            "--preset",
            "tiny",
            "--seed",
            "61",
            "--out",
            "world.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--out",
            "division.lsnap",
        ],
    );

    // Record an edge-event stream and materialize the evolved world.
    let evolve_out = run(
        &dir,
        &[
            "evolve",
            "--world",
            "world.lsnap",
            "--seed",
            "3",
            "--insert-fraction",
            "0.01",
            "--remove-fraction",
            "0.01",
            "--out",
            "delta.lsnap",
            "--out-world",
            "world2.lsnap",
        ],
    );
    assert!(
        evolve_out.contains("inserts"),
        "evolve output: {evolve_out}"
    );

    // Incremental re-division of only the dirty egos...
    let update_out = run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--update",
            "--base",
            "division.lsnap",
            "--delta",
            "delta.lsnap",
            "--out",
            "division2.lsnap",
            "--out-delta",
            "ddelta.lsnap",
        ],
    );
    assert!(
        update_out.contains("re-divided"),
        "update output: {update_out}"
    );
    // ... must genuinely be incremental: fewer egos re-divided than exist.
    let world2 = StoredWorld::load(&dir.join("world2.lsnap")).unwrap();
    let re_divided: usize = update_out
        .split("re-divided ")
        .nth(1)
        .and_then(|s| s.split(" of ").next())
        .and_then(|s| s.trim().parse().ok())
        .expect("parse re-divided count");
    assert!(
        re_divided < world2.graph.num_nodes(),
        "update re-divided every ego ({re_divided})"
    );

    // The acceptance criterion: the updated division snapshot is
    // byte-identical to a full divide of the evolved world.
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world2.lsnap",
            "--out",
            "division2_full.lsnap",
        ],
    );
    let updated = std::fs::read(dir.join("division2.lsnap")).unwrap();
    let full = std::fs::read(dir.join("division2_full.lsnap")).unwrap();
    assert!(
        updated == full,
        "updated division snapshot differs from a full divide of the evolved world"
    );

    // The division delta splices to the same division in-process.
    let base = load_division(&dir.join("division.lsnap")).unwrap();
    let dd = locec::store::load_division_delta(&dir.join("ddelta.lsnap")).unwrap();
    let spliced = locec::store::apply_division_delta(&world2.graph, base, dd, 2).unwrap();
    let loaded = load_division(&dir.join("division2.lsnap")).unwrap();
    assert_eq!(spliced.membership_table(), loaded.membership_table());

    // Downstream stages run unchanged on the evolved world, and the
    // snapshot pipeline still matches the in-process pipeline exactly.
    run(
        &dir,
        &[
            "aggregate",
            "--world",
            "world2.lsnap",
            "--division",
            "division2.lsnap",
            "--out-agg",
            "agg2.lsnap",
            "--out-model",
            "community2.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "train",
            "--world",
            "world2.lsnap",
            "--division",
            "division2.lsnap",
            "--agg",
            "agg2.lsnap",
            "--out",
            "edge2.lsnap",
        ],
    );
    let classify_out = run(
        &dir,
        &[
            "classify",
            "--world",
            "world2.lsnap",
            "--division",
            "division2.lsnap",
            "--agg",
            "agg2.lsnap",
            "--model",
            "edge2.lsnap",
            "--out",
            "labels2.lsnap",
            "--verify-pipeline",
        ],
    );
    assert!(
        classify_out.contains("verify-pipeline: OK"),
        "missing verification line in: {classify_out}"
    );
    run(&dir, &["inspect", "delta.lsnap", "ddelta.lsnap"]);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_update_falls_back_to_full_divide_byte_identically() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("locec_cli_saturated_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    run(
        &dir,
        &[
            "synth",
            "--preset",
            "tiny",
            "--seed",
            "62",
            "--out",
            "world.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--out",
            "division.lsnap",
        ],
    );
    // A churn heavy enough that the dirty-ego set saturates the graph: the
    // update stage must notice and take the plain full-divide path.
    run(
        &dir,
        &[
            "evolve",
            "--world",
            "world.lsnap",
            "--seed",
            "9",
            "--insert-fraction",
            "0.4",
            "--remove-fraction",
            "0.4",
            "--out",
            "delta.lsnap",
            "--out-world",
            "world2.lsnap",
        ],
    );
    let update_out = run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--update",
            "--base",
            "division.lsnap",
            "--delta",
            "delta.lsnap",
            "--out",
            "division2.lsnap",
        ],
    );
    assert!(
        update_out.contains("full-divide path"),
        "saturated update must log the fallback: {update_out}"
    );
    // The fallback's output is still byte-identical to a full divide of
    // the evolved world.
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world2.lsnap",
            "--out",
            "division2_full.lsnap",
        ],
    );
    let updated = std::fs::read(dir.join("division2.lsnap")).unwrap();
    let full = std::fs::read(dir.join("division2_full.lsnap")).unwrap();
    assert!(
        updated == full,
        "fallback division snapshot differs from a full divide of the evolved world"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_typed_errors_without_panicking() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("locec_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Missing file.
    let out = Command::new(bin())
        .current_dir(&dir)
        .args(["inspect", "nope.lsnap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.lsnap"));

    // A non-snapshot file is rejected with the magic error.
    std::fs::write(dir.join("junk.lsnap"), b"definitely not a snapshot").unwrap();
    let out = Command::new(bin())
        .current_dir(&dir)
        .args(["inspect", "junk.lsnap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));

    // A typo'd option is rejected loudly, never silently defaulted.
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "divide", "--world", "w.lsnap", "--out", "d.lsnap", "--treads", "16",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --treads"));

    // A trailing option with no value: unknown to the verb is an unknown
    // option; known to it, a missing value.
    let out = Command::new(bin())
        .current_dir(&dir)
        .args(["lint", "--bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --bogus"), "{stderr}");
    assert!(!stderr.contains("needs a value"), "{stderr}");
    let out = Command::new(bin())
        .current_dir(&dir)
        .args(["divide", "--world"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--world needs a value"));
    // The same holds for the option that selects a verb's mode.
    let out = Command::new(bin())
        .current_dir(&dir)
        .args(["serve", "--connect"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--connect needs a value"), "{stderr}");

    // A repeated option is rejected, not silently overridden by the later
    // value.
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "divide",
            "--world",
            "w.lsnap",
            "--out",
            "d.lsnap",
            "--threads",
            "2",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads given more than once"),
        "{stderr}"
    );

    // Mode-specific divide flags are rejected, never silently ignored.
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "divide", "--world", "w.lsnap", "--out", "d.lsnap", "--base", "b.lsnap",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires divide --update"));
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "divide", "--world", "w.lsnap", "--out", "d.lsnap", "--update", "--base", "b.lsnap",
            "--delta", "x.lsnap", "--shard", "0/2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot be combined"));

    // Handing the wrong snapshot kind to a stage is a typed error.
    run(
        &dir,
        &[
            "synth",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--out",
            "world.lsnap",
        ],
    );
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "train",
            "--world",
            "world.lsnap",
            "--division",
            "world.lsnap",
            "--agg",
            "world.lsnap",
            "--out",
            "x.lsnap",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected a division snapshot"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_every_verb() {
    let usage = run(&std::env::temp_dir(), &["help"]);
    for verb in [
        "synth",
        "divide",
        "coordinate",
        "worker",
        "evolve",
        "aggregate",
        "train",
        "classify",
        "serve",
        "inspect",
        "lint",
        "report-check",
    ] {
        assert!(
            usage.contains(&format!("\n  locec {verb} ")),
            "help omits {verb}"
        );
    }
}

#[test]
fn aggregate_refuses_a_division_of_another_world() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("locec_cli_mismatch_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for (seed, out) in [("5", "a.lsnap"), ("6", "b.lsnap")] {
        run(
            &dir,
            &["synth", "--preset", "tiny", "--seed", seed, "--out", out],
        );
    }
    let a = StoredWorld::load(&dir.join("a.lsnap")).unwrap();
    let b = StoredWorld::load(&dir.join("b.lsnap")).unwrap();
    assert_ne!(
        a.graph.volume(),
        b.graph.volume(),
        "the two worlds must differ"
    );
    run(
        &dir,
        &["divide", "--world", "b.lsnap", "--out", "b_division.lsnap"],
    );

    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "aggregate",
            "--world",
            "a.lsnap",
            "--division",
            "b_division.lsnap",
            "--out-agg",
            "agg.lsnap",
            "--out-model",
            "model.lsnap",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("division does not match the graph"),
        "{stderr}"
    );
    assert!(!dir.join("agg.lsnap").exists(), "nothing is written");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn classify_refuses_a_division_with_an_uncovered_slot() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("locec_cli_tampered_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    run(
        &dir,
        &[
            "synth",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--out",
            "world.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "divide",
            "--world",
            "world.lsnap",
            "--out",
            "division.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "aggregate",
            "--world",
            "world.lsnap",
            "--division",
            "division.lsnap",
            "--out-agg",
            "agg.lsnap",
            "--out-model",
            "community.lsnap",
        ],
    );
    run(
        &dir,
        &[
            "train",
            "--world",
            "world.lsnap",
            "--division",
            "division.lsnap",
            "--agg",
            "agg.lsnap",
            "--out",
            "edge.lsnap",
        ],
    );

    // A division whose CRCs are valid and whose table has the graph's
    // length, but with one slot uncovered: the snapshot loads, and without
    // the exact check `classify` would panic on the uncovered edge.
    let world = StoredWorld::load(&dir.join("world.lsnap")).unwrap();
    let division = load_division(&dir.join("division.lsnap")).unwrap();
    let mut membership = division.membership_table().to_vec();
    membership[0] = u32::MAX;
    let tampered =
        locec::core::phase1::DivisionResult::from_raw_parts(division.communities, membership)
            .unwrap();
    locec::store::save_division(&dir.join("tampered.lsnap"), &world.graph, &tampered).unwrap();
    load_division(&dir.join("tampered.lsnap")).expect("the tampered snapshot loads");

    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "classify",
            "--world",
            "world.lsnap",
            "--division",
            "tampered.lsnap",
            "--agg",
            "agg.lsnap",
            "--model",
            "edge.lsnap",
            "--out",
            "labels.lsnap",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("division does not match the graph"),
        "{stderr}"
    );
    assert!(!dir.join("labels.lsnap").exists(), "nothing is written");

    std::fs::remove_dir_all(&dir).ok();
}
