#![forbid(unsafe_code)]
//! The LoCEC benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to run them.

mod replay;
mod result;
mod serve;
mod spec;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use locec_obs::Recorder;

use result::{compare_report, suite_from_json, suite_value, Meta, Metric, RunResult};
use spec::{
    MetricDef, Sizing, END_TO_END, NOMINAL_SECONDS, PER_LAYER, SMOKE_SECONDS, SMOKE_SURVEYED,
    SMOKE_USERS, WORKLOADS,
};
use trace::{self_seconds_under, Tracer};
use workload::{overhead_frac, Ctx};

const USAGE: &str = "\
usage:
  locec-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      run one workload in this process; the last line of standard output
      is the result as one JSON object
  locec-benchmark [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out FILE]
      run every workload, each run in a fresh process, print every metric
      and write the suite result (default <out-dir>/result.json)
  locec-benchmark compare A.json B.json
      compare two suite results; exits 1 when B regressed
options:
  --out-dir DIR   where results, traces and scratch files go (default benchmark/out)
  --traced        same as --trace 1; with the suite, a traced run follows each workload's untraced runs
  --smoke         a 2 000-user world and 5 s runs, to check that everything works
workloads: batch_xgb batch_cnn update_stream serve_mix";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: u64,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        traced: false,
        smoke: false,
        runs: 1,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("invalid {name} '{v}'"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value(a)?),
            "--seed" => {
                let v = value(a)?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed '{v}'"))?;
            }
            "--seconds" => {
                let s = number(a, value(a)?)?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--runs" => args.runs = (number(a, value(a)?)? as u64).max(1),
            "--trace" => {
                args.traced = match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value(a)?),
            "--out" => args.out = Some(PathBuf::from(value(a)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.positional.first().map(String::as_str), &args.workload) {
        (Some("compare"), _) => run_compare(&args),
        (Some(other), _) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
        (_, Some(name)) => run_one(&args, name),
        (_, None) => run_suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

// ----------------------------------------------------------- one workload

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in this process and prints its result. `Ok(false)`
/// when a correctness gate failed.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = spec::workload(name).ok_or(format!("unknown workload '{name}'\n\n{USAGE}"))?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        NOMINAL_SECONDS
    });
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let dir = args.out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // With tracing off the program's recorder is off as well; the traced
    // sections turn both on around the calls they measure.
    Recorder::global().set_enabled(false);
    locec_obs::log::set_level(locec_obs::log::Level::Warn);
    let sizing = Sizing::detect();
    let mut ctx = Ctx {
        spec,
        users: if args.smoke { SMOKE_USERS } else { spec.users },
        surveyed: if args.smoke {
            SMOKE_SURVEYED
        } else {
            spec.surveyed
        },
        seed: args.seed,
        seconds,
        traced: args.traced,
        sizing,
        config: spec.locec_config(sizing.threads),
        dir: dir.clone(),
        tracer: Tracer::new(args.seed),
        attempted: 0,
        failed: 0,
        gate_failures: Vec::new(),
    };
    let run = measure(&mut ctx, args.smoke);
    std::fs::remove_dir_all(&dir).ok();

    write_file(
        &result_path(&args.out_dir, name, args.traced),
        &suite_value(std::slice::from_ref(&run)).render_pretty(),
    )?;
    if args.traced {
        let trace_path = args.out_dir.join(format!("{name}.trace.json"));
        write_file(&trace_path, &ctx.tracer.to_value(name).render())?;
    }
    eprint!("{}", run.table());
    println!("{}", run.driver_line());
    Ok(run.correct)
}

/// Where a run of one workload leaves its full result.
fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { ".traced" } else { "" };
    out_dir.join(format!("{workload}{suffix}.json"))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Set-up, the three measured sections, the replays of a traced run, and
/// the assembly of the result.
fn measure(ctx: &mut Ctx, smoke: bool) -> RunResult {
    let spec = ctx.spec;
    let inputs = workload::set_up(ctx);
    eprintln!("{}: {}", spec.name, spec.why);
    eprintln!(
        "{}: set up {} users, {} edges, {} delta batches in {:.2}s x{}",
        spec.name,
        inputs.nodes,
        inputs.edges,
        inputs.delta_paths.len(),
        stats::median(&inputs.setup_s),
        inputs.setup_s.len()
    );
    let pipe = workload::pipeline_section(ctx);
    let update = workload::update_section(ctx, &inputs, &pipe.last.world.graph);
    let served = serve::serve_section(ctx, &pipe.last);
    let replayed = ctx.traced.then(|| replay::replay_section(ctx, &pipe.last));

    let e2e = |name: &str| find(&END_TO_END, name);
    let end_to_end = vec![
        Metric::median_of(e2e("setup_s"), &inputs.setup_s),
        Metric::median_of(e2e("pipeline_s"), &pipe.untraced_s),
        Metric::single(e2e("macro_f1"), pipe.macro_f1),
        Metric::single(e2e("min_class_f1"), pipe.min_class_f1),
        Metric::median_of(e2e("update_s"), &update.untraced_s),
        Metric::single(e2e("serve_qps"), served.qps),
        Metric::single(e2e("serve_p50_us"), served.paced_p50_us),
        Metric::median_of(e2e("reload_s"), &served.reload_s),
        Metric::single(e2e("peak_rss_mb"), workload::peak_rss_mb()),
    ];

    let mut per_layer = Vec::new();
    if let Some(r) = &replayed {
        let t = &ctx.tracer;
        let spans = t.snapshot();
        let reps = pipe.traced_s.len().max(1) as f64;
        let pipeline_total = t.total("pipeline");
        let update_total = t.total("update");
        let in_pipeline = self_seconds_under(&spans, "pipeline");
        let in_update = self_seconds_under(&spans, "update");
        let covered = |by_name: &BTreeMap<&str, f64>, root: &str, total: f64| {
            let children: f64 = by_name
                .iter()
                .filter(|(k, _)| **k != root)
                .map(|(_, v)| v)
                .sum();
            children / total
        };
        let store_s: f64 = in_pipeline
            .iter()
            .filter(|(k, _)| k.starts_with("store."))
            .map(|(_, v)| v)
            .sum();
        let divide_s = t.mean("phase1.divide");
        let communities = pipe.last.division.num_communities() as f64;
        let ml_s = (pipe.gemm_ns + pipe.im2col_ns) as f64 / 1e9;

        let mut values: HashMap<&str, f64> = HashMap::from([
            ("synth.generate_s", stats::median(&inputs.synth_s)),
            ("graph.ego_extract_s", r.ego_extract_s),
            ("graph.apply_delta_s", t.mean("graph.apply_delta")),
            ("graph.dirty_egos_s", t.mean("graph.dirty_egos")),
            ("graph.dirty_egos", update.first_dirty as f64),
            ("community.gn_s", r.gn_s),
            ("community.louvain_s", r.louvain_s),
            (
                "community.gn_share",
                pipe.gn_runs as f64 / pipe.detector_runs.max(1) as f64,
            ),
            ("runtime.divide_t1_s", r.divide_t1_s),
            ("runtime.parallel_efficiency", r.parallel_efficiency),
            ("phase1.divide_s", divide_s),
            ("phase1.egos_per_s", inputs.nodes as f64 / divide_s),
            ("phase1.communities", communities),
            ("phase1.update_divide_s", t.mean("phase1.update_divide")),
            ("phase1.update_1pct_s", r.update_1pct_s),
            ("phase2.ground_truth_s", t.mean("phase2.ground_truth")),
            ("phase2.train_s", t.mean("phase2.train")),
            ("phase2.predict_s", t.mean("phase2.predict")),
            (
                "phase2.communities_per_s",
                communities / t.mean("phase2.predict"),
            ),
            ("features.matrix_s", r.matrix_s),
            ("ml.cnn_train_samples_per_s", r.cnn_train_samples_per_s),
            ("ml.cnn_infer_samples_per_s", r.cnn_infer_samples_per_s),
            ("ml.sgemm_gflops", r.sgemm_gflops),
            ("ml.gemm_s", pipe.gemm_ns as f64 / 1e9 / reps),
            ("ml.im2col_s", pipe.im2col_ns as f64 / 1e9 / reps),
            ("phase3.train_s", t.mean("phase3.train")),
            ("phase3.predict_s", t.mean("phase3.predict")),
            (
                "phase3.edges_per_s",
                inputs.edges as f64 / t.mean("phase3.predict"),
            ),
            ("store.world_load_s", t.mean("store.world_load")),
            ("store.division_save_s", t.mean("store.division_save")),
            ("store.division_load_s", t.mean("store.division_load")),
            ("store.agg_save_s", t.mean("store.agg_save")),
            ("store.agg_load_s", t.mean("store.agg_load")),
            (
                "store.models_save_load_s",
                t.total("store.models_save_load") / reps,
            ),
            ("store.labels_save_s", t.mean("store.labels_save")),
            ("store.delta_load_s", t.mean("store.delta_load")),
            ("store.division_rewrite_s", t.mean("store.division_rewrite")),
            ("store.bytes_written", pipe.bytes_written as f64),
            ("store.bytes_read", pipe.bytes_read as f64),
            ("store.crc32_mb_per_s", r.crc32_mb_per_s),
            ("store.io_share", store_s / pipeline_total),
            ("cluster.frame_roundtrip_ns", r.frame_roundtrip_ns),
            ("cluster.coordinate_s", r.coordinate_s),
            ("cluster.overhead_ratio", r.coordinate_s / divide_s),
            ("serve.startup_s", served.startup_s),
            ("serve.warmup_s", served.warmup_s),
            ("serve.classify_edge_ns", r.classify_edge_ns),
            ("serve.communities_of_ns", r.communities_of_ns),
            ("serve.top_k_ns", r.top_k_ns),
            ("serve.wire_share", served.wire_share),
            ("serve.sat_p50_us", served.sat_p50_us),
            ("serve.sat_p99_us", served.sat_p99_us),
            ("serve.paced_p99_us", served.paced_p99_us),
            ("serve.paced_p999_us", served.paced_p999_us),
            ("serve.paced_late_frac", served.paced_late_frac),
            ("serve.reload_window_p99_us", served.reload_window_p99_us),
            ("serve.epoch_build_s", r.epoch_build_s),
            ("serve.busy_reload_s", stats::median(&served.busy_reload_s)),
            (
                "obs.overhead_frac",
                overhead_frac(&pipe.untraced_s, &pipe.traced_s),
            ),
            (
                "obs.update_overhead_frac",
                overhead_frac(&update.untraced_s, &update.traced_s),
            ),
            ("obs.serve_overhead_frac", served.overhead_frac),
            ("trace.pipeline_s", t.mean("pipeline")),
            ("trace.update_s", t.mean("update")),
            (
                "trace.pipeline_self_sum_frac",
                covered(&in_pipeline, "pipeline", pipeline_total),
            ),
            (
                "trace.update_self_sum_frac",
                covered(&in_update, "update", update_total),
            ),
            (
                "trace.phase1_share",
                in_pipeline.get("phase1.divide").copied().unwrap_or(0.0) / pipeline_total,
            ),
            ("trace.ml_share", ml_s / pipeline_total),
            (
                "trace.update_rewrite_share",
                in_update
                    .get("store.division_rewrite")
                    .copied()
                    .unwrap_or(0.0)
                    / update_total,
            ),
            ("trace.replay_s", r.seconds),
        ]);
        per_layer = PER_LAYER
            .iter()
            .map(|def| {
                let value = values
                    .remove(def.name)
                    .unwrap_or_else(|| panic!("{} was not measured", def.name));
                Metric::single(def, value)
            })
            .collect();
        assert!(
            values.is_empty(),
            "measured but not declared: {:?}",
            values.keys()
        );
    }

    RunResult {
        workload: spec.name.to_owned(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        traced: ctx.traced,
        smoke,
        correct: ctx.failed == 0 && ctx.gate_failures.is_empty(),
        ops_attempted: ctx.attempted,
        ops_failed: ctx.failed,
        gate_failures: ctx.gate_failures.clone(),
        labels_crc32: u64::from(pipe.last.labels_crc32),
        division_crc32: u64::from(pipe.last.division_crc32),
        updated_division_crc32: u64::from(update.final_division_crc32),
        meta: Meta {
            git_rev: tool_version("git", &["rev-parse", "--short", "HEAD"]),
            rustc: tool_version("rustc", &["--version"]),
            hardware_threads: ctx.sizing.hardware_threads as u64,
            threads: ctx.sizing.threads as u64,
            clients: ctx.sizing.clients as u64,
            users: ctx.users as u64,
            nodes: inputs.nodes as u64,
            edges: inputs.edges as u64,
        },
        end_to_end,
        per_layer,
    }
}

fn find<'a>(table: &'a [MetricDef], name: &str) -> &'a MetricDef {
    table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
}

// ------------------------------------------------------------- the suite

/// Runs every workload, each run in a fresh process of this executable so
/// that `peak_rss_mb` and every cache are the run's own.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut runs: Vec<RunResult> = Vec::new();
    for spec in &WORKLOADS {
        let mut plan: Vec<(u64, bool)> = (0..args.runs).map(|r| (args.seed + r, false)).collect();
        if args.traced {
            plan.push((args.seed, true));
        }
        for (seed, traced) in plan {
            // A stale file must not pass for this run's result.
            let result_path = result_path(&args.out_dir, spec.name, traced);
            std::fs::remove_file(&result_path).ok();
            let mut cmd = Command::new(&exe);
            cmd.arg("--out-dir").arg(&args.out_dir);
            cmd.args(["--workload", spec.name, "--seed", &seed.to_string()]);
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child's table goes to our standard error; its JSON line is
            // not needed, the result file says more.
            let status = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let text = std::fs::read_to_string(&result_path)
                .map_err(|e| format!("{} (exit {status}) left no result: {e}", spec.name))?;
            runs.extend(suite_from_json(&text)?);
        }
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("result.json"));
    write_file(&out, &suite_value(&runs).render_pretty())?;

    println!(
        "{:<14} {:<13} {:>14} {:<6} {:>5}",
        "workload", "metric", "median", "unit", "runs"
    );
    for spec in &WORKLOADS {
        let of: Vec<&RunResult> = runs
            .iter()
            .filter(|r| r.workload == spec.name && !r.traced)
            .collect();
        for def in &END_TO_END {
            let values: Vec<f64> = of
                .iter()
                .filter_map(|r| r.end_to_end.iter().find(|m| m.name == def.name))
                .map(|m| m.value)
                .collect();
            println!(
                "{:<14} {:<13} {:>14.6} {:<6} {:>5}",
                spec.name,
                def.name,
                stats::median(&values),
                def.unit,
                values.len()
            );
        }
    }
    let incorrect: Vec<String> = runs
        .iter()
        .filter(|r| !r.correct)
        .map(|r| {
            format!(
                "{} seed {}: {}",
                r.workload,
                r.seed,
                r.gate_failures.join("; ")
            )
        })
        .collect();
    println!("wrote {}", out.display());
    for line in &incorrect {
        println!("INCORRECT {line}");
    }
    Ok(incorrect.is_empty())
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(format!("compare takes two result files\n\n{USAGE}"));
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        suite_from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (report, regressed) = compare_report(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(!regressed)
}
