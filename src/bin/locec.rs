//! `locec` — the snapshot-pipelined LoCEC command line.
//!
//! Each subcommand is one pipeline stage; stages communicate exclusively
//! through `locec_store` snapshot files, so any stage can run in its own
//! process (or on its own machine, given a shared filesystem):
//!
//! ```text
//! locec synth    --preset tiny --seed 51 --out world.lsnap
//! locec divide   --world world.lsnap --shard 0/2 --out shard0.lsnap
//! locec divide   --world world.lsnap --shard 1/2 --out shard1.lsnap
//! locec divide   --world world.lsnap --merge --out division.lsnap shard0.lsnap shard1.lsnap
//! locec aggregate --world world.lsnap --division division.lsnap \
//!                 --out-agg agg.lsnap --out-model community.lsnap
//! locec train    --world world.lsnap --division division.lsnap --agg agg.lsnap \
//!                 --out edge.lsnap
//! locec classify --world world.lsnap --division division.lsnap --agg agg.lsnap \
//!                 --model edge.lsnap --out labels.lsnap --verify-pipeline
//! locec inspect  division.lsnap
//!
//! # streaming updates: evolve the world, re-divide only dirty egos
//! locec evolve   --world world.lsnap --out delta.lsnap --out-world world2.lsnap
//! locec divide   --world world.lsnap --update --base division.lsnap \
//!                --delta delta.lsnap --out division2.lsnap
//! ```
//!
//! `divide --shard i/n` processes the canonical contiguous ego range
//! `[i·N/n, (i+1)·N/n)`, and `divide --merge` recombines the partial
//! snapshots into exactly the division a single-process run produces.
//! `classify --verify-pipeline` re-runs the whole in-process
//! [`LocecPipeline`] on the same world and split and fails unless every
//! predicted edge label matches — the end-to-end equivalence check CI runs.

use locec::cluster::{
    run_worker, ClusterObs, CoordinateConfig, CoordinateStats, Coordinator, FaultPlan, RetryPolicy,
    WorkerMetrics, WorkerOptions, WorkerSpawn,
};
use locec::core::phase1::{
    divide_egos, divide_range, splice_update, update_prefers_full_divide, DivisionResult,
};
use locec::core::phase2::CommunityClassifier;
use locec::core::phase3::EdgeClassifier;
use locec::core::pipeline::split_communities;
use locec::core::{
    community_ground_truth, CommunityDetector, CommunityModelKind, LocecConfig, LocecPipeline,
};
use locec::graph::{dirty_egos, GraphDelta};
use locec::ml::metrics::Evaluation;
use locec::obs::{json::Value, Recorder, RunReport};
use locec::serve::{EdgeOutcome, ServeAssets, ServeClient, Server};
use locec::store::{
    apply_world_delta, load_aggregation, load_community_model, load_division,
    load_division_checkpoint, load_division_delta, load_edge_model, load_labels, load_shard,
    load_world_delta, merge_shards, save_aggregation, save_community_model, save_division,
    save_division_delta, save_edge_model, save_labels, save_shard, save_world_delta, DivisionDelta,
    DivisionShard, InferenceWorld, Snapshot, StoredWorld,
};
use locec::synth::evolve::EvolveConfig;
use locec::synth::types::RelationType;
use locec::synth::{Scenario, SynthConfig, WorldDelta};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const USAGE: &str = "locec — snapshot-pipelined LoCEC stages

USAGE:
  locec synth     --out FILE [--preset tiny|small|paper|default] [--users N]
                  [--seed N] [--train-fraction F] [--split-seed N]
  locec divide    --world FILE --out FILE [--shard I/N] [config]
  locec divide    --world FILE --out FILE --merge SHARD_FILE...
  locec divide    --world FILE --out FILE --update --base DIVISION_FILE
                  --delta DELTA_FILE [--out-delta FILE] [config]
  locec coordinate --world FILE --out FILE [--workers N] [--listen ADDR]
                  [--tasks T] [--lease-timeout-ms MS] [--stall-timeout-ms MS]
                  [--heartbeat-ms MS] [--checkpoint FILE] [--checkpoint-every-ms MS]
                  [--resume FILE] [--secret S] [--ship-world] [--fault-plan SPEC]
                  [--worker-fault-plan SPEC] [--fault-seed N] [config]
  locec worker    --connect ADDR [--threads N] [--secret S] [--retry-max N]
                  [--retry-base-ms MS] [--retry-cap-ms MS]
                  [--fault-plan SPEC] [--fault-seed N]
  locec evolve    --world FILE --out DELTA_FILE [--out-world FILE] [--seed N]
                  [--insert-fraction F] [--remove-fraction F] [--batches N]
  locec aggregate --world FILE --division FILE --out-agg FILE --out-model FILE [config]
  locec train     --world FILE --division FILE --agg FILE --out FILE [config]
  locec classify  --world FILE --division FILE --agg FILE --model FILE
                  --out FILE [--verify-pipeline] [config]
  locec serve     --world FILE --division FILE --model FILE --edge-model FILE
                  [--listen ADDR] [--addr-file FILE] [config]
  locec serve     --connect ADDR (--status | --stop |
                  --reload-division FILE [--reload-world FILE] |
                  --edge U,V | --community-of N | --top-k N,K)
  locec inspect   FILE...
  locec lint      [--root DIR] [--json]
  locec report-check FILE [--require SECTION[,SECTION...]]

streaming updates: `evolve` records a timestamped edge-event stream against
a world (and optionally writes the evolved world); `divide --update` applies
the stream to the base world's graph, re-divides only the dirty egos and
emits a division of the evolved graph byte-identical to a full `divide`
(falling back to a plain full divide when most egos are dirty — the output
is identical either way, only wall time differs).

cluster: `coordinate` runs Phase I across worker processes — it spawns
--workers local ones and accepts remote `locec worker --connect` peers on
--listen, leases small ego ranges dynamically, re-queues the leases of dead
or silent workers, merges shard results as they stream in, and writes a
division snapshot byte-identical to a single-process `divide`. --ship-world
sends workers the (graph-only) world over the wire instead of a snapshot
path. --checkpoint persists the merge state after absorptions (atomic
write-then-rename) so a killed coordinator restarted with --resume
re-queues only unabsorbed ranges; --secret requires a mutual shared-secret
handshake on both sides. Workers ride out transient failures by
reconnecting with capped exponential backoff (--retry-max/base-ms/cap-ms)
and resume their prior identity. A fault plan — `FRAME:N:KIND,...` with
kinds drop|delay=MS|corrupt|truncate|disconnect|stall — injects
deterministic wire failures seeded by --fault-seed: --fault-plan on the
invoking side's own transport, --worker-fault-plan handed to every
spawned local worker.

serving: `serve` without --connect runs the always-on edge-query daemon —
it loads the world through the lazy per-section reader plus a division and
the trained Phase II/III models, answers classify-edge / community-of /
top-k-intimate / status over LCF1 frames, and keeps serving until a
Shutdown frame (`serve --connect ADDR --stop`). All serving state lives in
an immutable epoch behind an atomically swappable handle:
`serve --connect ADDR --reload-division FILE [--reload-world FILE]` builds
the next epoch off to the side and swaps it in without dropping in-flight
requests — replies are stamped with the epoch id they were computed from.
With --connect the verb is a one-shot control/query client instead.

lint: `lint` runs the workspace static-analysis pass (no-unsafe,
panic-freedom, wire-constant single-declaration, registry exhaustiveness,
lock-hygiene) over --root (default `.`) and exits non-zero on any finding
not excused in place by a justified `// locec-lint: allow(Rn) — reason`
pragma. --json emits the machine-readable report for CI.

config (all stages after synth; defaults in parentheses):
  --preset fast|default   LocecConfig preset (fast)
  --community-model xgb|cnn  Phase II community model (xgb)
  --detector gn|louvain|lp  Phase I detector (gn)
  --threads N             worker threads (preset value)
  --seed N                pipeline seed for splits and model init (preset value)
  --k N                   feature-matrix rows (preset value)

observability (every verb):
  --report FILE           write a versioned JSON run report (schema_version 1:
                          reserved keys schema_version/verb, a meta section, a
                          metrics section with every counter and histogram, and
                          verb-specific sections — divide adds phase1,
                          coordinate adds cluster + workers, worker adds
                          worker, train adds train, classify adds classify)
  --log-level LEVEL       stderr event threshold: error|warn|info|debug|trace
                          (info; fault recoveries log at warn, cluster progress
                          at debug)
  --log-json              emit log events as JSON lines instead of text
`report-check` re-parses a report, validates its schema version, and fails
unless every --require'd section is present — CI's artifact gate.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("locec: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(format!("missing subcommand\n\n{USAGE}"));
    };
    let parsed = Parsed::parse(rest);
    if let Some(level) = parsed.str("log-level") {
        let level = locec::obs::log::parse_level(level).ok_or_else(|| {
            format!("unknown --log-level '{level}' (error|warn|info|debug|trace)")
        })?;
        locec::obs::log::set_level(level);
    }
    if parsed.has("--log-json") {
        locec::obs::log::set_json(true);
    }

    let t0 = std::time::Instant::now();
    let mut report = RunReport::new(cmd.as_str());
    let result = match cmd.as_str() {
        "synth" => cmd_synth(&parsed),
        "evolve" => cmd_evolve(&parsed),
        "divide" => cmd_divide(&parsed, &mut report),
        "coordinate" => cmd_coordinate(&parsed, &mut report),
        "worker" => cmd_worker(&parsed, &mut report),
        "aggregate" => cmd_aggregate(&parsed),
        "train" => cmd_train(&parsed, &mut report),
        "classify" => cmd_classify(&parsed, &mut report),
        "serve" => cmd_serve(&parsed, &mut report),
        "inspect" => cmd_inspect(&parsed),
        "lint" => cmd_lint(&parsed),
        "report-check" => cmd_report_check(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    result?;

    if let Some(path) = parsed.str("report") {
        // The meta section leads, then verb sections in the order the
        // command added them, then the full metrics dump.
        let mut finished = RunReport::new(&report.verb);
        finished.set_section(
            "meta",
            vobj(vec![
                (
                    "argv",
                    Value::Array(rest.iter().map(|a| Value::Str(a.clone())).collect()),
                ),
                ("duration_ms", Value::Uint(t0.elapsed().as_millis() as u64)),
            ]),
        );
        for name in report.section_names() {
            if let Some(v) = report.section(name) {
                finished.set_section(name, v.clone());
            }
        }
        finished.attach_metrics(&Recorder::global().snapshot());
        std::fs::write(path, finished.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Shorthand for building a JSON object section.
fn vobj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A per-frame-type counter array rendered as `{"hello": 1, ...}`, keyed
/// by the wire spelling. Slot 0 is unused by the protocol and omitted.
fn frames_obj(frames: &[u64; 8]) -> Value {
    use locec::cluster::frame::FrameType;
    let mut fields = Vec::new();
    for (slot, &n) in frames.iter().enumerate() {
        if let Some(ft) = FrameType::from_u8(slot as u8) {
            fields.push((ft.name().to_owned(), Value::Uint(n)));
        }
    }
    Value::Object(fields)
}

/// One worker's cumulative self-observed metrics block.
fn worker_metrics_obj(m: &WorkerMetrics) -> Value {
    vobj(vec![
        ("egos_divided", Value::Uint(m.egos_divided)),
        ("leases_completed", Value::Uint(m.leases_completed)),
        ("compute_nanos", Value::Uint(m.compute_nanos)),
        ("wire_nanos", Value::Uint(m.wire_nanos)),
        ("bytes_sent", Value::Uint(m.bytes_sent)),
        ("bytes_received", Value::Uint(m.bytes_received)),
        ("frames_sent", frames_obj(&m.frames_sent)),
        ("frames_received", frames_obj(&m.frames_received)),
        ("frames_dropped", frames_obj(&m.frames_dropped)),
        ("reconnects", Value::Uint(m.reconnects)),
        ("faults_fired", Value::Uint(m.faults_fired)),
    ])
}

/// The `cluster` + `workers` report sections from a coordination outcome.
fn cluster_sections(report: &mut RunReport, obs: &ClusterObs, s: &CoordinateStats) {
    let lease_total: u64 = obs.lease_walls.iter().map(|&(_, ns)| ns).sum();
    let lease_max = obs.lease_walls.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
    report.set_section(
        "cluster",
        vobj(vec![
            ("wall_seconds", Value::Float(s.wall.as_secs_f64())),
            ("tasks", Value::Uint(u64::from(s.tasks))),
            ("workers_seen", Value::Uint(s.workers_seen)),
            ("requeues", Value::Uint(s.requeues)),
            ("duplicates_dropped", Value::Uint(s.duplicates_dropped)),
            ("respawns", Value::Uint(u64::from(s.respawns))),
            ("reconnects", Value::Uint(s.reconnects)),
            ("checkpoints_written", Value::Uint(s.checkpoints_written)),
            ("frames_sent", frames_obj(&obs.frames_sent)),
            ("frames_received", frames_obj(&obs.frames_received)),
            ("frames_dropped", frames_obj(&obs.frames_dropped)),
            ("bytes_sent", Value::Uint(obs.bytes_sent)),
            ("bytes_received", Value::Uint(obs.bytes_received)),
            ("faults_fired", Value::Uint(obs.faults_fired)),
            ("merge_nanos", Value::Uint(obs.merge_nanos)),
            ("leases_timed", Value::Uint(obs.lease_walls.len() as u64)),
            ("lease_wall_nanos_total", Value::Uint(lease_total)),
            ("lease_wall_nanos_max", Value::Uint(lease_max)),
        ]),
    );
    report.set_section(
        "workers",
        Value::Array(
            obs.workers
                .iter()
                .map(|(id, m)| {
                    let mut fields = vec![("worker_id".to_owned(), Value::Uint(*id))];
                    if let Value::Object(rest) = worker_metrics_obj(m) {
                        fields.extend(rest);
                    }
                    Value::Object(fields)
                })
                .collect(),
        ),
    );
}

/// `locec report-check`: re-parse a run report, validate the schema
/// version, and require named sections — the CI artifact gate.
fn cmd_report_check(p: &Parsed) -> Result<(), String> {
    p.check_args(&["require"], &[], true)?;
    let [file] = p.positional.as_slice() else {
        return Err("report-check needs exactly one report file".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let report = RunReport::from_json(&text).map_err(|e| format!("{file}: {e}"))?;
    let mut missing = Vec::new();
    for required in p.str("require").unwrap_or("").split(',') {
        let required = required.trim();
        if !required.is_empty() && report.section(required).is_none() {
            missing.push(required.to_owned());
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "{file}: report (verb '{}') is missing required section(s): {} — has: {}",
            report.verb,
            missing.join(", "),
            report.section_names().join(", ")
        ));
    }
    println!(
        "report-check: {file} ok (verb '{}', sections: {})",
        report.verb,
        report.section_names().join(", ")
    );
    Ok(())
}

/// Minimal `--flag value` / `--switch` / positional argument parser.
struct Parsed {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
    /// A last `--name` with nothing after it. Whether that is an unknown
    /// option or a missing value depends on the verb, so `check_args`
    /// reports it.
    dangling: Option<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "--merge",
    "--update",
    "--verify-pipeline",
    "--ship-world",
    "--status",
    "--stop",
    "--json",
    "--log-json",
];

/// Observability options accepted by every verb (see `run`); `check_args`
/// admits these everywhere so no subcommand has to list them.
const OBS_FLAGS: &[&str] = &["report", "log-level"];
const OBS_SWITCHES: &[&str] = &["--log-json"];

impl Parsed {
    fn parse(args: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut positional = Vec::new();
        let mut dangling = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                switches.push(a.clone());
            } else if let Some(name) = a.strip_prefix("--") {
                match it.next() {
                    Some(value) => {
                        flags.insert(name.to_owned(), value.clone());
                    }
                    None => dangling = Some(name.to_owned()),
                }
            } else {
                positional.push(a.clone());
            }
        }
        Parsed {
            flags,
            switches,
            positional,
            dangling,
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Rejects options the subcommand does not understand — a typo'd
    /// `--treads 16` or `--detector` on the wrong stage must fail loudly,
    /// not silently fall back to a default that desyncs the pipeline.
    fn check_args(
        &self,
        flags: &[&str],
        switches: &[&str],
        positional_ok: bool,
    ) -> Result<(), String> {
        let known = |name: &str| flags.contains(&name) || OBS_FLAGS.contains(&name);
        for name in self.flags.keys().chain(&self.dangling) {
            if !known(name) {
                return Err(format!("unknown option --{name}\n\n{USAGE}"));
            }
        }
        if let Some(name) = &self.dangling {
            return Err(format!("--{name} needs a value"));
        }
        for s in &self.switches {
            if !switches.contains(&s.as_str()) && !OBS_SWITCHES.contains(&s.as_str()) {
                return Err(format!("{s} is not valid for this subcommand\n\n{USAGE}"));
            }
        }
        if !positional_ok && !self.positional.is_empty() {
            return Err(format!(
                "unexpected argument '{}'\n\n{USAGE}",
                self.positional[0]
            ));
        }
        Ok(())
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.flags
            .get(name)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("invalid --{name} '{v}'")))
            .transpose()
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The LoCEC pipeline configuration shared by every post-synth stage.
    fn locec_config(&self) -> Result<LocecConfig, String> {
        let mut config = match self.str("preset").unwrap_or("fast") {
            "fast" => LocecConfig::fast(),
            "default" => LocecConfig::default(),
            other => return Err(format!("unknown --preset '{other}' (fast|default)")),
        };
        config.community_model = match self.str("community-model").unwrap_or("xgb") {
            "xgb" => CommunityModelKind::Xgb,
            "cnn" => CommunityModelKind::Cnn,
            other => return Err(format!("unknown --community-model '{other}' (xgb|cnn)")),
        };
        config.detector = match self.str("detector").unwrap_or("gn") {
            "gn" => CommunityDetector::GirvanNewman,
            "louvain" => CommunityDetector::Louvain,
            "lp" => CommunityDetector::LabelPropagation,
            other => return Err(format!("unknown --detector '{other}' (gn|louvain|lp)")),
        };
        if let Some(threads) = self.num::<usize>("threads")? {
            config.threads = threads.max(1);
        }
        if let Some(seed) = self.num::<u64>("seed")? {
            config.seed = seed;
        }
        if let Some(k) = self.num::<usize>("k")? {
            config.k = k;
        }
        Ok(config)
    }
}

/// Flags understood by every post-synth stage via `locec_config`.
const CONFIG_FLAGS: &[&str] = &[
    "preset",
    "community-model",
    "detector",
    "threads",
    "seed",
    "k",
];

fn with_config<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = extra.to_vec();
    v.extend_from_slice(CONFIG_FLAGS);
    v
}

fn store_err(e: locec::store::SnapshotError) -> String {
    e.to_string()
}

fn cmd_synth(p: &Parsed) -> Result<(), String> {
    p.check_args(
        &[
            "out",
            "preset",
            "users",
            "seed",
            "train-fraction",
            "split-seed",
        ],
        &[],
        false,
    )?;
    let out = p.path("out")?;
    let seed = p.num::<u64>("seed")?.unwrap_or(42);
    let mut synth = match p.str("preset").unwrap_or("tiny") {
        "tiny" => SynthConfig::tiny(seed),
        "small" => SynthConfig::small(seed),
        "paper" => SynthConfig::paper_subgraph(seed),
        "default" => SynthConfig {
            seed,
            ..SynthConfig::default()
        },
        other => {
            return Err(format!(
                "unknown --preset '{other}' (tiny|small|paper|default)"
            ))
        }
    };
    if let Some(users) = p.num::<usize>("users")? {
        synth.num_users = users;
    }
    let train_fraction = p.num::<f64>("train-fraction")?.unwrap_or(0.8);
    if !(0.0..=1.0).contains(&train_fraction) {
        return Err("--train-fraction must be in [0, 1]".into());
    }
    // The split seed defaults to the pipeline preset's seed so a later
    // `classify --verify-pipeline` replays the exact same held-out edges.
    let split_seed = p
        .num::<u64>("split-seed")?
        .unwrap_or(LocecConfig::fast().seed);

    let scenario = Scenario::generate(&synth);
    let world = StoredWorld::from_scenario(&scenario, train_fraction, split_seed);
    world.save(&out).map_err(store_err)?;
    println!(
        "synth: {} users, {} edges, {} labeled ({} train / {} test) -> {}",
        world.graph.num_nodes(),
        world.graph.num_edges(),
        world.labeled_edges.len(),
        world.train_edges.len(),
        world.test_edges.len(),
        out.display()
    );
    Ok(())
}

fn cmd_evolve(p: &Parsed) -> Result<(), String> {
    p.check_args(
        &[
            "world",
            "out",
            "out-world",
            "seed",
            "insert-fraction",
            "remove-fraction",
            "batches",
        ],
        &[],
        false,
    )?;
    let out = p.path("out")?;
    let mut cfg = EvolveConfig {
        seed: p.num::<u64>("seed")?.unwrap_or(1),
        ..EvolveConfig::default()
    };
    if let Some(f) = p.num::<f64>("insert-fraction")? {
        cfg.insert_fraction = f;
    }
    if let Some(f) = p.num::<f64>("remove-fraction")? {
        cfg.remove_fraction = f;
    }
    if !(0.0..=1.0).contains(&cfg.insert_fraction) || !(0.0..=1.0).contains(&cfg.remove_fraction) {
        return Err("--insert-fraction / --remove-fraction must be in [0, 1]".into());
    }
    if let Some(b) = p.num::<usize>("batches")? {
        cfg.batches = b.max(1);
    }

    // Generation needs only the graph; applying (--out-world) needs the
    // full world. Load lazily in the common case.
    let world_path = p.path("world")?;
    let out_world = p.flags.get("out-world").map(PathBuf::from);
    let t0 = std::time::Instant::now();
    let delta = if let Some(out_world) = out_world {
        let world = StoredWorld::load(&world_path).map_err(store_err)?;
        let delta = WorldDelta::generate(&world.graph, &cfg);
        let evolved = apply_world_delta(&world, &delta).map_err(store_err)?;
        evolved.save(&out_world).map_err(store_err)?;
        println!(
            "evolve: evolved world ({} edges, {} labeled) -> {}",
            evolved.graph.num_edges(),
            evolved.labeled_edges.len(),
            out_world.display()
        );
        delta
    } else {
        let graph = StoredWorld::load_graph(&world_path).map_err(store_err)?;
        WorldDelta::generate(&graph, &cfg)
    };
    let dt = t0.elapsed();
    save_world_delta(&out, &delta).map_err(store_err)?;
    println!(
        "evolve: {} inserts + {} removes over {} batches in {:.3}s -> {}",
        delta.num_inserts(),
        delta.num_removes(),
        delta.batches.len(),
        dt.as_secs_f64(),
        out.display()
    );
    Ok(())
}

fn parse_shard(spec: &str) -> Result<(u32, u32), String> {
    let (i, n) = spec
        .split_once('/')
        .ok_or_else(|| format!("--shard '{spec}' must look like I/N"))?;
    let i: u32 = i.parse().map_err(|_| format!("bad shard index '{i}'"))?;
    let n: u32 = n.parse().map_err(|_| format!("bad shard count '{n}'"))?;
    if n == 0 || i >= n {
        return Err(format!("--shard {i}/{n} is out of range"));
    }
    Ok((i, n))
}

/// The `phase1` report section shared by every divide-flavoured path:
/// how many egos were divided and at what rate.
fn phase1_section(report: &mut RunReport, path: &str, egos: u64, wall: std::time::Duration) {
    let secs = wall.as_secs_f64();
    let throughput = if secs > 0.0 { egos as f64 / secs } else { 0.0 };
    report.set_section(
        "phase1",
        vobj(vec![
            ("path", Value::Str(path.to_owned())),
            ("egos", Value::Uint(egos)),
            ("wall_seconds", Value::Float(secs)),
            ("phase1_throughput", Value::Float(throughput)),
        ]),
    );
}

fn cmd_divide(p: &Parsed, report: &mut RunReport) -> Result<(), String> {
    p.check_args(
        &with_config(&["world", "out", "shard", "base", "delta", "out-delta"]),
        &["--merge", "--update"],
        p.has("--merge"),
    )?;
    if p.has("--merge") && p.has("--update") {
        return Err("divide --merge and --update are mutually exclusive".into());
    }
    // Mode-specific flags must not be silently ignored: --shard belongs to
    // a plain sharded divide, --base/--delta/--out-delta to --update only.
    if p.flags.contains_key("shard") && (p.has("--merge") || p.has("--update")) {
        return Err("--shard cannot be combined with --merge or --update".into());
    }
    if !p.has("--update") {
        for flag in ["base", "delta", "out-delta"] {
            if p.flags.contains_key(flag) {
                return Err(format!("--{flag} requires divide --update"));
            }
        }
    }
    // Phase I only reads the graph; skip decoding the feature, interaction
    // and label columns that dominate the world snapshot at scale.
    let graph = StoredWorld::load_graph(&p.path("world")?).map_err(store_err)?;
    let out = p.path("out")?;
    let config = p.locec_config()?;

    if p.has("--update") {
        return cmd_divide_update(p, &graph, &out, &config, report);
    }

    if p.has("--merge") {
        if p.positional.is_empty() {
            return Err("divide --merge needs shard files as positional arguments".into());
        }
        let shards: Vec<DivisionShard> = p
            .positional
            .iter()
            .map(|f| load_shard(Path::new(f)).map_err(|e| format!("{f}: {e}")))
            .collect::<Result<_, _>>()?;
        let t0 = std::time::Instant::now();
        let division = merge_shards(&graph, shards, config.threads).map_err(store_err)?;
        let dt = t0.elapsed();
        report.set_section(
            "phase1",
            vobj(vec![
                ("path", Value::Str("merge".to_owned())),
                ("shards", Value::Uint(p.positional.len() as u64)),
                (
                    "communities",
                    Value::Uint(division.num_communities() as u64),
                ),
                ("wall_seconds", Value::Float(dt.as_secs_f64())),
            ]),
        );
        save_division(&out, &graph, &division).map_err(store_err)?;
        println!(
            "divide --merge: {} shards -> {} communities in {:.3}s -> {}",
            p.positional.len(),
            division.num_communities(),
            dt.as_secs_f64(),
            out.display()
        );
        return Ok(());
    }

    let n = graph.num_nodes();
    match p.str("shard") {
        Some(spec) => {
            let (index, count) = parse_shard(spec)?;
            let range = DivisionShard::ego_range(index, count, n);
            let t0 = std::time::Instant::now();
            let communities = divide_range(&graph, range.clone(), &config);
            let dt = t0.elapsed();
            let shard = DivisionShard {
                ego_start: range.start,
                ego_end: range.end,
                num_nodes: n as u32,
                shard_index: index,
                shard_count: count,
                communities,
            };
            phase1_section(report, "shard", u64::from(range.end - range.start), dt);
            save_shard(&out, &shard).map_err(store_err)?;
            println!(
                "divide --shard {index}/{count}: egos {}..{} -> {} communities in {:.3}s -> {}",
                range.start,
                range.end,
                shard.communities.len(),
                dt.as_secs_f64(),
                out.display()
            );
        }
        None => {
            let t0 = std::time::Instant::now();
            let communities = divide_range(&graph, 0..n as u32, &config);
            let division = DivisionResult::from_communities(&graph, communities, config.threads);
            let dt = t0.elapsed();
            phase1_section(report, "full", n as u64, dt);
            save_division(&out, &graph, &division).map_err(store_err)?;
            println!(
                "divide: {} egos -> {} communities in {:.3}s -> {}",
                n,
                division.num_communities(),
                dt.as_secs_f64(),
                out.display()
            );
        }
    }
    Ok(())
}

/// `divide --update`: apply an edge-delta to the base world's graph,
/// re-divide only the dirty egos, splice into the base division, and write
/// a division of the evolved graph that is byte-identical to what a full
/// `divide` of the evolved world would produce.
fn cmd_divide_update(
    p: &Parsed,
    base_graph: &locec::graph::CsrGraph,
    out: &Path,
    config: &LocecConfig,
    report: &mut RunReport,
) -> Result<(), String> {
    // The base division — the largest artifact here — is loaded only once
    // the incremental path is chosen below; the full-divide fallback never
    // reads it.
    let base_path = p.path("base")?;
    let world_delta = load_world_delta(&p.path("delta")?).map_err(store_err)?;
    if world_delta.num_nodes as usize != base_graph.num_nodes()
        || world_delta.base_num_edges as usize != base_graph.num_edges()
    {
        return Err("delta was recorded against a different world".into());
    }
    let (inserts, _, removes) = world_delta.flatten();
    let graph_delta =
        GraphDelta::new(base_graph.num_nodes(), inserts, removes).map_err(|e| e.to_string())?;

    let t0 = std::time::Instant::now();
    let applied = base_graph
        .apply_delta(&graph_delta)
        .map_err(|e| e.to_string())?;
    let dirty = dirty_egos(base_graph, &graph_delta);

    // Dirty-ego saturation: past the crossover fraction the incremental
    // path re-divides nearly everything *and* pays the splice, so a plain
    // full divide of the evolved graph is cheaper. Outputs are
    // byte-identical either way — this only picks the faster route. The
    // incremental path is kept whenever --out-delta is requested, since a
    // division delta is exactly the fresh communities.
    let n = applied.graph.num_nodes();
    if !p.flags.contains_key("out-delta") && update_prefers_full_divide(dirty.len(), n) {
        let communities = divide_range(&applied.graph, 0..n as u32, config);
        let division =
            DivisionResult::from_communities(&applied.graph, communities, config.threads);
        let dt = t0.elapsed();
        phase1_section(report, "update-full", n as u64, dt);
        save_division(out, &applied.graph, &division).map_err(store_err)?;
        println!(
            "divide --update: {} of {} egos dirty ({:.1}%) — took the full-divide path \
             ({} communities) in {:.3}s -> {}",
            dirty.len(),
            n,
            100.0 * dirty.len() as f64 / n.max(1) as f64,
            division.num_communities(),
            dt.as_secs_f64(),
            out.display()
        );
        return Ok(());
    }

    let base_division = load_division(&base_path).map_err(store_err)?;
    base_division
        .ensure_matches(base_graph)
        .map_err(|e| format!("base {e}"))?;
    let fresh = divide_egos(&applied.graph, &dirty, config);
    let num_fresh = fresh.len();
    let division = if let Some(out_delta) = p.flags.get("out-delta").map(PathBuf::from) {
        let dd = DivisionDelta {
            num_nodes: applied.graph.num_nodes() as u32,
            dirty: dirty.clone(),
            communities: fresh,
        };
        save_division_delta(&out_delta, &dd).map_err(store_err)?;
        println!(
            "divide --update: division delta ({} egos, {} communities) -> {}",
            dd.dirty.len(),
            dd.communities.len(),
            out_delta.display()
        );
        locec::store::apply_division_delta(&applied.graph, base_division, dd, config.threads)
            .map_err(store_err)?
    } else {
        // The base division is never reused: the owned splice moves clean
        // communities instead of cloning them.
        splice_update(&applied.graph, base_division, &dirty, fresh, config.threads)
    };
    let dt = t0.elapsed();
    phase1_section(report, "update-incremental", dirty.len() as u64, dt);
    save_division(out, &applied.graph, &division).map_err(store_err)?;
    println!(
        "divide --update: took the incremental path — re-divided {} of {} egos \
         ({} fresh communities, {} total) in {:.3}s -> {}",
        dirty.len(),
        applied.graph.num_nodes(),
        num_fresh,
        division.num_communities(),
        dt.as_secs_f64(),
        out.display()
    );
    Ok(())
}

/// `locec coordinate`: distributed Phase I. Spawns local worker processes
/// (re-running this same binary with the `worker` subcommand), accepts any
/// remote workers that connect, leases ego ranges dynamically, merges
/// shard results as they stream in, and writes a division snapshot
/// byte-identical to a single-process `locec divide`.
fn cmd_coordinate(p: &Parsed, report: &mut RunReport) -> Result<(), String> {
    p.check_args(
        &with_config(&[
            "world",
            "out",
            "workers",
            "listen",
            "tasks",
            "lease-timeout-ms",
            "stall-timeout-ms",
            "heartbeat-ms",
            "checkpoint",
            "checkpoint-every-ms",
            "resume",
            "secret",
            "fault-plan",
            "worker-fault-plan",
            "fault-seed",
        ]),
        &["--ship-world"],
        false,
    )?;
    let world = p.path("world")?;
    let out = p.path("out")?;
    let config = p.locec_config()?;
    let workers = p.num::<usize>("workers")?.unwrap_or(2);
    let fault_seed = p.num::<u64>("fault-seed")?.unwrap_or(0);
    let graph = StoredWorld::load_graph(&world).map_err(store_err)?;

    let mut cfg = CoordinateConfig::new(config, workers);
    if let Some(listen) = p.str("listen") {
        cfg.listen = listen.to_owned();
    }
    if workers > 0 {
        let program =
            std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        // Spawned workers inherit the shared secret and, when asked, their
        // own deterministic fault plan.
        let mut worker_args = Vec::new();
        if let Some(secret) = p.str("secret") {
            worker_args.extend(["--secret".to_owned(), secret.to_owned()]);
        }
        if let Some(spec) = p.str("worker-fault-plan") {
            FaultPlan::parse(spec, fault_seed)?; // fail at launch, not in children
            worker_args.extend([
                "--fault-plan".to_owned(),
                spec.to_owned(),
                "--fault-seed".to_owned(),
                fault_seed.to_string(),
            ]);
        }
        cfg.spawn = Some(WorkerSpawn {
            program,
            args: Vec::new(),
            worker_args,
        });
    }
    cfg.explicit_tasks = p.num::<u32>("tasks")?;
    if let Some(ms) = p.num::<u64>("lease-timeout-ms")? {
        cfg.lease_timeout = std::time::Duration::from_millis(ms.max(100));
    }
    if let Some(ms) = p.num::<u64>("stall-timeout-ms")? {
        cfg.stall_timeout = std::time::Duration::from_millis(ms.max(100));
    }
    if let Some(ms) = p.num::<u64>("heartbeat-ms")? {
        cfg.heartbeat_interval = Some(std::time::Duration::from_millis(ms.max(10)));
    }
    cfg.checkpoint = p.str("checkpoint").map(PathBuf::from);
    if let Some(ms) = p.num::<u64>("checkpoint-every-ms")? {
        cfg.checkpoint_every = std::time::Duration::from_millis(ms);
    }
    cfg.resume_from = p.str("resume").map(PathBuf::from);
    cfg.secret = p.str("secret").map(str::to_owned);
    cfg.fault_plan = p
        .str("fault-plan")
        .map(|spec| FaultPlan::parse(spec, fault_seed))
        .transpose()?;
    cfg.ship_world_bytes = p.has("--ship-world");

    // Local workers load the world by path; shipping bytes supports
    // remote-only setups with no shared filesystem.
    let world_path = if cfg.ship_world_bytes {
        None
    } else {
        // Workers may run in another working directory: hand them an
        // absolute path.
        Some(
            world
                .canonicalize()
                .map_err(|e| format!("{}: {e}", world.display()))?,
        )
    };
    let mut coordinator = Coordinator::bind(world_path, graph, cfg).map_err(|e| e.to_string())?;
    println!(
        "coordinate: listening on {} ({} local workers)",
        coordinator.local_addr(),
        workers
    );
    let outcome = coordinator.run().map_err(|e| e.to_string())?;
    save_division(&out, coordinator.graph(), &outcome.division).map_err(store_err)?;
    let s = &outcome.stats;
    cluster_sections(report, &outcome.obs, s);
    println!(
        "coordinate: {} tasks over {} workers ({} requeued, {} duplicate shards, \
         {} respawns, {} reconnects, {} checkpoints) -> {} communities in {:.3}s -> {}",
        s.tasks,
        s.workers_seen,
        s.requeues,
        s.duplicates_dropped,
        s.respawns,
        s.reconnects,
        s.checkpoints_written,
        outcome.division.num_communities(),
        s.wall.as_secs_f64(),
        out.display()
    );
    Ok(())
}

/// `locec worker`: one cluster worker. Normally spawned by `coordinate`,
/// but equally happy connecting across machines.
fn cmd_worker(p: &Parsed, run_report: &mut RunReport) -> Result<(), String> {
    p.check_args(
        &[
            "connect",
            "threads",
            "secret",
            "retry-max",
            "retry-base-ms",
            "retry-cap-ms",
            "fault-plan",
            "fault-seed",
        ],
        &[],
        false,
    )?;
    let addr = p
        .str("connect")
        .ok_or_else(|| "missing required --connect".to_owned())?;
    let fault_seed = p.num::<u64>("fault-seed")?.unwrap_or(0);
    let mut retry = RetryPolicy::default();
    if let Some(max) = p.num::<u32>("retry-max")? {
        retry.max_reconnects = max;
    }
    if let Some(ms) = p.num::<u64>("retry-base-ms")? {
        retry.base = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = p.num::<u64>("retry-cap-ms")? {
        retry.cap = std::time::Duration::from_millis(ms.max(1));
    }
    retry.seed = fault_seed;
    let opts = WorkerOptions {
        threads: p.num::<usize>("threads")?,
        fault_plan: p
            .str("fault-plan")
            .map(|spec| FaultPlan::parse(spec, fault_seed))
            .transpose()?,
        secret: p.str("secret").map(str::to_owned),
        retry,
    };
    let metrics = run_worker(addr, &opts).map_err(|e| e.to_string())?;
    run_report.set_section("worker", worker_metrics_obj(&metrics));
    println!(
        "worker: completed {} leases ({} egos divided, {} reconnects, {} faults fired)",
        metrics.leases_completed, metrics.egos_divided, metrics.reconnects, metrics.faults_fired
    );
    Ok(())
}

fn cmd_aggregate(p: &Parsed) -> Result<(), String> {
    p.check_args(
        &with_config(&["world", "division", "out-agg", "out-model"]),
        &[],
        false,
    )?;
    let world = StoredWorld::load(&p.path("world")?).map_err(store_err)?;
    let division = load_division(&p.path("division")?).map_err(store_err)?;
    division.ensure_matches(&world.graph)?;
    let out_agg = p.path("out-agg")?;
    let out_model = p.path("out-model")?;
    let config = p.locec_config()?;
    let data = world.dataset();

    // Mirror `LocecPipeline::run_with_division` exactly: community ground
    // truth from *training* labels only, the same seeded 80/20 community
    // split, train, then classify every community.
    let train_label_map: HashMap<_, _> = world.train_edges.iter().copied().collect();
    let labeled = community_ground_truth(
        &world.graph,
        &division,
        &train_label_map,
        config.community_label_min_coverage,
    );
    if labeled.is_empty() {
        return Err("no community got a ground-truth label; not enough training labels".into());
    }
    let (community_train, community_test) = split_communities(&labeled, 0.8, config.seed);
    let t0 = std::time::Instant::now();
    let mut model = CommunityClassifier::train(&data, &division, &community_train, &config);
    let train_dt = t0.elapsed();
    let t1 = std::time::Instant::now();
    let agg = model.predict_all(&data, &division, &config);
    let infer_dt = t1.elapsed();

    save_aggregation(&out_agg, &agg).map_err(store_err)?;
    save_community_model(&out_model, &mut model).map_err(store_err)?;
    print!(
        "aggregate: {} labeled communities ({} train), trained in {:.3}s, \
         {} embeddings (dim {}) in {:.3}s -> {} + {}",
        labeled.len(),
        community_train.len(),
        train_dt.as_secs_f64(),
        agg.len(),
        agg.embedding_dim(),
        infer_dt.as_secs_f64(),
        out_agg.display(),
        out_model.display()
    );
    if community_test.is_empty() {
        println!();
    } else {
        let eval = agg.evaluate_on(&community_test);
        println!("; held-out community accuracy {:.3}", eval.accuracy);
    }
    Ok(())
}

fn cmd_train(p: &Parsed, report: &mut RunReport) -> Result<(), String> {
    p.check_args(
        &with_config(&["world", "division", "agg", "out"]),
        &[],
        false,
    )?;
    let world = StoredWorld::load(&p.path("world")?).map_err(store_err)?;
    let division = load_division(&p.path("division")?).map_err(store_err)?;
    division.ensure_matches(&world.graph)?;
    let agg = load_aggregation(&p.path("agg")?).map_err(store_err)?;
    let out = p.path("out")?;
    let config = p.locec_config()?;
    if agg.len() != division.num_communities() {
        return Err("aggregation does not cover the division's communities".into());
    }
    if world.train_edges.is_empty() {
        return Err("world snapshot has no training edges".into());
    }
    let t0 = std::time::Instant::now();
    let clf = EdgeClassifier::train(
        &world.graph,
        &division,
        &agg,
        &world.train_edges,
        &config.lr,
    );
    let dt = t0.elapsed();
    save_edge_model(&out, &clf).map_err(store_err)?;
    report.set_section(
        "train",
        vobj(vec![
            ("edges", Value::Uint(world.train_edges.len() as u64)),
            ("features", Value::Uint(clf.model().num_features() as u64)),
            // This process trains exactly one model, so the counter's total
            // is this fit's epoch count.
            (
                "phase3.train_epochs",
                Value::Uint(Recorder::global().snapshot().counter("phase3.train_epochs")),
            ),
            ("wall_seconds", Value::Float(dt.as_secs_f64())),
        ]),
    );
    println!(
        "train: logistic regression on {} edges ({} features) in {:.3}s -> {}",
        world.train_edges.len(),
        clf.model().num_features(),
        dt.as_secs_f64(),
        out.display()
    );
    Ok(())
}

fn print_eval(stage: &str, eval: &Evaluation) {
    println!(
        "{stage}: accuracy {:.4}, macro F1 {:.4}, micro F1 {:.4} over {} test edges",
        eval.accuracy,
        eval.overall.f1,
        eval.micro_f1,
        eval.per_class.iter().map(|c| c.support).sum::<usize>()
    );
}

fn cmd_classify(p: &Parsed, report: &mut RunReport) -> Result<(), String> {
    p.check_args(
        &with_config(&["world", "division", "agg", "model", "out"]),
        &["--verify-pipeline"],
        false,
    )?;
    let world = StoredWorld::load(&p.path("world")?).map_err(store_err)?;
    let division = load_division(&p.path("division")?).map_err(store_err)?;
    division.ensure_matches(&world.graph)?;
    let agg = load_aggregation(&p.path("agg")?).map_err(store_err)?;
    let clf = load_edge_model(&p.path("model")?).map_err(store_err)?;
    let out = p.path("out")?;
    let config = p.locec_config()?;
    if agg.len() != division.num_communities() {
        return Err("aggregation does not cover the division's communities".into());
    }

    let t0 = std::time::Instant::now();
    let predictions = clf.predict_all(&world.graph, &division, &agg, config.threads);
    let dt = t0.elapsed();
    let eval = clf.evaluate_on(&world.graph, &division, &agg, &world.test_edges);
    save_labels(&out, &predictions).map_err(store_err)?;
    let secs = dt.as_secs_f64();
    let throughput = if secs > 0.0 {
        predictions.len() as f64 / secs
    } else {
        0.0
    };
    report.set_section(
        "classify",
        vobj(vec![
            ("edges", Value::Uint(predictions.len() as u64)),
            ("wall_seconds", Value::Float(secs)),
            ("edge_throughput", Value::Float(throughput)),
            ("accuracy", Value::Float(eval.accuracy)),
            ("macro_f1", Value::Float(eval.overall.f1)),
            ("micro_f1", Value::Float(eval.micro_f1)),
        ]),
    );
    println!(
        "classify: {} edges labeled in {:.3}s -> {}",
        predictions.len(),
        dt.as_secs_f64(),
        out.display()
    );
    print_eval("classify", &eval);

    if p.has("--verify-pipeline") {
        verify_against_pipeline(&world, &config, &predictions, &eval)?;
        println!(
            "verify-pipeline: OK — snapshot pipeline output is identical to LocecPipeline::run"
        );
    }
    Ok(())
}

/// Re-runs the monolithic in-process pipeline on the stored world + split
/// and demands bit-identical edge labels (and evaluation) from the
/// snapshot-pipelined stages.
fn verify_against_pipeline(
    world: &StoredWorld,
    config: &LocecConfig,
    predictions: &[RelationType],
    eval: &Evaluation,
) -> Result<(), String> {
    let mut pipeline = LocecPipeline::new(config.clone());
    let outcome = pipeline.run_with_splits(&world.dataset(), &world.train_edges, &world.test_edges);
    if outcome.edge_predictions.len() != predictions.len() {
        return Err(format!(
            "verify-pipeline: edge count mismatch ({} vs {})",
            predictions.len(),
            outcome.edge_predictions.len()
        ));
    }
    let diff = predictions
        .iter()
        .zip(&outcome.edge_predictions)
        .filter(|(a, b)| a != b)
        .count();
    if diff != 0 {
        return Err(format!(
            "verify-pipeline: {diff} of {} edge labels differ from the in-process pipeline",
            predictions.len()
        ));
    }
    if (eval.accuracy - outcome.edge_eval.accuracy).abs() > 1e-12 {
        return Err(format!(
            "verify-pipeline: test accuracy differs ({} vs {})",
            eval.accuracy, outcome.edge_eval.accuracy
        ));
    }
    Ok(())
}

/// Parses `"A,B"` into two integers for the `--edge U,V` / `--top-k N,K`
/// control flags.
fn parse_pair(name: &str, value: &str) -> Result<(u32, u32), String> {
    let (a, b) = value
        .split_once(',')
        .ok_or_else(|| format!("--{name} wants 'A,B', got '{value}'"))?;
    let a = a
        .trim()
        .parse()
        .map_err(|_| format!("invalid --{name} '{value}'"))?;
    let b = b
        .trim()
        .parse()
        .map_err(|_| format!("invalid --{name} '{value}'"))?;
    Ok((a, b))
}

/// p50/p99 (in nanoseconds) of a recorded latency histogram, as report
/// fields; zeros when the verb was never exercised.
fn latency_fields(name: &str, histogram: &str) -> Vec<(String, Value)> {
    let snap = Recorder::global().snapshot();
    let (p50, p99) = snap
        .histograms
        .get(histogram)
        .map(|h| (h.percentile(0.5), h.percentile(0.99)))
        .unwrap_or((0, 0));
    vec![
        (format!("{name}_p50_nanos"), Value::Uint(p50)),
        (format!("{name}_p99_nanos"), Value::Uint(p99)),
    ]
}

fn cmd_serve(p: &Parsed, report: &mut RunReport) -> Result<(), String> {
    if p.str("connect").is_some() {
        return cmd_serve_control(p);
    }
    p.check_args(
        &with_config(&[
            "world",
            "division",
            "model",
            "edge-model",
            "listen",
            "addr-file",
        ]),
        &[],
        false,
    )?;
    let config = p.locec_config()?;
    let world = InferenceWorld::load(&p.path("world")?).map_err(store_err)?;
    let division = load_division(&p.path("division")?).map_err(store_err)?;
    let community_model = load_community_model(&p.path("model")?).map_err(store_err)?;
    let edge_model = load_edge_model(&p.path("edge-model")?).map_err(store_err)?;
    // The CNN's feature matrix must keep the trained height; --k only
    // applies to the GBDT pooling path.
    let k = match &community_model {
        CommunityClassifier::Cnn(cnn) => cnn.input_shape().0,
        _ => config.k,
    };
    let assets = ServeAssets {
        community_model,
        edge_model,
        k,
        row_order: config.row_order,
        seed: config.seed,
    };
    let listen = p.str("listen").unwrap_or("127.0.0.1:0");
    let server = Server::bind(world, assets, division, listen).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(addr_file) = p.str("addr-file") {
        std::fs::write(addr_file, addr.to_string()).map_err(|e| format!("{addr_file}: {e}"))?;
    }
    println!("serve: listening on {addr}");
    let t0 = std::time::Instant::now();
    let summary = server.run().map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();

    let mut fields = vec![
        ("listen".to_owned(), Value::Str(addr.to_string())),
        ("wall_seconds".to_owned(), Value::Float(secs)),
        ("connections".to_owned(), Value::Uint(summary.connections)),
        ("edge_queries".to_owned(), Value::Uint(summary.edge_queries)),
        (
            "community_queries".to_owned(),
            Value::Uint(summary.community_queries),
        ),
        (
            "top_k_queries".to_owned(),
            Value::Uint(summary.top_k_queries),
        ),
        ("reloads".to_owned(), Value::Uint(summary.reloads)),
        ("final_epoch".to_owned(), Value::Uint(summary.final_epoch)),
    ];
    fields.extend(latency_fields("edge", "serve.edge_nanos"));
    fields.extend(latency_fields("community", "serve.community_nanos"));
    fields.extend(latency_fields("top_k", "serve.top_k_nanos"));
    fields.extend(latency_fields("reload", "serve.reload_nanos"));
    report.set_section("serve", Value::Object(fields));
    println!(
        "serve: shut down after {:.3}s — {} connections, {} edge / {} community / {} top-k \
         queries, {} reload(s), final epoch {}",
        secs,
        summary.connections,
        summary.edge_queries,
        summary.community_queries,
        summary.top_k_queries,
        summary.reloads,
        summary.final_epoch
    );
    Ok(())
}

/// One-shot control/query client: `locec serve --connect ADDR ...`.
fn cmd_serve_control(p: &Parsed) -> Result<(), String> {
    p.check_args(
        &[
            "connect",
            "reload-division",
            "reload-world",
            "edge",
            "community-of",
            "top-k",
        ],
        &["--status", "--stop"],
        false,
    )?;
    let addr = p.str("connect").unwrap_or_default();
    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let welcome = client.welcome().clone();
    let mut acted = false;

    if let Some(spec) = p.str("edge") {
        let (u, v) = parse_pair("edge", spec)?;
        let reply = client.classify_edge(u, v).map_err(|e| e.to_string())?;
        match reply.outcome {
            EdgeOutcome::Classified { label, proba } => {
                let name = if (label as usize) < RelationType::COUNT {
                    RelationType::from_label(label as usize).name()
                } else {
                    "unknown"
                };
                let proba: Vec<String> = proba.iter().map(|p| format!("{p:.4}")).collect();
                println!(
                    "edge {u}-{v}: {name} [{}] (epoch {})",
                    proba.join(", "),
                    reply.epoch
                );
            }
            EdgeOutcome::NoSuchEdge => println!("edge {u}-{v}: no such edge"),
            EdgeOutcome::Uncovered => {
                println!("edge {u}-{v}: not covered by the served division")
            }
        }
        acted = true;
    }
    if let Some(node) = p.num::<u32>("community-of")? {
        let reply = client.communities_of(node).map_err(|e| e.to_string())?;
        println!(
            "node {node}: {} local communit{} (epoch {})",
            reply.memberships.len(),
            if reply.memberships.len() == 1 {
                "y"
            } else {
                "ies"
            },
            reply.epoch
        );
        for m in &reply.memberships {
            let name = if (m.label as usize) < RelationType::COUNT {
                RelationType::from_label(m.label as usize).name()
            } else {
                "unknown"
            };
            println!(
                "  ego {} community {}: {} members, tightness {:.4}, {}",
                m.ego, m.community, m.size, m.tightness, name
            );
        }
        acted = true;
    }
    if let Some(spec) = p.str("top-k") {
        let (node, k) = parse_pair("top-k", spec)?;
        let reply = client.top_k_intimate(node, k).map_err(|e| e.to_string())?;
        println!(
            "node {node}: top {} intimate neighbor(s) (epoch {})",
            reply.neighbors.len(),
            reply.epoch
        );
        for (rank, (v, tightness)) in reply.neighbors.iter().enumerate() {
            println!("  #{} node {v} tightness {tightness:.4}", rank + 1);
        }
        acted = true;
    }
    if let Some(division) = p.str("reload-division") {
        let reply = client
            .reload(p.str("reload-world"), division)
            .map_err(|e| e.to_string())?;
        match reply.outcome {
            Ok((epoch, communities)) => {
                println!("reload: now serving epoch {epoch} ({communities} communities)")
            }
            Err(e) => return Err(format!("reload refused: {e}")),
        }
        acted = true;
    }
    if p.has("--status") {
        let s = client.status().map_err(|e| e.to_string())?;
        println!(
            "status: epoch {}, up {:.1}s, {} reload(s), {} connection(s)",
            s.epoch,
            s.uptime_nanos as f64 / 1e9,
            s.reloads,
            s.connections
        );
        println!(
            "  {} nodes, {} edges, {} communities ({} embeddings cached)",
            s.num_nodes, s.num_edges, s.num_communities, s.cached_embeddings
        );
        println!(
            "  queries: {} edge, {} community, {} top-k",
            s.edge_queries, s.community_queries, s.top_k_queries
        );
        acted = true;
    }
    if p.has("--stop") {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("stop: shutdown requested");
        return Ok(());
    }
    if !acted {
        return Err(format!(
            "serve --connect {}: nothing to do — pass --status, --stop, --reload-division, \
             --edge, --community-of or --top-k (daemon epoch {})",
            addr, welcome.epoch
        ));
    }
    Ok(())
}

fn cmd_inspect(p: &Parsed) -> Result<(), String> {
    p.check_args(&[], &[], true)?;
    if p.positional.is_empty() {
        return Err("inspect needs at least one snapshot file".into());
    }
    for file in &p.positional {
        let path = Path::new(file);
        let snap = Snapshot::read_from(path).map_err(|e| format!("{file}: {e}"))?;
        let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!(
            "{file}: {} snapshot, format v{}, {} bytes",
            snap.kind().name(),
            snap.version(),
            size
        );
        for (name, len) in snap.section_summaries() {
            println!("  section {name:<16} {len:>12} bytes");
        }
        match snap.kind() {
            locec::store::SnapshotKind::World => {
                let world = StoredWorld::load(path).map_err(store_err)?;
                println!(
                    "  {} nodes, {} edges, {} labeled edges ({} train / {} test)",
                    world.graph.num_nodes(),
                    world.graph.num_edges(),
                    world.labeled_edges.len(),
                    world.train_edges.len(),
                    world.test_edges.len()
                );
            }
            locec::store::SnapshotKind::Division => {
                let d = load_division(path).map_err(store_err)?;
                println!(
                    "  {} communities, membership table over {} adjacency slots",
                    d.num_communities(),
                    d.membership_table().len()
                );
            }
            locec::store::SnapshotKind::DivisionShard => {
                let s = load_shard(path).map_err(store_err)?;
                println!(
                    "  shard {}/{}: egos {}..{} of {}, {} communities",
                    s.shard_index,
                    s.shard_count,
                    s.ego_start,
                    s.ego_end,
                    s.num_nodes,
                    s.communities.len()
                );
            }
            locec::store::SnapshotKind::Aggregation => {
                let a = load_aggregation(path).map_err(store_err)?;
                println!(
                    "  {} communities, embedding dim {}",
                    a.len(),
                    a.embedding_dim()
                );
            }
            locec::store::SnapshotKind::CommunityModel => match load_community_model_kind(path)? {
                "gbdt" => println!("  GBDT community classifier"),
                other => println!("  {other} community classifier"),
            },
            locec::store::SnapshotKind::EdgeModel => {
                let m = load_edge_model(path).map_err(store_err)?;
                println!(
                    "  logistic regression: {} features, {} classes",
                    m.model().num_features(),
                    m.model().num_classes()
                );
            }
            locec::store::SnapshotKind::WorldDelta => {
                let d = load_world_delta(path).map_err(store_err)?;
                println!(
                    "  {} batches against a {}-node / {}-edge world: {} inserts, {} removes",
                    d.batches.len(),
                    d.num_nodes,
                    d.base_num_edges,
                    d.num_inserts(),
                    d.num_removes()
                );
            }
            locec::store::SnapshotKind::DivisionDelta => {
                let d = load_division_delta(path).map_err(store_err)?;
                println!(
                    "  {} dirty egos of {} nodes, {} re-divided communities",
                    d.dirty.len(),
                    d.num_nodes,
                    d.communities.len()
                );
            }
            locec::store::SnapshotKind::DivisionCheckpoint => {
                let c = load_division_checkpoint(path).map_err(store_err)?;
                for line in c.coverage().render() {
                    println!("  {line}");
                }
                println!(
                    "  {} merged range(s), {} tasks (detector {}, seed {})",
                    c.merged.len(),
                    c.task_count,
                    c.detector,
                    c.seed
                );
            }
            locec::store::SnapshotKind::Labels => {
                let labels = load_labels(path).map_err(store_err)?;
                let mut counts = [0usize; RelationType::COUNT];
                for l in &labels {
                    counts[l.label()] += 1;
                }
                println!(
                    "  {} edge labels (family {}, colleague {}, schoolmate {})",
                    labels.len(),
                    counts[0],
                    counts[1],
                    counts[2]
                );
            }
        }
    }
    Ok(())
}

fn cmd_lint(p: &Parsed) -> Result<(), String> {
    p.check_args(&["root"], &["--json"], false)?;
    let root = p
        .str("root")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let cfg = locec::lint::LintConfig::locec_defaults();
    let outcome = locec::lint::lint(&root, &cfg)
        .map_err(|e| format!("lint: scanning {}: {e}", root.display()))?;

    if p.has("--json") {
        println!("{}", outcome.to_json());
    } else {
        for f in &outcome.findings {
            println!("{f}");
        }
        println!(
            "lint: {} file(s) scanned, {} violation(s), {} pragma-suppressed",
            outcome.files_scanned,
            outcome.findings.len(),
            outcome.pragma_suppressed
        );
    }
    if outcome.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "lint: {} violation(s) not excused by a justified pragma",
            outcome.findings.len()
        ))
    }
}

fn load_community_model_kind(path: &Path) -> Result<&'static str, String> {
    match locec::store::load_community_model(path).map_err(store_err)? {
        CommunityClassifier::Xgb(_) => Ok("gbdt"),
        CommunityClassifier::Cnn(_) => Ok("commcnn"),
    }
}
