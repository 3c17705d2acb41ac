//! `locec` — the snapshot-pipelined LoCEC command line. Each verb is one
//! pipeline stage, and stages communicate only through `locec_store`
//! snapshot files, so any stage can run in its own process (the README
//! walks through a sharded run and a streaming update).
//!
//! This file is the scaffold every verb shares: `USAGE`, the argument
//! parser and its one check against a verb's [`Verb`] declaration, the
//! config options, the error type and the `--report` writer. Each verb's
//! module declares what it takes next to its handler.

mod aggregate;
mod classify;
mod cluster;
mod divide;
mod serve;
mod tools;
mod train;
mod world;

use locec::core::{CommunityDetector, CommunityModelKind, LocecConfig};
use locec::obs::{json::Value, Recorder, RunReport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// Every verb's declaration. `serve --connect` precedes plain `serve`:
/// the first declaration that applies to the command line wins.
const VERBS: &[Verb] = &[
    world::SYNTH,
    world::EVOLVE,
    divide::VERB,
    cluster::COORDINATE,
    cluster::WORKER,
    aggregate::VERB,
    train::VERB,
    classify::VERB,
    serve::CONTROL,
    serve::DAEMON,
    tools::INSPECT,
    tools::LINT,
    tools::REPORT_CHECK,
];

/// A verb's declaration: what it takes on the command line, declared once
/// next to its handler. Option lists are space-separated names without
/// the leading `--`.
struct Verb {
    name: &'static str,
    /// An option whose presence selects this declaration over the verb's
    /// plain one (`serve --connect`).
    mode: Option<&'static str>,
    /// Options that take a value.
    flags: &'static str,
    /// Options that take none.
    switches: &'static str,
    /// Whether the verb takes the [`CONFIG_FLAGS`].
    config: bool,
    positional: Positional,
    run: Handler,
}

type Handler = fn(&Args, &mut RunReport) -> Result<(), CliError>;

impl Verb {
    /// A verb that takes no option, switch or positional argument; a
    /// declaration overrides what its verb does take.
    const fn new(name: &'static str, run: Handler) -> Self {
        Verb {
            name,
            mode: None,
            flags: "",
            switches: "",
            config: false,
            positional: Positional::No,
            run,
        }
    }
}

/// Which positional arguments a verb takes.
enum Positional {
    No,
    Files,
    /// Files, but only together with this switch (`divide --merge`).
    With(&'static str),
}

/// Options every verb takes (see `run`).
const OBS_FLAGS: &str = "report log-level";
const OBS_SWITCHES: &str = "log-json";

/// The [`LocecConfig`] options of every post-synth stage.
const CONFIG_FLAGS: &str = "preset community-model detector threads seed k";

/// Whether `name` is one of the space-separated names in `list`.
fn listed(list: &str, name: &str) -> bool {
    list.split_whitespace().any(|n| n == name)
}

/// Why a verb failed: the message `main` prints after `locec: `. A
/// message (`String`, `&str`) or a typed error (`SnapshotError`,
/// `ClusterError`, `ServeError`) converts with its text as it is.
struct CliError(String);

impl<E: std::fmt::Display> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError(e.to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(CliError(message)) = run(&args) {
        eprintln!("locec: {message}");
        std::process::exit(1);
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(format!("missing subcommand\n\n{USAGE}").into());
    };
    let args = Args::parse(rest);
    if let Some(level) = args.str("log-level") {
        let level = locec::obs::log::parse_level(level).ok_or_else(|| {
            format!("unknown --log-level '{level}' (error|warn|info|debug|trace)")
        })?;
        locec::obs::log::set_level(level);
    }
    if args.has("log-json") {
        locec::obs::log::set_json(true);
    }

    let t0 = Instant::now();
    let mut report = RunReport::new(cmd.as_str());
    // Reserve the meta section's slot: it leads the verb's sections.
    report.set_section("meta", Value::Null);
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
    } else {
        let verb = VERBS
            .iter()
            .find(|v| {
                // A dangling mode option still selects its mode, so the
                // mode's declaration reports the missing value.
                let given = |m| args.flags.contains_key(m) || args.dangling.as_deref() == Some(m);
                v.name == cmd && v.mode.is_none_or(given)
            })
            .ok_or_else(|| format!("unknown subcommand '{cmd}'\n\n{USAGE}"))?;
        args.check(verb)?;
        (verb.run)(&args, &mut report)?;
    }

    if let Some(path) = args.str("report") {
        let argv = rest.iter().map(|a| Value::Str(a.clone())).collect();
        report.set_section(
            "meta",
            vobj(vec![
                ("argv", Value::Array(argv)),
                ("duration_ms", Value::Uint(t0.elapsed().as_millis() as u64)),
            ]),
        );
        report.attach_metrics(&Recorder::global().snapshot());
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Shorthand for building a JSON object section.
fn vobj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A verb's command line: `--flag value` options, `--switch`es and
/// positional arguments.
#[derive(Default)]
struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
    /// A last `--name` with nothing after it. Whether that is an unknown
    /// option or a missing value depends on the verb, so `check` reports it.
    dangling: Option<String>,
    /// The first option given more than once.
    repeated: Option<String>,
}

impl Args {
    /// Splits the command line; a `--name` some verb declares as a switch
    /// takes no value.
    fn parse(argv: &[String]) -> Self {
        let is_switch = |name: &str| {
            listed(OBS_SWITCHES, name) || VERBS.iter().any(|v| listed(v.switches, name))
        };
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if is_switch(name) => args.switches.push(name.to_owned()),
                Some(name) => match it.next() {
                    Some(value) => {
                        if args.flags.insert(name.to_owned(), value.clone()).is_some() {
                            args.repeated.get_or_insert_with(|| name.to_owned());
                        }
                    }
                    None => args.dangling = Some(name.to_owned()),
                },
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    /// Rejects what `verb` does not take — a typo'd `--treads 16`,
    /// `--detector` on the wrong stage or a repeated option must fail
    /// loudly, not silently fall back to a value that desyncs the pipeline.
    fn check(&self, verb: &Verb) -> Result<(), String> {
        let known = |name: &str| {
            listed(verb.flags, name)
                || (verb.config && listed(CONFIG_FLAGS, name))
                || listed(OBS_FLAGS, name)
        };
        if let Some(name) = self.flags.keys().chain(&self.dangling).find(|n| !known(n)) {
            return Err(format!("unknown option --{name}\n\n{USAGE}"));
        }
        if let Some(name) = &self.dangling {
            return Err(format!("--{name} needs a value"));
        }
        if let Some(name) = &self.repeated {
            return Err(format!("--{name} given more than once"));
        }
        let takes = |s: &&String| listed(verb.switches, s) || listed(OBS_SWITCHES, s);
        if let Some(s) = self.switches.iter().find(|s| !takes(s)) {
            return Err(format!("--{s} is not valid for this subcommand\n\n{USAGE}"));
        }
        let positional_ok = match verb.positional {
            Positional::No => false,
            Positional::Files => true,
            Positional::With(switch) => self.has(switch),
        };
        if let (Some(first), false) = (self.positional.first(), positional_ok) {
            return Err(format!("unexpected argument '{first}'\n\n{USAGE}"));
        }
        Ok(())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.str(name)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.str(name)
            .map(|v| v.parse().map_err(|_| format!("invalid --{name} '{v}'")))
            .transpose()
    }

    /// A duration given in milliseconds, raised to at least `floor_ms`.
    fn millis(&self, name: &str, floor_ms: u64) -> Result<Option<Duration>, String> {
        Ok(self
            .num(name)?
            .map(|ms: u64| Duration::from_millis(ms.max(floor_ms))))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// USAGE names every verb and every option a verb declares, and every
    /// `--name` in USAGE is taken by some verb.
    #[test]
    fn usage_and_declarations_agree() {
        let mut declared = format!("{CONFIG_FLAGS} {OBS_FLAGS} {OBS_SWITCHES}");
        for verb in VERBS {
            assert!(USAGE.contains(&format!("\n  locec {} ", verb.name)));
            declared = format!("{declared} {} {}", verb.flags, verb.switches);
        }
        // `Args::parse` takes a name some verb declares as a switch as one
        // for every verb, so no name may also be a value-taking flag.
        let flags = format!("{CONFIG_FLAGS} {OBS_FLAGS}");
        let flags = VERBS.iter().fold(flags, |f, v| format!("{f} {}", v.flags));
        let switches = VERBS.iter().fold(OBS_SWITCHES.to_owned(), |s, v| {
            format!("{s} {}", v.switches)
        });
        for name in switches.split_whitespace() {
            assert!(
                !listed(&flags, name),
                "--{name} is declared both as a switch and as a flag"
            );
        }
        let named = USAGE.split(|c: char| !c.is_ascii_alphanumeric() && c != '-');
        let named: Vec<&str> = named.filter_map(|w| w.strip_prefix("--")).collect();
        for name in declared.split_whitespace() {
            assert!(named.contains(&name), "USAGE does not name --{name}");
        }
        for name in named {
            assert!(
                listed(&declared, name),
                "USAGE names --{name}, which no verb takes"
            );
        }
    }
}
