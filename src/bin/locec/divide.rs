//! `locec divide`: Phase I — whole, one shard, a shard merge or an update.

use super::{vobj, Args, CliError, Positional, RunReport, Value, Verb};
use locec::core::phase1::{
    divide, divide_egos, divide_range, splice_update, update_prefers_full_divide,
};
use locec::core::LocecConfig;
use locec::graph::{dirty_egos, CsrGraph, GraphDelta};
use locec::store::{
    load_division, load_shard, load_world_delta, merge_shards, save_division, save_division_delta,
    save_shard, DivisionDelta, DivisionShard, StoredWorld,
};
use std::path::Path;
use std::time::{Duration, Instant};

pub const VERB: Verb = Verb {
    flags: "world out shard base delta out-delta",
    switches: "merge update",
    config: true,
    positional: Positional::With("merge"),
    ..Verb::new("divide", run)
};

fn run(p: &Args, report: &mut RunReport) -> Result<(), CliError> {
    if p.has("merge") && p.has("update") {
        return Err("divide --merge and --update are mutually exclusive".into());
    }
    // Mode-specific flags must not be silently ignored: --shard belongs to
    // a plain sharded divide, --base/--delta/--out-delta to --update only.
    if p.str("shard").is_some() && (p.has("merge") || p.has("update")) {
        return Err("--shard cannot be combined with --merge or --update".into());
    }
    if !p.has("update") {
        for flag in ["base", "delta", "out-delta"] {
            if p.str(flag).is_some() {
                return Err(format!("--{flag} requires divide --update").into());
            }
        }
    }
    // Phase I only reads the graph; skip decoding the feature, interaction
    // and label columns that dominate the world snapshot at scale.
    let graph = StoredWorld::load_graph(&p.path("world")?)?;
    let out = p.path("out")?;
    let config = p.locec_config()?;

    if p.has("update") {
        return update(p, &graph, &out, &config, report);
    }

    if p.has("merge") {
        if p.positional.is_empty() {
            return Err("divide --merge needs shard files as positional arguments".into());
        }
        let shards: Vec<DivisionShard> = p
            .positional
            .iter()
            .map(|f| load_shard(Path::new(f)).map_err(|e| format!("{f}: {e}")))
            .collect::<Result<_, _>>()?;
        let t0 = Instant::now();
        let division = merge_shards(&graph, shards, config.threads)?;
        let dt = t0.elapsed();
        let communities = division.num_communities();
        report.set_section(
            "phase1",
            vobj(vec![
                ("path", Value::Str("merge".to_owned())),
                ("shards", Value::Uint(p.positional.len() as u64)),
                ("communities", Value::Uint(communities as u64)),
                ("wall_seconds", Value::Float(dt.as_secs_f64())),
            ]),
        );
        save_division(&out, &graph, &division)?;
        println!(
            "divide --merge: {} shards -> {} communities in {:.3}s -> {}",
            p.positional.len(),
            communities,
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
            let t0 = Instant::now();
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
            save_shard(&out, &shard)?;
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
            let t0 = Instant::now();
            let division = divide(&graph, &config);
            let dt = t0.elapsed();
            phase1_section(report, "full", n as u64, dt);
            save_division(&out, &graph, &division)?;
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
fn phase1_section(report: &mut RunReport, path: &str, egos: u64, wall: Duration) {
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

/// `divide --update`: apply an edge-delta to the base world's graph,
/// re-divide only the dirty egos, splice into the base division, and write
/// a division of the evolved graph that is byte-identical to what a full
/// `divide` of the evolved world would produce.
fn update(
    p: &Args,
    base_graph: &CsrGraph,
    out: &Path,
    config: &LocecConfig,
    report: &mut RunReport,
) -> Result<(), CliError> {
    // The base division — the largest artifact here — is loaded only once
    // the incremental path is chosen below; the full-divide fallback never
    // reads it.
    let base_path = p.path("base")?;
    let world_delta = load_world_delta(&p.path("delta")?)?;
    if world_delta.num_nodes as usize != base_graph.num_nodes()
        || world_delta.base_num_edges as usize != base_graph.num_edges()
    {
        return Err("delta was recorded against a different world".into());
    }
    let (inserts, _, removes) = world_delta.flatten();
    let graph_delta = GraphDelta::new(base_graph.num_nodes(), inserts, removes)?;

    let t0 = Instant::now();
    let applied = base_graph.apply_delta(&graph_delta)?;
    let graph = &applied.graph;
    let dirty = dirty_egos(base_graph, &graph_delta);

    // Dirty-ego saturation: past the crossover fraction the incremental
    // path re-divides nearly everything *and* pays the splice, so a plain
    // full divide of the evolved graph is cheaper. Outputs are
    // byte-identical either way — this only picks the faster route. The
    // incremental path is kept whenever --out-delta is requested, since a
    // division delta is exactly the fresh communities.
    let n = graph.num_nodes();
    let out_delta = p.str("out-delta").map(Path::new);
    if out_delta.is_none() && update_prefers_full_divide(dirty.len(), n) {
        let division = divide(graph, config);
        let dt = t0.elapsed();
        phase1_section(report, "update-full", n as u64, dt);
        save_division(out, graph, &division)?;
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

    let base_division = load_division(&base_path)?;
    base_division
        .ensure_matches(base_graph)
        .map_err(|e| format!("base {e}"))?;
    let mut fresh = divide_egos(graph, &dirty, config);
    let num_fresh = fresh.len();
    if let Some(out_delta) = out_delta {
        let dd = DivisionDelta {
            num_nodes: n as u32,
            dirty: dirty.clone(),
            communities: fresh,
        };
        save_division_delta(out_delta, &dd)?;
        println!(
            "divide --update: division delta ({} egos, {} communities) -> {}",
            dd.dirty.len(),
            dd.communities.len(),
            out_delta.display()
        );
        fresh = dd.communities;
    }
    let division = splice_update(graph, base_division, &dirty, fresh, config.threads);
    let dt = t0.elapsed();
    phase1_section(report, "update-incremental", dirty.len() as u64, dt);
    save_division(out, graph, &division)?;
    println!(
        "divide --update: took the incremental path — re-divided {} of {} egos \
         ({} fresh communities, {} total) in {:.3}s -> {}",
        dirty.len(),
        n,
        num_fresh,
        division.num_communities(),
        dt.as_secs_f64(),
        out.display()
    );
    Ok(())
}
