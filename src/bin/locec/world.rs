//! `locec synth` and `locec evolve`: a synthetic world and its edge-event
//! stream.

use super::{Args, CliError, RunReport, Verb};
use locec::core::LocecConfig;
use locec::store::{apply_world_delta, save_world_delta, StoredWorld};
use locec::synth::evolve::EvolveConfig;
use locec::synth::{Scenario, SynthConfig, WorldDelta};
use std::path::PathBuf;

pub const SYNTH: Verb = Verb {
    flags: "out preset users seed train-fraction split-seed",
    ..Verb::new("synth", synth)
};

pub const EVOLVE: Verb = Verb {
    flags: "world out out-world seed insert-fraction remove-fraction batches",
    ..Verb::new("evolve", evolve)
};

/// `locec synth`: generate a synthetic world with its train/test split.
fn synth(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
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
            return Err(format!("unknown --preset '{other}' (tiny|small|paper|default)").into())
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
    world.save(&out)?;
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

/// `locec evolve`: record a timestamped edge-event stream against a world.
fn evolve(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
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
    let t0 = std::time::Instant::now();
    let delta = if let Some(out_world) = p.str("out-world").map(PathBuf::from) {
        let world = StoredWorld::load(&world_path)?;
        let delta = WorldDelta::generate(&world.graph, &cfg);
        let evolved = apply_world_delta(&world, &delta)?;
        evolved.save(&out_world)?;
        println!(
            "evolve: evolved world ({} edges, {} labeled) -> {}",
            evolved.graph.num_edges(),
            evolved.labeled_edges.len(),
            out_world.display()
        );
        delta
    } else {
        let graph = StoredWorld::load_graph(&world_path)?;
        WorldDelta::generate(&graph, &cfg)
    };
    let dt = t0.elapsed();
    save_world_delta(&out, &delta)?;
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
