//! `locec train`: Phase III — fit the edge classifier.

use super::{vobj, Args, CliError, Recorder, RunReport, Value, Verb};
use locec::core::phase3::EdgeClassifier;
use locec::store::{load_aggregation, load_division, save_edge_model, StoredWorld};

pub const VERB: Verb = Verb {
    flags: "world division agg out",
    config: true,
    ..Verb::new("train", run)
};

fn run(p: &Args, report: &mut RunReport) -> Result<(), CliError> {
    let world = StoredWorld::load(&p.path("world")?)?;
    let division = load_division(&p.path("division")?)?;
    division.ensure_matches(&world.graph)?;
    let agg = load_aggregation(&p.path("agg")?)?;
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
    save_edge_model(&out, &clf)?;
    // This process trains exactly one model, so the counter's total is
    // this fit's epoch count.
    let epochs = Recorder::global().snapshot().counter("phase3.train_epochs");
    report.set_section(
        "train",
        vobj(vec![
            ("edges", Value::Uint(world.train_edges.len() as u64)),
            ("features", Value::Uint(clf.model().num_features() as u64)),
            ("phase3.train_epochs", Value::Uint(epochs)),
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
