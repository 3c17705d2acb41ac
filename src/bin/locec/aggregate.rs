//! `locec aggregate`: Phase II — train and run the community classifier.

use super::{Args, CliError, RunReport, Verb};
use locec::core::pipeline::train_communities;
use locec::store::{load_division, save_aggregation, save_community_model, StoredWorld};
use std::time::Instant;

pub const VERB: Verb = Verb {
    flags: "world division out-agg out-model",
    config: true,
    ..Verb::new("aggregate", run)
};

fn run(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
    let world = StoredWorld::load(&p.path("world")?)?;
    let division = load_division(&p.path("division")?)?;
    division.ensure_matches(&world.graph)?;
    let out_agg = p.path("out-agg")?;
    let out_model = p.path("out-model")?;
    let config = p.locec_config()?;
    let data = world.dataset();

    let t0 = Instant::now();
    let (mut model, (train, held_out)) =
        train_communities(&data, &division, &world.train_edges, &config)
            .ok_or("no community got a ground-truth label; not enough training labels")?;
    let train_dt = t0.elapsed();
    let t1 = Instant::now();
    let agg = model.predict_all(&data, &division, &config);
    let infer_dt = t1.elapsed();

    save_aggregation(&out_agg, &agg)?;
    save_community_model(&out_model, &mut model)?;
    print!(
        "aggregate: {} labeled communities ({} train), trained in {:.3}s, \
         {} embeddings (dim {}) in {:.3}s -> {} + {}",
        train.len() + held_out.len(),
        train.len(),
        train_dt.as_secs_f64(),
        agg.len(),
        agg.embedding_dim(),
        infer_dt.as_secs_f64(),
        out_agg.display(),
        out_model.display()
    );
    if held_out.is_empty() {
        println!();
    } else {
        let eval = agg.evaluate_on(&held_out);
        println!("; held-out community accuracy {:.3}", eval.accuracy);
    }
    Ok(())
}
