//! `locec classify`: Phase III — label every edge and evaluate the labels.

use super::{vobj, Args, CliError, RunReport, Value, Verb};
use locec::core::{LocecConfig, LocecPipeline};
use locec::ml::metrics::Evaluation;
use locec::store::{load_aggregation, load_division, load_edge_model, save_labels, StoredWorld};
use locec::synth::types::RelationType;

pub const VERB: Verb = Verb {
    flags: "world division agg model out",
    switches: "verify-pipeline",
    config: true,
    ..Verb::new("classify", run)
};

fn run(p: &Args, report: &mut RunReport) -> Result<(), CliError> {
    let world = StoredWorld::load(&p.path("world")?)?;
    let division = load_division(&p.path("division")?)?;
    division.ensure_matches(&world.graph)?;
    let agg = load_aggregation(&p.path("agg")?)?;
    let clf = load_edge_model(&p.path("model")?)?;
    let out = p.path("out")?;
    let config = p.locec_config()?;
    if agg.len() != division.num_communities() {
        return Err("aggregation does not cover the division's communities".into());
    }

    let t0 = std::time::Instant::now();
    let predictions = clf.predict_all(&world.graph, &division, &agg, config.threads);
    let dt = t0.elapsed();
    let eval = clf.evaluate_on(&world.graph, &division, &agg, &world.test_edges);
    save_labels(&out, &predictions)?;
    let (edges, secs) = (predictions.len(), dt.as_secs_f64());
    let throughput = if secs > 0.0 { edges as f64 / secs } else { 0.0 };
    report.set_section(
        "classify",
        vobj(vec![
            ("edges", Value::Uint(edges as u64)),
            ("wall_seconds", Value::Float(secs)),
            ("edge_throughput", Value::Float(throughput)),
            ("accuracy", Value::Float(eval.accuracy)),
            ("macro_f1", Value::Float(eval.overall.f1)),
            ("micro_f1", Value::Float(eval.micro_f1)),
        ]),
    );
    println!(
        "classify: {edges} edges labeled in {secs:.3}s -> {}",
        out.display()
    );
    println!(
        "classify: accuracy {:.4}, macro F1 {:.4}, micro F1 {:.4} over {} test edges",
        eval.accuracy,
        eval.overall.f1,
        eval.micro_f1,
        eval.per_class.iter().map(|c| c.support).sum::<usize>()
    );

    if p.has("verify-pipeline") {
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
