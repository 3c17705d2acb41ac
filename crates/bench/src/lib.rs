#![forbid(unsafe_code)]
//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it: run `cargo run --release -p locec_bench --bin <id>`
//! where `<id>` is `table1|table2|table4|table5|table6` or
//! `fig2|fig3|fig4|fig5|fig10|fig11|fig12|fig13|fig14`, or `ablation`.
//! These bins reproduce the paper's *shapes*; performance is measured by
//! the stand-alone benchmark (`benchmark/run.sh`, see `benchmark/README.md`).
//!
//! Scale is controlled by the `LOCEC_SCALE` environment variable:
//! `tiny` (smoke test), `small`, `medium` (default), or `paper`
//! (42k nodes, the paper's labeled-subgraph scale — slower). Any other
//! value is rejected.

use locec_core::{CommunityModelKind, LocecConfig, LocecPipeline};
use locec_graph::EdgeId;
use locec_ml::metrics::{evaluate, Evaluation};
use locec_synth::types::RelationType;
use locec_synth::{Scenario, SynthConfig};

pub use locec_core as core;
pub use locec_synth as synth;

/// Experiment scale, settable via `LOCEC_SCALE`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~300 users (CI smoke test).
    Tiny,
    /// ~3k users.
    Small,
    /// ~12k users (default; minutes for the heaviest binaries).
    Medium,
    /// 42k users — the paper's evaluation-subgraph scale.
    Paper,
}

impl Scale {
    /// Reads `LOCEC_SCALE`; unset means [`Scale::Medium`]. A value that
    /// names no scale ends the process with exit code 2 — falling back to
    /// `medium` would turn a mistyped smoke run into minutes of work.
    pub fn from_env() -> Scale {
        match std::env::var_os("LOCEC_SCALE") {
            None => Ok(Scale::Medium),
            Some(value) => Scale::parse(&value.to_string_lossy()),
        }
        .unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// Parses a `LOCEC_SCALE` value.
    fn parse(value: &str) -> Result<Scale, String> {
        match value {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "LOCEC_SCALE={other:?} is not a scale; expected tiny|small|medium|paper"
            )),
        }
    }

    /// The synthetic-world configuration for this scale. Survey coverage is
    /// raised so ≈40% of edges carry labels, matching §V-B's evaluation
    /// subgraph ("we ensure around 40% of edges are given ground truth
    /// labels").
    pub fn config(self, seed: u64) -> SynthConfig {
        let (num_users, surveyed_users) = match self {
            Scale::Tiny => (300, 90),
            Scale::Small => (3_000, 800),
            Scale::Medium => (12_000, 3_200),
            Scale::Paper => (42_000, 11_000),
        };
        SynthConfig {
            num_users,
            surveyed_users,
            seed,
            ..SynthConfig::default()
        }
    }

    /// Generates the evaluation scenario for this scale.
    pub fn scenario(self, seed: u64) -> Scenario {
        Scenario::generate(&self.config(seed))
    }
}

/// The five methods of Table IV / Fig. 11.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// Label propagation with min-hash similarity [13].
    ProbWp,
    /// Structure + content matrix factorization [14].
    Economix,
    /// Raw gradient-boosted trees on pair features [20].
    XgbEdge,
    /// LoCEC with XGBoost community classification.
    LocecXgb,
    /// LoCEC with CommCNN community classification.
    LocecCnn,
}

impl Method {
    /// All methods in the paper's table order.
    pub const ALL: [Method; 5] = [
        Method::ProbWp,
        Method::Economix,
        Method::XgbEdge,
        Method::LocecXgb,
        Method::LocecCnn,
    ];

    /// Name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::ProbWp => "ProbWP",
            Method::Economix => "Economix",
            Method::XgbEdge => "XGBoost",
            Method::LocecXgb => "LoCEC-XGB",
            Method::LocecCnn => "LoCEC-CNN",
        }
    }
}

/// Precomputed state reusable across methods and sweep points.
pub struct Harness<'a> {
    /// The dataset view.
    pub data: locec_synth::SocialDataset<'a>,
    /// Phase I division (shared by both LoCEC variants).
    pub division: locec_core::DivisionResult,
    /// Pipeline configuration template.
    pub config: LocecConfig,
}

impl<'a> Harness<'a> {
    /// Builds the harness: one Phase I division for the scenario.
    pub fn new(scenario: &'a Scenario) -> Self {
        let config = harness_config();
        let data = scenario.dataset();
        let pipeline = LocecPipeline::new(config.clone());
        let division = pipeline.divide_only(&data);
        Harness {
            data,
            division,
            config,
        }
    }

    /// Runs one method on explicit train/test labeled-edge splits and
    /// returns its evaluation.
    pub fn run_method(
        &self,
        method: Method,
        train: &[(EdgeId, RelationType)],
        test: &[(EdgeId, RelationType)],
    ) -> Evaluation {
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();
        match method {
            Method::ProbWp => {
                let preds = locec_baselines::probwp_predict(
                    &self.data,
                    train,
                    &test_ids,
                    &locec_baselines::ProbWpConfig::default(),
                );
                evaluate(&y_true, &preds, RelationType::COUNT)
            }
            Method::Economix => {
                let preds = locec_baselines::economix_predict(
                    &self.data,
                    train,
                    &test_ids,
                    &locec_baselines::EconomixConfig::default(),
                );
                evaluate(&y_true, &preds, RelationType::COUNT)
            }
            Method::XgbEdge => {
                let preds = locec_baselines::xgb_edge_predict(
                    &self.data,
                    train,
                    &test_ids,
                    &locec_baselines::XgbEdgeConfig::default(),
                );
                evaluate(&y_true, &preds, RelationType::COUNT)
            }
            Method::LocecXgb | Method::LocecCnn => {
                let mut config = self.config.clone();
                config.community_model = if method == Method::LocecXgb {
                    CommunityModelKind::Xgb
                } else {
                    CommunityModelKind::Cnn
                };
                let mut pipeline = LocecPipeline::new(config);
                let outcome = pipeline.run_with_division(
                    &self.data,
                    &self.division,
                    std::time::Duration::ZERO,
                    train,
                    test,
                );
                outcome.edge_eval
            }
        }
    }
}

/// The pipeline configuration used by all experiment binaries.
pub fn harness_config() -> LocecConfig {
    LocecConfig::default()
}

/// Prints one table row in the paper's Precision / Recall / F1 format.
pub fn print_metric_row(label: &str, class: &str, p: f64, r: f64, f1: f64) {
    println!("| {label:<12} | {class:<16} | {p:>9.3} | {r:>6.3} | {f1:>8.3} |");
}

/// Prints an evaluation in the paper's per-class + overall layout.
pub fn print_evaluation(label: &str, eval: &Evaluation) {
    for t in RelationType::ALL {
        let m = &eval.per_class[t.label()];
        print_metric_row(label, t.name(), m.precision, m.recall, m.f1);
    }
    print_metric_row(
        label,
        "Overall",
        eval.overall.precision,
        eval.overall.recall,
        eval.overall.f1,
    );
}

/// Table header matching [`print_metric_row`].
pub fn print_table_header() {
    println!(
        "| {0:<12} | {1:<16} | {2:>9} | {3:>6} | {4:>8} |",
        "Algorithm", "Community Type", "Precision", "Recall", "F1-score"
    );
    println!("|{0:-<14}|{0:-<18}|{0:-<11}|{0:-<8}|{0:-<10}|", "");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_configs_are_ordered() {
        assert!(Scale::Tiny.config(0).num_users < Scale::Small.config(0).num_users);
        assert!(Scale::Small.config(0).num_users < Scale::Medium.config(0).num_users);
        assert!(Scale::Medium.config(0).num_users < Scale::Paper.config(0).num_users);
    }

    #[test]
    fn scale_parser_accepts_the_four_names_and_rejects_the_rest() {
        assert_eq!(Scale::parse("tiny"), Ok(Scale::Tiny));
        assert_eq!(Scale::parse("small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("medium"), Ok(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
        for bad in ["tiney", "", "Tiny", " tiny", "large"] {
            let message = Scale::parse(bad).unwrap_err();
            assert!(
                message.contains("tiny|small|medium|paper"),
                "{bad:?}: {message}"
            );
        }
    }

    #[test]
    fn tiny_scenario_has_high_label_coverage() {
        // The evaluation worlds oversample the survey to reach the paper's
        // ≈40% labeled-edge regime.
        let s = Scale::Tiny.scenario(5);
        assert!(
            s.labeled_fraction() > 0.25,
            "labeled fraction {}",
            s.labeled_fraction()
        );
    }

    #[test]
    fn harness_runs_every_method_on_tiny() {
        let s = Scale::Tiny.scenario(6);
        let mut config = harness_config();
        config.commcnn.epochs = 5;
        config.gbdt.num_rounds = 10;
        let mut h = Harness::new(&s);
        h.config = config;
        let labeled = h.data.labeled_edges_sorted();
        let (train, test) = locec_core::pipeline::split_edges(&labeled, 0.8, 1);
        for m in Method::ALL {
            let eval = h.run_method(m, &train, &test);
            assert!(
                eval.accuracy > 0.2,
                "{} accuracy {}",
                m.name(),
                eval.accuracy
            );
        }
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::ProbWp.name(), "ProbWP");
        assert_eq!(Method::LocecCnn.name(), "LoCEC-CNN");
        assert_eq!(Method::ALL.len(), 5);
    }
}
