#![forbid(unsafe_code)]
//! The experiment harness behind the `paper` binary.
//!
//! Every table and figure of the paper's §II and §V is one entry of
//! [`EXPERIMENTS`]: a plain function from the process-wide [`World`] to a
//! [`Report`]. `cargo run --release -p locec_bench --bin paper -- <id>…`
//! prints the reports of the named experiments, `paper all` of every one in
//! registry order, and `paper list` the ids (`table1|table2|table4|table5|
//! table6`, `fig2|fig3|fig4|fig5|fig10|fig11|fig12|fig13|fig14`, `ablation`).
//! The experiments reproduce the paper's *shapes* and return their verdicts
//! as [`Check`] values, which `tests/paper_shapes.rs` asserts on;
//! performance is measured by the stand-alone benchmark
//! (`benchmark/run.sh`, see `benchmark/README.md`).
//!
//! Scale is controlled by the `LOCEC_SCALE` environment variable, the
//! harness's only setting: `tiny` (smoke test), `small`, `medium` (default),
//! or `paper` (42k nodes, the paper's labeled-subgraph scale — slower). Any
//! other value is rejected.

use locec_core::phase1::divide;
use locec_core::pipeline::{split_edges, LocecOutcome};
use locec_core::{CommunityModelKind, DivisionResult, LocecConfig, LocecPipeline};
use locec_graph::EdgeId;
use locec_ml::metrics::{evaluate, Evaluation};
use locec_synth::types::RelationType;
use locec_synth::{Scenario, SocialDataset, SynthConfig};
use std::sync::OnceLock;
use std::time::Duration;

mod experiments;
mod report;

pub use experiments::{fig10a, Experiment, EXPERIMENTS};
pub use locec_synth as synth;
pub use report::{Check, Report, Table};

/// Experiment scale, settable via `LOCEC_SCALE`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~300 users (CI smoke test).
    Tiny,
    /// ~3k users.
    Small,
    /// ~12k users (default; minutes for the heaviest experiments).
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
    /// Label propagation with min-hash similarity \[13\].
    ProbWp,
    /// Structure + content matrix factorization \[14\].
    Economix,
    /// Raw gradient-boosted trees on pair features \[20\].
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

/// Labeled edges, as the pipeline and the baselines take them.
pub type LabeledEdges = Vec<(EdgeId, RelationType)>;

/// What every experiment runs against, built once per process: the
/// synthetic scenario, plus — computed on first use — the Phase I division
/// under [`harness_config`] and the 80/20 split of the labeled edges that
/// most experiments share.
pub struct World {
    /// The evaluation scenario.
    pub scenario: Scenario,
    division: OnceLock<DivisionResult>,
    split: OnceLock<(LabeledEdges, LabeledEdges)>,
}

impl World {
    /// A world over `scenario`.
    pub fn new(scenario: Scenario) -> World {
        World {
            scenario,
            division: OnceLock::new(),
            split: OnceLock::new(),
        }
    }

    /// The world the `paper` binary runs on: seed 42 at the `LOCEC_SCALE`
    /// scale.
    pub fn from_env() -> World {
        World::new(Scale::from_env().scenario(42))
    }

    /// The dataset view.
    pub fn data(&self) -> SocialDataset<'_> {
        self.scenario.dataset()
    }

    /// The Phase I division under [`harness_config`]. Phase I depends only
    /// on the graph, so every experiment and sweep point shares it.
    pub fn division(&self) -> &DivisionResult {
        self.division
            .get_or_init(|| divide(&self.scenario.graph, &harness_config()))
    }

    /// The seed-42 80/20 `(train, test)` split of the labeled edges.
    pub fn split(&self) -> &(LabeledEdges, LabeledEdges) {
        self.split
            .get_or_init(|| split_edges(&self.data().labeled_edges_sorted(), 0.8, 42))
    }

    /// Phases II and III under `config` on the shared division.
    pub fn run(
        &self,
        config: LocecConfig,
        train: &[(EdgeId, RelationType)],
        test: &[(EdgeId, RelationType)],
    ) -> LocecOutcome {
        let (data, division) = (self.data(), self.division());
        LocecPipeline::new(config).run_with_division(&data, division, Duration::ZERO, train, test)
    }

    /// Runs one method on explicit train/test labeled-edge splits and
    /// returns its evaluation; `config` is the LoCEC variants' template.
    pub fn run_method(
        &self,
        method: Method,
        config: &LocecConfig,
        train: &[(EdgeId, RelationType)],
        test: &[(EdgeId, RelationType)],
    ) -> Evaluation {
        let data = self.data();
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let preds = match method {
            Method::ProbWp => {
                let config = locec_baselines::ProbWpConfig::default();
                locec_baselines::probwp_predict(&data, train, &test_ids, &config)
            }
            Method::Economix => {
                let config = locec_baselines::EconomixConfig::default();
                locec_baselines::economix_predict(&data, train, &test_ids, &config)
            }
            Method::XgbEdge => {
                let config = locec_baselines::XgbEdgeConfig::default();
                locec_baselines::xgb_edge_predict(&data, train, &test_ids, &config)
            }
            Method::LocecXgb | Method::LocecCnn => {
                let community_model = if method == Method::LocecXgb {
                    CommunityModelKind::Xgb
                } else {
                    CommunityModelKind::Cnn
                };
                let config = LocecConfig {
                    community_model,
                    ..config.clone()
                };
                return self.run(config, train, test).edge_eval;
            }
        };
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();
        evaluate(&y_true, &preds, RelationType::COUNT)
    }
}

/// The pipeline configuration every experiment starts from: LoCEC-CNN with
/// the paper's parameters.
pub fn harness_config() -> LocecConfig {
    LocecConfig::default()
}

/// Resolves `paper`'s arguments — experiment ids, or `all` — to registry
/// entries in the order given. No argument, or one that names nothing, is an
/// error listing what would have been accepted.
pub fn select(args: &[impl AsRef<str>]) -> Result<Vec<(&'static str, Experiment)>, String> {
    let ids = EXPERIMENTS.map(|(id, _)| id).join("|");
    let mut selected = Vec::new();
    for arg in args.iter().map(AsRef::as_ref) {
        match EXPERIMENTS.iter().find(|(id, _)| *id == arg) {
            Some(&entry) => selected.push(entry),
            None if arg == "all" => selected.extend(EXPERIMENTS),
            None => return Err(format!("{arg:?} is not all, list, or one of {ids}")),
        }
    }
    if selected.is_empty() {
        return Err(format!(
            "no experiment named; expected all, list, or ids of {ids}"
        ));
    }
    Ok(selected)
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
    fn registry_holds_the_fifteen_paper_ids_once_each() {
        let ids = EXPERIMENTS.map(|(id, _)| id);
        let expected = [
            "fig2", "fig3", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14", "table1",
            "table2", "table4", "table5", "table6", "ablation",
        ];
        assert_eq!(ids, expected);
        let all = select(&["all"]).unwrap();
        assert_eq!(all.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn selection_keeps_argument_order_and_rejects_unknown_ids() {
        let picked = select(&["table4", "fig2"]).unwrap();
        assert_eq!(
            picked.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            ["table4", "fig2"]
        );
        for bad in [&["fig1"][..], &["fig2", "Table4"], &["--all"], &[]] {
            let message = select(bad).expect_err("rejected");
            assert!(
                message.contains("all, list") && message.contains("fig14|table1|table2"),
                "{bad:?}: {message}"
            );
        }
    }

    #[test]
    fn data_only_experiments_report_at_tiny() {
        let world = World::new(Scale::Tiny.scenario(42));
        for id in ["table1", "table2", "fig2", "fig3", "fig4", "fig5"] {
            let (_, run) = select(&[id]).unwrap()[0];
            let report = run(&world);
            assert!(
                !report.tables.is_empty() || !report.notes.is_empty(),
                "{id} reported nothing"
            );
            let rendered = report.to_string();
            assert!(rendered.starts_with(&format!("=== {} ===\n", report.title)));
            let verdicts =
                rendered.matches("\n  [ok] ").count() + rendered.matches("\n  [MISS] ").count();
            assert_eq!(verdicts, report.checks.len(), "{id}: {rendered}");
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
        let world = World::new(s);
        let labeled = world.data().labeled_edges_sorted();
        let (train, test) = split_edges(&labeled, 0.8, 1);
        for m in Method::ALL {
            let eval = world.run_method(m, &config, &train, &test);
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
