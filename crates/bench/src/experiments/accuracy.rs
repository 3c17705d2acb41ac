//! The §V-B/C/E experiments: every one trains models on the shared division
//! and labeled-edge split of the [`World`].

use crate::{harness_config, Method, Report, Table, World};
use locec_core::advertising::{run_campaign, AdCategory, AdConfig, Targeting};
use locec_core::config::RowOrder;
use locec_core::features::{pooled_feature_vector, FEATURE_COLS};
use locec_core::phase2::{AggregationResult, CommunityClassifier};
use locec_core::phase3::{edge_feature, EdgeClassifier};
use locec_core::pipeline::split_edges;
use locec_core::{
    community_ground_truth, CommunityDetector, CommunityModelKind, LocecConfig, LocecPipeline,
};
use locec_graph::EdgeId;
use locec_ml::linear::{LogisticRegression, LogisticRegressionConfig};
use locec_ml::metrics::{evaluate, Evaluation};
use locec_ml::Dataset;
use locec_synth::stats::Cdf;
use locec_synth::types::RelationType;
use std::collections::HashMap;

/// Header of a table in the paper's Precision / Recall / F1 layout.
const METRIC_HEADER: &str = "Algorithm | Community Type | Precision | Recall | F1-score";

/// Appends an evaluation's per-class and overall rows to a [`METRIC_HEADER`] table.
fn evaluation_rows(table: &mut Table, label: &str, eval: &Evaluation) {
    let classes = RelationType::ALL.map(|t| (t.name(), &eval.per_class[t.label()]));
    for (class, m) in classes.into_iter().chain([("Overall", &eval.overall)]) {
        table.row(format!(
            "{label} | {class} | {:.3} | {:.3} | {:.3}",
            m.precision, m.recall, m.f1
        ));
    }
}

/// Figure 10(a) — CDF of local-community sizes (paper: median 8, ≈80% ≤ 20
/// members, ≈90% < 30 — the justification for k = 20). Analysis only;
/// `fig10` adds panel (b).
pub fn fig10a(world: &World) -> Report {
    let cdf = Cdf::new(world.division().community_sizes());
    let mut report = Report::new("Figure 10: Parameter Study");
    let mut table = Table::new("(a) CDF of Community Size", "size | CDF");
    for x in [1u32, 2, 4, 8, 16, 20, 30, 32, 64, 128, 256] {
        table.row(format!("{x} | {:.1}%", 100.0 * cdf.at(x)));
    }
    report.tables.push(table);
    report.note(format!(
        "<30 members: {:.1}% of communities (paper ≈90%)",
        100.0 * cdf.at(29)
    ));
    let median = cdf.median();
    report.check(
        format!("median community size {median} within 2..=20 (paper: 8)"),
        (2..=20).contains(&median),
    );
    report.check(
        format!(
            "≤20 members: {:.1}% of communities > 60% (paper ≈80%)",
            100.0 * cdf.at(20)
        ),
        cdf.at(20) > 0.6,
    );
    report
}

/// Figure 10 — parameter study: (a) as [`fig10a`]; (b) overall F1 of
/// LoCEC-CNN as k sweeps 5..40 (paper: rises, peaks at k = 20, then declines
/// from zero-padding noise).
pub fn fig10(world: &World) -> Report {
    let mut report = fig10a(world);
    let (train, test) = world.split();
    let mut table = Table::new("(b) Overall F1 of LoCEC-CNN as k varies", "k | F1");
    let mut best = (0usize, f64::MIN);
    for k in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let config = LocecConfig {
            k,
            ..harness_config()
        };
        let f1 = world.run(config, train, test).edge_eval.overall.f1;
        table.row(format!("{k} | {f1:.3}"));
        if f1 >= best.1 {
            best = (k, f1);
        }
    }
    report.tables.push(table);
    report.note(format!(
        "Paper shape: performance peaks at k = 20 and declines for large k; measured peak: k = {} (F1 {:.3}).",
        best.0, best.1
    ));
    report
}

/// Figure 11 — F1 versus percentage of labeled edges, all five methods,
/// four panels (colleagues / family / schoolmates / overall).
///
/// The sweep varies the *visible* fraction of the labeled edge set from 5%
/// to 80% (the rest of the labeled edges form the fixed evaluation pool,
/// mirroring "we only evaluate the labels predicted for edges whose ground
/// truth types are known").
///
/// Paper shape: ProbWP collapses below 0.1 at 5% and climbs steeply;
/// Economix climbs more gently; raw XGBoost is flat (more labels cannot fix
/// missing features) and beats the propagators only at low fractions; the
/// two LoCEC variants dominate everywhere and stay nearly flat.
pub fn fig11(world: &World) -> Report {
    // Fixed evaluation pool: 20% of the labeled edges.
    let (train_pool, test) = world.split();
    let fractions = [0.05f64, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.80];
    let mut report = Report::new("Figure 11: Edge Classification F1 vs. Labeled Percentage");
    report.note(format!(
        "(training pool {} edges, fixed test pool {} edges)",
        train_pool.len(),
        test.len()
    ));

    // results[method][fraction] = per-class + overall F1.
    let mut results: Vec<Vec<[f64; 4]>> = vec![Vec::new(); Method::ALL.len()];
    for &fraction in &fractions {
        // Deterministic nested subsets: the 25% subset contains the 15% one.
        let visible = ((train_pool.len() as f64) * fraction / 0.80).round() as usize;
        let train = &train_pool[..visible.clamp(1, train_pool.len())];
        for (mi, method) in Method::ALL.into_iter().enumerate() {
            let eval = world.run_method(method, &harness_config(), train, test);
            results[mi].push([
                eval.per_class[RelationType::Colleague.label()].f1,
                eval.per_class[RelationType::Family.label()].f1,
                eval.per_class[RelationType::Schoolmate.label()].f1,
                eval.overall.f1,
            ]);
        }
        eprintln!("swept fraction {:.0}%", 100.0 * fraction);
    }

    let panels = [
        "(a) Colleagues",
        "(b) Family Members",
        "(c) Schoolmates",
        "(d) Overall",
    ];
    let header = format!("% labeled | {}", Method::ALL.map(Method::name).join(" | "));
    for (p, panel) in panels.iter().enumerate() {
        let mut table = Table::new(panel, &header);
        for (fi, &fraction) in fractions.iter().enumerate() {
            let f1s = results
                .iter()
                .map(|series| format!(" | {:.3}", series[fi][p]));
            table.row(format!(
                "{:.0}%{}",
                100.0 * fraction,
                f1s.collect::<String>()
            ));
        }
        report.tables.push(table);
    }

    let overall = |m: Method, fi: usize| {
        let mi = Method::ALL.iter().position(|&x| x == m);
        results[mi.expect("every method is in ALL")][fi][3]
    };
    let last = fractions.len() - 1;
    report.check(
        "ProbWP is weak at 5% labels and climbs with more",
        overall(Method::ProbWp, 0) < 0.45
            && overall(Method::ProbWp, last) > overall(Method::ProbWp, 0) + 0.2,
    );
    report.check(
        "LoCEC-CNN dominates at every fraction",
        (0..fractions.len()).all(|fi| {
            Method::ALL
                .iter()
                .all(|&m| overall(Method::LocecCnn, fi) >= overall(m, fi) - 1e-9)
        }),
    );
    report.check(
        "raw XGBoost beats ProbWP at 5% but loses at 80%",
        overall(Method::XgbEdge, 0) > overall(Method::ProbWp, 0)
            && overall(Method::XgbEdge, last) < overall(Method::ProbWp, last),
    );
    report.check(
        "LoCEC variants are nearly flat across fractions",
        (overall(Method::LocecCnn, last) - overall(Method::LocecCnn, 1)).abs() < 0.15,
    );
    report
}

/// Table IV — relationship (edge) classification performance of all five
/// methods, 80/20 split over the labeled edges (≈40% of the subgraph's
/// edges carry labels, as in §V-B).
///
/// Expected shape: LoCEC-CNN ≥ LoCEC-XGB > ProbWP ≈ Economix > XGBoost,
/// with raw XGBoost's recall as the weakest number.
pub fn table4(world: &World) -> Report {
    let s = &world.scenario;
    let (train, test) = world.split();
    let mut report = Report::new("Table IV: Relationship Classification Performance");
    report.note(format!(
        "world: {} nodes, {} edges, {} labeled edges ({:.1}%)",
        s.graph.num_nodes(),
        s.graph.num_edges(),
        world.data().num_labeled(),
        100.0 * s.labeled_fraction()
    ));
    report.note(format!(
        "train edges: {}, test edges: {}",
        train.len(),
        test.len()
    ));
    report.note("Paper overall F1: ProbWP 0.793, Economix 0.754, XGBoost 0.674,");
    report.note("LoCEC-XGB 0.850, LoCEC-CNN 0.916.");

    let mut table = Table::new("", METRIC_HEADER);
    let overall = Method::ALL.map(|method| {
        let eval = world.run_method(method, &harness_config(), train, test);
        evaluation_rows(&mut table, method.name(), &eval);
        (method, eval.overall.f1)
    });
    report.tables.push(table);

    let f1 = |m: Method| {
        let found = overall.iter().find(|(x, _)| *x == m);
        found.expect("every method ran").1
    };
    report.check(
        "LoCEC-CNN is the best method",
        Method::ALL.iter().all(|&m| f1(Method::LocecCnn) >= f1(m)),
    );
    report.check(
        "LoCEC-XGB is the runner-up",
        f1(Method::LocecXgb) >= f1(Method::ProbWp)
            && f1(Method::LocecXgb) >= f1(Method::Economix)
            && f1(Method::LocecXgb) >= f1(Method::XgbEdge),
    );
    report.check(
        "raw XGBoost is the weakest method",
        Method::ALL.iter().all(|&m| f1(Method::XgbEdge) <= f1(m)),
    );
    report
}

/// Table V — local-community classification performance (LoCEC-XGB vs
/// LoCEC-CNN), 80/20 split over ground-truth-labeled communities.
///
/// Ground truth follows §V-C: communities from surveyed egos, labeled by
/// the majority type of their members' relationships. Expected shape:
/// LoCEC-CNN > LoCEC-XGB, and community-level F1 slightly above the edge-
/// level F1 of Table IV (community impurity hurts edges, not communities).
pub fn table5(world: &World) -> Report {
    let config = harness_config();
    let data = world.data();
    let division = world.division();
    let labeled_communities = community_ground_truth(
        data.graph,
        division,
        data.labeled_edges,
        config.community_label_min_coverage,
    );
    let mut report = Report::new("Table V: Community Classification Performance");
    report.note(format!(
        "{} local communities, {} with ground-truth labels",
        division.num_communities(),
        labeled_communities.len()
    ));
    report.note("Paper overall F1: LoCEC-XGB 0.882, LoCEC-CNN 0.927.");

    // 80/20 split of the labeled communities (reusing the edge splitter on
    // index/label pairs keeps the shuffling logic in one place).
    let as_edges: Vec<(EdgeId, RelationType)> = labeled_communities
        .iter()
        .map(|&(i, t)| (EdgeId(i), t))
        .collect();
    let (train, test) = split_edges(&as_edges, 0.8, 42);
    let communities = |edges: Vec<(EdgeId, RelationType)>| -> Vec<(u32, RelationType)> {
        edges.into_iter().map(|(e, t)| (e.0, t)).collect()
    };
    let (train, test) = (communities(train), communities(test));

    let mut table = Table::new("", METRIC_HEADER);
    let [xgb, cnn] = [
        ("LoCEC-XGB", CommunityModelKind::Xgb),
        ("LoCEC-CNN", CommunityModelKind::Cnn),
    ]
    .map(|(label, kind)| {
        let mut cfg = config.clone();
        cfg.community_model = kind;
        let agg = CommunityClassifier::train(&data, division, &train, &cfg)
            .predict_all(&data, division, &cfg);
        let eval = agg.evaluate_on(&test);
        evaluation_rows(&mut table, label, &eval);
        eval.overall.f1
    });
    report.tables.push(table);
    report.check(
        format!("LoCEC-CNN ≥ LoCEC-XGB on communities ({cnn:.3} vs {xgb:.3})"),
        cnn >= xgb,
    );
    report
}

/// Figure 13 — distribution of predicted community and relationship types
/// over the whole network.
///
/// Paper: communities split 49% family / 31% colleague / 20% schoolmate,
/// while edges split 35% / 47% / 18% — family communities are smaller than
/// colleague communities, so family's share *shrinks* from the community
/// panel to the relationship panel. That inversion is the shape to check.
pub fn fig13(world: &World) -> Report {
    let data = world.data();
    let config = harness_config();
    // `LocecPipeline::run`'s own split, on the shared division.
    let (train, test) = split_edges(&data.labeled_edges_sorted(), 0.8, config.seed);
    let outcome = world.run(config, &train, &test);

    let mut report = Report::new("Figure 13: Distribution of Community and Relationship Types");
    report.note(format!(
        "classified {} local communities and {} edges",
        outcome.num_communities,
        data.graph.num_edges()
    ));
    // What the true (synthetic) distribution looks like over the three
    // major classes.
    let mut oracle = [0usize; 3];
    for (e, _, _) in data.graph.edges() {
        if let Some(t) = world.scenario.true_relation(e) {
            oracle[t.label()] += 1;
        }
    }
    let total: usize = oracle.iter().sum();

    let paper_community = [0.49, 0.31, 0.20];
    let paper_edge = [0.35, 0.47, 0.18];
    let mut table = Table::new(
        "",
        "Type | Communities | Paper | Relationships | Paper | Oracle relationships",
    );
    for t in RelationType::ALL {
        let i = t.label();
        table.row(format!(
            "{} | {:.1}% | {:.0}% | {:.1}% | {:.0}% | {:.1}%",
            t.name(),
            100.0 * outcome.community_type_distribution[i],
            100.0 * paper_community[i],
            100.0 * outcome.edge_type_distribution[i],
            100.0 * paper_edge[i],
            100.0 * oracle[i] as f64 / total as f64
        ));
    }
    report.tables.push(table);

    let fam = RelationType::Family.label();
    report.check(
        "family share shrinks from communities to relationships \
         (family communities are smaller than colleague communities)",
        outcome.community_type_distribution[fam] > outcome.edge_type_distribution[fam],
    );
    report
}

/// Phase II under `config` on the shared division, trained on the
/// communities that the shared training split labels: those labeled
/// communities, and the aggregation of every community.
fn aggregate_on_train_split(
    world: &World,
    config: &LocecConfig,
) -> (Vec<(u32, RelationType)>, AggregationResult) {
    let (data, division) = (world.data(), world.division());
    let train_map: HashMap<EdgeId, RelationType> = world.split().0.iter().copied().collect();
    let labeled_communities = community_ground_truth(
        data.graph,
        division,
        &train_map,
        config.community_label_min_coverage,
    );
    let agg = CommunityClassifier::train(&data, division, &labeled_communities, config)
        .predict_all(&data, division, config);
    (labeled_communities, agg)
}

/// `ours / theirs` as a table cell; `n/a` when the baseline rate is zero and
/// the lift undefined.
fn lift(ours: f64, theirs: f64) -> String {
    if theirs > 0.0 {
        format!("{:.2}x", ours / theirs)
    } else {
        "n/a".to_owned()
    }
}

/// Figure 14 — social advertising with LoCEC targeting.
///
/// Runs furniture and mobile-game campaigns with both audience-selection
/// strategies. Targeting uses LoCEC-CNN's *predicted* edge types (trained
/// through the normal pipeline), behaviour uses the oracle types — so
/// classification errors directly cost conversions, as in production.
///
/// Paper shape: LoCEC-CNN beats Relation on click rate for both verticals,
/// and boosts interact rate by more than 2×.
pub fn fig14(world: &World) -> Report {
    let s = &world.scenario;
    let data = world.data();
    let division = world.division();

    // Train LoCEC-CNN and label every edge of the network.
    let config = harness_config();
    let (train, _) = world.split();
    let (_, agg) = aggregate_on_train_split(world, &config);
    let clf = EdgeClassifier::train(data.graph, division, &agg, train, &config.lr);
    let labels = clf.predict_all(data.graph, division, &agg, config.threads);
    let predictions: HashMap<EdgeId, RelationType> = (0..).map(EdgeId).zip(labels).collect();

    let ad_config = AdConfig {
        num_seeds: (s.graph.num_nodes() / 12).max(200),
        ..AdConfig::default()
    };
    let mut report = Report::new("Figure 14: Performance in Social Advertising");
    report.note("Paper shape: LoCEC-CNN wins on clicks for both verticals and");
    report.note("more than doubles the interact rate.");
    let mut table = Table::new(
        "",
        "Ad category | Method | Click rate | Interact rate | Impressions",
    );
    for category in [AdCategory::Furniture, AdCategory::MobileGame] {
        let [locec, relation] = [
            ("LoCEC-CNN", Targeting::Locec),
            ("Relation", Targeting::Relation),
        ]
        .map(|(name, targeting)| {
            let result = run_campaign(
                &s.graph,
                &s.edge_categories,
                &predictions,
                category,
                targeting,
                &ad_config,
            );
            table.row(format!(
                "{category:?} | {name} | {:.2}% | {:.3}% | {}",
                100.0 * result.click_rate,
                100.0 * result.interact_rate,
                result.impressions
            ));
            result
        });
        report.check(
            format!(
                "{category:?}: LoCEC-CNN beats Relation on click rate (lift {}) and interact rate (lift {})",
                lift(locec.click_rate, relation.click_rate),
                lift(locec.interact_rate, relation.interact_rate)
            ),
            locec.click_rate > relation.click_rate
                && locec.interact_rate > relation.interact_rate,
        );
    }
    report.tables.push(table);
    report
}

/// Ablation study of LoCEC's design choices.
///
/// 1. **Local community detector** — Girvan–Newman (paper) vs Louvain vs
///    label propagation.
/// 2. **Feature-matrix row ordering** — tightness (Algorithm 1) vs random.
/// 3. **Phase III edge features** — full Eq. 4 vs without the two
///    tightness values.
/// 4. **Community feature pooling** — mean+std (LoCEC-XGB) vs mean-only.
pub fn ablation(world: &World) -> Report {
    let data = world.data();
    let xgb = LocecConfig {
        community_model: CommunityModelKind::Xgb,
        ..harness_config()
    };
    let (train, test) = world.split();
    let division = world.division();
    let mut report = Report::new("Ablation study (LoCEC-XGB backbone unless noted)");
    report.note("Expected: GN ≈ Louvain ≫ label propagation; tightness ordering ≥ random;");
    report.note("full Eq. 4 ≥ no-tightness; mean+std ≥ mean-only.");

    let mut table = Table::new("", "Design choice | Variant | F1 | Communities");
    for (name, detector) in [
        ("Girvan-Newman (paper)", CommunityDetector::GirvanNewman),
        ("Louvain", CommunityDetector::Louvain),
        ("Label propagation", CommunityDetector::LabelPropagation),
    ] {
        let config = LocecConfig {
            detector,
            ..xgb.clone()
        };
        let outcome = LocecPipeline::new(config).run_with_splits(&data, train, test);
        table.row(format!(
            "(1) Phase I detector | {name} | {:.3} | {}",
            outcome.edge_eval.overall.f1, outcome.num_communities
        ));
    }

    // Row ordering only matters on the CNN path.
    for (name, row_order) in [
        ("tightness (Algorithm 1)", RowOrder::Tightness),
        ("random", RowOrder::Random),
    ] {
        let config = LocecConfig {
            row_order,
            ..harness_config()
        };
        let f1 = world.run(config, train, test).edge_eval.overall.f1;
        table.row(format!(
            "(2) Feature-matrix row order (LoCEC-CNN) | {name} | {f1:.3} |"
        ));
    }

    // Tightness in the Eq. 4 edge feature.
    let (labeled_communities, agg) = aggregate_on_train_split(world, &xgb);
    let r_c = |c: u32| Some(agg.embedding(c as usize));
    for (name, drop_tightness) in [("full Eq. 4", false), ("without tightness", true)] {
        let skip = usize::from(drop_tightness) * 2;
        let dim = 2 + 2 * agg.embedding_dim() - skip;
        let mut ds = Dataset::new(dim);
        for &(e, t) in train {
            if let Some(f) = edge_feature(data.graph, division, e, r_c) {
                ds.push(&f[skip..], t.label());
            }
        }
        let lr = LogisticRegression::fit(
            &ds,
            RelationType::COUNT,
            &LogisticRegressionConfig::default(),
        );
        let mut y_true = Vec::new();
        let mut y_pred = Vec::new();
        for &(e, t) in test {
            if let Some(f) = edge_feature(data.graph, division, e, r_c) {
                y_true.push(t.label());
                y_pred.push(lr.predict(&f[skip..]));
            }
        }
        let f1 = evaluate(&y_true, &y_pred, RelationType::COUNT).overall.f1;
        table.row(format!("(3) Phase III edge features | {name} | {f1:.3} |"));
    }

    // Pooled features: mean+std vs mean-only as GBDT input, scored on
    // communities instead of edges.
    for (name, cols) in [
        ("mean + std (paper)", 2 * FEATURE_COLS),
        ("mean only", FEATURE_COLS),
    ] {
        let mut ds = Dataset::new(cols);
        for &(idx, label) in &labeled_communities {
            let v = pooled_feature_vector(
                data.graph,
                data.interactions,
                data.user_features,
                &division.communities[idx as usize],
            );
            ds.push(&v[..cols], label.label());
        }
        let (train_ds, test_ds) = ds.split(0.8, 42);
        let model = locec_ml::gbdt::Gbdt::fit(&train_ds, RelationType::COUNT, &xgb.gbdt);
        let preds = model.predict_all(&test_ds);
        let f1 = evaluate(test_ds.labels(), &preds, RelationType::COUNT)
            .overall
            .f1;
        table.row(format!(
            "(4) Community pooling (GBDT, community F1) | {name} | {f1:.3} |"
        ));
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::lift;

    #[test]
    fn lift_of_a_zero_baseline_is_not_a_number_of_times() {
        assert_eq!(lift(0.03, 0.02), "1.50x");
        assert_eq!(lift(0.001, 0.0), "n/a");
        assert_eq!(lift(0.0, 0.0), "n/a");
    }
}
