//! Shape tests: the qualitative claims of the paper's figures and tables,
//! asserted programmatically against the synthetic world; failures here
//! mean the reproduction drifted from the paper's regime. The `fig13` and
//! `fig14` experiments of `locec_bench` train a CommCNN, so their mechanisms
//! are checked here on oracle labels; the analysis-only shapes are asserted
//! on the experiments' own `Check`s in `crates/bench/tests/paper_shapes.rs`.

use locec::core::advertising::{run_campaign, AdCategory, AdConfig, Targeting};
use locec::core::phase1::divide;
use locec::core::LocecConfig;
use locec::graph::EdgeId;
use locec::synth::types::RelationType;
use locec::synth::{Scenario, SynthConfig};
use std::collections::HashMap;

fn scenario() -> Scenario {
    Scenario::generate(&SynthConfig::small(301))
}

#[test]
fn fig13_shape_family_communities_are_smaller() {
    // The mechanism behind Fig. 13's inversion: family communities are
    // smaller than colleague communities. Checked on oracle composition.
    let s = scenario();
    let config = LocecConfig::fast();
    let division = divide(&s.graph, &config);

    let mut size_sum = [0.0f64; 3];
    let mut n = [0usize; 3];
    for community in &division.communities {
        // Oracle-dominant type of the community.
        let mut counts = [0usize; 4];
        for &m in &community.members {
            let e = s.graph.edge_between(community.ego, m).unwrap();
            counts[s.edge_categories[e.index()] as usize] += 1;
        }
        let (best, _) = counts.iter().enumerate().max_by_key(|&(_, c)| *c).unwrap();
        if best < 3 {
            size_sum[best] += community.len() as f64;
            n[best] += 1;
        }
    }
    let family_mean = size_sum[0] / n[0].max(1) as f64;
    let colleague_mean = size_sum[1] / n[1].max(1) as f64;
    assert!(
        colleague_mean > family_mean,
        "colleague communities ({colleague_mean:.1}) must outsize family ({family_mean:.1})"
    );
}

#[test]
fn fig14_shape_type_targeting_wins() {
    let s = scenario();
    // Oracle predictions isolate the targeting mechanism from classifier
    // noise (the `fig14` experiment uses real LoCEC predictions).
    let predictions: HashMap<EdgeId, RelationType> = s
        .graph
        .edges()
        .filter_map(|(e, _, _)| s.true_relation(e).map(|t| (e, t)))
        .collect();
    let config = AdConfig {
        num_seeds: 500,
        base_ctr: 0.05,
        ..AdConfig::default()
    };
    for category in [AdCategory::Furniture, AdCategory::MobileGame] {
        let locec = run_campaign(
            &s.graph,
            &s.edge_categories,
            &predictions,
            category,
            Targeting::Locec,
            &config,
        );
        let relation = run_campaign(
            &s.graph,
            &s.edge_categories,
            &predictions,
            category,
            Targeting::Relation,
            &config,
        );
        assert!(
            locec.click_rate > relation.click_rate,
            "{category:?}: type targeting must lift clicks"
        );
    }
}

#[test]
fn survey_is_reproducible_across_generations() {
    let a = Scenario::generate(&SynthConfig::tiny(303));
    let b = Scenario::generate(&SynthConfig::tiny(303));
    assert_eq!(a.survey.records.len(), b.survey.records.len());
    assert_eq!(
        a.survey.first_category_ratios(),
        b.survey.first_category_ratios()
    );
}
