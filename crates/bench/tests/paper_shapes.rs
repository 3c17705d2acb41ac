//! Shape tests of the analysis-only experiments: each asserts the `Check`s
//! its experiment returns — the values `paper <id>` prints — on a 3 000-user
//! world. The experiments that train a CommCNN have oracle-based shape tests
//! in the facade's `tests/paper_shapes.rs`.

use locec_bench::synth::{Scenario, SynthConfig};
use locec_bench::{fig10a, select, Experiment, World};

fn assert_shape(experiment: Experiment, expected_checks: usize) {
    let world = World::new(Scenario::generate(&SynthConfig::small(301)));
    let report = experiment(&world);
    assert_eq!(report.checks.len(), expected_checks, "{report}");
    for check in &report.checks {
        assert!(check.ok, "{}: {}", report.title, check.name);
    }
}

fn registered(id: &str) -> Experiment {
    select(&[id]).expect("a registered id")[0].1
}

#[test]
fn table1_shape_major_types_dominate() {
    assert_shape(registered("table1"), 3);
}

#[test]
fn table2_shape_precision_dwarfs_recall() {
    assert_shape(registered("table2"), 3);
}

#[test]
fn fig2_shape_colleagues_share_most_groups() {
    assert_shape(registered("fig2"), 2);
}

#[test]
fn fig4_shape_interactions_are_sparse_for_all_types() {
    assert_shape(registered("fig4"), 3);
}

#[test]
fn fig10a_shape_community_sizes() {
    assert_shape(fig10a, 2);
}
