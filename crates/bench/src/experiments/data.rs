//! The §II data-analysis experiments: statistics of the (synthetic) survey,
//! chat groups and Moments interactions. No model is trained.

use crate::{Report, Table, World};
use locec_core::group_names::{evaluate_mining, mine_group_names};
use locec_graph::dot::{to_dot, DotStyle};
use locec_graph::{EdgeId, EgoNetwork, NodeId};
use locec_synth::stats::Cdf;
use locec_synth::types::{
    EdgeCategory, RelationType, SecondCategory, DIM_COMMENT_ARTICLE, DIM_COMMENT_GAME,
    DIM_COMMENT_PICTURE, DIM_LIKE_ARTICLE, DIM_LIKE_GAME, DIM_LIKE_PICTURE,
};
use locec_synth::Scenario;

/// `value` of every friend pair of a major relationship type, bucketed by
/// that type's label.
fn samples_by_type(s: &Scenario, value: impl Fn(EdgeId, NodeId, NodeId) -> u32) -> [Vec<u32>; 3] {
    let mut samples: [Vec<u32>; 3] = Default::default();
    for (e, u, v) in s.graph.edges() {
        if let Some(t) = s.edge_categories[e.index()].relation_type() {
            samples[t.label()].push(value(e, u, v));
        }
    }
    samples
}

/// The per-type CDF series of Figs 2 and 4 at x = 0..=10.
fn cdf_table(quantity: &str, cdfs: &[Cdf]) -> Table {
    let header = format!("{quantity} | Family members | Colleagues | Schoolmates");
    let mut table = Table::new("", &header);
    for x in 0..=10u32 {
        let [family, colleague, schoolmate] = RelationType::ALL.map(|t| cdfs[t.label()].at(x));
        table.row(format!(
            "{x} | {family:.3} | {colleague:.3} | {schoolmate:.3}"
        ));
    }
    table
}

/// Table I — relationship types in user surveys: first-category shares and
/// second-category shares (normalized over all records, as in the paper).
pub fn table1(world: &World) -> Report {
    let survey = &world.scenario.survey;
    let mut report = Report::new("Table I: Relationship Types in User Surveys");
    report.note(format!(
        "({} surveyed users, {} relationship records)",
        survey.surveyed.len(),
        survey.records.len()
    ));
    report.note(
        "Paper first-category ratios: Family 28%, Colleagues 41%, Schoolmates 15%, Others 16%.",
    );

    let first = survey.first_category_ratios();
    let paper_first = [0.28, 0.41, 0.15, 0.16];
    use {EdgeCategory as First, SecondCategory::*};
    let seconds = [
        (First::Family, "Next of kin", NextOfKin),
        (First::Family, "Kin", Kin),
        (First::Family, "In-law", InLaw),
        (First::Family, "Unknown", Unknown),
        (First::Colleague, "Current", CurrentColleague),
        (First::Colleague, "Past", PastColleague),
        (First::Colleague, "Unknown", Unknown),
        (First::Schoolmate, "Primary", PrimarySchool),
        (First::Schoolmate, "Middle", MiddleSchool),
        (First::Schoolmate, "University", University),
        (First::Schoolmate, "Graduate", Graduate),
        (First::Schoolmate, "Unknown", Unknown),
        (First::Other, "Interest", Interest),
        (First::Other, "Business", Business),
        (First::Other, "Agent", Agent),
        (First::Other, "Private", Private),
        (First::Other, "Unknown", Unknown),
    ];
    let mut table = Table::new(
        "",
        "First Category | Measured | Paper | Second Category | Measured",
    );
    let mut previous = None;
    for (cat, name, second) in seconds {
        // The first-category cells appear once, on the category's first row.
        let first_cells = if previous.replace(cat) == Some(cat) {
            " | | ".to_owned()
        } else {
            let (measured, paper) = (first[cat as usize], paper_first[cat as usize]);
            format!(
                "{} | {:.1}% | {:.1}%",
                cat.name(),
                100.0 * measured,
                100.0 * paper
            )
        };
        let ratio = 100.0 * survey.second_category_ratio(second, cat);
        table.row(format!("{first_cells} | {name} | {ratio:.1}%"));
    }
    report.tables.push(table);

    let major: f64 = first[..3].iter().sum();
    report.check(
        format!(
            "the three major types dominate: {:.1}% of records > 75% (paper: 84%)",
            100.0 * major
        ),
        major > 0.75,
    );
    report.check("colleagues outnumber family", first[1] > first[0]);
    report.check("family outnumbers schoolmates", first[0] > first[2]);
    report
}

/// Table II — group-name rule-mining performance. High precision, near-zero
/// recall: indicative names are rare and many friend pairs share no chat
/// group at all — the paper's motivation for not relying on group names.
pub fn table2(world: &World) -> Report {
    let s = &world.scenario;
    let predictions = mine_group_names(&s.graph, &s.groups);
    let metrics = evaluate_mining(&predictions, &s.edge_categories);
    let mut report = Report::new("Table II: Group Name Classification Performance");
    report.note(format!(
        "({} chat groups, {} rule-mined edge predictions)",
        s.groups.groups.len(),
        predictions.len()
    ));

    let paper: [(f64, f64, f64); 3] = [
        (0.705, 0.014, 0.027), // Family
        (0.821, 0.005, 0.010), // Colleague
        (0.934, 0.008, 0.016), // Schoolmates
    ];
    let mut table = Table::new(
        "",
        "Relationship | Precision | Recall | F1-score | Paper (P / R / F1)",
    );
    for t in RelationType::ALL {
        let m = &metrics[t.label()];
        let (pp, pr, pf) = paper[t.label()];
        table.row(format!(
            "{} | {:.3} | {:.3} | {:.3} | {pp:.3} / {pr:.3} / {pf:.3}",
            t.name(),
            m.precision,
            m.recall,
            m.f1
        ));
        // A type the rules never predict has no precision to compare.
        report.check(
            format!("{}: precision dwarfs recall (> 10×)", t.name()),
            m.precision == 0.0 || m.precision > 10.0 * m.recall,
        );
    }
    report.tables.push(table);
    report
}

/// Figure 2 — CDF of the number of common chat groups per relationship
/// type. Paper shape: >30% of family pairs share no group, >80% share at
/// most one; schoolmates share more; colleagues share the most.
pub fn fig2(world: &World) -> Report {
    let s = &world.scenario;
    let samples = samples_by_type(s, |_, u, v| s.groups.common_group_count(u, v) as u32);
    let mean = |t: RelationType| {
        let counts = &samples[t.label()];
        counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len().max(1) as f64
    };
    let [fam, col, sch] = RelationType::ALL.map(mean);
    let cdfs: Vec<Cdf> = samples.into_iter().map(Cdf::new).collect();
    let at = |t: RelationType, x: u32| cdfs[t.label()].at(x);

    let mut report = Report::new("Figure 2: CDF of Number of Common Groups");
    report.note(format!(
        "family pairs with no common group (paper > 0.30): {:.3}",
        at(RelationType::Family, 0)
    ));
    report.note(format!(
        "family pairs with ≤ 1 common group (paper > 0.80): {:.3}",
        at(RelationType::Family, 1)
    ));
    report.note(format!(
        "schoolmates with ≥ 2 common groups (paper ≳ 0.30): {:.3}",
        1.0 - at(RelationType::Schoolmate, 1)
    ));
    report.note(format!(
        "colleagues with ≥ 3 common groups (largest of all types): {:.3}",
        1.0 - at(RelationType::Colleague, 2)
    ));
    // The "~20% of friend pairs share no group" statistic of §II-B.
    let no_group = s
        .graph
        .edges()
        .filter(|&(_, u, v)| s.groups.common_group_count(u, v) == 0)
        .count();
    report.note(format!(
        "friend pairs in no common group (paper ≈ 20%): {:.1}%",
        100.0 * no_group as f64 / s.graph.num_edges() as f64
    ));
    report.tables.push(cdf_table("#groups", &cdfs));
    report.check(
        format!("colleagues share more groups than family (mean {col:.2} vs {fam:.2})"),
        col > fam,
    );
    report.check(
        format!("schoolmates share at least 0.8× family's groups (mean {sch:.2} vs {fam:.2})"),
        sch > 0.8 * fam,
    );
    report
}

/// Figure 3 — percentage of user pairs interacting under each Moments
/// category (likes and comments), per relationship type. Paper shape:
/// pictures dominate for everyone; colleagues/schoolmates like articles more
/// than family; schoolmates lead game likes and clearly comment on games;
/// colleagues barely discuss games but comment articles.
pub fn fig3(world: &World) -> Report {
    let s = &world.scenario;
    // Fraction of pairs (per type) with >0 count in each dimension.
    let mut active = [[0usize; 6]; 3];
    let mut totals = [0usize; 3];
    let dims = [
        DIM_LIKE_PICTURE,
        DIM_LIKE_ARTICLE,
        DIM_LIKE_GAME,
        DIM_COMMENT_PICTURE,
        DIM_COMMENT_ARTICLE,
        DIM_COMMENT_GAME,
    ];
    for (e, _, _) in s.graph.edges() {
        let Some(t) = s.edge_categories[e.index()].relation_type() else {
            continue;
        };
        totals[t.label()] += 1;
        let counts = s.interactions.edge(e);
        for (slot, &d) in dims.iter().enumerate() {
            if counts[d] > 0.0 {
                active[t.label()][slot] += 1;
            }
        }
    }
    let ratio = |t: RelationType, slot: usize| {
        active[t.label()][slot] as f64 / totals[t.label()].max(1) as f64
    };

    let mut report = Report::new("Figure 3: Percentage of Interactions under Moment Types");
    report.note("(checks are orderings, not absolute heights)");
    for (caption, base) in [("(a) Like", 0usize), ("(b) Comment", 3)] {
        let mut table = Table::new(caption, "Type | Pictures | Articles | Games");
        for t in RelationType::ALL {
            let [pictures, articles, games] = [0, 1, 2].map(|slot| ratio(t, base + slot));
            table.row(format!(
                "{} | {pictures:.3} | {articles:.3} | {games:.3}",
                t.name()
            ));
        }
        report.tables.push(table);
    }

    let f = RelationType::Family;
    let c = RelationType::Colleague;
    let sc = RelationType::Schoolmate;
    let most = |slot: usize, a: usize, b: usize| {
        RelationType::ALL
            .iter()
            .all(|&t| ratio(t, slot) > ratio(t, a) && ratio(t, slot) > ratio(t, b))
    };
    report.check("all types like pictures most", most(0, 1, 2));
    report.check(
        "colleagues+schoolmates like articles more than family",
        ratio(c, 1) > ratio(f, 1) && ratio(sc, 1) > ratio(f, 1),
    );
    report.check(
        "schoolmates have the highest game-like ratio",
        ratio(sc, 2) > ratio(c, 2) && ratio(sc, 2) > ratio(f, 2),
    );
    report.check("all types comment pictures most", most(3, 4, 5));
    report.check(
        "colleagues rarely comment games but often articles",
        ratio(c, 5) < 0.05 && ratio(c, 4) > ratio(f, 4),
    );
    report.check(
        "schoolmates clearly comment under game posts",
        ratio(sc, 5) > 0.10,
    );
    report
}

/// Figure 4 — CDF of the number of Moments interactions per friend pair,
/// per relationship type. Paper shape: a large share of pairs of *every*
/// type have zero interactions (the sparsity motivation: ≈60% of user pairs
/// are silent over a month).
pub fn fig4(world: &World) -> Report {
    let s = &world.scenario;
    // Moments interactions: everything except direct messages (dim 0).
    let samples = samples_by_type(s, |e, _, _| {
        s.interactions.edge(e)[1..].iter().sum::<f32>() as u32
    });
    let cdfs: Vec<Cdf> = samples.into_iter().map(Cdf::new).collect();

    let mut report = Report::new("Figure 4: CDF of Number of Interactions");
    report.note(format!(
        "overall silent-pair fraction (paper ≈ 60%, incl. messaging): {:.1}%",
        100.0 * s.interactions.sparsity()
    ));
    report.tables.push(cdf_table("#interactions", &cdfs));
    for t in RelationType::ALL {
        let zero = cdfs[t.label()].at(0);
        report.check(
            format!(
                "{}: {:.1}% of pairs have zero Moments interactions (sparse: 20–80%)",
                t.name(),
                100.0 * zero
            ),
            (0.2..=0.8).contains(&zero),
        );
    }
    report
}

/// Figure 5 — a surveyed user's labeled ego network as Graphviz DOT: one
/// colour per relationship type, black for friends whose type was left
/// unspecified. The paper's two §II-B observations should be visible:
/// same-type friends cluster, and one type appears as several clusters.
pub fn fig5(world: &World) -> Report {
    let s = &world.scenario;
    // The surveyed user with the most friends makes the best illustration.
    let ego = *s
        .survey
        .surveyed
        .iter()
        .max_by_key(|&&u| s.graph.degree(u))
        .expect("survey is non-empty");
    let ego_net = EgoNetwork::extract(&s.graph, ego);
    let mut style = DotStyle::for_nodes(ego_net.num_friends());
    style.title = Some(format!(
        "Ego network of surveyed user {ego} ({} friends)",
        ego_net.num_friends()
    ));
    for (local_idx, &friend) in ego_net.friends().iter().enumerate() {
        let edge = s
            .graph
            .edge_between(ego, friend)
            .expect("friend edge exists");
        let color = match s.edge_categories[edge.index()] {
            EdgeCategory::Family => "tomato",
            EdgeCategory::Colleague => "steelblue",
            EdgeCategory::Schoolmate => "gold",
            EdgeCategory::Other => "black",
        };
        style.color(NodeId(local_idx as u32), color);
        style.label(NodeId(local_idx as u32), friend.to_string());
    }

    let mut report = Report::new("Figure 5: Labeled Ego Network of a Surveyed User");
    report.note("tomato = family, steelblue = colleague, gold = schoolmate, black = other");
    report.note("render with: paper fig5 | sed -n '/^graph/,/^}/p' | dot -Tpng -o fig5.png\n");
    report.note(to_dot(&ego_net.graph, &style));
    report
}
