//! The §V-D efficiency experiments, measured on this machine. Figure 12
//! times the real Phase I: `divide` over a sweep of world sizes, and the
//! `locec coordinate` code path (an in-process [`Coordinator`] with
//! `run_worker` threads over loopback TCP) over a sweep of worker counts.
//! Table VI times `LocecPipeline::run` on one worker; its only
//! extrapolation to the paper's 10⁹ nodes on 100 servers is the arithmetic
//! written out in [`table6`].

use crate::{harness_config, Report, Table, World};
use locec_cluster::{run_worker, CoordinateConfig, Coordinator, WorkerOptions};
use locec_core::phase1::{divide, DivisionResult};
use locec_core::{LocecConfig, LocecPipeline};
use locec_graph::CsrGraph;
use locec_synth::{Scenario, SynthConfig};
use std::time::{Duration, Instant};

/// The median wall time of three calls of `f`, in seconds, and the last
/// call's result.
fn median_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let [a, b, c] = [(); 3].map(|_| {
        let t0 = Instant::now();
        let out = f();
        (t0.elapsed().as_secs_f64(), out)
    });
    let mut secs = [a.0, b.0, c.0];
    secs.sort_by(f64::total_cmp);
    (secs[1], c.1)
}

/// The least-squares slope of `y` on `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mean_x, mean_y) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let cov: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    cov / var
}

/// Phase I through an in-process coordinator and `workers` single-thread
/// `run_worker` threads, the world shipped inline, as `locec coordinate
/// --ship-world` runs it.
fn coordinate(graph: &CsrGraph, config: &LocecConfig, workers: usize) -> DivisionResult {
    let mut cfg = CoordinateConfig::new(config.clone(), workers);
    cfg.ship_world_bytes = true;
    let mut coordinator =
        Coordinator::bind(None, graph.clone(), cfg).expect("bind a loopback coordinator");
    let addr = coordinator.local_addr().to_string();
    let options = WorkerOptions {
        threads: Some(1),
        ..WorkerOptions::default()
    };
    std::thread::scope(|s| {
        for _ in 0..workers {
            // A worker that connects after the last lease is gone finds the
            // listener closed and gives up; the division is what is checked.
            s.spawn(|| run_worker(&addr, &options));
        }
        let division = coordinator.run().expect("coordination completes").division;
        // Closing the listener before the scope joins turns a late worker's
        // connect into a refusal instead of a wait for a Welcome.
        drop(coordinator);
        division
    })
}

/// The name of fig12's determinism check.
const COORDINATED_EQUALS_DIVIDE: &str =
    "the coordinated division equals divide's (communities and membership table)";

/// Figure 12 — scalability study.
///
/// (a) Phase I run time against input size: `divide` on one worker over
/// seed-42 worlds of ⅛, ¼, ½ and 1× the running world's users, checked
/// for a log-log slope near 1 (the paper: linear in nodes).
/// (b) Phase I run time against workers: the coordinator with W = 1..=
/// `available_parallelism` single-thread workers beside `divide` on W
/// threads (the paper: about 1/servers), checked for a division equal to
/// `divide`'s and a speedup of at least W/2 at the largest W.
pub fn fig12(world: &World) -> Report {
    let mut report = Report::new("Figure 12: Scalability Study");
    report.note("Shape: Phase I run time linear in node count; ~1/workers.");

    let one = LocecConfig {
        threads: 1,
        ..harness_config()
    };
    let full = &world.scenario.config;
    let smaller = [1, 2, 4].map(|eighths| {
        Scenario::generate(&SynthConfig {
            num_users: full.num_users * eighths / 8,
            surveyed_users: full.surveyed_users * eighths / 8,
            ..full.clone()
        })
    });
    let mut table = Table::new(
        "(a) Phase I run time vs number of input nodes (1 worker, median of 3)",
        "nodes | time | µs/node",
    );
    let mut points = Vec::new();
    for graph in smaller.iter().chain([&world.scenario]).map(|s| &s.graph) {
        let (secs, _) = median_of_3(|| divide(graph, &one));
        let nodes = graph.num_nodes() as f64;
        table.row(format!(
            "{nodes} | {:.1}ms | {:.1}",
            secs * 1e3,
            secs * 1e6 / nodes
        ));
        points.push((nodes.ln(), secs.ln()));
    }
    report.tables.push(table);
    let size_slope = slope(&points);
    report.check(
        format!("run time is linear in nodes: log-log slope {size_slope:.2} in 0.8..=1.25"),
        (0.8..=1.25).contains(&size_slope),
    );

    let graph = &world.scenario.graph;
    let max_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(
        &format!(
            "(b) Phase I run time vs number of workers ({} nodes, available_parallelism {max_workers}, median of 3)",
            graph.num_nodes()
        ),
        "workers | coordinate | speedup | divide | overhead",
    );
    let (mut equal, mut base, mut speedup) = (true, None, 1.0);
    for workers in 1..=max_workers {
        let config = LocecConfig {
            threads: workers,
            ..harness_config()
        };
        let (divide_s, expected) = median_of_3(|| divide(graph, &config));
        let (coordinate_s, division) = median_of_3(|| coordinate(graph, &config, workers));
        equal &= division.communities == expected.communities
            && division.membership_table() == expected.membership_table();
        speedup = *base.get_or_insert(coordinate_s) / coordinate_s;
        let overhead = coordinate_s / divide_s;
        table.row(format!(
            "{workers} | {coordinate_s:.3}s | {speedup:.2}x | {divide_s:.3}s | {overhead:.2}"
        ));
    }
    report.tables.push(table);
    report.check(COORDINATED_EQUALS_DIVIDE, equal);
    let target = 0.5 * max_workers as f64;
    report.check(
        format!("coordinate speedup at {max_workers} workers {speedup:.2}x ≥ {target:.1}x"),
        speedup >= target,
    );
    report
}

/// Table VI — running time of LoCEC-CNN on the full WeChat network.
///
/// The paper ran 10⁹ nodes on 100 servers: training 4.5 h, Phase I 46.5 h,
/// Phase II 15.3 h, Phase III 7.4 h, total 73.7 h. Beside that row this
/// reports what one worker of this implementation spends per node in each
/// phase, measured by `LocecPipeline::run`, and those costs spread over 100
/// servers of this machine's thread count.
pub fn table6(world: &World) -> Report {
    let data = world.data();
    let nodes = data.graph.num_nodes();
    let one = LocecConfig {
        threads: 1,
        ..harness_config()
    };
    let outcome = LocecPipeline::new(one).run(&data, 0.8);
    let us = [
        outcome.phase1_time,
        outcome.phase2_time,
        outcome.phase3_time,
    ]
    .map(|d: Duration| d.as_secs_f64() * 1e6 / nodes as f64);
    let training_s = outcome.training_time.as_secs_f64();
    let threads = harness_config().threads;
    // 10⁹ nodes over 100 servers of `threads` workers each, µs → h.
    let hours = us.map(|us| us * 1e9 / (100.0 * threads as f64) / 3.6e9);
    let total_us: f64 = us.iter().sum();
    let total_h = training_s / 3600.0 + hours.iter().sum::<f64>();

    let mut report = Report::new("Table VI: Running Time (hours) of LoCEC-CNN");
    let mut table = Table::new(
        "10^9 nodes on 100 servers",
        "Source | training | Phase I | Phase II | Phase III | total",
    );
    table.row("paper | 4.5 | 46.5 | 15.3 | 7.4 | 73.7");
    let [p1, p2, p3] = us;
    table.row(format!(
        "measured, 1 worker, {nodes} nodes (per node) | {training_s:.1}s | {p1:.1}µs | {p2:.1}µs | {p3:.1}µs | {total_us:.1}µs"
    ));
    let [h1, h2, h3] = hours;
    table.row(format!(
        "measured, extrapolated to 100 servers × {threads} workers | {:.1} | {h1:.1} | {h2:.1} | {h3:.1} | {total_h:.1}",
        training_s / 3600.0
    ));
    report.tables.push(table);
    report.note(format!(
        "Phase I share of the three phases: {:.0}% measured, 67% in the paper (46.5 of 69.2 h); \
         training is a one-off and is not spread over servers",
        100.0 * p1 / total_us
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fig12_reports_both_sweeps_and_a_deterministic_coordinator_at_tiny() {
        let world = World::new(Scale::Tiny.scenario(42));
        let report = fig12(&world);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].rows.len(), 4);
        assert_eq!(report.tables[1].rows.len(), workers);
        let check = report
            .checks
            .iter()
            .find(|c| c.name == COORDINATED_EQUALS_DIVIDE)
            .expect("fig12 checks the coordinated division");
        assert!(check.ok, "{report}");
    }
}
