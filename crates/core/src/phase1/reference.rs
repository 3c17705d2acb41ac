//! The pre-optimization Phase I implementation, preserved verbatim as an
//! executable specification.
//!
//! This is the seed repository's `divide`: a scoped thread pool spawned per
//! call, the `0..n` ego range statically sharded across threads, fresh
//! allocations per ego network, hash-map Girvan–Newman
//! ([`locec_community::girvan_newman_reference`]) and a `HashSet` tightness
//! lookup. Property tests assert the production path in
//! [`crate::phase1::divide`] produces identical results.

use crate::config::{CommunityDetector, LocecConfig};
use crate::features::tightness;
use crate::phase1::{DivisionResult, LocalCommunity};
use locec_community::{girvan_newman_reference, label_propagation, louvain, GirvanNewmanConfig};
use locec_graph::{CsrGraph, EgoNetwork, NodeId};

/// Runs Phase I with the original static-sharded, allocation-per-ego
/// execution strategy. Results are identical to [`crate::phase1::divide`].
pub fn divide_reference(graph: &CsrGraph, config: &LocecConfig) -> DivisionResult {
    let n = graph.num_nodes();
    let threads = config.threads.clamp(1, n.max(1));

    // Shard the node range; each shard produces its communities in node
    // order, so a plain in-order merge keeps global determinism.
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let shards: Vec<Vec<LocalCommunity>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(n);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for v in start..end {
                        divide_one_reference(graph, NodeId(v as u32), config, &mut out);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard"))
            .collect()
    });

    let mut communities = Vec::new();
    for shard in shards {
        communities.extend(shard);
    }
    let membership = DivisionResult::build_membership(graph, &communities);
    DivisionResult {
        communities,
        membership,
    }
}

/// Detects the local communities of one ego node, original formulation.
fn divide_one_reference(
    graph: &CsrGraph,
    ego: NodeId,
    config: &LocecConfig,
    out: &mut Vec<LocalCommunity>,
) {
    let ego_net = EgoNetwork::extract(graph, ego);
    if ego_net.num_friends() == 0 {
        return;
    }

    let partition = detect_reference(&ego_net, config);

    for group in partition.groups() {
        if group.is_empty() {
            continue;
        }
        // Local degrees needed by Eq. 3.
        let members_global: Vec<NodeId> = group.iter().map(|&l| ego_net.to_global(l)).collect();
        let in_group: std::collections::HashSet<NodeId> = group.iter().copied().collect();
        let tightness_values: Vec<f32> = group
            .iter()
            .map(|&l| {
                let friends_in_c = ego_net
                    .graph
                    .neighbors(l)
                    .iter()
                    .filter(|w| in_group.contains(w))
                    .count();
                let friends_in_ego = ego_net.friend_degree(l);
                tightness(friends_in_c, friends_in_ego, group.len())
            })
            .collect();
        out.push(LocalCommunity {
            ego,
            members: members_global.into(),
            tightness: tightness_values.into(),
        });
    }
}

/// Runs the configured detector with the original (hash-map GN) kernels.
fn detect_reference(ego_net: &EgoNetwork, config: &LocecConfig) -> locec_community::Partition {
    let g = &ego_net.graph;
    let detector = if ego_net.num_friends() > config.gn_max_friends
        && config.detector == CommunityDetector::GirvanNewman
    {
        CommunityDetector::Louvain
    } else {
        config.detector
    };
    match detector {
        CommunityDetector::GirvanNewman => {
            girvan_newman_reference(g, &GirvanNewmanConfig::default())
        }
        CommunityDetector::Louvain => louvain(g, config.seed),
        CommunityDetector::LabelPropagation => label_propagation(g, config.seed, 50),
    }
}
