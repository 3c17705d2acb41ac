//! ProbWP — structural label propagation with min-hash similarity
//! (Aggarwal, He & Zhao, ICDE 2016; the paper's \[13\]).
//!
//! For an unlabeled edge ⟨u,v⟩: find the top-k nodes most structurally
//! similar to `u` (the set `S_u`) and to `v` (`S_v`), where similarity is
//! neighbourhood Jaccard estimated by min-hash (20 hash functions, per the
//! LoCEC paper's experimental setup). Labeled edges with one endpoint in
//! `S_u` and the other in `S_v` then vote, weighted by the similarity
//! product of their endpoints; the dominant class wins.
//!
//! Because two nodes have non-zero neighbourhood Jaccard only if they share
//! a neighbour, the exact candidate set for `S_u` is `u`'s two-hop
//! neighbourhood — no LSH index is needed at this scale.

use locec_graph::{CsrGraph, EdgeId, NodeId};
use locec_ml::MinHasher;
use locec_synth::types::RelationType;
use locec_synth::SocialDataset;
use std::collections::HashMap;

/// Configuration of the ProbWP baseline.
#[derive(Clone, Debug)]
pub struct ProbWpConfig {
    /// Number of min-hash functions (the paper fixes 20).
    pub num_hashes: usize,
    /// Size of each similar-node set `S_u`.
    pub top_k: usize,
    /// Cap on the two-hop candidate set scanned per endpoint.
    pub max_candidates: usize,
    /// RNG seed for the hash family.
    pub seed: u64,
}

impl Default for ProbWpConfig {
    fn default() -> Self {
        ProbWpConfig {
            num_hashes: 20,
            top_k: 10,
            max_candidates: 2_000,
            seed: 0,
        }
    }
}

/// Runs ProbWP: trains on `train_edges`, returns one predicted class label
/// per `test_edges` entry. Edges whose similar-node sets span no labeled
/// edge fall back to the training-set majority class (they are effectively
/// unpredictable, which is what drives ProbWP's collapse at low label
/// fractions — Fig. 11).
pub fn probwp_predict(
    data: &SocialDataset<'_>,
    train_edges: &[(EdgeId, RelationType)],
    test_edges: &[EdgeId],
    config: &ProbWpConfig,
) -> Vec<usize> {
    let graph = data.graph;
    let hasher = MinHasher::new(config.num_hashes, config.seed);

    // Min-hash signatures of every node's neighbourhood.
    let signatures: Vec<Vec<u64>> = graph
        .nodes()
        .map(|v| hasher.signature(graph.neighbors(v).iter().map(|w| w.0 as u64)))
        .collect();

    // Labeled-edge index: node -> (neighbor, class) of incident labeled
    // edges.
    let mut labeled_at: HashMap<NodeId, Vec<(NodeId, usize)>> = HashMap::new();
    let mut class_counts = [0usize; RelationType::COUNT];
    for &(e, t) in train_edges {
        let (a, b) = graph.endpoints(e);
        labeled_at.entry(a).or_default().push((b, t.label()));
        labeled_at.entry(b).or_default().push((a, t.label()));
        class_counts[t.label()] += 1;
    }
    let majority = class_counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);

    test_edges
        .iter()
        .map(|&e| {
            let (u, v) = graph.endpoints(e);
            let su = similar_nodes(graph, &signatures, &hasher, u, config);
            let sv = similar_nodes(graph, &signatures, &hasher, v, config);
            vote(&su, &sv, &labeled_at).unwrap_or(majority)
        })
        .collect()
}

/// Top-k structurally similar nodes to `u` (including `u` itself at
/// similarity 1), with their similarity weights.
fn similar_nodes(
    graph: &CsrGraph,
    signatures: &[Vec<u64>],
    hasher: &MinHasher,
    u: NodeId,
    config: &ProbWpConfig,
) -> Vec<(NodeId, f64)> {
    // Exact candidate set: two-hop neighbourhood (shared-neighbour nodes).
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    seen.insert(u);
    'outer: for &w in graph.neighbors(u) {
        for &x in graph.neighbors(w) {
            if seen.insert(x) {
                candidates.push(x);
                if candidates.len() >= config.max_candidates {
                    break 'outer;
                }
            }
        }
    }

    let mut scored: Vec<(NodeId, f64)> = candidates
        .into_iter()
        .map(|x| {
            (
                x,
                hasher.similarity(&signatures[u.index()], &signatures[x.index()]),
            )
        })
        .filter(|&(_, s)| s > 0.0)
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    scored.truncate(config.top_k.saturating_sub(1));
    scored.push((u, 1.0));
    scored
}

/// Weighted vote of labeled edges spanning `S_u × S_v`.
fn vote(
    su: &[(NodeId, f64)],
    sv: &[(NodeId, f64)],
    labeled_at: &HashMap<NodeId, Vec<(NodeId, usize)>>,
) -> Option<usize> {
    let sv_weight: HashMap<NodeId, f64> = sv.iter().copied().collect();
    let mut scores = [0.0f64; RelationType::COUNT];
    let mut any = false;
    for &(a, wa) in su {
        let Some(edges) = labeled_at.get(&a) else {
            continue;
        };
        for &(b, class) in edges {
            if let Some(&wb) = sv_weight.get(&b) {
                scores[class] += wa * wb;
                any = true;
            }
        }
    }
    if !any {
        return None;
    }
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite").then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_labels;
    use locec_ml::metrics::evaluate;
    use locec_synth::{Scenario, SynthConfig};

    #[test]
    fn beats_chance_with_plentiful_labels() {
        let s = Scenario::generate(&SynthConfig::tiny(81));
        let (train, test) = split_labels(&s, 0.8);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let preds = probwp_predict(&s.dataset(), &train, &test_ids, &ProbWpConfig::default());
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();
        let eval = evaluate(&y_true, &preds, RelationType::COUNT);
        assert!(
            eval.accuracy > 0.45,
            "ProbWP accuracy {} not above chance",
            eval.accuracy
        );
    }

    #[test]
    fn degrades_with_scarce_labels() {
        let s = Scenario::generate(&SynthConfig::tiny(82));
        let (train_many, test) = split_labels(&s, 0.8);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let y_true: Vec<usize> = test.iter().map(|&(_, t)| t.label()).collect();

        let few = &train_many[..train_many.len() / 16];
        let cfg = ProbWpConfig::default();
        let preds_many = probwp_predict(&s.dataset(), &train_many, &test_ids, &cfg);
        let preds_few = probwp_predict(&s.dataset(), few, &test_ids, &cfg);
        let acc_many = evaluate(&y_true, &preds_many, 3).accuracy;
        let acc_few = evaluate(&y_true, &preds_few, 3).accuracy;
        assert!(
            acc_many >= acc_few,
            "more labels must not hurt: {acc_many} vs {acc_few}"
        );
    }

    #[test]
    fn prediction_count_matches_input() {
        let s = Scenario::generate(&SynthConfig::tiny(83));
        let (train, test) = split_labels(&s, 0.5);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let preds = probwp_predict(&s.dataset(), &train, &test_ids, &ProbWpConfig::default());
        assert_eq!(preds.len(), test_ids.len());
        assert!(preds.iter().all(|&p| p < RelationType::COUNT));
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Scenario::generate(&SynthConfig::tiny(84));
        let (train, test) = split_labels(&s, 0.7);
        let test_ids: Vec<EdgeId> = test.iter().map(|&(e, _)| e).collect();
        let cfg = ProbWpConfig::default();
        let p1 = probwp_predict(&s.dataset(), &train, &test_ids, &cfg);
        let p2 = probwp_predict(&s.dataset(), &train, &test_ids, &cfg);
        assert_eq!(p1, p2);
    }
}
