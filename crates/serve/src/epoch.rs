//! Immutable serving epochs and the atomically swappable epoch handle.
//!
//! An epoch is one consistent `(world, models, division)` triple plus a
//! per-community memo of the Phase II embeddings `r_C`. Epochs are never
//! mutated after construction (the memo slots are write-once
//! [`OnceLock`]s), so any number of connection handlers can answer queries
//! from the same epoch concurrently, and a hot reload is a single `Arc`
//! swap: in-flight requests keep the epoch they pinned alive until they
//! finish, then it drains by reference count.
//!
//! ## Bit-identity with the offline pipeline
//!
//! Serving runs the offline code, not a copy of it: a memo slot is filled
//! by [`CommunityClassifier::embed_into`] on a one-community slice — the
//! call [`CommunityClassifier::predict_all`] makes per chunk — and
//! `classify_edge` builds Eq. 4 with [`locec_core::phase3::edge_feature`],
//! reading `r_C` from the memo. The CNN forward pass is batch-shape
//! invariant, so the lazily computed singleton answer is bitwise equal to
//! the offline batched one; the tests in this module assert that equality
//! for both model kinds.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use locec_core::config::{LocecConfig, RowOrder};
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::{edge_feature, EdgeClassifier};
use locec_core::DivisionResult;
use locec_graph::NodeId;
use locec_ml::linear::argmax;
use locec_ml::Scratch;
use locec_store::InferenceWorld;
use locec_synth::RelationType;

use crate::protocol::{CommunityMembership, EdgeOutcome};
use crate::ServeError;

/// One community's `(r_C embedding, class probabilities)` pair.
type Embedding = (Vec<f32>, Vec<f32>);

/// The trained models plus the feature-construction parameters they were
/// trained with. Shared (behind an `Arc`) across epochs: a division
/// hot-swap keeps the models, a world hot-swap keeps them too.
pub struct ServeAssets {
    /// The Phase II community classifier (GBDT or CommCNN).
    pub community_model: CommunityClassifier,
    /// The Phase III logistic-regression edge classifier.
    pub edge_model: EdgeClassifier,
    /// Feature-matrix height `k` used at training time.
    pub k: usize,
    /// Row ordering of the CNN feature matrix.
    pub row_order: RowOrder,
    /// Seed for the (seeded) random row order.
    pub seed: u64,
}

impl ServeAssets {
    /// Trained models with `config`'s feature recipe. `k` is the trained
    /// CommCNN's input height, which its feature matrix must keep; the
    /// GBDT pools rows and takes `config.k`.
    pub fn new(
        community_model: CommunityClassifier,
        edge_model: EdgeClassifier,
        config: &LocecConfig,
    ) -> Self {
        let k = match &community_model {
            CommunityClassifier::Cnn(cnn) => cnn.input_shape().0,
            CommunityClassifier::Xgb(_) => config.k,
        };
        ServeAssets {
            community_model,
            edge_model,
            k,
            row_order: config.row_order,
            seed: config.seed,
        }
    }
}

/// One immutable generation of serving state.
pub struct ServingEpoch {
    id: u64,
    world: Arc<InferenceWorld>,
    assets: Arc<ServeAssets>,
    division: DivisionResult,
    /// The assets' feature recipe (`k`, `row_order`, `seed`) in the form
    /// Phase II reads it; the other fields are unread.
    features: LocecConfig,
    /// Write-once `r_C` memo, indexed like `division.communities`.
    cache: Vec<OnceLock<Embedding>>,
}

impl ServingEpoch {
    /// Assembles an epoch, validating that the division was computed on
    /// the world being served (the membership table is keyed by the
    /// graph's adjacency order, so a shape mismatch means a different
    /// world).
    pub fn new(
        id: u64,
        world: Arc<InferenceWorld>,
        assets: Arc<ServeAssets>,
        division: DivisionResult,
    ) -> Result<Self, ServeError> {
        division
            .ensure_matches(&world.graph)
            .map_err(ServeError::Config)?;
        let features = LocecConfig {
            k: assets.k,
            row_order: assets.row_order,
            seed: assets.seed,
            ..LocecConfig::default()
        };
        let cache = (0..division.num_communities())
            .map(|_| OnceLock::new())
            .collect();
        Ok(ServingEpoch {
            id,
            world,
            assets,
            division,
            features,
            cache,
        })
    }

    /// This epoch's id (stamped into every reply it computes).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The world this epoch serves.
    pub fn world(&self) -> &InferenceWorld {
        &self.world
    }

    /// The division this epoch serves.
    pub fn division(&self) -> &DivisionResult {
        &self.division
    }

    /// Shares the world for reuse by a division-only reload.
    pub fn share_world(&self) -> Arc<InferenceWorld> {
        Arc::clone(&self.world)
    }

    /// Shares the model assets for reuse by the next epoch.
    pub fn share_assets(&self) -> Arc<ServeAssets> {
        Arc::clone(&self.assets)
    }

    /// Local communities in this epoch's division.
    pub fn num_communities(&self) -> usize {
        self.division.num_communities()
    }

    /// How many communities' embeddings have been computed so far.
    pub fn cached_embeddings(&self) -> u64 {
        self.cache
            .iter()
            .filter(|slot| slot.get().is_some())
            .count() as u64
    }

    /// The `(r_C, probabilities)` pair of one community, computed on first
    /// touch and memoized. Concurrent first touches race benignly: the
    /// computation is pure, `OnceLock` keeps exactly one result.
    fn embedding(&self, idx: u32, scratch: &mut Scratch) -> Option<&Embedding> {
        let slot = self.cache.get(idx as usize)?;
        let community = self.division.communities.get(idx as usize)?;
        Some(slot.get_or_init(|| {
            let model = &self.assets.community_model;
            let mut rows = (
                vec![0.0; model.embedding_dim()],
                vec![0.0; RelationType::COUNT],
            );
            model.embed_into(
                &self.world.dataset(),
                std::slice::from_ref(community),
                &self.features,
                scratch,
                &mut rows.0,
                &mut rows.1,
            );
            rows
        }))
    }

    /// Answers classify-edge: predicted relationship type and class
    /// probabilities, bit-identical to the offline pipeline's answer for
    /// the same edge.
    pub fn classify_edge(&self, u: u32, v: u32, scratch: &mut Scratch) -> EdgeOutcome {
        let graph = &self.world.graph;
        let n = graph.num_nodes();
        if u as usize >= n || v as usize >= n || u == v {
            return EdgeOutcome::NoSuchEdge;
        }
        let Some(edge) = graph.edge_between(NodeId(u), NodeId(v)) else {
            return EdgeOutcome::NoSuchEdge;
        };
        // Eq. 4 is built in the graph's canonical endpoint order, so ⟨v,u⟩
        // gets the same answer as ⟨u,v⟩.
        let r_c = |c| self.embedding(c, scratch).map(|e| e.0.as_slice());
        match edge_feature(graph, &self.division, edge, r_c) {
            Some(f) => {
                let lr = self.assets.edge_model.model();
                EdgeOutcome::Classified {
                    label: lr.predict(&f) as u8,
                    proba: lr.predict_proba(&f),
                }
            }
            None => EdgeOutcome::Uncovered,
        }
    }

    /// Answers community-of: every local community `node` occupies across
    /// its neighbors' ego networks, in ascending ego order.
    pub fn communities_of(&self, node: u32, scratch: &mut Scratch) -> Vec<CommunityMembership> {
        let graph = &self.world.graph;
        if node as usize >= graph.num_nodes() {
            return Vec::new();
        }
        let u = NodeId(node);
        let mut out = Vec::new();
        for &ego in graph.neighbors(u) {
            let Some(idx) = self.division.community_index_of(graph, ego, u) else {
                continue;
            };
            let Some(c) = self.division.communities.get(idx as usize) else {
                continue;
            };
            let Some(tightness) = c.member_tightness(u) else {
                continue;
            };
            let label = self
                .embedding(idx, scratch)
                .map_or(0, |e| argmax(&e.1) as u8);
            out.push(CommunityMembership {
                ego: ego.0,
                community: idx,
                size: c.len() as u32,
                tightness,
                label,
            });
        }
        out
    }

    /// Answers top-k-intimate: `node`'s neighbors ranked by descending
    /// Eq. 3 tightness inside `node`'s own ego network (neighbors the
    /// division leaves uncovered rank at 0), ties broken by ascending
    /// node id.
    pub fn top_k_intimate(&self, node: u32, k: u32) -> Vec<(u32, f32)> {
        let graph = &self.world.graph;
        if node as usize >= graph.num_nodes() {
            return Vec::new();
        }
        let u = NodeId(node);
        let mut ranked: Vec<(u32, f32)> = graph
            .neighbors(u)
            .iter()
            .map(|&v| {
                let tightness = self
                    .division
                    .community_of(graph, u, v)
                    .and_then(|c| c.member_tightness(v))
                    .unwrap_or(0.0);
                (v.0, tightness)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k as usize);
        ranked
    }
}

/// The daemon's single mutable cell: the current epoch, swapped atomically
/// on reload. Readers pin the epoch with one short lock + `Arc` clone per
/// request; the swap itself is O(1) and never waits for readers.
pub struct EpochHandle {
    inner: Mutex<Arc<ServingEpoch>>,
}

impl EpochHandle {
    /// Wraps the initial epoch.
    pub fn new(epoch: ServingEpoch) -> Self {
        EpochHandle {
            inner: Mutex::new(Arc::new(epoch)),
        }
    }

    /// Pins the current epoch. Each request calls this exactly once, so
    /// its whole answer is computed against one consistent epoch.
    pub fn current(&self) -> Arc<ServingEpoch> {
        Arc::clone(&self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the serving epoch. In-flight requests keep the
    /// old epoch alive until they finish; new pins see the new epoch.
    pub fn swap(&self, epoch: ServingEpoch) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::{fixture, Fixture};
    use locec_core::CommunityModelKind;
    use locec_graph::EdgeId;

    /// Serving answers must be *bitwise* equal to the offline pipeline's,
    /// for both Phase II model kinds.
    fn assert_bit_identity(model: CommunityModelKind) {
        let Fixture {
            world,
            assets,
            division,
            expected,
            ..
        } = fixture(model, 7);
        let epoch = ServingEpoch::new(1, Arc::new(world), Arc::new(assets), division).unwrap();
        let graph = &epoch.world().graph;
        let mut scratch = Scratch::new();
        assert!(graph.num_edges() > 0);
        for (i, (want_label, want_proba)) in expected.iter().enumerate() {
            let (u, v) = graph.endpoints(EdgeId(i as u32));
            match epoch.classify_edge(u.0, v.0, &mut scratch) {
                EdgeOutcome::Classified { label, proba } => {
                    assert_eq!(label, *want_label, "edge {i} label");
                    let got: Vec<u32> = proba.iter().map(|p| p.to_bits()).collect();
                    let want: Vec<u32> = want_proba.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(got, want, "edge {i} probabilities are not bit-identical");
                }
                other => panic!("edge {i} unexpectedly {other:?}"),
            }
            // Endpoint order must not matter (the graph is undirected and
            // the feature is built from the canonical endpoint pair).
            let flipped = epoch.classify_edge(v.0, u.0, &mut scratch);
            match flipped {
                EdgeOutcome::Classified { label, proba } => {
                    assert_eq!(label, *want_label);
                    let got: Vec<u32> = proba.iter().map(|p| p.to_bits()).collect();
                    let want: Vec<u32> = want_proba.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(got, want, "flipped edge {i} differs from canonical");
                }
                other => panic!("flipped edge {i} unexpectedly {other:?}"),
            }
        }
        assert!(epoch.cached_embeddings() > 0);
        assert!(epoch.cached_embeddings() <= epoch.num_communities() as u64);
    }

    #[test]
    fn xgb_served_answers_are_bit_identical_to_offline() {
        assert_bit_identity(CommunityModelKind::Xgb);
    }

    #[test]
    fn cnn_served_answers_are_bit_identical_to_offline() {
        assert_bit_identity(CommunityModelKind::Cnn);
    }

    #[test]
    fn non_edges_and_out_of_range_nodes_are_typed_outcomes() {
        let Fixture {
            world,
            assets,
            division,
            ..
        } = fixture(CommunityModelKind::Xgb, 3);
        let n = world.graph.num_nodes() as u32;
        let epoch = ServingEpoch::new(1, Arc::new(world), Arc::new(assets), division).unwrap();
        let mut scratch = Scratch::new();
        assert_eq!(
            epoch.classify_edge(0, n + 7, &mut scratch),
            EdgeOutcome::NoSuchEdge
        );
        assert_eq!(
            epoch.classify_edge(5, 5, &mut scratch),
            EdgeOutcome::NoSuchEdge
        );
        assert_eq!(
            epoch.classify_edge(u32::MAX, 0, &mut scratch),
            EdgeOutcome::NoSuchEdge
        );
        assert!(epoch.communities_of(n + 1, &mut scratch).is_empty());
        assert!(epoch.top_k_intimate(n + 1, 5).is_empty());
    }

    #[test]
    fn community_and_top_k_answers_are_consistent_with_the_division() {
        let Fixture {
            world,
            assets,
            division,
            ..
        } = fixture(CommunityModelKind::Xgb, 5);
        let division_copy = division.clone();
        let epoch = ServingEpoch::new(1, Arc::new(world), Arc::new(assets), division).unwrap();
        let graph = &epoch.world().graph;
        let mut scratch = Scratch::new();
        let node = (0..graph.num_nodes() as u32)
            .max_by_key(|&v| graph.degree(NodeId(v)))
            .unwrap();

        let memberships = epoch.communities_of(node, &mut scratch);
        assert!(!memberships.is_empty());
        let mut egos: Vec<u32> = memberships.iter().map(|m| m.ego).collect();
        let sorted = {
            let mut s = egos.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(egos, sorted, "memberships arrive in ascending ego order");
        egos.dedup();
        assert_eq!(egos.len(), memberships.len(), "one community per ego");
        for m in &memberships {
            let c = &division_copy.communities[m.community as usize];
            assert_eq!(c.ego.0, m.ego);
            assert_eq!(c.len() as u32, m.size);
            assert_eq!(c.member_tightness(NodeId(node)), Some(m.tightness));
        }

        let k = 3u32;
        let top = epoch.top_k_intimate(node, k);
        assert!(top.len() <= k as usize);
        assert!(top
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        let full = epoch.top_k_intimate(node, u32::MAX);
        assert_eq!(full.len(), graph.degree(NodeId(node)));
        assert_eq!(&full[..top.len()], &top[..]);
    }

    #[test]
    fn mismatched_division_is_a_config_error() {
        let Fixture {
            world,
            assets,
            division,
            ..
        } = fixture(CommunityModelKind::Xgb, 7);
        // A membership table of the wrong shape means the division was
        // computed on a different world — it must be refused, not served.
        let mut short = division.membership_table().to_vec();
        short.pop();
        let mismatched =
            DivisionResult::from_raw_parts(division.communities.clone(), short).unwrap();
        let err = ServingEpoch::new(1, Arc::new(world), Arc::new(assets), mismatched);
        match err {
            Err(ServeError::Config(msg)) => {
                assert!(msg.contains("division does not match"), "{msg}");
            }
            Ok(_) => panic!("mismatched division was accepted"),
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
}
