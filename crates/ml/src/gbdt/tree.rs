//! Regression trees on first/second-order gradients — the weak learner of
//! XGBoost-style boosting (Chen & Guestrin, KDD 2016, cited as \[20\]).
//!
//! Exact greedy split finding: at each node, every feature's values are
//! sorted and scanned once; the split maximizing
//! `½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ` is taken, subject to a
//! minimum child hessian weight. Leaf weight is `−G/(H+λ)`.

use crate::data::Dataset;

/// Hyper-parameters for a single tree (shared with the booster).
#[derive(Clone, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost λ).
    pub lambda: f32,
    /// Minimum split gain (XGBoost γ).
    pub gamma: f32,
    /// Minimum hessian sum in each child (XGBoost `min_child_weight`).
    pub min_child_weight: f32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1e-3,
        }
    }
}

/// Arena node.
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        weight: f32,
    },
    Split {
        feature: u32,
        /// `x[feature] <= threshold` goes left.
        threshold: f32,
        left: u32,
        right: u32,
    },
}

/// A fitted regression tree.
#[derive(Clone, Debug)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_leaves: usize,
}

/// One arena node in flattened form, for persistence. A node with
/// `feature == u32::MAX` is a leaf carrying `weight`; any other node is a
/// split on `feature` at `threshold` with child node ids `left`/`right`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlatNode {
    /// Split feature index, or `u32::MAX` for a leaf.
    pub feature: u32,
    /// Split threshold (`x[feature] <= threshold` goes left); 0 for leaves.
    pub threshold: f32,
    /// Left child node id; 0 for leaves.
    pub left: u32,
    /// Right child node id; 0 for leaves.
    pub right: u32,
    /// Leaf weight; 0 for splits.
    pub weight: f32,
}

/// Sentinel marking a leaf in [`FlatNode::feature`].
pub const FLAT_LEAF: u32 = u32::MAX;

impl RegressionTree {
    /// Fits a tree to gradients/hessians of the samples at `indices`.
    pub fn fit(
        data: &Dataset,
        indices: &[usize],
        grad: &[f32],
        hess: &[f32],
        config: &TreeConfig,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_leaves: 0,
        };
        let mut idx = indices.to_vec();
        tree.build(data, &mut idx, grad, hess, config, 0);
        tree
    }

    /// Builds a subtree over `indices`, returning its node id.
    fn build(
        &mut self,
        data: &Dataset,
        indices: &mut [usize],
        grad: &[f32],
        hess: &[f32],
        config: &TreeConfig,
        depth: usize,
    ) -> u32 {
        let g_total: f32 = indices.iter().map(|&i| grad[i]).sum();
        let h_total: f32 = indices.iter().map(|&i| hess[i]).sum();

        let make_leaf = |tree: &mut Self| {
            let weight = -g_total / (h_total + config.lambda);
            tree.nodes.push(Node::Leaf { weight });
            tree.num_leaves += 1;
            (tree.nodes.len() - 1) as u32
        };

        if depth >= config.max_depth || indices.len() < 2 {
            return make_leaf(self);
        }

        let parent_score = g_total * g_total / (h_total + config.lambda);
        let mut best: Option<(f32, usize, f32)> = None; // (gain, feature, threshold)

        let mut sorted: Vec<(f32, f32, f32)> = Vec::with_capacity(indices.len());
        for feature in 0..data.cols() {
            sorted.clear();
            sorted.extend(
                indices
                    .iter()
                    .map(|&i| (data.row(i)[feature], grad[i], hess[i])),
            );
            sorted.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

            let (mut g_left, mut h_left) = (0.0f32, 0.0f32);
            for w in 0..sorted.len() - 1 {
                g_left += sorted[w].1;
                h_left += sorted[w].2;
                // Only split between distinct feature values.
                if sorted[w].0 == sorted[w + 1].0 {
                    continue;
                }
                let h_right = h_total - h_left;
                if h_left < config.min_child_weight || h_right < config.min_child_weight {
                    continue;
                }
                let g_right = g_total - g_left;
                let gain = 0.5
                    * (g_left * g_left / (h_left + config.lambda)
                        + g_right * g_right / (h_right + config.lambda)
                        - parent_score)
                    - config.gamma;
                if gain > best.map_or(0.0, |(g, _, _)| g) + 1e-12 {
                    // Midpoint between distinct values; when the two floats
                    // are adjacent the midpoint can round up to the right
                    // value (emptying the right child), so fall back to the
                    // left value — `x <= threshold` then splits exactly.
                    let mut threshold = 0.5 * (sorted[w].0 + sorted[w + 1].0);
                    if threshold >= sorted[w + 1].0 {
                        threshold = sorted[w].0;
                    }
                    best = Some((gain, feature, threshold));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            return make_leaf(self);
        };

        // Partition in place: left = x <= threshold.
        let mut split_point = 0usize;
        for i in 0..indices.len() {
            if data.row(indices[i])[feature] <= threshold {
                indices.swap(i, split_point);
                split_point += 1;
            }
        }
        debug_assert!(split_point > 0 && split_point < indices.len());

        // Reserve this node's slot before recursing so children ids are known.
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let my_id = (self.nodes.len() - 1) as u32;
        // Work around the borrow: split indices into two owned views.
        let (left_slice, right_slice) = indices.split_at_mut(split_point);
        let left = self.build(data, left_slice, grad, hess, config, depth + 1);
        let right = self.build(data, right_slice, grad, hess, config, depth + 1);
        self.nodes[my_id as usize] = Node::Split {
            feature: feature as u32,
            threshold,
            left,
            right,
        };
        my_id
    }

    /// Flattens the arena into [`FlatNode`]s (index order preserved, node 0
    /// is the root). The inverse of [`RegressionTree::from_flat_nodes`].
    pub fn flat_nodes(&self) -> Vec<FlatNode> {
        self.nodes
            .iter()
            .map(|n| match *n {
                Node::Leaf { weight } => FlatNode {
                    feature: FLAT_LEAF,
                    threshold: 0.0,
                    left: 0,
                    right: 0,
                    weight,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => FlatNode {
                    feature,
                    threshold,
                    left,
                    right,
                    weight: 0.0,
                },
            })
            .collect()
    }

    /// Rebuilds a tree from untrusted flattened nodes, validating the arena
    /// invariants the builder guarantees (children exist and point strictly
    /// forward, so the structure is acyclic and `predict` terminates).
    /// `num_features` bounds split feature indices so a loaded tree can
    /// never index out of a feature row.
    pub fn from_flat_nodes(nodes: &[FlatNode], num_features: usize) -> Result<Self, &'static str> {
        if nodes.is_empty() {
            return Err("tree has no nodes");
        }
        let mut num_leaves = 0usize;
        let mut arena = Vec::with_capacity(nodes.len());
        for (id, n) in nodes.iter().enumerate() {
            if n.feature == FLAT_LEAF {
                if !n.weight.is_finite() {
                    return Err("leaf weight is not finite");
                }
                num_leaves += 1;
                arena.push(Node::Leaf { weight: n.weight });
            } else {
                if n.feature as usize >= num_features {
                    return Err("split feature out of range");
                }
                if !n.threshold.is_finite() {
                    return Err("split threshold is not finite");
                }
                let (l, r) = (n.left as usize, n.right as usize);
                if l <= id || r <= id || l >= nodes.len() || r >= nodes.len() {
                    return Err("split children must point strictly forward");
                }
                arena.push(Node::Split {
                    feature: n.feature,
                    threshold: n.threshold,
                    left: n.left,
                    right: n.right,
                });
            }
        }
        Ok(RegressionTree {
            nodes: arena,
            num_leaves,
        })
    }

    /// Predicted leaf weight for a feature row.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left as usize).max(depth_of(nodes, *right as usize))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-error gradients for target fitting: g = pred − y with pred=0,
    /// h = 1. A λ=0 tree then predicts the mean target in each leaf.
    fn regression_setup(targets: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let grad: Vec<f32> = targets.iter().map(|&y| -y).collect();
        let hess = vec![1.0f32; targets.len()];
        (grad, hess)
    }

    #[test]
    fn single_leaf_predicts_regularized_mean() {
        let data = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0, 0]);
        let (grad, hess) = regression_setup(&[4.0, 6.0]);
        let cfg = TreeConfig {
            max_depth: 0,
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&data, &[0, 1], &grad, &hess, &cfg);
        assert_eq!(tree.num_leaves(), 1);
        assert!((tree.predict(&[1.5]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn splits_a_step_function_exactly() {
        let data = Dataset::from_rows(
            &[
                vec![0.0],
                vec![1.0],
                vec![2.0],
                vec![10.0],
                vec![11.0],
                vec![12.0],
            ],
            &[0; 6],
        );
        let (grad, hess) = regression_setup(&[1.0, 1.0, 1.0, 5.0, 5.0, 5.0]);
        let cfg = TreeConfig {
            max_depth: 2,
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&data, &[0, 1, 2, 3, 4, 5], &grad, &hess, &cfg);
        assert!((tree.predict(&[0.5]) - 1.0).abs() < 1e-5);
        assert!((tree.predict(&[11.0]) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn xor_needs_depth_two() {
        // A perfectly symmetric XOR has zero first-order gain at the root
        // (greedy boosters, XGBoost included, refuse zero-gain splits), so
        // a fifth sample breaks the symmetry.
        let data = Dataset::from_rows(
            &[
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
                vec![0.1, 0.1],
            ],
            &[0; 5],
        );
        let (grad, hess) = regression_setup(&[1.0, -1.0, -1.0, 1.0, 1.0]);
        let shallow = RegressionTree::fit(
            &data,
            &[0, 1, 2, 3, 4],
            &grad,
            &hess,
            &TreeConfig {
                max_depth: 1,
                lambda: 0.0,
                ..Default::default()
            },
        );
        // Depth 1 cannot express XOR: at least one point mispredicted.
        let shallow_err: f32 = [(0., 0., 1.), (0., 1., -1.), (1., 0., -1.), (1., 1., 1.)]
            .iter()
            .map(|&(a, b, y)| (shallow.predict(&[a, b]) - y).abs())
            .sum();
        assert!(shallow_err > 0.5);

        let deep = RegressionTree::fit(
            &data,
            &[0, 1, 2, 3, 4],
            &grad,
            &hess,
            &TreeConfig {
                max_depth: 2,
                lambda: 0.0,
                ..Default::default()
            },
        );
        for &(a, b, y) in &[(0., 0., 1.), (0., 1., -1.), (1., 0., -1.), (1., 1., 1.)] {
            assert!((deep.predict(&[a, b]) - y).abs() < 1e-5);
        }
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[0, 0]);
        let (grad, hess) = regression_setup(&[1.0, 1.1]); // nearly flat
        let tree = RegressionTree::fit(
            &data,
            &[0, 1],
            &grad,
            &hess,
            &TreeConfig {
                max_depth: 3,
                lambda: 0.0,
                gamma: 10.0,
                ..Default::default()
            },
        );
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]], &[0; 3]);
        let (grad, _) = regression_setup(&[0.0, 0.0, 10.0]);
        let hess = vec![0.4f32; 3];
        let tree = RegressionTree::fit(
            &data,
            &[0, 1, 2],
            &grad,
            &hess,
            &TreeConfig {
                max_depth: 3,
                lambda: 0.0,
                min_child_weight: 0.5, // one sample (h=0.4) is too light
                ..Default::default()
            },
        );
        // The only legal split is 2-vs-1 → blocked; and 1-vs-2 → blocked.
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn depth_respects_cap() {
        let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32]).collect();
        let targets: Vec<f32> = (0..32).map(|i| (i * i) as f32).collect();
        let data = Dataset::from_rows(&rows, &vec![0; 32]);
        let (grad, hess) = regression_setup(&targets);
        let idx: Vec<usize> = (0..32).collect();
        let tree = RegressionTree::fit(
            &data,
            &idx,
            &grad,
            &hess,
            &TreeConfig {
                max_depth: 3,
                lambda: 0.0,
                ..Default::default()
            },
        );
        assert!(tree.depth() <= 3);
        assert!(tree.num_leaves() <= 8);
    }

    #[test]
    fn flat_nodes_roundtrip_bit_identically() {
        let rows: Vec<Vec<f32>> = (0..16)
            .map(|i| vec![i as f32, (i * 3 % 7) as f32])
            .collect();
        let targets: Vec<f32> = (0..16).map(|i| ((i * i) % 11) as f32).collect();
        let data = Dataset::from_rows(&rows, &[0; 16]);
        let (grad, hess) = regression_setup(&targets);
        let idx: Vec<usize> = (0..16).collect();
        let tree = RegressionTree::fit(&data, &idx, &grad, &hess, &TreeConfig::default());
        let flat = tree.flat_nodes();
        let rebuilt = RegressionTree::from_flat_nodes(&flat, 2).unwrap();
        assert_eq!(rebuilt.num_leaves(), tree.num_leaves());
        assert_eq!(rebuilt.flat_nodes(), flat);
        for row in &rows {
            assert_eq!(rebuilt.predict(row).to_bits(), tree.predict(row).to_bits());
        }
    }

    #[test]
    fn from_flat_nodes_rejects_malformed_arenas() {
        let leaf = FlatNode {
            feature: FLAT_LEAF,
            threshold: 0.0,
            left: 0,
            right: 0,
            weight: 1.0,
        };
        assert!(RegressionTree::from_flat_nodes(&[], 2).is_err());
        // Split pointing at itself / backwards / out of range.
        let split = |l: u32, r: u32, feature: u32| FlatNode {
            feature,
            threshold: 0.5,
            left: l,
            right: r,
            weight: 0.0,
        };
        assert!(RegressionTree::from_flat_nodes(&[split(0, 1, 0), leaf], 2).is_err());
        assert!(RegressionTree::from_flat_nodes(&[split(1, 5, 0), leaf], 2).is_err());
        assert!(RegressionTree::from_flat_nodes(&[split(1, 2, 9), leaf, leaf], 2).is_err());
        let bad_weight = FlatNode {
            weight: f32::NAN,
            ..leaf
        };
        assert!(RegressionTree::from_flat_nodes(&[bad_weight], 2).is_err());
        // A valid 3-node tree passes.
        assert!(RegressionTree::from_flat_nodes(&[split(1, 2, 0), leaf, leaf], 2).is_ok());
    }

    #[test]
    fn constant_feature_yields_leaf() {
        let data = Dataset::from_rows(&[vec![5.0], vec![5.0], vec![5.0]], &[0; 3]);
        let (grad, hess) = regression_setup(&[1.0, 2.0, 3.0]);
        let tree = RegressionTree::fit(
            &data,
            &[0, 1, 2],
            &grad,
            &hess,
            &TreeConfig {
                lambda: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(tree.num_leaves(), 1);
        assert!((tree.predict(&[5.0]) - 2.0).abs() < 1e-6);
    }
}
