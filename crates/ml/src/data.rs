//! Datasets and split utilities shared by all learners.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A dense supervised dataset: row-major features plus one integer label
/// per row.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Flattened row-major features, `rows × cols`.
    features: Vec<f32>,
    labels: Vec<usize>,
    cols: usize,
}

impl Dataset {
    /// Empty dataset with `cols` features per row.
    pub fn new(cols: usize) -> Self {
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            cols,
        }
    }

    /// Builds from per-row feature vectors.
    pub fn from_rows(rows: &[Vec<f32>], labels: &[usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let cols = rows.first().map_or(0, Vec::len);
        let mut d = Dataset::new(cols);
        for (row, &label) in rows.iter().zip(labels) {
            d.push(row, label);
        }
        d
    }

    /// Appends a row.
    pub fn push(&mut self, row: &[f32], label: usize) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.cols..(i + 1) * self.cols]
    }

    /// Every feature, flattened row-major (`len() × cols()`).
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of distinct classes (`max label + 1`; 0 when empty).
    pub fn num_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m + 1)
    }

    /// Extracts the subset of rows at `indices` (in the given order).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.cols);
        for &i in indices {
            out.push(self.row(i), self.labels[i]);
        }
        out
    }

    /// Splits into `(train, test)` with `train_fraction` of rows in train,
    /// after a seeded shuffle. Guarantees at least one row on each side
    /// when `len() >= 2`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_fraction));
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut cut = (self.len() as f64 * train_fraction).round() as usize;
        if self.len() >= 2 {
            cut = cut.clamp(1, self.len() - 1);
        }
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Per-column mean and standard deviation (σ floored at 1e-9).
    pub fn column_stats(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.len().max(1) as f32;
        let mut mean = vec![0.0f32; self.cols];
        for i in 0..self.len() {
            for (j, &v) in self.row(i).iter().enumerate() {
                mean[j] += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);
        let mut var = vec![0.0f32; self.cols];
        for i in 0..self.len() {
            for (j, &v) in self.row(i).iter().enumerate() {
                var[j] += (v - mean[j]).powi(2);
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-9)).collect();
        (mean, std)
    }

    /// Standardizes columns in place given `(mean, std)` (usually from the
    /// training split, applied to both splits).
    pub fn standardize(&mut self, mean: &[f32], std: &[f32]) {
        assert_eq!(mean.len(), self.cols);
        assert_eq!(std.len(), self.cols);
        for i in 0..self.labels.len() {
            for j in 0..self.cols {
                let v = &mut self.features[i * self.cols + j];
                *v = (*v - mean[j]) / std[j];
            }
        }
    }

    /// Class frequency histogram over `num_classes()` classes.
    pub fn class_counts(&self) -> Vec<usize> {
        let k = self.num_classes();
        let mut counts = vec![0usize; k];
        for &y in &self.labels {
            counts[y] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(
            &[
                vec![1.0, 2.0],
                vec![3.0, 4.0],
                vec![5.0, 6.0],
                vec![7.0, 8.0],
            ],
            &[0, 1, 0, 1],
        )
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 4);
        assert_eq!(d.cols(), 2);
        assert_eq!(d.row(2), &[5.0, 6.0]);
        assert_eq!(d.label(3), 1);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.class_counts(), vec![2, 2]);
    }

    #[test]
    fn split_partitions_rows() {
        let d = sample();
        let (train, test) = d.split(0.75, 42);
        assert_eq!(train.len() + test.len(), 4);
        assert_eq!(train.len(), 3);
        // Deterministic given the seed.
        let (train2, _) = d.split(0.75, 42);
        assert_eq!(train.labels(), train2.labels());
    }

    #[test]
    fn split_never_empties_either_side() {
        let d = sample();
        let (train, test) = d.split(1.0, 0);
        assert!(!train.is_empty() && !test.is_empty());
        let (train, test) = d.split(0.0, 0);
        assert!(!train.is_empty() && !test.is_empty());
    }

    #[test]
    fn standardize_centers_columns() {
        let mut d = sample();
        let (mean, std) = d.column_stats();
        d.standardize(&mean, &std);
        let (mean2, std2) = d.column_stats();
        assert!(mean2.iter().all(|m| m.abs() < 1e-5));
        assert!(std2.iter().all(|s| (s - 1.0).abs() < 1e-4));
    }

    #[test]
    fn subset_preserves_order() {
        let d = sample();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.row(0), &[7.0, 8.0]);
        assert_eq!(s.label(1), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_rejects_bad_width() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], 0);
    }
}
