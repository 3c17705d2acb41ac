//! Multi-class evaluation metrics.
//!
//! The paper evaluates with per-class precision / recall / F1 plus an
//! "Overall" row (Tables II, IV, V). We report per-class scores, the macro
//! average (used as "Overall", matching the paper's numbers most closely),
//! and micro/accuracy for completeness.

/// Precision / recall / F1 for one class (or an average thereof).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassMetrics {
    /// Precision `tp / (tp + fp)`; 0 when the denominator is 0.
    pub precision: f64,
    /// Recall `tp / (tp + fn)`; 0 when the denominator is 0.
    pub recall: f64,
    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub f1: f64,
    /// Number of true samples of this class.
    pub support: usize,
}

impl ClassMetrics {
    fn from_counts(tp: usize, fp: usize, fn_: usize) -> Self {
        let precision = safe_div(tp as f64, (tp + fp) as f64);
        let recall = safe_div(tp as f64, (tp + fn_) as f64);
        ClassMetrics {
            precision,
            recall,
            f1: f1_score(precision, recall),
            support: tp + fn_,
        }
    }
}

/// Full evaluation result.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Per-class metrics, indexed by class id.
    pub per_class: Vec<ClassMetrics>,
    /// Macro-averaged precision / recall / F1 (the paper's "Overall").
    pub overall: ClassMetrics,
    /// Micro-averaged F1 (= accuracy in single-label classification).
    pub micro_f1: f64,
    /// Plain accuracy.
    pub accuracy: f64,
    /// Confusion matrix: `confusion[true][pred]`.
    pub confusion: Vec<Vec<usize>>,
}

/// Evaluates predictions against ground truth over `num_classes` classes.
///
/// # Panics
/// Panics if lengths differ or any label is out of range.
pub fn evaluate(y_true: &[usize], y_pred: &[usize], num_classes: usize) -> Evaluation {
    assert_eq!(y_true.len(), y_pred.len(), "prediction count mismatch");
    let mut confusion = vec![vec![0usize; num_classes]; num_classes];
    for (&t, &p) in y_true.iter().zip(y_pred) {
        assert!(t < num_classes && p < num_classes, "label out of range");
        confusion[t][p] += 1;
    }

    let mut per_class = Vec::with_capacity(num_classes);
    let mut correct = 0usize;
    for (c, row) in confusion.iter().enumerate() {
        let tp = row[c];
        let fp: usize = confusion
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != c)
            .map(|(_, other)| other[c])
            .sum();
        let fn_: usize = row
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != c)
            .map(|(_, &n)| n)
            .sum();
        correct += tp;
        per_class.push(ClassMetrics::from_counts(tp, fp, fn_));
    }

    let n = y_true.len();
    let macro_p = mean(per_class.iter().map(|m| m.precision));
    let macro_r = mean(per_class.iter().map(|m| m.recall));
    let macro_f1 = mean(per_class.iter().map(|m| m.f1));
    let accuracy = safe_div(correct as f64, n as f64);

    Evaluation {
        overall: ClassMetrics {
            precision: macro_p,
            recall: macro_r,
            f1: macro_f1,
            support: n,
        },
        per_class,
        micro_f1: accuracy,
        accuracy,
        confusion,
    }
}

/// Harmonic mean of precision and recall (0 when both are 0).
pub fn f1_score(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in iter {
        sum += v;
        count += 1;
    }
    safe_div(sum, count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let e = evaluate(&[0, 1, 2, 1], &[0, 1, 2, 1], 3);
        assert_eq!(e.accuracy, 1.0);
        assert_eq!(e.overall.f1, 1.0);
        for m in &e.per_class {
            assert_eq!(m.precision, 1.0);
            assert_eq!(m.recall, 1.0);
        }
    }

    #[test]
    fn known_confusion_matrix() {
        // true:  0 0 1 1 1
        // pred:  0 1 1 1 0
        let e = evaluate(&[0, 0, 1, 1, 1], &[0, 1, 1, 1, 0], 2);
        assert_eq!(e.confusion, vec![vec![1, 1], vec![1, 2]]);
        // class 0: tp=1 fp=1 fn=1 → p=0.5 r=0.5 f1=0.5
        assert_eq!(e.per_class[0].precision, 0.5);
        assert_eq!(e.per_class[0].recall, 0.5);
        // class 1: tp=2 fp=1 fn=1 → p=2/3 r=2/3
        assert!((e.per_class[1].precision - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.accuracy, 0.6);
        assert_eq!(e.per_class[0].support, 2);
        assert_eq!(e.per_class[1].support, 3);
    }

    #[test]
    fn absent_class_scores_zero() {
        // Class 2 never appears in truth or predictions.
        let e = evaluate(&[0, 1], &[1, 0], 3);
        assert_eq!(e.per_class[2].precision, 0.0);
        assert_eq!(e.per_class[2].recall, 0.0);
        assert_eq!(e.per_class[2].f1, 0.0);
        assert_eq!(e.accuracy, 0.0);
    }

    #[test]
    fn micro_equals_accuracy() {
        let e = evaluate(&[0, 1, 2, 2], &[0, 2, 2, 1], 3);
        assert_eq!(e.micro_f1, e.accuracy);
        assert_eq!(e.accuracy, 0.5);
    }

    #[test]
    fn f1_harmonic_mean() {
        assert_eq!(f1_score(1.0, 1.0), 1.0);
        assert_eq!(f1_score(0.0, 0.0), 0.0);
        assert!((f1_score(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range() {
        evaluate(&[0, 3], &[0, 0], 2);
    }
}
