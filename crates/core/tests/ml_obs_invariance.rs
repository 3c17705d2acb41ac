//! Thread-count invariance of CommCNN training, inference and the
//! semantic ML counters.
//!
//! CommCNN batch inference fans out over the worker pool, and training
//! fans each mini-batch's shards out over it, but the chunk and shard
//! layouts are functions of the input length and a constant grain — never
//! of the pool size. So the *semantic* ML counters (samples trained or
//! inferred, GEMM calls, and `ml.im2col_calls`, which counts the conv
//! layers' padded-plane builds and ∂weights tap gathers) must be
//! bit-identical whether the pool runs 1, 2 or 8 threads, and so must every
//! probability row and every trained parameter. The timing counters
//! (`ml.gemm_nanos`, `ml.im2col_nanos`) are scheduling-class and
//! deliberately excluded.
//!
//! Deltas are measured against the process-global recorder, so this file
//! holds exactly one `#[test]` — a sibling test in the same binary would
//! race the counters.

use locec_core::commcnn::{CommCnn, CommCnnConfig};
use locec_ml::nn::export_params;
use locec_ml::Tensor;
use locec_obs::Recorder;

/// Counters whose totals may not depend on parallelism.
const SEMANTIC: &[&str] = &["ml.infer_samples", "ml.gemm_calls", "ml.im2col_calls"];

/// The same for training.
const SEMANTIC_TRAIN: &[&str] = &["ml.train_samples", "ml.gemm_calls", "ml.im2col_calls"];

#[test]
fn ml_semantic_counters_are_thread_count_invariant() {
    const K: usize = 8;
    const COLS: usize = 12;
    let cnn = CommCnn::new(K, COLS, 3, &CommCnnConfig::fast());
    // 300 deterministic matrices: enough for several INFER_GRAIN chunks.
    let matrices: Vec<Tensor> = (0..300u32)
        .map(|s| {
            let data: Vec<f32> = (0..K * COLS)
                .map(|i| ((s as usize * 31 + i * 7) % 13) as f32 * 0.1 - 0.6)
                .collect();
            Tensor::from_vec(&[K, COLS], data)
        })
        .collect();
    let refs: Vec<&Tensor> = matrices.iter().collect();
    let recorder = Recorder::global();

    let mut per_pool: Vec<(usize, Vec<u64>, Vec<Vec<f32>>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let before = recorder.snapshot();
        let probs = cnn.predict_proba_batch(&refs, threads);
        let after = recorder.snapshot();
        let deltas = SEMANTIC
            .iter()
            .map(|name| after.counter(name) - before.counter(name))
            .collect();
        per_pool.push((threads, deltas, probs));
    }

    // Training: 107 samples in batches of 32 are three batches of two
    // 16-sample shards and a ragged batch of 11 — one shard.
    let labels: Vec<usize> = (0..107).map(|i| i % 3).collect();
    let config = CommCnnConfig {
        epochs: 3,
        ..CommCnnConfig::fast()
    };
    let mut trained: Vec<(usize, Vec<u64>, Vec<f32>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut model = CommCnn::new(K, COLS, 3, &config);
        let before = recorder.snapshot();
        model.train_threaded(&matrices[..107], &labels, threads);
        let after = recorder.snapshot();
        let deltas = SEMANTIC_TRAIN
            .iter()
            .map(|name| after.counter(name) - before.counter(name))
            .collect();
        trained.push((threads, deltas, export_params(&mut model)));
    }
    let (_, base_deltas, base_params) = &trained[0];
    assert_eq!(
        base_deltas[0],
        3 * 107,
        "ml.train_samples counts every step's samples"
    );
    for (threads, deltas, params) in &trained[1..] {
        let same = params.len() == base_params.len()
            && params
                .iter()
                .zip(base_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "trained parameters diverged at {threads} threads");
        for (name, (got, want)) in SEMANTIC_TRAIN.iter().zip(deltas.iter().zip(base_deltas)) {
            assert_eq!(
                got, want,
                "{name} diverged in training: {got} at {threads} threads vs {want} at 1 thread"
            );
        }
    }

    let (_, baseline, base_probs) = &per_pool[0];
    assert!(
        baseline.iter().sum::<u64>() > 0,
        "inference recorded no semantic ML counters at all — instrumentation went dark"
    );
    assert_eq!(baseline[0], 300, "ml.infer_samples must count every sample");
    for (threads, deltas, probs) in &per_pool[1..] {
        assert_eq!(
            probs, base_probs,
            "probabilities diverged at {threads} threads"
        );
        for (name, (got, want)) in SEMANTIC.iter().zip(deltas.iter().zip(baseline)) {
            assert_eq!(
                got, want,
                "{name} diverged: {got} at {threads} threads vs {want} at 1 thread"
            );
        }
    }
}
