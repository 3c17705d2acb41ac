//! Aggregation snapshots: the Phase II outputs Phase III consumes — one
//! embedding `r_C` and one class-probability vector per local community.

use crate::format::{Enc, Snapshot, SnapshotError, SnapshotKind, SnapshotWriter};
use locec_core::phase2::AggregationResult;
use locec_synth::types::RelationType;
use std::path::Path;

/// Writes the Phase II result for every community. Each matrix is already
/// one flat row-major array, so each section is one bulk column.
pub fn save_aggregation(path: &Path, agg: &AggregationResult) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(SnapshotKind::Aggregation);

    let mut meta = Enc::new();
    meta.u64(agg.len() as u64);
    meta.u64(agg.embedding_dim() as u64);
    meta.u64(RelationType::COUNT as u64);
    w.add("meta", meta.finish());

    let mut emb = Enc::new();
    emb.f32_slice(agg.embeddings_flat());
    w.add("embeddings", emb.finish());

    let mut prob = Enc::new();
    prob.f32_slice(agg.probabilities_flat());
    w.add("probabilities", prob.finish());

    w.write_to(path)
}

/// Reads a Phase II result back, bit-identically.
pub fn load_aggregation(path: &Path) -> Result<AggregationResult, SnapshotError> {
    let snap = Snapshot::read_from(path)?;
    snap.expect_kind(SnapshotKind::Aggregation)?;

    let mut dec = snap.section("meta")?;
    let num = dec.count()?;
    let embedding_dim = dec.count()?;
    let num_classes = dec.count()?;
    dec.done()?;
    if num_classes != RelationType::COUNT {
        return Err(SnapshotError::Corrupt("class count mismatch"));
    }

    let mut dec = snap.section("embeddings")?;
    let embeddings = dec.f32_vec(
        num.checked_mul(embedding_dim)
            .ok_or(SnapshotError::Corrupt("embedding size overflow"))?,
    )?;
    dec.done()?;

    let mut dec = snap.section("probabilities")?;
    let probabilities = dec.f32_vec(
        num.checked_mul(num_classes)
            .ok_or(SnapshotError::Corrupt("probability size overflow"))?,
    )?;
    dec.done()?;

    AggregationResult::from_flat(embeddings, probabilities, embedding_dim)
        .map_err(SnapshotError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("locec_agg_{}_{name}", std::process::id()))
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn aggregation_roundtrip_is_bit_identical() {
        let agg = AggregationResult::from_flat(
            vec![0.25, -1.5e-7, 3.0, f32::MIN_POSITIVE, 0.0, -0.0],
            vec![0.7, 0.2, 0.1, 0.1, 0.1, 0.8],
            3,
        )
        .unwrap();
        let path = tmp("roundtrip.lsnap");
        save_aggregation(&path, &agg).unwrap();
        let loaded = load_aggregation(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.embedding_dim(), 3);
        assert_eq!(bits(loaded.embeddings_flat()), bits(agg.embeddings_flat()));
        assert_eq!(loaded.embedding(1), agg.embedding(1));
        assert_eq!(loaded.probabilities_flat(), agg.probabilities_flat());
    }

    #[test]
    fn empty_aggregation_roundtrips() {
        let agg = AggregationResult::from_flat(Vec::new(), Vec::new(), 0).unwrap();
        let path = tmp("empty.lsnap");
        save_aggregation(&path, &agg).unwrap();
        let loaded = load_aggregation(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.is_empty());
        assert!(loaded.embeddings_flat().is_empty());
    }

    #[rustfmt::skip]
    fn row_layout_fixture() -> Vec<u8> {
        vec![
            0x4c, 0x4f, 0x43, 0x45, 0x43, 0x53, 0x4e, 0x50, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
            0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x6d, 0x65, 0x74, 0x61, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x88, 0x41, 0xf0, 0xf2, 0x0a, 0x00, 0x65, 0x6d, 0x62, 0x65, 0x64, 0x64, 0x69, 0x6e,
            0x67, 0x73, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x91, 0x7f, 0x96, 0x0d, 0x00,
            0x70, 0x72, 0x6f, 0x62, 0x61, 0x62, 0x69, 0x6c, 0x69, 0x74, 0x69, 0x65, 0x73, 0x24, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0xe4, 0x98, 0x64, 0x87, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x80, 0x00, 0x00, 0x00, 0x3e, 0x00, 0x00, 0xe0, 0x40, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x80,
            0x3e, 0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x80,
            0x3e, 0xcd, 0xcc, 0xcc, 0x3d, 0xcd, 0xcc, 0x4c, 0x3e, 0x33, 0x33, 0x33, 0x3f,
        ]
    }

    /// A snapshot the row-by-row writer of the `Vec<Vec<f32>>` layout
    /// produced (three communities, 2-wide embeddings; bytes recorded from
    /// that writer). The flat layout must read it and write it back
    /// unchanged: the rows always were one contiguous column on disk.
    #[test]
    fn row_layout_fixture_loads_and_resaves_byte_identically() {
        let fixture = row_layout_fixture();
        let path = tmp("fixture.lsnap");
        std::fs::write(&path, &fixture).unwrap();
        let loaded = load_aggregation(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.embedding(0), [1.0, -2.5]);
        assert_eq!(loaded.embedding(2), [0.125, 7.0]);
        assert_eq!(loaded.probabilities(1), [0.25, 0.5, 0.25]);
        save_aggregation(&path, &loaded).unwrap();
        let resaved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(resaved, fixture);
    }
}
