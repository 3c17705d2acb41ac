//! Golden digest of the division snapshot Girvan–Newman produces.
//!
//! `locec_community` proves its bitset GN against an in-tree oracle
//! (`girvan_newman_reference`), but an oracle that lives in the same file
//! can drift with the code it checks. This test pins the whole Phase I
//! chain — ego extraction, GN, tightness, snapshot encoding — to the digest
//! the pre-bitset implementation (`MutableGraph` + `VecDeque` Brandes)
//! wrote for a fixed world, so a change that moves one division byte fails
//! against a constant.
//!
//! The constant was recorded at the commit before GN moved onto word
//! bitsets, by running this very test with a zero constant and reading the
//! digest off the failure message:
//!
//! ```sh
//! cargo test --release -p locec_store --test division_golden
//! ```

use locec_core::phase1::divide;
use locec_core::{CommunityDetector, LocecConfig};
use locec_store::format::crc32;
use locec_store::save_division;
use locec_synth::{Scenario, SynthConfig};

/// CRC32 of the division snapshot of the 1 500-user world below; identical
/// at `threads` 1 and 2, in debug and release builds.
const GOLDEN_DIVISION_CRC32: u32 = 0xadfb_22c7;

#[test]
fn gn_division_snapshot_matches_the_golden_digest() {
    let scenario = Scenario::generate(&SynthConfig {
        num_users: 1_500,
        surveyed_users: 100,
        ..SynthConfig::small(23)
    });
    for threads in [1usize, 2] {
        let config = LocecConfig {
            detector: CommunityDetector::GirvanNewman,
            threads,
            ..LocecConfig::fast()
        };
        let division = divide(&scenario.graph, &config);
        let path = std::env::temp_dir().join(format!(
            "locec_golden_division_{threads}_{}.lsnap",
            std::process::id()
        ));
        save_division(&path, &scenario.graph, &division).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let digest = crc32(&bytes);
        assert_eq!(
            digest, GOLDEN_DIVISION_CRC32,
            "division snapshot bytes moved at {threads} thread(s) (crc32 {digest:#010x})"
        );
    }
}
