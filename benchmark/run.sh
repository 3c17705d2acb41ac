#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it with the arguments
# given. The build goes to $CARGO_TARGET_DIR when that is set, else to the
# repository's own target directory; results go to out/ beside this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/locec-benchmark" --out-dir "$here/out" "$@"
