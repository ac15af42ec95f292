#!/usr/bin/env bash
# Gate for the standalone benchmark package: the root workspace's CI jobs
# do not see it (it is not a workspace member). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q
# All four workloads, untraced and traced, at 0.02 of the nominal counts,
# with the same correctness gates as a full run.
cargo run --offline --release --quiet -- --smoke
