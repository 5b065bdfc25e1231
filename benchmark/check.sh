#!/usr/bin/env bash
# Everything CI would run for the benchmark package (.github/ is out of
# bounds for the change that added it): format, lints, tests, and the rule
# that the gate never names a switch ROADMAP item 2 wants to delete.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release

# Ablation switches, environment knobs and deprecated APIs named in ROADMAP
# item 2 (deprecated calls are also caught by `-D warnings` above).
banned='\b(match_index|region_buffers|streaming|recv_batch|ooo_buffer_bytes|flow_control'
banned+='|PORTALS_UDP_BATCH|PORTALS_UDP_MTU|TriggeredConfig|offload|ProgressModel|legacy)\b'
banned+='|allow\(deprecated\)|\.fence\('
if grep -rnE "$banned" src tests Cargo.toml; then
    echo "check.sh: the benchmark names a switch that ROADMAP item 2 retires" >&2
    exit 1
fi
echo "check.sh: ok"
