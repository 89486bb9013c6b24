#!/usr/bin/env sh
# Local CI gate. Run before pushing; everything must pass offline — the
# workspace has no crates.io dependencies (see DESIGN.md §5).
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline
cargo test -q --offline --workspace

# Static analysis: determinism & robustness rules over every workspace
# .rs file (DESIGN.md §9 and §14). Exits 1 on any finding not covered by
# the committed lint.allow baseline, 2 on I/O or parse trouble or an
# ambiguous baseline — either way `set -e` stops the gate. The JSON
# report is committed alongside BENCH_scale.json so finding drift shows
# up in review; regenerating it must be a no-op against the checkout.
# The lint's corpus and self-test (`crates/phlint/tests/canaries.rs`)
# ran in the workspace tests above.
cargo run --release --offline -p ph-lint -- --workspace --format json > LINT.json
cat LINT.json
git diff --exit-code -- LINT.json

# Runtime gate (crates/harness/src/gate.rs): every crowd, fault, bubbles
# and live arm in-process — serial vs --threads 4 vs the resharded reruns,
# the events/s floors, the 100k peak-RSS ceiling, the allocation-free
# trace burst, lossy frame drops, gossip delivery and convergence, live
# errors/shed/p99. Rewrites
# BENCH_scale.json and BENCH_live.json when every check passes.
# PH_CI_MILLION=1 also re-measures BENCH_million.json (~20 s, ~1.6 GB).
cargo run --release --offline -p ph-harness --bin repro -- gate
