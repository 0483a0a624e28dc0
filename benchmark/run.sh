#!/usr/bin/env bash
# Single entry point of the perf ledger. Run from the repository root:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh all [--seed N] [--seconds S] [--runs K] [--workload W] [--trace 0|1]
#   bash benchmark/run.sh compare <baseline.json> <candidate.json>
#   bash benchmark/run.sh selfcheck [--seed N] [--seconds S] [--runs K]
#
# Builds the repository's release binaries (for the real miras-serve) and
# the ledger, then hands over. Everything built or written lands under the
# cargo target directory ($CARGO_TARGET_DIR, default target/), which
# .gitignore names. Only results go to stdout; builds report on stderr.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"

if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "benchmark/run.sh: run from the root of the repository (no Cargo.toml and crates/ here)" >&2
    exit 2
fi

# Root workspace: target-cpu=native comes from .cargo/config.toml, found
# from the working directory, so it applies to the ledger's build too.
cargo build --release --offline --quiet --bin miras-serve
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target/ledger"

# Kernel threads stay off unless the caller's environment asks for them:
# on 2-vCPU guests their per-update spawn/join hand-offs are VM exits, and
# the same training iteration then takes 3.4-19 s (see README.md).
export NN_NUM_THREADS="${NN_NUM_THREADS:-1}"

export MIRAS_LEDGER_SERVE_BIN="$target/release/miras-serve"
export MIRAS_LEDGER_OUT="$target/ledger/out"
export MIRAS_LEDGER_RUSTC="$(rustc --version)"
export MIRAS_LEDGER_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
config_flags="$(grep -s '^rustflags' .cargo/config.toml || true)"
export MIRAS_LEDGER_RUSTFLAGS="RUSTFLAGS='${RUSTFLAGS:-}' .cargo/config.toml: ${config_flags:-none}"

# The ledger starts miras-serve itself and reaps it on every path out,
# removing its socket and temporary files (see src/workloads/serve.rs).
exec "$target/ledger/release/miras-ledger" "$@"
