#!/usr/bin/env bash
# The whole CI gate. CI runs one lane per matrix job; developers run the
# same commands verbatim:
#
#   bash ci/gate.sh <lane>   # one of: check release portability smoke
#   bash ci/gate.sh          # every lane, in that order
#
# Each check runs once per profile and flags: the whole-workspace test runs
# cover every suite, so no lane re-runs a filtered subset of them.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pin the thread budget so test timing is stable across differently sized
# hosts. Results are bit-identical for any value (DESIGN.md §8); the
# release lane re-runs the bit-pinned goldens at 1 and 4 to prove it.
export NN_NUM_THREADS=2

LANES=(check release portability smoke)

# Format, lints, rustdoc and every test of every workspace member
# (`--workspace` adds the vendored shims that plain `cargo test` leaves
# out), in the dev profile. `--no-fail-fast` keeps one failing test binary
# from hiding the failures in the binaries after it.
lane_check() {
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo test --workspace --no-fail-fast -q
}

# The optimised build and everything that needs it.
lane_release() {
    cargo build --release
    cargo test --release --workspace --no-fail-fast -q
    # sim-large's ensemble, seed and allocation at full size: events per
    # window and every WindowMetrics field, pinned. Ignored by default for
    # its run time. Run by name: `--include-ignored` on the whole workspace
    # would also run the vendored proptest's `ignore` doctest.
    cargo test --release -p microsim --test window_metrics_golden -q -- --ignored
    # The thread knob is read once per process, so each value needs its own
    # run; the pinned 2 ran above. The DDPG update, Algorithm-2 iteration
    # and Fig. 7 smoke bits must not move at 1 or 4 threads.
    local threads
    for threads in 1 4; do
        NN_NUM_THREADS=$threads cargo test --release -p rl --test train_step_golden -q
        NN_NUM_THREADS=$threads cargo test --release -p miras-core --test iteration_golden -q
        NN_NUM_THREADS=$threads cargo test --release -p miras-bench --test determinism -q
    done
    # The watcher's per-window check compares stat fields only; ten passes
    # of the swap suites catch a timestamp-granularity flake before it
    # reaches main. chaos_invariants replays each seeded fault schedule
    # twice on a watched checkpoint and compares the bytes, so its
    # determinism check runs next to the watcher's verifier thread too.
    local pass
    for pass in $(seq 1 10); do
        echo "hot-swap suites, pass $pass of 10"
        cargo test --release -p serve --test hot_swap --test swap_task_types \
            --test policy_decoders -q
        cargo test --release -p miras --test serve_binary -q
        cargo test --release -p miras-bench --test chaos_invariants -q
    done
    # An hour of diurnal load on a crashing MSD cluster; the example
    # asserts that no workflow is lost (at-least-once delivery).
    cargo run --release --example chaos_day
    # The simulator's invariant checks are debug_assert! by default; this
    # runs the optimised build with them compiled in. RUSTFLAGS replaces
    # the target-cpu that .cargo/config.toml sets, so it builds in its own
    # target dir and leaves the default one alone.
    RUSTFLAGS="-C debug-assertions" CARGO_TARGET_DIR=target/gate-debug-assertions \
        cargo test --release -p microsim -p desim -q
}

# Every pinned golden must hold at baseline x86-64 vector width (SSE2, no
# AVX), not only on hosts whose native target enables wider vectors.
lane_portability() {
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/gate-x86-64 \
        cargo test --release --workspace --no-fail-fast -q
}

# The shipped binaries end to end, at smoke scale.
lane_smoke() {
    cargo build --release
    # The bench bins write their telemetry to results/<bin>.jsonl; the
    # stream's shape is checked by the tests (crates/bench/tests/).
    cargo run --release -p miras-bench --bin resilience_comparison -- \
        --ensemble msd --smoke --no-cache
    test -s results/resilience_comparison.jsonl
    local s
    for s in healthy crashes outages stragglers delays; do
        grep -q "\"scenario\":\"$s\"" results/resilience_comparison.jsonl
    done
    # stationary/diurnal/trending/flash-crowd plus a freshly recorded
    # trace replayed through trace-replay, each swept across MIRAS and all
    # baselines.
    cargo run --release -p miras-bench --bin workload_grid -- --smoke --no-cache
    cargo run --release -p miras-bench --bin fig7_msd_comparison -- --smoke --no-cache
    test -s results/fig7_msd_comparison.jsonl

    local bin="$PWD/target/release"
    local work=target/gate-smoke
    rm -rf "$work"
    mkdir -p "$work"
    (
        cd "$work"
        "$bin/miras-cli" train --ensemble msd --smoke --iterations 1 --seed 7 \
            --out smoke_agent.json
        # `train --out` writes a policy file: exactly one line, a
        # checkpoint's first, stamped with the iterations run.
        test "$(wc -l < smoke_agent.json)" -eq 1
        grep -q '"policy_version":1,' smoke_agent.json
        "$bin/miras-serve" --record 50 --ensemble msd --seed 7 > stream.jsonl
        # Shadow mode (streaming, stdin) must be byte-identical to a batch
        # replay of the same stream at the same checkpoint, and the p99
        # decision latency must stay under the 1 ms serving budget.
        "$bin/miras-serve" --checkpoint smoke_agent.json --shadow \
            --max-p99-us 1000 < stream.jsonl > shadow.jsonl 2> shadow.err \
            || { cat shadow.err; exit 1; }
        cat shadow.err
        "$bin/miras-serve" --checkpoint smoke_agent.json \
            --replay stream.jsonl > batch.jsonl
        cmp shadow.jsonl batch.jsonl
        grep -q "via 'miras' v1 " shadow.err
        # Both modes read through the one serving intake: a non-UTF-8 line,
        # a line one byte over the 1 MiB bound and a wrong-dimension line
        # are skipped and counted alike, never fatal.
        {
            head -n 10 stream.jsonl
            printf '\xff\n'
            sed -n '11,25p' stream.jsonl
            printf '%1048577s\n' '' | tr ' ' x
            sed -n '26,40p' stream.jsonl
            printf '{"window":99,"wip":[1.0]}\n'
            tail -n +41 stream.jsonl
        } > noisy.jsonl
        "$bin/miras-serve" --checkpoint smoke_agent.json --shadow \
            < noisy.jsonl > noisy_shadow.jsonl 2> noisy.err \
            || { cat noisy.err; exit 1; }
        cat noisy.err
        "$bin/miras-serve" --checkpoint smoke_agent.json \
            --replay noisy.jsonl > noisy_batch.jsonl
        cmp noisy_shadow.jsonl noisy_batch.jsonl
        cmp noisy_shadow.jsonl shadow.jsonl
        grep -q " 3 wire-rejected," noisy.err
    )
}

if [ "$#" -gt 1 ]; then
    echo "usage: bash ci/gate.sh [${LANES[*]}]" >&2
    exit 2
fi
if [ "$#" -eq 0 ]; then
    set -- "${LANES[@]}"
fi
for lane in "$@"; do
    case " ${LANES[*]} " in
        *" $lane "*) ;;
        *)
            echo "error: unknown lane '$lane' (lanes: ${LANES[*]})" >&2
            exit 2
            ;;
    esac
    echo "== gate: $lane"
    "lane_$lane"
done
