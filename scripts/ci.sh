#!/usr/bin/env bash
# Continuous-integration gate: formatting, lints, and the full test
# suite. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Closed-stdout smoke: a reader that goes away early is not an error, so
# under pipefail these pipelines must exit 0 rather than panic, and the
# run still writes its file outputs.
echo "==> closed-stdout smoke (qpredict paper / simulate | true)"
CLOSED_TMP="$(mktemp -d)"
./target/release/qpredict paper --jobs 60 --threads 1 table1 2>/dev/null | true
./target/release/qpredict simulate toy --jobs 60 --nodes 16 \
    --report-out "$CLOSED_TMP/report.json" 2>/dev/null | true
./target/release/qpredict check-report "$CLOSED_TMP/report.json"
rm -rf "$CLOSED_TMP"

# Thread-invariance smoke: the paper harness's grids run on a parallel
# fan-out, and one worker or three must print the same tables.
echo "==> qpredict paper --jobs 400 tables with --threads 1 vs --threads 3"
PAPER_TMP="$(mktemp -d)"
PAPER_LIST=(table6 table12 compress2x statewait easy-ablation warmup)
./target/release/qpredict paper --jobs 400 --threads 1 "${PAPER_LIST[@]}" \
    >"$PAPER_TMP/one.txt" 2>/dev/null
./target/release/qpredict paper --jobs 400 --threads 3 "${PAPER_LIST[@]}" \
    >"$PAPER_TMP/three.txt" 2>/dev/null
cmp "$PAPER_TMP/one.txt" "$PAPER_TMP/three.txt"

# The template-search experiments score each GA generation on the same
# fan-out, so their winners and tables must not depend on it either.
echo "==> qpredict paper --jobs 300 ga-search ga-ablation with --threads 1 vs --threads 3"
./target/release/qpredict paper --jobs 300 --threads 1 ga-search ga-ablation \
    >"$PAPER_TMP/ga-one.txt" 2>/dev/null
./target/release/qpredict paper --jobs 300 --threads 3 ga-search ga-ablation \
    >"$PAPER_TMP/ga-three.txt" 2>/dev/null
cmp "$PAPER_TMP/ga-one.txt" "$PAPER_TMP/ga-three.txt"

# Paper run-report smoke: the experiment grid runs on two workers, whose
# spans and counters must be merged into the report.
echo "==> report schema smoke (paper --threads 2 --report-out + check-report)"
./target/release/qpredict paper --jobs 200 --threads 2 table6 \
    --report-out "$PAPER_TMP/report.json" >/dev/null 2>&1
./target/release/qpredict check-report "$PAPER_TMP/report.json"
rm -rf "$PAPER_TMP"

# The end-to-end benchmark is a package of its own that calls the crates'
# public APIs; building it here turns an API break into a CI failure
# rather than a failed benchmark run. Cargo rewrites its lock file when a
# crate's path dependencies change, so the committed one is put back.
echo "==> cargo build --release --offline --manifest-path e2ebench/Cargo.toml"
BENCH_LOCK="$(mktemp)"
cp e2ebench/Cargo.lock "$BENCH_LOCK"
bench_build=0
cargo build --release --offline --manifest-path e2ebench/Cargo.toml || bench_build=$?
cp "$BENCH_LOCK" e2ebench/Cargo.lock
rm -f "$BENCH_LOCK"
[ "$bench_build" -eq 0 ]

# Traced smoke: the traced cell rebuilds the scheduling cell from the
# layers' public functions and must reproduce the untraced outputs and
# estimate-cache counters bit for bit, or the run reports itself wrong.
echo "==> e2ebench traced smoke (simulate-ctc --trace 1)"
BENCH_JSON="$("${CARGO_TARGET_DIR:-e2ebench/target}/release/qpredict-e2ebench" \
    --workload simulate-ctc --seed 1 --seconds 1 --trace 1 2>/dev/null | tail -n 1)"
echo "$BENCH_JSON" | grep -q '"correct": true' \
    || { echo "e2ebench traced simulate-ctc is not correct: $BENCH_JSON" >&2; exit 1; }

# The traced wait-prediction cell rebuilds its estimate cache above a
# timed Smith predictor; its outputs, cache hits and lookups must match
# `run_wait_prediction`'s through the predictor's own memo.
echo "==> e2ebench traced smoke (waitpred-sdsc96 --trace 1)"
BENCH_JSON="$("${CARGO_TARGET_DIR:-e2ebench/target}/release/qpredict-e2ebench" \
    --workload waitpred-sdsc96 --seed 1 --seconds 1 --trace 1 2>/dev/null | tail -n 1)"
echo "$BENCH_JSON" | grep -q '"correct": true' \
    || { echo "e2ebench traced waitpred-sdsc96 is not correct: $BENCH_JSON" >&2; exit 1; }

# The traced serve cell drives wait answers through the shared forecaster:
# traced and untraced outputs must agree, durable and ephemeral response
# logs must agree, and no answer may see an oversubscribed running set.
echo "==> e2ebench traced smoke (serve-anl --trace 1)"
BENCH_JSON="$("${CARGO_TARGET_DIR:-e2ebench/target}/release/qpredict-e2ebench" \
    --workload serve-anl --seed 1 --seconds 1 --trace 1 2>/dev/null | tail -n 1)"
echo "$BENCH_JSON" | grep -q '"correct": true' \
    || { echo "e2ebench traced serve-anl is not correct: $BENCH_JSON" >&2; exit 1; }

# Doc lint: a deleted or moved item must not leave an intra-doc link
# dangling.
echo "==> cargo doc --workspace --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Run-report smoke: an instrumented run must emit a report that the
# binary's own schema checker accepts (non-empty spans and counters).
echo "==> report schema smoke (simulate --report-out + check-report)"
REPORT_TMP="$(mktemp -d)"
trap 'rm -rf "$REPORT_TMP"' EXIT
./target/release/qpredict simulate toy --jobs 150 --nodes 32 \
    --report-out "$REPORT_TMP/report.json"
./target/release/qpredict check-report "$REPORT_TMP/report.json"

# Kill-and-recover smoke: SIGKILL the serve subcommand mid-stream (the
# throttle guarantees the kill lands before the stream ends), resume,
# and require byte-identical output to an uninterrupted run. One pass
# per predictor family: each encodes its own learned state in a base,
# and every delta carries the same completion log, which recovery
# replays.
echo "==> serve kill-and-recover smoke (SIGKILL + --resume)"
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$REPORT_TMP" "$SERVE_TMP"' EXIT
./target/release/qpredict events toy --jobs 60 --query-every 5 \
    --out "$SERVE_TMP/events.log" 2>/dev/null
for PRED in smith gibbons downey-avg; do
    ./target/release/qpredict serve "$SERVE_TMP/events.log" --predictor "$PRED" \
        --state-dir "$SERVE_TMP/ref-$PRED" --snapshot-every 16 \
        --out "$SERVE_TMP/ref-$PRED.out" 2>/dev/null
    ./target/release/qpredict serve "$SERVE_TMP/events.log" --predictor "$PRED" \
        --state-dir "$SERVE_TMP/state-$PRED" --snapshot-every 16 --fsync always \
        --throttle-us 3000 --out "$SERVE_TMP/run-$PRED.out" 2>/dev/null &
    SERVE_PID=$!
    sleep 0.25
    kill -KILL "$SERVE_PID" 2>/dev/null
    wait "$SERVE_PID" 2>/dev/null || true
    ./target/release/qpredict serve "$SERVE_TMP/events.log" --predictor "$PRED" \
        --state-dir "$SERVE_TMP/state-$PRED" --resume --snapshot-every 16 \
        --out "$SERVE_TMP/run-$PRED.out" 2>/dev/null
    cmp "$SERVE_TMP/ref-$PRED.out" "$SERVE_TMP/run-$PRED.out"
    echo "    serve --predictor $PRED recovered bit-identically after SIGKILL"
done

# Second kill, mid-chain: no fsync at all and a segment every 4 lines on
# a longer stream, so by the kill the service has compacted its delta
# chain into a new base at least once (the recovered base is not the
# first segment) and recovery replays base + deltas + WAL suffix.
./target/release/qpredict events toy --jobs 240 --query-every 5 \
    --out "$SERVE_TMP/long.log" 2>/dev/null
./target/release/qpredict serve "$SERVE_TMP/long.log" \
    --state-dir "$SERVE_TMP/long-ref-state" --snapshot-every 4 --fsync never \
    --out "$SERVE_TMP/long-ref.out" 2>/dev/null
./target/release/qpredict serve "$SERVE_TMP/long.log" \
    --state-dir "$SERVE_TMP/long-state" --snapshot-every 4 --fsync never \
    --throttle-us 2000 --out "$SERVE_TMP/long-run.out" 2>/dev/null &
SERVE_PID=$!
sleep 0.5
kill -KILL "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null || true
./target/release/qpredict serve "$SERVE_TMP/long.log" \
    --state-dir "$SERVE_TMP/long-state" --resume --snapshot-every 4 --fsync never \
    --out "$SERVE_TMP/long-run.out" 2>"$SERVE_TMP/long-resume.err"
cmp "$SERVE_TMP/long-ref.out" "$SERVE_TMP/long-run.out"
RECOVERED="$(grep '^serve: recovered' "$SERVE_TMP/long-resume.err")"
echo "    $RECOVERED"
BASE_SEQ="$(echo "$RECOVERED" | sed -E 's/.*snapshot seq ([0-9]+) .*/\1/')"
if [ "$BASE_SEQ" -le 1 ]; then
    echo "serve: the kill landed before the first compaction" >&2
    exit 1
fi
echo "    serve recovered bit-identically from base + deltas after SIGKILL"

# Recording-off overhead gate: the disarmed instrumentation seam must
# cost under 2% of a warm Smith prediction. It times optimized code, so
# debug test runs skip it and it runs here in release.
echo "==> cargo test --release -q --test observability recording_off_costs_under_two_percent_of_a_warm_predict"
cargo test --release -q --test observability \
    recording_off_costs_under_two_percent_of_a_warm_predict -- --include-ignored

# The engine's capacity and node-accounting checks are debug assertions,
# while the benchmark runs release builds: show the bit-identity locks, the
# paper drift fixture and the faulted-trace schedule invariants in a
# release build too, hold the planner's passes (carried plans included) to
# from-scratch backfill passes, hold the event codec to the formatter
# rendering it replaced, check the runtime index's integer arithmetic
# in optimized code, and hold the estimate cache's served predictions to
# its bare predictor's.
echo "==> cargo test --release -q --test estimation_lock --test robustness --test paper_drift"
cargo test --release -q --test estimation_lock --test robustness --test paper_drift
echo "==> cargo test --release -q -p qpredict-sim --test backfill_oracle"
cargo test --release -q -p qpredict-sim --test backfill_oracle
echo "==> cargo test --release -q -p qpredict-workload --test event_codec"
cargo test --release -q -p qpredict-workload --test event_codec
echo "==> cargo test --release -q -p qpredict-predict --test rtindex_oracle"
cargo test --release -q -p qpredict-predict --test rtindex_oracle
echo "==> cargo test --release -q -p qpredict-predict --test cache_oracle"
cargo test --release -q -p qpredict-predict --test cache_oracle

# Synthesis is bit-identical to the bisection it replaced: the arrival
# oracle runs its full million-target case count only in optimized code,
# and the synthesis lock holds every site model to its captured
# fingerprints in the build the benchmark runs.
echo "==> cargo test --release -q -p qpredict-workload --test arrival_oracle"
cargo test --release -q -p qpredict-workload --test arrival_oracle
echo "==> cargo test --release -q --test synthesis_lock"
cargo test --release -q --test synthesis_lock

# The durable layer's checksum is wrapping 64-bit arithmetic, and serve's
# recovery and segment oracles lean on it: run its oracle and theirs in
# the optimized code the service ships as.
echo "==> cargo test --release -q -p qpredict-durable -p qpredict-serve"
cargo test --release -q -p qpredict-durable -p qpredict-serve

echo "CI green."
