#!/bin/sh
# Tier-1 gate: everything a PR must keep green, in the order a failure
# is cheapest to notice. Runs fully offline (no network, no extra
# toolchain components beyond rustfmt).
#
#   ./scripts/check.sh
#
# 1. release build of every crate (benches and examples included), and
#    of the benchmark helper perfbench/layers (its own package, so a
#    public-API change that breaks the benchmark fails here),
# 2. the full test suite on default features (`heavy-tests` scales the
#    randomized suites up and is opt-in: cargo test --features heavy-tests),
# 3. rustdoc with warnings denied (missing docs and broken intra-doc
#    links fail the build),
# 4. formatting,
# 5. public-API snapshot: every `pub` declaration must match
#    tests/api_snapshot.txt (MS_BLESS=1 to re-bless deliberately),
# 6. docs gate: the metric tables in EXPERIMENTS.md / docs/METRICS.md /
#    docs/PROFILING.md / docs/PERF-HISTORY.md / docs/OBSERVABILITY.md
#    must only name fields that still exist in the source; every
#    relative markdown link must resolve; every docs/*.md must be
#    routed from docs/INDEX.md,
# 7. perf gate: `run -- perf --baseline best` measures the canonical
#    cells and fails on any phase regressing beyond the threshold
#    against the best-ever committed BENCH_*.json that matches this
#    machine (fingerprint + instruction budget; incomparable machines
#    skip the comparison). One automatic retry absorbs
#    just-after-a-build scheduler noise. Escape hatches
#    (docs/PERF-HISTORY.md):
#      MS_PERF_ACCEPT_REGRESSION=1  report regressions without failing
#                                   (intentional slowdowns — say so in
#                                   the PR description),
#      MS_PERF_BASELINE=FILE        gate against one specific baseline
#                                   instead of best-ever,
# 8. perf-history smoke: the committed baselines must aggregate into
#    target/perf-smoke/perf/history.{html,json}, the JSON must pass
#    `run -- perf-validate`, and — deterministically, no measurement
#    involved — the committed trajectory must be free of cumulative
#    drift vs best-ever (MS_PERF_ACCEPT_REGRESSION=1 reports instead),
# 9. conformance fuzz smoke: 25 random programs x every registered
#    selection policy must match the sequential reference model
#    (docs/CONFORMANCE.md),
# 10. run-ledger smoke: a small sweep must leave a run record that
#    passes `run -- runs-validate` and shows up in `run -- runs`; the
#    smoke steps share one ledger (MS_RUNS_DIR=target/experiments/runs),
#    which is pruned to the newest 50 records (docs/OBSERVABILITY.md),
# 11. sweep-service smoke: a daemon (`run -- serve`) must accept two
#    identical submissions, serve the second one entirely from the
#    content-addressed cell cache (zero cells simulated), produce
#    artifacts byte-identical to the one-shot CLI path, and shut down
#    cleanly within the timeout budget (docs/SERVICE.md).
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --benches --examples"
cargo build --workspace --release --benches --examples

echo "==> cargo build --release (perfbench/layers, the benchmark helper)"
CARGO_TARGET_DIR=target/perfbench-layers \
    cargo build --release --offline --manifest-path perfbench/layers/Cargo.toml

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> public API snapshot (tests/api_snapshot.txt)"
# An unreviewed signature change to the typed public surface fails here;
# deliberate changes are re-blessed with MS_BLESS=1 and show up in the diff.
cargo test --release -q --test api_snapshot

echo "==> docs gate (metric tables vs. source)"
# Every backticked snake_case name opening a markdown table row in the
# metric docs must appear somewhere in the crates' source: a renamed or
# removed counter/field must take its documentation row with it.
docs_fail=0
for doc in EXPERIMENTS.md docs/METRICS.md docs/TRACING.md docs/PROFILING.md \
           docs/PERF-HISTORY.md docs/OBSERVABILITY.md docs/SERVICE.md; do
    [ -f "$doc" ] || { echo "missing $doc"; docs_fail=1; continue; }
done
for doc in EXPERIMENTS.md docs/METRICS.md docs/PROFILING.md docs/PERF-HISTORY.md \
           docs/OBSERVABILITY.md; do
    fields=$(grep -o '^| `[a-z][a-z0-9_]*`' "$doc" | sed 's/^| `//; s/`$//' | sort -u)
    for f in $fields; do
        if ! grep -rq "$f" crates/*/src; then
            echo "$doc documents \`$f\` but it does not appear in crates/*/src"
            docs_fail=1
        fi
    done
done
# Relative markdown links must resolve: a moved or renamed file must
# take every `[text](path)` pointing at it along. External links
# (scheme prefixes) and intra-page anchors are out of scope.
for doc in $(git ls-files '*.md'); do
    dir=$(dirname "$doc")
    links=$(grep -o '](\./\{0,1\}[A-Za-z0-9_.-]\{1,\}\.md[#)]' "$doc" \
        | sed 's/^](//; s/[#)]$//' || true)
    nested=$(grep -o ']([A-Za-z0-9_-]\{1,\}/[A-Za-z0-9_./-]\{1,\}\.md[#)]' "$doc" \
        | sed 's/^](//; s/[#)]$//' || true)
    updir=$(grep -o '](\.\./[A-Za-z0-9_./-]\{1,\}\.md[#)]' "$doc" \
        | sed 's/^](//; s/[#)]$//' || true)
    for link in $links $nested $updir; do
        if [ ! -f "$dir/$link" ]; then
            echo "$doc links to \`$link\` but $dir/$link does not exist"
            docs_fail=1
        fi
    done
done
# Every docs/*.md must be reachable from the index's routing table.
for doc in docs/*.md; do
    base=$(basename "$doc")
    [ "$base" = "INDEX.md" ] && continue
    if ! grep -q "($base)" docs/INDEX.md; then
        echo "docs/INDEX.md does not route to $doc"
        docs_fail=1
    fi
done
[ "$docs_fail" -eq 0 ] || { echo "docs gate failed"; exit 1; }

# Every smoke step below writes its run record into one ledger, so the
# run-ledger smoke validates all of them and the prune keeps it bounded.
export MS_RUNS_DIR=target/experiments/runs

echo "==> perf gate (run -- perf --baseline best, best-ever committed baseline)"
smoke_dir=target/perf-smoke
rm -rf "$smoke_dir"
# Always-on: measure at the committed baselines' instruction budget and
# gate against the best-ever comparable one. `--baseline best` skips the
# comparison (but still validates the document) when no committed
# baseline matches this machine's fingerprint + budget, so the gate is
# portable. The 1 ms gate floor leaves sub-millisecond phases out of the
# verdict: they flap by double-digit percent under CI scheduler noise
# while the phases that dominate the runtime (sim.run, trace.generate,
# the total) are stable. docs/PERF-HISTORY.md documents the escape
# hatches.
gate_args="--reps 3 --bench-out $smoke_dir/BENCH_smoke.json --out $smoke_dir"
gate_args="$gate_args --baseline ${MS_PERF_BASELINE:-best} --noise-floor-ns 1000000"
if [ -n "${MS_PERF_ACCEPT_REGRESSION:-}" ]; then
    echo "    (MS_PERF_ACCEPT_REGRESSION set: reporting regressions without failing)"
    gate_args="$gate_args --no-gate"
fi
# Measured on this container: perf straight after the build/test burst
# reads 30-60% slow across every phase (CPU-quota throttle / thermal
# recovery), then returns to baseline within ~30s of idle. Settle
# first; on failure, settle longer and retry once — a real regression
# fails both attempts.
sleep 15
# shellcheck disable=SC2086  # gate_args is a flat flag list by construction
if ! cargo run -p ms-bench --release --bin run -q -- perf $gate_args; then
    echo "    perf gate failed; settling 45s and retrying once (post-build throttle)"
    sleep 45
    rm -rf "$smoke_dir"
    # shellcheck disable=SC2086
    cargo run -p ms-bench --release --bin run -q -- perf $gate_args
fi
cargo run -p ms-bench --release --bin run -q -- perf-validate "$smoke_dir/BENCH_smoke.json"

echo "==> perf-history smoke (run -- perf-history, committed baselines)"
# Deterministic (input = the committed BENCH_*.json files): renders the
# trend table, emits both artifacts, and fails on cumulative drift vs
# best-ever — a slow bleed that never trips the pairwise gate above.
history_args=""
[ -n "${MS_PERF_ACCEPT_REGRESSION:-}" ] && history_args="--no-gate"
# shellcheck disable=SC2086
cargo run -p ms-bench --release --bin run -q -- perf-history --out "$smoke_dir" $history_args
for artifact in "$smoke_dir/perf/history.html" "$smoke_dir/perf/history.json"; do
    [ -f "$artifact" ] || { echo "perf-history did not emit $artifact"; exit 1; }
done
cargo run -p ms-bench --release --bin run -q -- perf-validate "$smoke_dir/perf/history.json"

echo "==> conformance fuzz smoke (run -- fuzz --seeds 25)"
# Random programs under every selection policy against the sequential
# reference model; failures shrink to .msir repros.
rm -rf target/fuzz-smoke
cargo run -p ms-bench --release --bin run -q -- fuzz --seeds 25 --out target/fuzz-smoke

echo "==> run-ledger smoke (run -- runs, docs/OBSERVABILITY.md)"
# The perf/perf-history/fuzz steps above each left a run record; add the
# cheapest sweep so the sweep scheduler's telemetry path is exercised
# too, then assert the ledger round-trips: every record validates and
# the listing surfaces the sweep we just ran. MS_RUNS_DIR (exported
# above) holds the records of every smoke step, whatever its --out.
rm -rf target/ledger-smoke
cargo run -p ms-bench --release --bin run -q -- forwarding --jobs 2 --out target/ledger-smoke
cargo run -p ms-bench --release --bin run -q -- runs-validate
# Filter by command: record ids have one-second resolution, and several
# smoke steps can finish inside the same second.
runs_listing=$(cargo run -p ms-bench --release --bin run -q -- runs --cmd forwarding --last 1)
echo "$runs_listing" | grep -q "forwarding" \
    || { echo "runs --cmd forwarding does not show the sweep just run"; exit 1; }
cargo run -p ms-bench --release --bin run -q -- runs --cmd perf --last 3
# Keep the ledger bounded: newest 50 records, oldest pruned (the
# UTC-stamp filename prefix makes lexicographic order chronological).
runs_dir=$MS_RUNS_DIR
if [ -d "$runs_dir" ]; then
    total=$(ls "$runs_dir"/*.jsonl 2>/dev/null | wc -l)
    if [ "$total" -gt 50 ]; then
        ls "$runs_dir"/*.jsonl | sort | head -n "$((total - 50))" | while IFS= read -r old; do
            rm -f "$old"
        done
        echo "    (pruned $((total - 50)) old run record(s), keeping the newest 50)"
    fi
fi

echo "==> sweep-service smoke (run -- serve, docs/SERVICE.md)"
# End-to-end through the real socket: the one-shot reference run, a
# daemon in the background, the same grid submitted twice. The second
# submission must be a pure cache replay ("0 computed" in the final
# status line) and both jobs' artifacts must be byte-identical to the
# one-shot tree. Everything runs the already-built release binary so
# the background daemon and the foreground clients never contend on a
# cargo build lock.
run_bin=target/release/run
serve_dir=target/serve-smoke
rm -rf "$serve_dir"
"$run_bin" forwarding --jobs 2 --quiet --out "$serve_dir/oneshot"
"$run_bin" serve --jobs 2 --quiet --out "$serve_dir/daemon" &
serve_pid=$!
# The daemon must come up inside the timeout budget (~15s).
ready=0
i=0
while [ "$i" -lt 30 ]; do
    if "$run_bin" jobs --out "$serve_dir/daemon" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.5
    i=$((i + 1))
done
[ "$ready" -eq 1 ] || { echo "serve daemon did not come up"; kill "$serve_pid" 2>/dev/null; exit 1; }
"$run_bin" submit forwarding --quiet --out "$serve_dir/daemon"
second=$("$run_bin" submit forwarding --out "$serve_dir/daemon")
echo "$second" | grep -q ", 0 computed" \
    || { echo "resubmitted grid was not served fully from the cell cache:"; echo "$second"; \
         "$run_bin" shutdown --out "$serve_dir/daemon"; exit 1; }
for job in job-1 job-2; do
    diff -r "$serve_dir/oneshot/forwarding" "$serve_dir/daemon/serve/$job/forwarding" \
        || { echo "served artifacts for $job differ from the one-shot run"; \
             "$run_bin" shutdown --out "$serve_dir/daemon"; exit 1; }
done
"$run_bin" shutdown --out "$serve_dir/daemon"
# Clean exit inside the timeout budget (~15s), else the daemon hung.
i=0
while [ "$i" -lt 30 ] && kill -0 "$serve_pid" 2>/dev/null; do
    sleep 0.5
    i=$((i + 1))
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid" 2>/dev/null
    echo "serve daemon did not exit after shutdown"
    exit 1
fi
wait "$serve_pid" || { echo "serve daemon exited non-zero"; exit 1; }

echo "All checks passed."
