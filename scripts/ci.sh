#!/usr/bin/env bash
# Tier-1 gate, run fully offline to prove the workspace has no external
# dependencies (see DESIGN.md "Dependencies" and README "The
# dependency-free substrate").
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

echo "== tier-1: cargo build --release" >&2
cargo build --release

echo "== tier-1: cargo test -q" >&2
cargo test -q

echo "== full workspace tests" >&2
cargo test -q --workspace

# Formatting is checked when a rustfmt is available; its absence must not
# fail the gate on minimal toolchains.
if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check" >&2
    cargo fmt --check
else
    echo "== cargo fmt unavailable; skipping format check" >&2
fi

echo "== cargo clippy --workspace -- -D warnings" >&2
cargo clippy --workspace -- -D warnings

# Determinism sweep: the whole experiment catalogue at quick scale must
# produce bit-identical stdout at 1, 2, and 3 worker threads (the
# determinism-under-parallelism contract; see EXPERIMENTS.md "The
# experiment fleet"). --threads shards both the jobs and each job's inner
# sweep, so the chaos campaigns (incl. the rejoin, live-restripe/shrink
# and spare-shield scenarios of docs/RECOVERY.md), the workload plans and
# the coded ablation are swept at every level. fleet exits non-zero if
# any job fails its own checks (a chaos or workload invariant violation,
# a failed ablation check). Fatal — a divergence means randomness leaked
# out of its RNG subtree.
echo "== determinism sweep: fleet --scale quick at 1 vs 2 vs 3 threads" >&2
FLEET=(cargo run --release -q -p tiger-bench --bin fleet --)
FLEET_T1="$(mktemp)" FLEET_TN="$(mktemp)" GOLDEN="$(mktemp)" DEMO_OUT="$(mktemp)"
trap 'rm -f "$FLEET_T1" "$FLEET_TN" "$GOLDEN" "$DEMO_OUT"' EXIT
"${FLEET[@]}" --scale quick --threads 1 > "$FLEET_T1"
for threads in 2 3; do
    "${FLEET[@]}" --scale quick --threads "$threads" > "$FLEET_TN"
    cmp "$FLEET_T1" "$FLEET_TN"
done

# Traced smoke: the tracer is a pure observer, so the same catalogue run
# with tracing switched on must produce bit-identical stdout (see
# docs/TRACING.md). Fatal — any divergence means a trace hook leaked into
# simulation behaviour.
echo "== traced smoke: fleet stdout with TIGER_TRACE=1 vs off" >&2
TIGER_TRACE=1 "${FLEET[@]}" --scale quick --threads 1 > "$FLEET_TN"
cmp "$FLEET_T1" "$FLEET_TN"

# Experiment goldens: results/<job>.txt is the job's full-scale output and
# results/<job>_quick.txt its quick one. The quick pair pins the coded
# service path (fan-out, degraded reads, load-index choice; docs/CODED.md)
# and the plan grammar + demand -> schedule coupling (docs/WORKLOADS.md);
# the full-scale set covers every job fast enough for CI, so a golden can
# no longer rot unnoticed. Fatal.
# golden SCALE SUFFIX JOB... — cmp the fleet run against the goldens, in
# catalogue order.
golden() {
    local scale="$1" suffix="$2"
    shift 2
    local jobs
    jobs="$(IFS=,; echo "$*")"
    echo "== goldens: fleet --filter $jobs --scale $scale" >&2
    "${FLEET[@]}" --filter "$jobs" --scale "$scale" > "$FLEET_TN"
    for job in $("${FLEET[@]}" --filter "$jobs" --list); do
        cat "results/$job$suffix.txt"
    done > "$GOLDEN"
    cmp "$GOLDEN" "$FLEET_TN"
}
golden quick _quick ablation_coded hotspot_plan
golden full "" fig8_unfailed reconfig hotspot ablation_decluster ablation_forwarding \
    ablation_lead ablation_fragmentation ablation_mbr ablation_deadman \
    workloads workload_flashcrowd_blocking

# Golden timeline: the deterministic demo scenario must render exactly the
# checked-in timeline. Fatal — it pins the event schema, the wire format,
# and the protocol's event order on a fixed seed all at once.
echo "== traced smoke: trace_timeline --demo vs results/trace_timeline_demo.txt" >&2
cargo run --release -q -p tiger-bench --bin trace_timeline -- --demo > "$DEMO_OUT"
cmp results/trace_timeline_demo.txt "$DEMO_OUT"

# Golden rejoin timeline: the deterministic crash-then-restart scenario
# must render exactly the checked-in recovery arc (power-cut, deadman
# declaration, mirror takeover, cub-restart, hand-back grant,
# rejoin-done). Fatal — it pins the rejoin protocol's event order.
echo "== recovery smoke: trace_timeline --rejoin-demo vs results/trace_rejoin_timeline.txt" >&2
cargo run --release -q -p tiger-bench --bin trace_timeline -- --rejoin-demo > "$DEMO_OUT"
cmp results/trace_rejoin_timeline.txt "$DEMO_OUT"

# Golden shrink timeline: the deterministic live remove=1 restripe must
# render exactly the checked-in shrink arc (restripe-start, the leaving
# cub's shrink-drain, shrink-fence, restripe-cutover). Fatal — it pins
# the queued shrink executor's event order under streaming load.
echo "== recovery smoke: trace_timeline --shrink-demo vs results/trace_shrink_timeline.txt" >&2
cargo run --release -q -p tiger-bench --bin trace_timeline -- --shrink-demo > "$DEMO_OUT"
cmp results/trace_shrink_timeline.txt "$DEMO_OUT"

# Driver conformance: the crash-rejoin scenario run under the DES oracle
# and under the thread/socket driver (real OS threads, loopback UDP,
# wall clocks) must make the same protocol decisions — the sans-io
# machines in crates/proto are shared code, so a divergence means a
# driver broke the contract (docs/PROTOCOL.md, "The driver contract").
# Fatal. Takes ~10.5 s of wall time (the socket driver runs in real time).
echo "== driver conformance: DES oracle vs thread/socket driver (rt_conformance)" >&2
cargo run --release -q -p tiger-rt --bin rt_conformance

# Bench trajectory: compare fresh micro-bench medians (the full family,
# not just the event queue) against the checked-in snapshot. Fatal — a
# >10% median regression on a hot-path primitive fails the gate. On
# hardware where timing is genuinely noisier, loosen the tolerance with
# e.g. TIGER_BENCH_TOL=25 (percent) rather than skipping the gate.
echo "== bench compare vs BENCH_micro.json (fatal; TIGER_BENCH_TOL to loosen)" >&2
scripts/bench_compare.sh

# No registry crates may creep back into any manifest.
if grep -rn --include=Cargo.toml -E '^\s*(rand|proptest|criterion|serde)\b' .; then
    echo "ERROR: external registry dependency found in a Cargo.toml" >&2
    exit 1
fi

echo "ci: all gates passed" >&2
