#!/usr/bin/env sh
# One-command correctness gate: plain build + tests, the ASan+UBSan
# preset, and sphinx-lint.  Run from the repository root:
#
#   tools/check.sh          # everything
#   tools/check.sh fast     # skip the sanitizer build
set -eu

cd "$(dirname "$0")/.."

echo "== build + test (relwithdebinfo) =="
cmake --preset relwithdebinfo
cmake --build --preset relwithdebinfo
ctest --preset relwithdebinfo

echo "== sphinx-lint =="
# The full static pass: the 7 hygiene/determinism regex rules plus the
# declaration-aware analyzer rules (ordered-escape taint, rng stream
# discipline, derived-state, observe-only) over everything we compile.
# src/ctrl (the lease/failover control plane) is named explicitly: it is
# already inside src/, but the control plane must never regress on the
# determinism rules, so the gate stays loud about covering it.
./build/relwithdebinfo/tools/sphinx_lint/sphinx_lint \
  --root . src src/ctrl tests bench examples tools

echo "== rng stream registry gate =="
# docs/rng_streams.md is generated from the seeds.stream() literals the
# analyzer extracts; the committed copy must match byte-for-byte.
./build/relwithdebinfo/tools/sphinx_lint/sphinx_lint \
  --root . --rng-registry src tests bench examples tools \
  > build/relwithdebinfo/rng_streams.md
diff docs/rng_streams.md build/relwithdebinfo/rng_streams.md || {
  echo "rng registry drift: regenerate with" >&2
  echo "  sphinx_lint --rng-registry > docs/rng_streams.md" >&2
  exit 1
}
echo "rng registry: docs/rng_streams.md in sync"

root=$PWD
bin=$root/build/relwithdebinfo

# twice NAME COMMAND...: runs COMMAND twice, each time from its own fresh
# directory build/relwithdebinfo/NAME/{a,b} with stdout captured there,
# then byte-diffs everything the two runs wrote.  Any nondeterminism in
# what the command exercises shows up as a diff.
twice() {
  name=$1
  shift
  dir=$bin/$name
  rm -rf "$dir"
  for run in a b; do
    mkdir -p "$dir/$run"
    (cd "$dir/$run" && "$@" > stdout.txt)
  done
  diff -r "$dir/a" "$dir/b"
}

echo "== flight-recorder determinism gate =="
# Two same-seed failure-enabled runs must emit byte-identical trace and
# metrics files.
twice determinism "$bin/tools/record/sphinx_record" --seed 7 \
  --trace trace.jsonl --metrics metrics.json
echo "determinism gate: trace and metrics byte-identical"

echo "== lossy-network smoke gate =="
# Same run under an unreliable wire: 5% loss, 2% duplication and a 60 s
# client<->server partition.  sphinx_record itself asserts the delivery
# contract (every DAG finishes, no plan executes twice); the diff then
# proves the whole fault pipeline is deterministic.
twice lossy "$bin/tools/record/sphinx_record" --seed 7 \
  --loss 0.05 --duplicate 0.02 --partition-at 600 --partition-duration 60 \
  --trace trace.jsonl --metrics metrics.json
echo "lossy-network gate: delivery contract held, outputs byte-identical"

echo "== chaos smoke campaign =="
# A fixed-seed 8-run chaos campaign (scheduled outages + mid-run server
# crash/recovery, differential + invariant oracles) must pass and must
# print a byte-identical report across two invocations.  Checkpointing
# is the campaign default (checkpoint every 64 records), and each
# schedule includes a mid-checkpoint crash point -- a kill between
# checkpoint publication and journal truncation -- so the gate covers
# checkpoint + suffix recovery, not just full replay.
twice chaos "$bin/tools/chaos/sphinx_chaos" campaign --runs 8 --seed 7 \
  --repro chaos_repro.json
echo "chaos gate: campaign green and byte-identical"

echo "== failover smoke gate =="
# A 2-shard failover campaign: one scheduler is fail-stop killed while a
# client<->server partition covers the handoff, and a surviving peer
# adopts the dead shard from its checkpoint + journal suffix.  Every pair
# must pass the failover differential oracle (adoption byte-invisible to
# the scheduling layer), and two invocations must print byte-identical
# reports.
twice failover "$bin/tools/chaos/sphinx_chaos" failover --runs 3 --seed 7
echo "failover gate: adoption green and byte-identical"

echo "== straggler-defense smoke gate =="
# The speculative-replication A/B: each run executes one degraded-heavy
# outage schedule (long black-hole/degraded windows) twice with the same
# seed -- speculation OFF then ON.  The tool itself asserts the win
# condition (pooled p99 DAG completion improves, tracker timeouts do not
# increase) and exports the pooled numbers to BENCH_straggler.json; the
# diff proves the whole defense -- detector, race arbitration,
# loser-cancel -- is deterministic.
twice straggler "$bin/tools/chaos/sphinx_chaos" straggler --runs 6 \
  --seed 975 --json "$root/BENCH_straggler.json"
echo "straggler gate: p99/timeouts improved, report byte-identical"

echo "== figure gate =="
# The paper panels' stdout is a function of their fixed seeds alone, so
# it must match the committed goldens byte for byte.  A change that
# moves a figure on purpose regenerates bench/golden/ and says why.
# Beyond fig3/4/5, the goldens cover the other paper panels (fig2, fig6,
# fig7) and planner paths fig3/4/5 never take: feedback off (fig2),
# quotas (fig7), deadline/priority nudges (ablation_qos) and speculative
# replicas (ablation_speculation).
fig_dir=$bin/figures
rm -rf "$fig_dir"
mkdir -p "$fig_dir"
for fig in fig2_feedback fig3_algorithms_30 fig4_algorithms_60 \
    fig5_algorithms_120 fig6_site_distribution fig7_policy ablation_qos \
    ablation_speculation; do
  "$bin/bench/$fig" > "$fig_dir/$fig.txt"
  diff "bench/golden/$fig.txt" "$fig_dir/$fig.txt"
done
echo "figure gate: every panel matches bench/golden"

echo "== sweep-cost benchmark =="
# The sweep must cost O(changed work).  Two variants: BM_SweepCost seeds
# fully planned idle DAGs, BM_SweepCostParentBlocked two-job chains whose
# child waits on its planned parent.  In both, the 10,000-DAG case should
# stay within ~2x of the 100-DAG case.  Results land in BENCH_sweep.json.
"$bin/bench/micro_scheduler" \
  --benchmark_filter=BM_SweepCost \
  --benchmark_out=BENCH_sweep.json --benchmark_out_format=json

echo "== recovery benchmark =="
# Checkpoint + suffix recovery vs full-history replay at 1k/10k/100k
# journal records.  The checkpointed path should win by well over an
# order of magnitude at 100k and retain only the post-checkpoint journal
# suffix.  Results land in BENCH_recovery.json.
"$bin/bench/micro_recovery" \
  --benchmark_out=BENCH_recovery.json --benchmark_out_format=json

echo "== rpc overhead benchmark =="
# Dedup-cache lookup cost plus the reliable-stack A/B at 0% loss (the
# overhead every fault-free run pays).  Results land in BENCH_rpc.json.
"$bin/bench/micro_rpc" \
  --benchmark_out=BENCH_rpc.json --benchmark_out_format=json
# The XML-RPC wire itself: serialize + parse + decode of a 10-job DAG
# submission, a tracker report and an execute_plan payload.  Results land
# in BENCH_xmlrpc.json.
"$bin/bench/micro_substrates" \
  --benchmark_filter=BM_XmlRpc \
  --benchmark_out=BENCH_xmlrpc.json --benchmark_out_format=json

echo "== transfer-model benchmark =="
# The GridFTP fluid model under staggered arrivals (BM_GridFtpChurn, few
# flows in flight) and at the figure panels' concurrency
# (BM_GridFtpInFlight/{64,256,1024}: N flows held in flight until 4,096
# transfers have run).  Each start or finish costs one pass over the
# in-flight flows.  Results land in BENCH_gridftp.json.
"$bin/bench/micro_substrates" \
  --benchmark_filter=BM_GridFtp \
  --benchmark_out=BENCH_gridftp.json --benchmark_out_format=json

if [ "${1:-}" != "fast" ]; then
  echo "== build + test (asan-ubsan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan
  ctest --preset asan-ubsan
fi

echo "check.sh: all gates passed"
