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
# discipline, derived-state, observe-only, test-only) over everything we
# compile.
# src/ctrl (the lease/failover control plane) is named explicitly: it is
# already inside src/, but the control plane must never regress on the
# determinism rules, so the gate stays loud about covering it.
./build/relwithdebinfo/tools/sphinx_lint/sphinx_lint \
  --root . src src/ctrl tests bench examples tools

echo "== test-only waiver gate =="
# Each sphinx-lint-allow(test-only) waiver in src/ keeps a public name
# that only tests (or the name's own header/source pair) reach.  The list
# may only shrink: a change that removes waivers lowers this bound, and
# one that adds a waiver fails here.
max_test_only_waivers=44
waivers=$(grep -rho 'sphinx-lint-allow(test-only)' src | wc -l)
if [ "$waivers" -gt "$max_test_only_waivers" ]; then
  echo "test-only waivers in src/: $waivers, bound $max_test_only_waivers" >&2
  exit 1
fi
echo "test-only waivers: $waivers (bound $max_test_only_waivers)"

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
# print a byte-identical report across two invocations.  The server
# checkpoints by its own rule (an image once its journal holds as many
# records as the last image holds rows), and each schedule includes a
# mid-checkpoint crash point -- a kill between checkpoint publication
# and journal truncation -- so the gate covers checkpoint + suffix
# recovery, and recovery with no image before the first checkpoint.
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
# moves a figure or report on purpose regenerates its bench/golden/ file
# and says why.
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
# The same rule pins every other output a change may claim unchanged:
# the four examples' stdout, the seed-7 flight recorder's stdout and
# metrics.json (plain and lossy, from the determinism gates above), and
# the chaos campaign, failover and straggler reports.  The straggler
# report is diffed without its "summary ->" line, which names the
# absolute path of BENCH_straggler.json.
for example in quickstart physics_production fault_tolerance policy_quotas; do
  (cd "$fig_dir" && "$bin/examples/example_$example" > "example_$example.txt")
  diff "bench/golden/example_$example.txt" "$fig_dir/example_$example.txt"
done
diff bench/golden/record_stdout.txt "$bin/determinism/a/stdout.txt"
diff bench/golden/record_metrics.json "$bin/determinism/a/metrics.json"
diff bench/golden/record_lossy_stdout.txt "$bin/lossy/a/stdout.txt"
diff bench/golden/record_lossy_metrics.json "$bin/lossy/a/metrics.json"
# The seed-7 trace.jsonl, plain and lossy, is pinned by its sha256: the
# determinism gates above only compare two runs of the same build, so
# this is what holds the trace's bytes from one commit to the next.
(cd "$bin" && sha256sum --check --strict "$root/bench/golden/record_trace.sha256")
diff bench/golden/chaos_campaign.txt "$bin/chaos/a/stdout.txt"
diff bench/golden/chaos_failover.txt "$bin/failover/a/stdout.txt"
grep -v 'summary ->' "$bin/straggler/a/stdout.txt" \
  > "$fig_dir/chaos_straggler.txt"
diff bench/golden/chaos_straggler.txt "$fig_dir/chaos_straggler.txt"
echo "figure gate: every panel and report matches bench/golden"

echo "== sweep-cost benchmark =="
# The sweep must cost O(changed work).  Two variants: BM_SweepCost seeds
# fully planned idle DAGs, BM_SweepCostParentBlocked two-job chains whose
# child waits on its planned parent.  In both, the 10,000-DAG case should
# stay within ~2x of the 100-DAG case.  Results land in BENCH_sweep.json.
"$bin/bench/micro_scheduler" \
  --benchmark_filter=BM_SweepCost \
  --benchmark_out=BENCH_sweep.json --benchmark_out_format=json

echo "== recovery benchmark =="
# Checkpoint + suffix recovery vs full-history replay (recovery with no
# image: every record replayed onto the empty declared tables) at
# 1k/10k/100k journal records.  The checkpointed path follows the
# server's rule, should win by well over an order of magnitude at 100k,
# and retains only the post-checkpoint journal suffix.  Results land in
# BENCH_recovery.json.
"$bin/bench/micro_recovery" \
  --benchmark_out=BENCH_recovery.json --benchmark_out_format=json

echo "== engine benchmark =="
# The event engine: schedule and fire, cancellation, self-rescheduling
# chains and periodic processes, plus two cases shaped like the
# simulator's traffic: BM_DeliverySizedCapture (each callback captures an
# envelope's ~256 bytes of strings under a label past the 15-character
# inline buffer) and BM_TimerCancelledBeforeFiring (a timeout that its
# job's completion cancels).  Results land in BENCH_engine.json.
"$bin/bench/micro_engine" \
  --benchmark_out=BENCH_engine.json --benchmark_out_format=json

echo "== db benchmark =="
# The table store's hot operations on a typed four-column job row
# (id, indexed text state, site, runtime): inserts, an indexed lookup, a
# state set that moves its row between index buckets, a set of an
# unindexed column of 4,096 rows sharing one state bucket (no index is
# touched), journal appends (BM_JournalAppendPayload: the warehouse's
# OutboxEntry row with a 1.8 KB XML cell, as rpc_outbox journals every
# plan), warehouse journal replay and the journal text round trip.
# Results land in BENCH_db.json.
"$bin/bench/micro_db" \
  --benchmark_out=BENCH_db.json --benchmark_out_format=json

echo "== flight-recorder benchmark =="
# Recording the two most frequent trace event shapes into a fresh
# recorder (BM_TraceRecord/bus_delivery: endpoint source and subject
# looked up per event, empty detail, a latency; /job_transition: subject
# job:<id>, detail "queued->planned"), with the live heap each event
# adds (heap_bytes_per_event); rendering a 10,000-event log as JSON
# Lines (BM_TraceJsonl); and one source-qualified counter increment
# (BM_RecorderCount).  Results land in BENCH_obs.json.
"$bin/bench/micro_obs" \
  --benchmark_out=BENCH_obs.json --benchmark_out_format=json

echo "== rpc overhead benchmark =="
# The reliable-stack A/B at 0% loss (BM_RpcRoundTrip: the overhead
# every fault-free run pays).  Results land in BENCH_rpc.json.
"$bin/bench/micro_rpc" \
  --benchmark_out=BENCH_rpc.json --benchmark_out_format=json
# The XML-RPC wire itself, per message on the path each side ships (a
# 10-job DAG submission, a tracker report, an execute_plan payload): the
# typed encoder alone (BM_XmlRpc*Encode), the typed decoder alone
# (*Decode) and struct -> bytes -> struct (*RoundTrip).  Results land in
# BENCH_xmlrpc.json.
"$bin/bench/micro_substrates" \
  --benchmark_filter=BM_XmlRpc \
  --benchmark_out=BENCH_xmlrpc.json --benchmark_out_format=json

echo "== transfer-model benchmark =="
# The GridFTP fluid model under staggered arrivals (BM_GridFtpChurn, few
# flows in flight) and at the figure panels' concurrency
# (BM_GridFtpInFlight/{64,256,1024}: N flows held in flight until 4,096
# transfers have run, over 15 link pairs; BM_GridFtpInFlightSpread: the
# same over all 210 ordered pairs of the 15 sites).  A start or finish
# costs one pass over the active link pairs plus one subtraction per
# flow in flight.  Results land in BENCH_gridftp.json.
"$bin/bench/micro_substrates" \
  --benchmark_filter=BM_GridFtp \
  --benchmark_out=BENCH_gridftp.json --benchmark_out_format=json

echo "== submission-path benchmark =="
# Staged jobs through one Condor-G gateway to a 16-CPU site, 32 in
# flight, each completion submitting the next (BM_SubmissionChurn/{64,
# 1024}): ns_per_job, and retained_bytes_per_job, the live heap
# (mallinfo2) a drained run keeps per finished job.  Sites and the
# gateway retire finished work, so it should read about 0 bytes.
# Results land in BENCH_grid.json.
"$bin/bench/micro_substrates" \
  --benchmark_filter=BM_SubmissionChurn \
  --benchmark_out=BENCH_grid.json --benchmark_out_format=json

if [ "${1:-}" != "fast" ]; then
  echo "== build + test (asan-ubsan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan
  ctest --preset asan-ubsan
fi

echo "check.sh: all gates passed"
