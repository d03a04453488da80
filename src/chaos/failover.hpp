#pragma once
/// \file failover.hpp
/// The multi-scheduler failover scenario: scheduler crash + client-server
/// partition during shard handoff, byte-diffed against a single-owner
/// baseline.
///
/// N SphinxServer instances run over checkpointed warehouses, one shard
/// each, DAGs routed round-robin (ctrl::shard_of).  Every owner heartbeats
/// its shard's lease to a LeaseCoordinator.  The chaotic run fail-stop
/// kills one scheduler *and* severs the client-server links around the
/// crash; the coordinator's monitor notices the silent lease, declares it
/// expired, and a surviving peer adopts the dead shard from its durable
/// state (db::DurableState: the last checkpoint image + journal suffix),
/// re-arming its rpc_outbox without resending.  A refused adoption keeps
/// that state for the monitor's next attempt.  The baseline runs the
/// same seed, partition and workload uninterrupted.
///
/// The differential oracle (check_failover_differential) then demands the
/// chaotic run's terminal journals and control-plane-stripped trace equal
/// the baseline's byte-for-byte: adoption must be invisible to the
/// scheduling layer.
///
/// Why this composes deterministically:
///  - shard sweep phases are staggered (ServerConfig::sweep_phase), so no
///    two shards ever sweep at one engine timestamp and recovery cannot
///    reorder equal-time events across shards;
///  - ctrl traffic draws latency from the dedicated "bus/ctrl" stream and
///    skips probabilistic faults, so its (by-design different) volume
///    never shifts a core RNG draw;
///  - the partition opens >= one max bus latency before the crash and
///    closes after adoption, so every pre-partition send delivers in both
///    runs and no send ever targets the dark endpoint (static_asserts
///    over the timing constants in failover.cpp hold this at compile
///    time).

#include <cstddef>
#include <cstdint>
#include <string>

#include "chaos/oracle.hpp"
#include "common/time.hpp"

namespace sphinx::chaos {

/// One failover experiment.  Its timing (crash, partition window, lease
/// and heartbeat periods) is fixed: constants in failover.cpp, tuned so
/// the dead window [crash, adoption] sits strictly inside the partition
/// window and ends before any restored retry timer or resumed sweep
/// fires.
struct FailoverConfig {
  std::uint64_t seed = 1;
  std::size_t shards = 2;
  std::size_t dag_count = 4;
};

/// Verdicts and artifacts of one chaotic/baseline pair.
struct FailoverRunResult {
  std::uint64_t seed = 0;
  OracleReport invariants;       ///< chaotic run judged on its own
  OracleReport differential;     ///< chaotic vs baseline, failover-stripped
  std::size_t adoptions = 0;     ///< chaotic run's successful adoptions
  std::size_t expirations = 0;   ///< leases the chaotic run declared dead
  /// Must stay 0.
  std::size_t baseline_adoptions = 0;  // sphinx-lint-allow(test-only): ok() in this pair reads it
  std::size_t journal_records = 0;     ///< chaotic run, summed over shards
  SimTime stopped_at = 0.0;      ///< chaotic run's stop time
  std::uint64_t digest = 0;      ///< fnv1a over chaotic journals + trace

  [[nodiscard]] bool ok() const noexcept {
    return invariants.ok && differential.ok && adoptions > 0 &&
           baseline_adoptions == 0;
  }
  [[nodiscard]] std::string violation() const;
};

/// Runs the chaotic and baseline simulations and applies the oracles.
[[nodiscard]] FailoverRunResult run_failover_pair(const FailoverConfig& config);

}  // namespace sphinx::chaos
