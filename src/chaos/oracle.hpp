#pragma once
/// \file oracle.hpp
/// Per-run correctness oracles for chaos campaigns.
///
/// Two families:
///  - invariant oracles judge one run on its own: every submitted DAG
///    reached a terminal state (no lost jobs, nothing stuck), the
///    warehouse's check_invariants sweep passed, and the recorder trace
///    is monotone in sim time;
///  - the differential oracle compares a crashed-and-recovered run
///    against the same seed run uninterrupted: terminal warehouse state
///    (journal serialization) and the recorder trace -- minus the chaos
///    harness's own crash/recovery marker events -- must match
///    byte-for-byte.

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/time.hpp"

namespace sphinx::chaos {

/// Everything an oracle needs from one finished run.
struct RunArtifacts {
  std::string journal_text;  ///< warehouse journal at end of run
  std::string trace_jsonl;   ///< full recorder trace
  /// Total journal records ever appended (next_seq): the unit crash
  /// thresholds use, immune to checkpoint compaction.
  std::size_t journal_records = 0;
  /// Records retained at end of run: the suffix after the last
  /// compaction.
  std::size_t journal_live_records = 0;
  /// Sequence number of each checkpoint image the run published, in
  /// order (from its trace's checkpoint events).
  std::vector<std::uint64_t> checkpoint_seqs;
  std::size_t dags_total = 0;
  std::size_t dags_finished = 0;
  /// Speculative replicas the server launched (straggler defense).
  std::size_t speculations = 0;
  SimTime stopped_at = 0.0;
  /// First warehouse/engine invariant violation caught during the run
  /// ("" when clean).
  std::string invariant_violation;
};

/// One oracle verdict; `violation` explains the first failure.
struct OracleReport {
  bool ok = true;
  std::string violation;
};

/// Removes the chaos harness's own trace lines (server_crash /
/// server_recovery events) so a recovered run's trace is comparable to
/// the uninterrupted baseline's.
[[nodiscard]] std::string strip_chaos_events(const std::string& trace_jsonl);  // sphinx-lint-allow(test-only): tests diff traces through the oracle's filter

/// Failover-aware stripping: chaos marker events, lease lifecycle events
/// (lease_granted / lease_expired / lease_fenced / shard_adopted), and
/// every line whose src or subj lives under the "ctrl/" prefix.  The
/// control plane's traffic differs between a failover run and its
/// baseline *by design* (the dead owner stops beating, the survivor
/// adopts), so the differential oracle judges only the scheduling-layer
/// residue, which must still match byte-for-byte.
[[nodiscard]] std::string strip_failover_events(const std::string& trace_jsonl);  // sphinx-lint-allow(test-only): tests diff traces through the oracle's filter

/// Invariant oracles over one run (completeness, stored sweep verdict,
/// monotone trace timestamps).
[[nodiscard]] OracleReport check_run_invariants(const RunArtifacts& run);

/// Differential oracle: recovered run vs uninterrupted baseline.
[[nodiscard]] OracleReport check_differential(const RunArtifacts& chaotic,
                                              const RunArtifacts& baseline);

/// Differential oracle for failover runs: identical to check_differential
/// except the trace comparison uses strip_failover_events (the journal
/// comparison stays exact -- adoption must not perturb a single
/// scheduling-state byte).
[[nodiscard]] OracleReport check_failover_differential(
    const RunArtifacts& chaotic, const RunArtifacts& baseline);

/// FNV-1a 64 over a byte string (campaign digests), by its chaos name.
using sphinx::fnv1a;

}  // namespace sphinx::chaos
