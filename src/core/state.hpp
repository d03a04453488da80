#pragma once
/// \file state.hpp
/// The scheduling automaton's states.
///
/// "SPHINX adapts finite automaton for scheduling status management.  The
/// scheduler moves a DAG through predefined states to complete resource
/// allocation to the jobs in the DAG" (paper section 3.2).  Each state is
/// owned by exactly one server module; the control process wakes the
/// module responsible for whatever states it finds in the warehouse.

#include <string_view>

namespace sphinx::core {

/// Server-side DAG states.
enum class DagState {
  kReceived,  ///< stored by the message handler; awaiting reduction
  kReduced,   ///< DAG reducer removed already-materialized jobs
  kPlanning,  ///< planner is allocating resources job by job
  kFinished,  ///< every job completed
};

/// Server-side job states.
enum class JobState {
  kUnplanned,  ///< waiting for dependencies/inputs or a feasible site
  kPlanned,    ///< site chosen; plan sent to the client
  kSubmitted,  ///< client confirmed submission to the site
  kRunning,    ///< client reported execution start
  kCompleted,  ///< done (terminal)
  kCancelled,  ///< cancelled (tracker timeout or user); will be replanned
  kHeld,       ///< held at the site; will be replanned
};

[[nodiscard]] const char* to_string(DagState state) noexcept;
[[nodiscard]] const char* to_string(JobState state) noexcept;

/// Parses the to_string() form back; false on any other text.  The
/// warehouse tables hold states as this text (db::CellCodec).
[[nodiscard]] bool from_string(std::string_view text, DagState& out) noexcept;
[[nodiscard]] bool from_string(std::string_view text, JobState& out) noexcept;

/// Job states that count as "outstanding on a site" for the load-rate
/// formulas (planned_jobs + unfinished_jobs in eq. 1 and 2).
[[nodiscard]] constexpr bool is_outstanding(JobState s) noexcept {
  return s == JobState::kPlanned || s == JobState::kSubmitted ||
         s == JobState::kRunning;
}

/// Legality of the scheduling automaton's job transitions.  Self
/// transitions are legal (idempotent writes); kCompleted is terminal.
/// kUnplanned -> kCompleted covers DAG reduction (output already
/// materialized); kPlanned -> kUnplanned covers plan withdrawal.  The
/// warehouse enforces this on every state write (contracts.hpp).
[[nodiscard]] bool is_legal_transition(JobState from, JobState to) noexcept;

/// DAG states only move forward through the automaton (received <
/// reduced < planning < finished); skipping a stage is allowed (e.g. a
/// fully-materialized DAG goes straight to planning), regressing is not.
[[nodiscard]] constexpr bool is_legal_transition(DagState from,
                                                 DagState to) noexcept {
  return static_cast<int>(to) >= static_cast<int>(from);
}

/// Lifecycle of one speculative replication race (straggler defense).
/// A race starts kRacing with two live attempts -- the original
/// ("primary") and the replica ("spec") -- and resolves exactly once:
/// either side completing wins the job, either side dying mid-race
/// leaves the survivor carrying the job alone.
enum class SpeculationState {
  kRacing,       ///< both attempts live; first completion wins
  kPrimaryWon,   ///< original attempt completed; replica cancelled
  kSpecWon,      ///< replica completed; original attempt cancelled
  kPrimaryDead,  ///< original died mid-race; replica carries the job
  kSpecDead,     ///< replica died mid-race; original carries the job
};

[[nodiscard]] const char* to_string(SpeculationState state) noexcept;
[[nodiscard]] bool from_string(std::string_view text,
                               SpeculationState& out) noexcept;

/// Scheduling strategies evaluated in the paper (section 4.1).
enum class Algorithm {
  kRoundRobin,
  kNumCpus,         ///< eq. (1): (planned + unfinished) / CPUs
  kQueueLength,     ///< eq. (2): monitored (queued + running + planned) / CPUs
  kCompletionTime,  ///< eq. (3): min normalized avg completion time, hybrid
};

[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;

}  // namespace sphinx::core
