#pragma once
/// \file message_handler.hpp
/// Message-handling module: ingress for client messages (paper section
/// 3.2, "message handling module").
///
/// The RPC layer decodes the wire payloads; this module applies them to
/// the data warehouse.  An accepted DAG lands in the dags table in state
/// received, which enqueues it on the warehouse's dirty list for the DAG
/// reducer.  A tracker report moves the job's state machine and maintains
/// the feedback statistics; a completion hands the affected DAG back to
/// the server (via the callback) so it can check for DAG completion and
/// notify the client.

#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/codec.hpp"
#include "core/config.hpp"
#include "core/warehouse.hpp"
#include "workflow/dag.hpp"

namespace sphinx::core {

class MessageHandler {
 public:
  /// Invoked after a report completes a job, with the job's DAG, so the
  /// composite server can run the DAG-completion check and client
  /// notification (which need the outgoing RPC channel this module does
  /// not own).
  using JobCompletedHook = std::function<void(DagId)>;

  /// Invoked when a tracker report settles a speculation race, with the
  /// race as it was while racing and its final state.  The composite
  /// server turns this into traces, counts and -- for kPrimaryWon /
  /// kSpecWon -- the loser-cancel RPC to the client (which needs the
  /// outgoing channel this module does not own).
  using SpeculationResolvedHook =
      std::function<void(const SpeculationRecord&, SpeculationState)>;

  MessageHandler(DataWarehouse& warehouse, const ServerConfig& config,
                 JobCompletedHook on_job_completed);

  void set_on_speculation_resolved(SpeculationResolvedHook hook) {
    on_speculation_resolved_ = std::move(hook);
  }

  /// Stores an incoming DAG in the warehouse (state: received).  Returns
  /// false (and touches nothing) when the DAG id is already stored -- a
  /// re-delivered submission must not re-insert rows or re-dirty the DAG.
  [[nodiscard]] bool accept_dag(const workflow::Dag& dag,
                                const std::string& client, UserId user,
                                SimTime now, double priority,
                                SimTime deadline);

  /// Folds one tracker report into the warehouse: advances the job's
  /// state machine, maintains feedback statistics and quotas, and queues
  /// cancelled/held attempts for replanning.  Errors on unknown jobs;
  /// stale and duplicate reports are ignored.
  [[nodiscard]] StatusOrError apply_report(const TrackerReport& report);

 private:
  /// Settles an open race against a terminal report of one of its two
  /// attempts: resolves the speculation row, books the loser's censored
  /// duration into the site statistics, refunds the loser's quota, and
  /// fires the resolution hook.
  void settle_race(const JobRecord& job, const SpeculationRecord& race,
                   SpeculationState final_state, const TrackerReport& report);

  DataWarehouse& warehouse_;
  const ServerConfig& config_;
  JobCompletedHook on_job_completed_;
  SpeculationResolvedHook on_speculation_resolved_;
};

}  // namespace sphinx::core
