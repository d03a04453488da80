#pragma once
/// \file server.hpp
/// The SPHINX server: control process composing the scheduling modules.
///
/// The server hosts a Clarens endpoint with two methods -- a client
/// submits abstract DAGs via `sphinx.submit_dag` and streams tracker
/// reports via `sphinx.report` -- and runs a periodic *control process*
/// that moves DAGs and jobs through the scheduling automaton:
///
///   DAG:  received --reducer--> planning --all jobs done--> finished
///   job:  unplanned --planner--> planned --client reports--> submitted
///         --> running --> completed | cancelled/held --> unplanned again
///
/// The work itself is done by the paper's modules, each its own class:
/// MessageHandler (RPC ingress + report application), DagReducer, and
/// Planner (strategy + prediction + policy filter).  They communicate
/// through the DataWarehouse's dirty-DAG work queue: every transition
/// that creates work enqueues the affected DAG, and sweep() drains the
/// queue and walks each DAG through the stages -- O(changed work), not
/// O(total state).  The server itself only owns the wiring: the RPC
/// endpoint, the outgoing client channel, and the periodic sweep.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/log.hpp"
#include "core/codec.hpp"
#include "core/config.hpp"
#include "core/dag_reducer.hpp"
#include "core/message_handler.hpp"
#include "core/planner.hpp"
#include "core/state.hpp"
#include "core/straggler.hpp"
#include "core/warehouse.hpp"
#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "monitor/service.hpp"
#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "sim/engine.hpp"

namespace sphinx::core {

class SphinxServer {
 public:
  SphinxServer(rpc::MessageBus& bus, std::vector<CatalogSite> catalog,
               data::ReplicaLocationService& rls,
               data::TransferService& transfers,
               const monitor::MonitoringService* monitoring,
               ServerConfig config);

  /// Reconstructs a server from a crashed instance's durable state -- its
  /// journal plus, once checkpointing published one, its last checkpoint
  /// image (paper: "easily recoverable from internal component
  /// failures").  With an image only the journal suffix past it is
  /// replayed: O(state + suffix) instead of O(history).  In-flight client
  /// connections resume transparently because all state that matters
  /// lives in the warehouse; the recovered warehouse rebuilds the work
  /// queue from its tables, so the control process resumes exactly where
  /// the crashed one stopped.
  static Expected<std::unique_ptr<SphinxServer>> recover(
      rpc::MessageBus& bus, std::vector<CatalogSite> catalog,
      data::ReplicaLocationService& rls, data::TransferService& transfers,
      const monitor::MonitoringService* monitoring, ServerConfig config,
      const db::Journal& journal,
      const std::optional<CheckpointImage>& checkpoint = std::nullopt);

  ~SphinxServer();
  SphinxServer(const SphinxServer&) = delete;
  SphinxServer& operator=(const SphinxServer&) = delete;

  /// Starts the control process.
  void start();
  /// Starts the control process with its first sweep at absolute time
  /// `t` -- how a recovered server resumes the crashed instance's exact
  /// sweep phase (see next_sweep_at()).
  void start_at(SimTime t);
  /// Stops the control process (simulating an internal failure).
  void stop();
  /// Absolute time of the next control sweep (meaningful while started).
  [[nodiscard]] SimTime next_sweep_at() const noexcept;

  /// Arms a fail-stop trigger for chaos testing: the first time the
  /// journal's total appended records (next_seq -- immune to compaction)
  /// reaches `journal_records` at a check point, `hook` fires exactly
  /// once.  With `mid_checkpoint` false the check points are event
  /// boundaries (end of a sweep or RPC handler); with it true the hook
  /// instead fires inside the next eligible checkpoint, between image
  /// publication and journal truncation -- the window where a crash
  /// leaves a published image alongside an uncompacted journal.  The
  /// hook must NOT destroy the server synchronously -- it is called from
  /// inside server code; schedule the teardown on the engine at the
  /// current time instead.  Passing nullptr disarms.
  void arm_crash_hook(std::size_t journal_records, std::function<void()> hook,
                      bool mid_checkpoint = false);

  /// One control-process sweep (also callable directly from tests):
  /// drains the dirty-DAG queue and walks each drained DAG through the
  /// reducer and planner stages.
  void sweep();

  [[nodiscard]] DataWarehouse& warehouse() noexcept { return *warehouse_; }
  [[nodiscard]] const DataWarehouse& warehouse() const noexcept {
    return *warehouse_;
  }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return config_.endpoint;
  }

  /// Sets a usage quota (administrative interface; also reachable over
  /// RPC via `sphinx.set_quota`).
  void set_quota(UserId user, SiteId site, const std::string& resource,
                 double limit);

  /// Attaches a flight recorder: sweeps, DAG arrivals/finishes and plan
  /// emissions are traced under this server's endpoint, and the
  /// warehouse's job transitions are wired up too.  Observation only.
  void set_recorder(obs::Recorder* recorder);

 private:
  SphinxServer(rpc::MessageBus& bus, std::vector<CatalogSite> catalog,
               data::ReplicaLocationService& rls,
               data::TransferService& transfers,
               const monitor::MonitoringService* monitoring,
               ServerConfig config, std::unique_ptr<DataWarehouse> warehouse);

  void register_methods();
  /// RPC shims: parse the wire payload, then delegate to MessageHandler.
  Expected<rpc::XrValue> handle_submit_dag(const std::vector<rpc::XrValue>& params,
                                           const rpc::Proxy& proxy);
  Expected<rpc::XrValue> handle_report(const std::vector<rpc::XrValue>& params,
                                       const rpc::Proxy& proxy);
  Expected<rpc::XrValue> handle_set_quota(const std::vector<rpc::XrValue>& params,
                                          const rpc::Proxy& proxy);

  void maybe_finish_dag(DagId dag_id);
  void send_plan(const std::string& client, const ExecutionPlan& plan);
  /// Straggler-defense detector pass (speculate = true, at most once per
  /// speculation_check_period): classifies the in-flight jobs and plans
  /// a speculative replica for each flagged straggler, within the
  /// per-DAG and global fan-out budgets.
  void maybe_speculate();
  /// MessageHandler hook: a tracker report settled a race.  Emits traces
  /// and counters and, when one attempt won, the loser-cancel RPC.
  void on_speculation_resolved(const SpeculationRecord& race,
                               SpeculationState final_state);
  /// Fires the armed crash hook when the journal crossed the threshold.
  void maybe_crash();
  /// End-of-sweep checkpoint policy: publishes an image and compacts the
  /// journal when either ServerConfig trigger (records since last image,
  /// sim-time period) has elapsed.  Also hosts the mid-checkpoint kill
  /// point (see arm_crash_hook).
  void maybe_checkpoint();

  rpc::MessageBus& bus_;
  ServerConfig config_;
  std::unique_ptr<DataWarehouse> warehouse_;
  ServerStats stats_;
  // The paper's pipeline modules (section 3.2), in stage order.
  std::unique_ptr<MessageHandler> message_handler_;
  std::unique_ptr<DagReducer> reducer_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<StragglerDetector> detector_;
  std::unique_ptr<rpc::ClarensService> service_;
  std::unique_ptr<rpc::ClarensClient> out_;  ///< for server -> client calls
  std::unique_ptr<sim::PeriodicProcess> control_;
  std::size_t crash_at_records_ = 0;
  std::function<void()> crash_hook_;
  bool crash_mid_checkpoint_ = false;  ///< armed hook fires inside a checkpoint
  /// Checkpoint-policy cursors.  Initialized to sequence 0 / sim time 0
  /// and re-derived from a recovered warehouse's carried image, so a
  /// recovered server stays in checkpoint lockstep with an uncrashed
  /// baseline run (the differential oracle compares their traces).
  std::uint64_t last_checkpoint_seq_ = 0;  // sphinx-lint: derived(maybe_checkpoint, SphinxServer)
  SimTime last_checkpoint_at_ = 0.0;  // sphinx-lint: derived(maybe_checkpoint, SphinxServer)
  /// Detector-cadence cursor, persisted to scheduler_state on every pass
  /// so a recovered server's next detector pass lands exactly where the
  /// crashed instance's would have (the differential oracle compares
  /// speculation launch times byte-for-byte).
  SimTime last_speculation_check_ = 0.0;  // sphinx-lint: derived(maybe_speculate, SphinxServer)
  obs::Recorder* recorder_ = nullptr;
  Logger log_{"sphinx-server"};
};

}  // namespace sphinx::core
