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
/// endpoint, the outgoing client channel, and the periodic sweep, whose
/// end publishes a checkpoint image whenever the database's rule says
/// one is due (DataWarehouse::checkpoint_due), so every server's journal
/// holds only the records since its last image.  The warehouse's
/// durable() state is all a crashed server leaves, and recover() takes
/// it.

#include <functional>
#include <memory>
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

  /// Reconstructs a server from a crashed instance's durable state --
  /// its warehouse's durable(): the last checkpoint image, if a sweep
  /// published one, and the journal (paper: "easily recoverable from
  /// internal component failures").  Only the journal suffix past the
  /// image is replayed: O(state + suffix) instead of O(history).  The
  /// state is left as it was.  In-flight client connections resume
  /// transparently because all state that matters lives in the
  /// warehouse; the recovered warehouse rebuilds the work queue from its
  /// tables, so the control process resumes exactly where the crashed
  /// one stopped.
  static Expected<std::unique_ptr<SphinxServer>> recover(
      rpc::MessageBus& bus, std::vector<CatalogSite> catalog,
      data::ReplicaLocationService& rls, data::TransferService& transfers,
      const monitor::MonitoringService* monitoring, ServerConfig config,
      const db::DurableState& state);

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
  /// server holds one trigger of each kind, and arming a kind replaces
  /// its earlier trigger.  Whichever fires first disarms both: the
  /// instance is about to die, and the harness re-arms what is still
  /// pending on the recovered one.  The hook must NOT destroy the server
  /// synchronously -- it is called from inside server code; schedule the
  /// teardown on the engine at the current time instead.  Passing
  /// nullptr disarms that kind.
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
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return config_.endpoint;
  }

  /// Sets a usage quota (administrative interface).
  void set_quota(UserId user, SiteId site, const std::string& resource,
                 double limit);

  /// Attaches a flight recorder: sweeps, DAG arrivals/finishes and plan
  /// emissions are traced under this server's endpoint, and the
  /// warehouse's job transitions are wired up too.  The recorder is
  /// where the server's counts live ("server.plans\@<endpoint>", ...):
  /// it outlives this instance, so a crash-recovered server's counts
  /// continue its predecessor's.  Observation only.
  void set_recorder(obs::Recorder* recorder);

 private:
  SphinxServer(rpc::MessageBus& bus, std::vector<CatalogSite> catalog,
               data::ReplicaLocationService& rls,
               data::TransferService& transfers,
               const monitor::MonitoringService* monitoring,
               ServerConfig config, std::unique_ptr<DataWarehouse> warehouse);

  void register_methods();
  /// RPC shims: take the decoded params, then delegate to MessageHandler.
  Expected<DagId> handle_submit_dag(const DagSubmission& submission,
                                    const rpc::Proxy& proxy);
  Expected<bool> handle_report(const TrackerReport& report);

  void maybe_finish_dag(DagId dag_id);
  void send_plan(const std::string& client, const ExecutionPlan& plan);
  /// Straggler-defense detector pass (speculate = true, at most once per
  /// kSpeculationCheckPeriod): classifies the in-flight jobs and plans
  /// a speculative replica for each flagged straggler, within the
  /// per-DAG and global fan-out budgets.  Returns the replicas launched.
  std::size_t maybe_speculate();
  /// MessageHandler hook: a tracker report settled a race.  Emits traces
  /// and counts and, when one attempt won, the loser-cancel RPC.
  void on_speculation_resolved(const SpeculationRecord& race,
                               SpeculationState final_state);
  /// One armed fail-stop trigger (see arm_crash_hook).
  struct CrashTrigger {
    std::size_t at_records = 0;
    std::function<void()> hook;
  };
  /// Fires `trigger` if it is armed and the journal reached its
  /// threshold, disarming both triggers first.  Returns whether it fired.
  bool fire_crash(CrashTrigger& trigger);
  /// Fires the event-boundary trigger when the journal crossed its
  /// threshold.
  void maybe_crash();
  /// End-of-sweep checkpoint: publishes an image and compacts the
  /// journal once DataWarehouse::checkpoint_due() holds -- the journal
  /// holds as many records as the last image holds rows.  Also hosts the
  /// mid-checkpoint kill point (see arm_crash_hook).
  void maybe_checkpoint();

  rpc::MessageBus& bus_;
  ServerConfig config_;
  std::unique_ptr<DataWarehouse> warehouse_;
  // The paper's pipeline modules (section 3.2), in stage order.
  std::unique_ptr<MessageHandler> message_handler_;
  std::unique_ptr<DagReducer> reducer_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<StragglerDetector> detector_;
  std::unique_ptr<rpc::ClarensService> service_;
  std::unique_ptr<rpc::ClarensClient> out_;  ///< for server -> client calls
  std::unique_ptr<sim::PeriodicProcess> control_;
  CrashTrigger crash_;                 ///< checked at event boundaries
  CrashTrigger crash_mid_checkpoint_;  ///< checked inside a checkpoint
  /// Detector-cadence cursor, persisted to scheduler_state on every pass
  /// so a recovered server's next detector pass lands exactly where the
  /// crashed instance's would have (the differential oracle compares
  /// speculation launch times byte-for-byte).
  SimTime last_speculation_check_ = 0.0;  // sphinx-lint: derived(maybe_speculate, SphinxServer)
  obs::Recorder* recorder_ = nullptr;
  /// This server's endpoint, "job" and "dag" in the recorder's trace.
  obs::Name source_name_{};
  obs::Name job_name_{};
  obs::Name dag_name_{};
  Logger log_{"sphinx-server"};
};

}  // namespace sphinx::core
