#pragma once
/// \file scenario.hpp
/// The Grid3-like testbed every experiment runs on.
///
/// Section 4.2 of the paper uses Grid3: "more than 25 sites across the US
/// and Korea that collectively provide more than 2000 CPUs", shared by
/// "7 different scientific applications".  This scenario builds the
/// simulated analogue: 15 heterogeneous sites (named after the sites in
/// the paper's Figure 6), with background load from other VOs, per-site
/// VO priorities, WAN links, a monitoring service, and the failure
/// behaviours (downtime, black holes, degradation) that the
/// fault-tolerance results depend on.

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "grid/grid.hpp"
#include "monitor/service.hpp"
#include "obs/recorder.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"
#include "submit/condor_g.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {

/// The testbed's message-bus latency: every delivery takes kBusLatency
/// plus a uniform draw in [0, kBusJitter) sim-seconds.
inline constexpr Duration kBusLatency = 0.1;
inline constexpr Duration kBusJitter = 0.1;

/// The submission schedule of every experiment and chaos run: a tenant's
/// k-th DAG goes in at kFirstSubmitAt + k * kSubmitSpacing.
inline constexpr SimTime kFirstSubmitAt = 10.0;
inline constexpr Duration kSubmitSpacing = 15.0;

/// Scenario-wide knobs.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  bool site_failures = true;     ///< intermittent downtime + black holes
  bool background_load = true;   ///< other VOs' jobs
  monitor::MonitorConfig monitor;  ///< poll period 5 min by default
  /// Pre-planned outages per site name (chaos harness).  A named site
  /// runs exactly this outage list instead of the seeded renewal process;
  /// unnamed sites keep whatever `site_failures` gives them.  Applied
  /// even when `site_failures` is false, so a chaos run can own all the
  /// grid's misbehaviour.
  std::map<std::string, std::vector<grid::ScheduledOutage>> outage_schedules;
  /// Network fault plan (loss, duplication, reorder spikes, partitions).
  /// Draws come from the dedicated "bus/faults" stream, so an empty plan
  /// leaves the run byte-identical to a build without the fault model.
  rpc::NetworkFaultConfig network_faults;
};

/// A crashed server's complete durable state, captured at the instant of
/// the crash: everything a surviving peer needs to adopt the shard later
/// (journal + optional checkpoint image + config + the crashed control
/// process's pending sweep time).
struct DurableServerState {
  db::Journal journal;
  std::optional<core::CheckpointImage> checkpoint;
  core::ServerConfig config;
  SimTime resume_at = 0.0;  // sphinx-lint-allow(test-only): crash and recovery in this pair hand it over
};

/// One SPHINX deployment (server + client + gateway) sharing the grid
/// with the other tenants -- the paper's "multiple instances of SPHINX
/// servers ... started at the same time so that they can compete for the
/// same set of grid resources".
struct Tenant {
  std::string label;
  std::unique_ptr<submit::CondorG> gateway;
  std::unique_ptr<core::SphinxServer> server;
  std::unique_ptr<core::SphinxClient> client;
  /// Set between crash_server() and recover_server(): the dead shard's
  /// durable state, waiting for an adopter.
  std::optional<DurableServerState> durable;  // sphinx-lint-allow(test-only): crash and recovery in this pair hand it over
};

/// Per-tenant scheduling options.
struct TenantOptions {
  core::Algorithm algorithm = core::Algorithm::kCompletionTime;
  bool use_feedback = true;
  bool use_policy = false;
  bool use_qos_ordering = true;  ///< priority + earliest-deadline planning
  Duration job_timeout = minutes(20);
  /// First-sweep offset (ServerConfig::sweep_phase).  Multi-shard
  /// deployments stagger phases so no two shards sweep at the same
  /// engine timestamp.
  Duration sweep_phase = 0.0;
  /// Straggler defense (ServerConfig::speculate): race speculative
  /// replicas against detected stragglers, first completion wins.
  bool speculate = false;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  /// The static site catalog (id, name, CPUs) as SPHINX sees it.
  [[nodiscard]] std::vector<core::CatalogSite> catalog() const;

  /// The testbed's site names in catalog order, without building a
  /// scenario (schedule synthesis needs only the names).
  [[nodiscard]] static std::vector<std::string> site_names();

  /// Creates one tenant.  Tenants must be created before start().
  Tenant& add_tenant(const std::string& label, const TenantOptions& options);

  /// Builds a workload generator whose randomness depends only on
  /// `stream_label`, so two tenants given the same label receive
  /// structurally identical workloads (fair group-wise comparison).
  [[nodiscard]] workflow::WorkloadGenerator make_generator(
      const std::string& stream_label,
      const workflow::WorkloadConfig& workload);

  /// Starts grid dynamics, monitoring and every tenant's control process.
  void start();

  /// Fail-stop crash + journal recovery of one tenant's server, in place,
  /// within the current engine event: the old instance is destroyed (its
  /// endpoint disappears from the bus), a new one is rebuilt from the
  /// journal, re-registered under the same endpoint, and restarted at the
  /// crashed control process's exact pending sweep time.  Call from an
  /// engine event (e.g. a chaos crash hook), never re-entrantly from
  /// inside the server being killed.
  [[nodiscard]] StatusOrError crash_and_recover_server(
      std::size_t tenant_index);

  /// The crash half alone: captures the server's durable state into
  /// Tenant::durable and destroys the instance.  The endpoint stays dark
  /// until recover_server() -- failover's real dead window, where the
  /// control plane must notice the silence and arrange adoption.
  void crash_server(std::size_t tenant_index);

  /// The recovery half: rebuilds the tenant's server from the durable
  /// state crash_server() captured (checkpoint image + journal suffix
  /// when an image exists), re-registers the endpoint, re-arms the
  /// rpc_outbox without resending, and resumes the crashed instance's
  /// exact sweep phase.  Runs in the caller's engine event -- for a
  /// failover this is the adopting peer's monitor sweep.
  [[nodiscard]] StatusOrError recover_server(std::size_t tenant_index);

  /// Runs until `horizon`, stopping early once every tenant's client has
  /// finished all of its DAGs.  Returns the stop time.
  SimTime run(SimTime horizon);

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] grid::Grid& grid() noexcept { return grid_; }
  [[nodiscard]] data::ReplicaLocationService& rls() noexcept { return rls_; }
  [[nodiscard]] data::TransferService& transfers() noexcept { return transfers_; }
  [[nodiscard]] monitor::MonitoringService& monitoring() noexcept {
    return monitoring_;
  }
  [[nodiscard]] rpc::MessageBus& bus() noexcept { return bus_; }
  [[nodiscard]] std::deque<Tenant>& tenants() noexcept { return tenants_; }
  [[nodiscard]] workflow::IdSpace& ids() noexcept { return ids_; }
  [[nodiscard]] const SeedTree& seeds() const noexcept { return seeds_; }
  /// The scenario-wide flight recorder: every layer (bus, grid failures,
  /// monitoring, each tenant's server and client) records into it.
  [[nodiscard]] obs::Recorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const obs::Recorder& recorder() const noexcept {
    return recorder_;
  }

 private:
  void build_sites();

  ScenarioConfig config_;
  sim::Engine engine_;
  obs::Recorder recorder_{engine_};
  SeedTree seeds_;
  rpc::MessageBus bus_;
  grid::Grid grid_;
  data::TransferService transfers_;
  data::ReplicaLocationService rls_;
  monitor::MonitoringService monitoring_;
  workflow::IdSpace ids_;
  // deque: references returned by add_tenant stay valid as tenants are
  // appended (a vector would reallocate and dangle them).
  std::deque<Tenant> tenants_;
  IdGenerator<UserId> users_;
  bool started_ = false;
};

}  // namespace sphinx::exp
