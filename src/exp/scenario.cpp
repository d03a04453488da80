#include "exp/scenario.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace sphinx::exp {
namespace {

constexpr double kMB = 1e6;

/// Static description of one testbed site.
struct SiteRow {
  const char* name;
  int cpus;
  double speed;
  double bg_utilization;   ///< fraction of CPUs background load targets
  double uscms_priority;   ///< local batch priority of our VO (bg VO = 0)
  double link_mbps;        ///< symmetric up/downlink (scales with site
                           ///< size, so staging cost per job is roughly
                           ///< uniform and turnaround differences stay
                           ///< intrinsic: speed, load, VO priority)
  int bg_backlog;          ///< background jobs queued (beyond busy CPUs)
                           ///< at t=0 -- busy sites do not start idle
  // Failure behaviour:
  bool flaky_down;         ///< intermittent full outages
  bool flaky_black_hole;   ///< intermittent black-hole episodes
  bool permanent_black_hole;
  bool flaky_degraded;
};

/// The 15-site testbed (names from the paper's Figure 6).  Heterogeneity
/// is deliberate: CPU counts span 8..96, speeds 0.5..1.5, several sites
/// relegate the uscms VO, and four sites misbehave in distinct ways.
// Sized to echo Grid3's "more than 2000 CPUs" at 15 sites (~1500 here).
constexpr SiteRow kSites[] = {
    // name        cpus speed bg-util prio  link  backlog down  bhole perm  degr
    {"acdc",       224, 1.2,  0.90, 2.0,  52.0,  60, false, false, false, false},
    {"atlas",      336, 1.0,  0.97, -1.0,  78.0,  60, false, false, false, false},
    {"citgrid3",   84, 0.5,  0.40, 1.0,  15.6,   0, true,  false, false, false},
    {"cluster28",  56, 0.4,  0.30, 1.0,  13.0,   0, false, false, false, false},
    {"grid3",      168, 0.85,  0.75, 1.0,  39.0,  20, false, false, false, false},
    {"ll3",        42, 0.6,  0.25, 1.0,  13.0,   0, false, false, true,  false},
    {"mcfarm",     70, 0.7,  0.50, 1.0,  18.2,   0, false, true,  false, false},
    {"nest",       56, 0.8,  0.90, -1.0,  13.0,  15, false, false, false, false},
    {"spider",     140, 1.4,  0.35, 1.0,  39.0,   0, false, false, false, false},
    {"spike",      112, 1.4,  0.30, 1.0,  32.5,   0, false, false, false, false},
    {"tier2-1",    224, 0.6,  0.75, 1.0,  52.0,  20, false, false, false, false},
    {"tier2b",     168, 1.0,  0.90, -1.0,  39.0,  40, false, false, false, false},
    {"ufgrid1",    28, 0.3,  0.30, 1.0,  13.0,   0, true,  false, false, false},
    {"ufloridapg", 280, 1.5,  0.40, 1.0,  65.0,   0, false, false, false, false},
    {"uscmstb",    84, 0.9,  0.50, 1.0,  15.6,   0, false, false, false, true},
};

constexpr double kBackgroundJobMeanDuration = 20.0 * 60.0;  // 20 min

}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : config_(config),
      seeds_(config.seed),
      bus_(engine_, seeds_.stream("bus"), kBusLatency, kBusJitter),
      grid_(engine_, seeds_),
      transfers_(engine_),
      monitoring_(engine_, grid_, config.monitor,
                  seeds_.stream("monitoring")) {
  // Flight-recorder wiring.  Recording is observation only -- no events,
  // no RNG draws -- so a fixed-seed run's results are bit-identical with
  // or without the instrumentation.
  bus_.set_recorder(&recorder_);
  if (!config_.network_faults.empty()) {
    bus_.set_fault_model(config_.network_faults, seeds_.stream("bus/faults"));
  }
  // Control-plane traffic (heartbeats, lease renewals -- every endpoint
  // under "ctrl/") rides a dedicated latency stream and bypasses the
  // probabilistic fault draws.  Unconditional: with no ctrl endpoints the
  // stream is simply never drawn from, and runs stay byte-identical.
  bus_.set_control_stream("ctrl/", seeds_.stream("bus/ctrl"));
  grid_.set_recorder(&recorder_);
  monitoring_.set_recorder(&recorder_);
  build_sites();
}

void Scenario::build_sites() {
  for (const SiteRow& row : kSites) {
    grid::SiteSpec spec;
    spec.site.name = row.name;
    spec.site.cpus = row.cpus;
    spec.site.cpu_speed = row.speed;
    spec.site.runtime_noise = 0.15;
    spec.site.vo_priority["uscms"] = row.uscms_priority;
    spec.site.vo_priority[grid::kBackgroundVo] = 0.0;

    if (config_.background_load) {
      spec.background.enabled = true;
      spec.background.mean_duration = kBackgroundJobMeanDuration;
      // Arrival rate lambda = utilization * cpus / mean_duration.
      const double lambda =
          row.bg_utilization * row.cpus / kBackgroundJobMeanDuration;
      spec.background.mean_interarrival = 1.0 / lambda;
      // Start in steady state: an empty grid would make every site look
      // equally good for the first simulated hour.  The backlog puts a
      // visible queue on busy sites from the outset.
      spec.background.prefill_jobs =
          static_cast<int>(std::min(row.bg_utilization, 1.0) * row.cpus) +
          row.bg_backlog;
      // Grid3 load was anything but stationary; alternating heavy/light
      // phases are what make stale monitoring data actively misleading.
      spec.background.burstiness = 0.6;
    }
    if (config_.site_failures) {
      spec.failure.permanent_black_hole = row.permanent_black_hole;
      if (row.flaky_down || row.flaky_black_hole || row.flaky_degraded) {
        spec.failure.enabled = true;
        spec.failure.mean_uptime = hours(2);
        spec.failure.mean_downtime = minutes(40);
        spec.failure.weight_down = row.flaky_down ? 1.0 : 0.0;
        spec.failure.weight_black_hole = row.flaky_black_hole ? 1.0 : 0.0;
        spec.failure.weight_degraded = row.flaky_degraded ? 1.0 : 0.0;
      }
    }
    if (const auto it = config_.outage_schedules.find(row.name);
        it != config_.outage_schedules.end()) {
      // Schedule-driven injection overrides the renewal process for this
      // site (FailureModel prefers a non-empty schedule).
      spec.failure.schedule = it->second;
    }
    const SiteId id = grid_.add_site(spec);
    transfers_.set_link(id, {row.link_mbps * kMB, row.link_mbps * kMB});
  }
}

std::vector<std::string> Scenario::site_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kSites));
  for (const SiteRow& row : kSites) names.emplace_back(row.name);
  return names;
}

std::vector<core::CatalogSite> Scenario::catalog() const {
  std::vector<core::CatalogSite> out;
  for (std::size_t i = 0; i < std::size(kSites); ++i) {
    out.push_back(core::CatalogSite{SiteId(i + 1), kSites[i].name,
                                    kSites[i].cpus});
  }
  return out;
}

workflow::WorkloadGenerator Scenario::make_generator(
    const std::string& stream_label, const workflow::WorkloadConfig& workload) {
  // External inputs may live on any healthy-at-t0 site; including the
  // permanent black hole is fine (its storage still serves transfers).
  // A replica stream, not stream(): the runner requests the same label
  // for every tenant on purpose, so the workloads are structurally
  // identical and only the ids differ.
  return workflow::WorkloadGenerator(
      workload, seeds_.stream_replica("workload/" + stream_label), ids_, rls_,
      grid_.site_ids());
}

Tenant& Scenario::add_tenant(const std::string& label,
                             const TenantOptions& options) {
  SPHINX_ASSERT(!started_, "add tenants before start()");
  Tenant tenant;
  tenant.label = label;
  const UserId user = users_.next();

  tenant.gateway = std::make_unique<submit::CondorG>(
      grid_, transfers_, rls_, "condor-g/" + label);

  core::ServerConfig server_config;
  server_config.endpoint = "sphinx-server/" + label;
  server_config.algorithm = options.algorithm;
  server_config.use_feedback = options.use_feedback;
  server_config.use_policy = options.use_policy;
  server_config.use_qos_ordering = options.use_qos_ordering;
  server_config.sweep_phase = options.sweep_phase;
  server_config.speculate = options.speculate;
  tenant.server = std::make_unique<core::SphinxServer>(
      bus_, catalog(), rls_, transfers_, &monitoring_, server_config);
  tenant.server->set_recorder(&recorder_);

  core::ClientConfig client_config;
  client_config.endpoint = "sphinx-client/" + label;
  client_config.server = server_config.endpoint;
  client_config.user = user;
  client_config.vo = "uscms";
  client_config.job_timeout = options.job_timeout;
  const rpc::Proxy proxy(
      rpc::Identity{"/DC=org/DC=griphyn/CN=user-" + label},
      "uscms", {"/uscms/production"}, engine_.now(), hours(24 * 365));
  tenant.client = std::make_unique<core::SphinxClient>(bus_, *tenant.gateway,
                                                       client_config, proxy);
  tenant.client->set_recorder(&recorder_);

  tenants_.push_back(std::move(tenant));
  return tenants_.back();
}

void Scenario::start() {
  if (started_) return;
  started_ = true;
  grid_.start();
  monitoring_.start();
  for (Tenant& tenant : tenants_) tenant.server->start();
}

StatusOrError Scenario::crash_and_recover_server(std::size_t tenant_index) {
  crash_server(tenant_index);
  return recover_server(tenant_index);
}

void Scenario::crash_server(std::size_t tenant_index) {
  SPHINX_PRECONDITION(tenant_index < tenants_.size(),
                      "crash target must name an existing tenant");
  Tenant& tenant = tenants_[tenant_index];
  SPHINX_PRECONDITION(tenant.server != nullptr,
                      "crash target has no live server");

  // Capture everything the recovered instance needs *before* destroying
  // the crashed one: the journal (its whole durable state), the config,
  // and the exact pending sweep time -- restarting at the literal time the
  // crashed control process was going to fire avoids recomputing the
  // phase in floating point and keeps the event order identical to an
  // uninterrupted run.
  DurableServerState durable;
  durable.journal = tenant.server->warehouse().journal();
  // Once a sweep has checkpointed, the journal alone is not enough: it is
  // a compacted suffix whose sequence base only the last published image
  // anchors.  Capture the image alongside it -- together they are the
  // crashed instance's complete durable state.
  durable.checkpoint = tenant.server->warehouse().checkpoint_image();
  durable.config = tenant.server->config();
  durable.resume_at = tenant.server->next_sweep_at();

  recorder_.event(obs::TraceKind::kServerCrash,
                  recorder_.name(durable.config.endpoint), {},
                  recorder_.name("fail-stop"),
                  static_cast<double>(durable.journal.size()));
  recorder_.count("chaos", "server.crashes");

  // Fail-stop: the destructor unregisters the endpoint, so until
  // recover_server() re-registers it the server simply does not exist on
  // the bus.  The classic chaos path recovers within the same engine
  // event; a failover leaves the endpoint dark until a surviving peer's
  // monitor sweep adopts the shard.
  tenant.server.reset();
  tenant.durable = std::move(durable);
}

StatusOrError Scenario::recover_server(std::size_t tenant_index) {
  SPHINX_PRECONDITION(tenant_index < tenants_.size(),
                      "recovery target must name an existing tenant");
  Tenant& tenant = tenants_[tenant_index];
  SPHINX_PRECONDITION(tenant.durable.has_value(),
                      "recovery target has no captured durable state");
  SPHINX_PRECONDITION(tenant.server == nullptr,
                      "recovery target still has a live server");
  const DurableServerState& durable = *tenant.durable;

  auto recovered = core::SphinxServer::recover(
      bus_, catalog(), rls_, transfers_, &monitoring_, durable.config,
      durable.journal, durable.checkpoint);
  if (!recovered) return Unexpected<Error>{recovered.error()};
  tenant.server = std::move(*recovered);
  tenant.server->set_recorder(&recorder_);
  // A resume time in the dead past (the pending sweep elapsed while the
  // endpoint was dark) is clamped to now by start_at; sweep content only
  // depends on warehouse state, so the late sweep does what the missed
  // one would have.
  tenant.server->start_at(durable.resume_at);

  recorder_.event(
      obs::TraceKind::kServerRecovery, recorder_.name(durable.config.endpoint),
      {},
      recorder_.name(durable.checkpoint.has_value() ? "checkpoint+suffix"
                                                    : "journal-replay"),
      static_cast<double>(tenant.server->warehouse().journal().size()));
  recorder_.count("chaos", "server.recoveries");
  tenant.durable.reset();
  return {};
}

SimTime Scenario::run(SimTime horizon) {
  // Stop as soon as every tenant has finished (checked once a sim-minute).
  sim::PeriodicProcess watchdog(
      engine_, "run:watchdog", 60.0, [this] {
        for (const Tenant& tenant : tenants_) {
          if (!tenant.client->all_dags_finished()) return;
        }
        engine_.stop();
      },
      60.0);
  watchdog.start();
  engine_.run_until(horizon);
  return engine_.now();
}

}  // namespace sphinx::exp
