#pragma once
/// \file config.hpp
/// Shared configuration for the server's pipeline modules.
///
/// The server is decomposed into the paper's scheduling modules (message
/// handler, DAG reducer, planner -- section 3.2); they all read the same
/// configuration, so it lives here rather than in server.hpp to keep the
/// modules free of a dependency on the composite server.  Their counts
/// live in the flight recorder (obs::Recorder), which outlives any one
/// server instance.  No setting chooses when the server checkpoints: the
/// warehouse's own rule does (DataWarehouse::checkpoint_due).

#include <cstddef>
#include <string>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/state.hpp"

namespace sphinx::core {

/// Static catalog entry the server knows about each site (the Grid3
/// catalog: always available, unlike monitoring data).
struct CatalogSite {
  SiteId id;
  std::string name;
  int cpus = 1;
};

/// Period of the server's control process: one sweep of the dirty-DAG
/// work queue (reduce, plan, send) every this many sim-seconds.
inline constexpr Duration kSweepPeriod = 5.0;

/// Straggler-detector cadence: scan the in-flight jobs at most once per
/// this many sim-seconds (checked at sweep boundaries; the scan is
/// O(outstanding)).
inline constexpr Duration kSpeculationCheckPeriod = minutes(2);

/// Fan-out budgets: maximum concurrently racing speculations per DAG and
/// per server, both contract-checked after every detector pass.  The
/// client checks the global budget too, as the cross-layer contract: a
/// client tracking more racing attempts than this means the server's
/// budget enforcement is broken.
inline constexpr std::size_t kSpeculationMaxPerDag = 2;
inline constexpr std::size_t kSpeculationMaxGlobal = 8;

/// Server configuration.
struct ServerConfig {
  std::string endpoint = "sphinx-server";
  Algorithm algorithm = Algorithm::kCompletionTime;
  bool use_feedback = true;   ///< apply the reliability filter
  bool use_policy = false;    ///< apply quota constraints (eq. 4)
  /// QoS: order planning by priority then earliest deadline first.  Off,
  /// requests are planned in pure submission order (priority ignored).
  bool use_qos_ordering = true;
  /// Offset of the first sweep after start(); sweeps then repeat every
  /// kSweepPeriod.  Multi-server deployments stagger shard phases with
  /// this: two shards sweeping at the same instant would tie on engine
  /// timestamps, and recovery-rescheduled events break such ties
  /// differently than the original schedule did.
  Duration sweep_phase = 0.0;
  /// Planner step 4: when set, final outputs (outputs no other job in the
  /// DAG consumes) are copied to this site's persistent storage after the
  /// producing job completes.
  SiteId persistent_site;

  /// Straggler defense (speculative replication).  Off, the detector
  /// never runs and the tracker's timeout-cancel-replan loop is the only
  /// slow-site defense.  The detector's thresholds are constants in
  /// straggler.cpp; its cadence and fan-out budgets are the constants
  /// above.
  bool speculate = false;
};

}  // namespace sphinx::core
