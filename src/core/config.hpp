#pragma once
/// \file config.hpp
/// Shared configuration and counters for the server's pipeline modules.
///
/// The server is decomposed into the paper's scheduling modules (message
/// handler, DAG reducer, planner -- section 3.2); they all read the same
/// configuration and update the same experiment counters, so those types
/// live here rather than in server.hpp to keep the modules free of a
/// dependency on the composite server.

#include <string>
#include <vector>

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

/// Server configuration.
struct ServerConfig {
  std::string endpoint = "sphinx-server";
  Algorithm algorithm = Algorithm::kCompletionTime;
  bool use_feedback = true;   ///< apply the reliability filter
  bool use_policy = false;    ///< apply quota constraints (eq. 4)
  /// QoS: order planning by priority then earliest deadline first.  Off,
  /// requests are planned in pure submission order (priority ignored).
  bool use_qos_ordering = true;
  Duration sweep_period = 5.0;
  /// Offset of the first sweep after start().  Multi-server deployments
  /// stagger shard phases with this: two shards sweeping at the same
  /// instant would tie on engine timestamps, and recovery-rescheduled
  /// events break such ties differently than the original schedule did.
  Duration sweep_phase = 0.0;
  /// Planner step 4: when set, final outputs (outputs no other job in the
  /// DAG consumes) are copied to this site's persistent storage after the
  /// producing job completes.
  SiteId persistent_site;
  /// VOs authorized to talk to this server (GSI ACL).
  std::vector<std::string> allowed_vos = {"uscms", "atlas", "ivdgl"};
  /// Checkpoint policy: once the journal has grown by this many records
  /// since the last checkpoint, the end of the next sweep publishes a new
  /// image and compacts the journal.  0 (the default) disables
  /// checkpointing: the journal grows unboundedly and recovery replays
  /// the full history.
  std::size_t checkpoint_every_records = 0;

  // --- straggler defense (speculative replication) ----------------------
  /// Master switch.  Off, the detector never runs and the tracker's
  /// timeout-cancel-replan loop is the only slow-site defense.
  bool speculate = false;
  /// A job is a straggler when its elapsed time since planning exceeds
  /// speculation_multiplier x the q-th percentile of its (site, class)
  /// runtime-sample distribution.
  double speculation_percentile = 0.95;
  double speculation_multiplier = 2.0;
  /// Floor on the straggler threshold: never speculate before a job has
  /// been outstanding at least this long, whatever the percentile says
  /// (tiny-class histograms would otherwise replicate healthy jobs).
  Duration speculation_min_elapsed = minutes(5);
  /// Decline to classify when the (site, class) sample ring -- falling
  /// back to the class's all-site ring for cold sites -- holds fewer
  /// samples than this.
  std::size_t speculation_min_samples = 3;
  /// Detector cadence: scan the in-flight jobs at most once per this many
  /// sim-seconds (checked at sweep boundaries; the scan is O(outstanding)).
  Duration speculation_check_period = minutes(2);
  /// Monitor staleness guard: when the freshest monitoring snapshot for a
  /// job's site is older than this, the detector declines to classify the
  /// job (a dark site's jobs all look like stragglers; the tracker
  /// timeout owns that failure mode).  Counted as detector.stale_skips.
  Duration speculation_stale_after = minutes(45);
  /// Fan-out budgets: maximum concurrently racing speculations per DAG
  /// and per server.  Both contract-checked after every detector pass.
  std::size_t speculation_max_per_dag = 2;
  std::size_t speculation_max_global = 8;
};

/// Counters for experiments and diagnostics.
struct ServerStats {
  std::size_t dags_received = 0;
  std::size_t plans_sent = 0;
  std::size_t replans = 0;         ///< plans for attempt > 1
  std::size_t reports_processed = 0;
  std::size_t jobs_reduced = 0;    ///< jobs eliminated by the DAG reducer
  std::size_t policy_rejections = 0;  ///< site filtered by quota at least once
  /// Re-delivered submissions skipped by the ingress duplicate guard (a
  /// retransmitted submit_dag whose first delivery was already stored).
  std::size_t duplicate_dags = 0;
  // Straggler defense (speculate = true).
  std::size_t speculations = 0;           ///< races launched
  std::size_t speculations_won_primary = 0;  ///< original attempt finished first
  std::size_t speculations_won_spec = 0;     ///< replica finished first
  std::size_t speculation_cancels = 0;    ///< loser-cancel RPCs issued
  std::size_t detector_stale_skips = 0;   ///< classifications declined (stale)
};

}  // namespace sphinx::core
