#include "core/algorithms.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace sphinx::core {

std::unique_ptr<SchedulingAlgorithm> make_algorithm(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRoundRobin:
      return std::make_unique<RoundRobinAlgorithm>();
    case Algorithm::kNumCpus:
      return std::make_unique<NumCpusAlgorithm>();
    case Algorithm::kQueueLength:
      return std::make_unique<QueueLengthAlgorithm>();
    case Algorithm::kCompletionTime:
      return std::make_unique<CompletionTimeAlgorithm>();
  }
  throw AssertionError("unknown algorithm");
}

std::optional<SiteId> RoundRobinAlgorithm::select(
    const PlanningContext& context) {
  if (context.sites.empty()) return std::nullopt;
  const CandidateSite& pick =
      context.sites[cursor_++ % context.sites.size()];
  return pick.id;
}

std::string RoundRobinAlgorithm::save_state() const {
  return std::to_string(cursor_);
}

void RoundRobinAlgorithm::restore_state(const std::string& state) {
  parse_u64(state, cursor_);
}

std::optional<SiteId> NumCpusAlgorithm::select(
    const PlanningContext& context) {
  // rate_i = (planned_jobs_i + unfinished_jobs_i) / CPU_i   (eq. 1)
  // `outstanding` is exactly planned + unfinished in the server's books.
  std::optional<SiteId> best;
  double best_rate = 0.0;
  for (const CandidateSite& site : context.sites) {
    const double rate =
        static_cast<double>(site.outstanding) / static_cast<double>(site.cpus);
    if (!best.has_value() || rate < best_rate) {
      best = site.id;
      best_rate = rate;
    }
  }
  return best;
}

std::optional<SiteId> QueueLengthAlgorithm::select(
    const PlanningContext& context) {
  // rate_i = (queued_i + running_i + planned_i) / CPU_i   (eq. 2)
  // queued/running come from monitoring; planned from local accounting.
  std::optional<SiteId> best;
  double best_rate = 0.0;
  for (const CandidateSite& site : context.sites) {
    const double monitored_load =
        site.monitored
            ? static_cast<double>(site.mon_queued + site.mon_running)
            : 0.0;  // no data: looks idle -- exactly the stale-info hazard
    const double rate =
        (monitored_load + static_cast<double>(site.outstanding)) /
        static_cast<double>(site.cpus);
    if (!best.has_value() || rate < best_rate) {
      best = site.id;
      best_rate = rate;
    }
  }
  return best;
}

std::optional<SiteId> CompletionTimeAlgorithm::select(
    const PlanningContext& context) {
  if (context.sites.empty()) return std::nullopt;

  // Hybrid warm-up: "in the absence of the job completion rate
  // information, SPHINX schedules jobs on round robin technique until it
  // has that information for the remote sites" (paper section 4.1).
  // Each site lacking data receives exactly one probe job; a site that
  // has produced only cancellations does not count as awaiting
  // measurement -- probing it again would just buy another timeout.
  std::vector<const CandidateSite*> unprobed;
  for (const CandidateSite& site : context.sites) {
    if (site.samples == 0 && site.cancelled == 0 &&
        !probed_.contains(site.id.value())) {
      unprobed.push_back(&site);
    }
  }
  if (!unprobed.empty()) {
    const CandidateSite* pick =
        unprobed[warmup_cursor_++ % unprobed.size()];
    probed_.insert(pick->id.value());
    return pick->id;
  }

  // Eq. (3): min over available sites of the estimated completion time,
  // restricted to sites that actually have measurements.  The historical
  // EWMA alone would send every ready job of a burst to the same site;
  // the prediction module ("provides estimates for the completion time
  // of the requests on these resources", paper section 3.2) scales the
  // EWMA by the jobs this server has already placed there, so the
  // estimate reflects the load the plan itself creates.
  // Grid sites are shared: only a fraction of the catalog CPU count is
  // ever available to one VO, so the load penalty assumes a conservative
  // effective capacity (a site's own CPUs divided by this factor).
  constexpr double kLoadSensitivity = 4.0;
  std::optional<SiteId> best;
  double best_estimate = 0.0;
  for (const CandidateSite& site : context.sites) {
    if (site.samples == 0) continue;  // probe still in flight
    const double load = kLoadSensitivity *
                        static_cast<double>(site.outstanding) /
                        static_cast<double>(site.cpus);
    const double estimate = site.avg_completion * (1.0 + load);
    if (!best.has_value() || estimate < best_estimate) {
      best = site.id;
      best_estimate = estimate;
    }
  }
  if (!best.has_value()) {
    // Nothing measured yet (all probes in flight): fall back to round
    // robin over whatever is feasible.
    return context.sites[warmup_cursor_++ % context.sites.size()].id;
  }
  return best;
}

std::string CompletionTimeAlgorithm::save_state() const {
  // "<warmup_cursor>|<probed site ids, sorted, comma separated>" -- the
  // sort makes equal states serialize identically regardless of the
  // unordered_set's iteration order.
  std::vector<std::uint64_t> ids(probed_.begin(), probed_.end());
  std::sort(ids.begin(), ids.end());
  std::string out = std::to_string(warmup_cursor_) + "|";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

void CompletionTimeAlgorithm::restore_state(const std::string& state) {
  const std::size_t bar = state.find('|');
  if (bar == std::string::npos) return;
  std::uint64_t cursor = 0;
  if (!parse_u64(std::string_view(state).substr(0, bar), cursor)) return;
  std::unordered_set<std::uint64_t> probed;
  std::size_t pos = bar + 1;
  while (pos < state.size()) {
    std::size_t comma = state.find(',', pos);
    if (comma == std::string::npos) comma = state.size();
    std::uint64_t id = 0;
    if (!parse_u64(std::string_view(state).substr(pos, comma - pos), id)) {
      return;
    }
    probed.insert(id);
    pos = comma + 1;
  }
  warmup_cursor_ = cursor;
  probed_ = std::move(probed);
}

}  // namespace sphinx::core
