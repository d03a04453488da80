#include "chaos/schedule.hpp"

#include <algorithm>
#include <utility>

#include "chaos/json.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace sphinx::chaos {
namespace {

/// Minimum gap between one site's repair and its next outage.  A zero
/// gap would fire the next outage and the previous repair at the same
/// timestamp, where event seq-order (outages are scheduled at t=0)
/// recovers the site immediately after downing it.
constexpr Duration kRepairGap = 1.0;

grid::OutageMode draw_mode(Rng& rng, const ScheduleConfig& config) {
  const double total = config.weight_down + config.weight_black_hole +
                       config.weight_degraded;
  if (total <= 0.0) return grid::OutageMode::kDown;
  const double draw = rng.uniform(0.0, total);
  if (draw < config.weight_down) return grid::OutageMode::kDown;
  if (draw < config.weight_down + config.weight_black_hole) {
    return grid::OutageMode::kBlackHole;
  }
  return grid::OutageMode::kDegraded;
}

grid::ScheduledOutage draw_outage(Rng& rng, const ScheduleConfig& config,
                                  SimTime at) {
  grid::ScheduledOutage outage;
  outage.at = at;
  outage.duration =
      std::max(config.min_duration, rng.exponential(config.mean_duration));
  outage.mode = draw_mode(rng, config);
  return outage;
}

/// Sorts one site's list and pushes overlapping outages behind the
/// previous repair, keeping every drawn entry.
void normalize(std::vector<grid::ScheduledOutage>& list) {
  std::sort(list.begin(), list.end(),
            [](const grid::ScheduledOutage& a, const grid::ScheduledOutage& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.duration < b.duration;
            });
  for (std::size_t i = 1; i < list.size(); ++i) {
    const SimTime min_start =
        list[i - 1].at + list[i - 1].duration + kRepairGap;
    if (list[i].at < min_start) list[i].at = min_start;
  }
}

Unexpected<Error> bad_schedule(const std::string& what) {
  return Unexpected<Error>{Error{"bad_schedule", what}};
}

}  // namespace

std::size_t ChaosSchedule::outage_count() const {
  std::size_t n = 0;
  for (const auto& [site, list] : outages) n += list.size();
  return n;
}

ChaosSchedule synthesize(std::uint64_t seed, const ScheduleConfig& config,
                         const std::vector<std::string>& sites) {
  SPHINX_PRECONDITION(!sites.empty(), "schedule synthesis needs sites");
  ChaosSchedule schedule;
  const SeedTree seeds(seed);

  Rng rng = seeds.stream("chaos/outages");
  for (int i = 0; i < config.outages; ++i) {
    const std::string& site = sites[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1))];
    schedule.outages[site].push_back(
        draw_outage(rng, config, rng.uniform(0.0, config.span)));
  }

  Rng burst_rng = seeds.stream("chaos/bursts");
  const int burst_sites =
      std::min<int>(config.burst_sites, static_cast<int>(sites.size()));
  for (int b = 0; b < config.bursts; ++b) {
    // Correlated multi-site event: same instant (within the window), same
    // mode, distinct sites -- the "whole rack lost power" shape a renewal
    // process essentially never produces.
    const SimTime at = burst_rng.uniform(0.0, config.span);
    const grid::OutageMode mode = draw_mode(burst_rng, config);
    std::vector<std::size_t> indices(sites.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (int k = 0; k < burst_sites; ++k) {
      // Partial Fisher-Yates: pick the k-th distinct site.
      const std::size_t j = static_cast<std::size_t>(burst_rng.uniform_int(
          k, static_cast<std::int64_t>(indices.size()) - 1));
      std::swap(indices[static_cast<std::size_t>(k)], indices[j]);
      grid::ScheduledOutage outage = draw_outage(
          burst_rng, config, at + burst_rng.uniform(0.0, kBurstWindow));
      outage.mode = mode;
      schedule.outages[sites[indices[static_cast<std::size_t>(k)]]].push_back(
          outage);
    }
  }

  for (auto& [site, list] : schedule.outages) normalize(list);

  Rng crash_rng = seeds.stream("chaos/crashes");
  for (int c = 0; c < config.crashes; ++c) {
    schedule.crash_records.push_back(static_cast<std::size_t>(
        crash_rng.uniform_int(static_cast<std::int64_t>(config.min_crash_record),
                              static_cast<std::int64_t>(config.max_crash_record))));
  }
  std::sort(schedule.crash_records.begin(), schedule.crash_records.end());
  for (std::size_t i = 1; i < schedule.crash_records.size(); ++i) {
    // Strictly increasing, with room for the recovered server to make
    // progress before the next crash.
    if (schedule.crash_records[i] <= schedule.crash_records[i - 1]) {
      schedule.crash_records[i] = schedule.crash_records[i - 1] + 25;
    }
  }

  // Mid-checkpoint crash points ride the same stream *after* the regular
  // draws: changing their count never perturbs the regular points, so a
  // minimized repro's regular crashes stay where the original run put
  // them.
  for (int c = 0; c < config.mid_ckpt_crashes; ++c) {
    schedule.mid_ckpt_crashes.push_back(static_cast<std::size_t>(
        crash_rng.uniform_int(static_cast<std::int64_t>(config.min_crash_record),
                              static_cast<std::int64_t>(config.max_crash_record))));
  }
  std::sort(schedule.mid_ckpt_crashes.begin(),
            schedule.mid_ckpt_crashes.end());
  for (std::size_t i = 1; i < schedule.mid_ckpt_crashes.size(); ++i) {
    if (schedule.mid_ckpt_crashes[i] <= schedule.mid_ckpt_crashes[i - 1]) {
      schedule.mid_ckpt_crashes[i] = schedule.mid_ckpt_crashes[i - 1] + 25;
    }
  }

  Rng net_rng = seeds.stream("chaos/net");
  for (int i = 0; i < config.net_windows; ++i) {
    NetFaultWindow window;
    window.at = net_rng.uniform(0.0, config.span);
    window.duration =
        std::max(kNetMinDuration, net_rng.exponential(kNetMeanDuration));
    window.loss = config.net_loss;
    window.duplicate = config.net_duplicate;
    window.reorder = config.net_reorder;
    window.reorder_spike = kNetReorderSpike;
    schedule.net_windows.push_back(window);
  }
  for (int i = 0; i < config.net_partitions; ++i) {
    NetFaultWindow window;
    window.at = net_rng.uniform(0.0, config.span);
    window.duration = kNetPartitionDuration;
    window.partition = true;
    schedule.net_windows.push_back(window);
  }
  std::sort(schedule.net_windows.begin(), schedule.net_windows.end(),
            [](const NetFaultWindow& a, const NetFaultWindow& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.duration < b.duration;
            });
  return schedule;
}

std::string to_json(const ChaosSchedule& schedule) {
  std::string out = "{\"crash_records\":[";
  for (std::size_t i = 0; i < schedule.crash_records.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(schedule.crash_records[i]);
  }
  out += "],\"mid_ckpt_crashes\":[";
  for (std::size_t i = 0; i < schedule.mid_ckpt_crashes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(schedule.mid_ckpt_crashes[i]);
  }
  out += "],\"net_windows\":[";
  for (std::size_t i = 0; i < schedule.net_windows.size(); ++i) {
    const NetFaultWindow& w = schedule.net_windows[i];
    if (i > 0) out += ',';
    out += "{\"at\":" + obs::format_double(w.at) +
           ",\"duration\":" + obs::format_double(w.duration) +
           ",\"loss\":" + obs::format_double(w.loss) +
           ",\"duplicate\":" + obs::format_double(w.duplicate) +
           ",\"reorder\":" + obs::format_double(w.reorder) +
           ",\"spike\":" + obs::format_double(w.reorder_spike) +
           ",\"partition\":" + (w.partition ? "true" : "false") + "}";
  }
  out += "],\"outages\":{";
  bool first_site = true;
  for (const auto& [site, list] : schedule.outages) {
    if (!first_site) out += ',';
    first_site = false;
    out += '"' + obs::json_escape(site) + "\":[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"at\":" + obs::format_double(list[i].at) +
             ",\"duration\":" + obs::format_double(list[i].duration) +
             ",\"mode\":\"" + grid::to_string(list[i].mode) + "\"}";
    }
    out += ']';
  }
  out += "}}";
  return out;
}

Expected<ChaosSchedule> schedule_from_json(const std::string& text) {
  auto doc = parse_json(text);
  if (!doc) return Unexpected<Error>{doc.error()};
  return schedule_from_value(*doc);
}

Expected<ChaosSchedule> schedule_from_value(const JsonValue& doc) {
  if (!doc.is_object()) return bad_schedule("schedule must be an object");

  ChaosSchedule schedule;
  const auto crash_points = [&doc](const char* key,
                                   std::vector<std::size_t>& out) {
    const JsonValue* list = doc.find(key);
    if (list == nullptr) return true;
    if (!list->is_array()) return false;
    for (const JsonValue& entry : list->array) {
      const auto records = whole_number<std::size_t>(entry);
      if (!records) return false;
      out.push_back(*records);
    }
    return true;
  };
  if (!crash_points("crash_records", schedule.crash_records)) {
    return bad_schedule("crash_records: whole non-negative numbers");
  }
  if (!crash_points("mid_ckpt_crashes", schedule.mid_ckpt_crashes)) {
    return bad_schedule("mid_ckpt_crashes: whole non-negative numbers");
  }
  if (const JsonValue* windows = doc.find("net_windows")) {
    if (!windows->is_array()) return bad_schedule("net_windows: array");
    for (const JsonValue& entry : windows->array) {
      const JsonValue* at = entry.find("at");
      const JsonValue* duration = entry.find("duration");
      if (at == nullptr || duration == nullptr) {
        return bad_schedule("net window: {at, duration, ...}");
      }
      NetFaultWindow window;
      // Each optional member, when present, must be a number in range.
      bool in_range = true;
      const auto number = [&](const JsonValue* v, double fallback,
                              double max = std::numeric_limits<double>::max()) {
        if (v == nullptr) return fallback;
        const auto value = bounded_number(*v, max);
        in_range = in_range && value.has_value();
        return value.value_or(fallback);
      };
      window.at = number(at, 0.0);
      window.duration = number(duration, 0.0);
      window.loss = number(entry.find("loss"), 0.0, 1.0);
      window.duplicate = number(entry.find("duplicate"), 0.0, 1.0);
      window.reorder = number(entry.find("reorder"), 0.0, 1.0);
      window.reorder_spike = number(entry.find("spike"), 5.0);
      if (!in_range) {
        return bad_schedule(
            "net window: non-negative times, probabilities in [0, 1]");
      }
      if (const JsonValue* partition = entry.find("partition")) {
        window.partition = partition->type == JsonValue::Type::kBool &&
                           partition->boolean;
      }
      schedule.net_windows.push_back(window);
    }
  }
  if (const JsonValue* outages = doc.find("outages")) {
    if (!outages->is_object()) return bad_schedule("outages: object");
    for (const auto& [site, list] : outages->members) {
      if (!list.is_array()) return bad_schedule("outage list: array");
      for (const JsonValue& entry : list.array) {
        const JsonValue* at = entry.find("at");
        const JsonValue* duration = entry.find("duration");
        const JsonValue* mode = entry.find("mode");
        if (at == nullptr || duration == nullptr || mode == nullptr ||
            !mode->is_string()) {
          return bad_schedule("outage entry: {at, duration, mode}");
        }
        const auto start = bounded_number(*at);
        const auto length = bounded_number(*duration);
        if (!start || !length) {
          return bad_schedule("outage entry: non-negative at and duration");
        }
        grid::ScheduledOutage outage;
        outage.at = *start;
        outage.duration = *length;
        if (mode->text == "down") {
          outage.mode = grid::OutageMode::kDown;
        } else if (mode->text == "black_hole") {
          outage.mode = grid::OutageMode::kBlackHole;
        } else if (mode->text == "degraded") {
          outage.mode = grid::OutageMode::kDegraded;
        } else {
          return bad_schedule("unknown outage mode: " + mode->text);
        }
        schedule.outages[site].push_back(outage);
      }
    }
  }
  return schedule;
}

}  // namespace sphinx::chaos
