#include "obs/trace.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"

namespace sphinx::obs {
namespace {

void append_double(std::string& out, double value) {
  if (std::isinf(value)) {
    out += value > 0 ? "\"inf\"" : "\"-inf\"";
    return;
  }
  if (std::isnan(value)) {
    out += "\"nan\"";
    return;
  }
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  SPHINX_INVARIANT(ec == std::errc{}, "double formatting cannot fail");
  out.append(buffer, ptr);
}

[[nodiscard]] bool needs_escape(std::string_view text) noexcept {
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kSweepBegin: return "sweep_begin";
    case TraceKind::kSweepEnd: return "sweep_end";
    case TraceKind::kDagReceived: return "dag_received";
    case TraceKind::kDagFinished: return "dag_finished";
    case TraceKind::kJobTransition: return "job_transition";
    case TraceKind::kPlanSent: return "plan_sent";
    case TraceKind::kTrackerTimeout: return "tracker_timeout";
    case TraceKind::kTrackerExtension: return "tracker_extension";
    case TraceKind::kSiteOutage: return "site_outage";
    case TraceKind::kSiteRepair: return "site_repair";
    case TraceKind::kBusDelivery: return "bus_delivery";
    case TraceKind::kMonitorSample: return "monitor_sample";
    case TraceKind::kServerCrash: return "server_crash";
    case TraceKind::kServerRecovery: return "server_recovery";
    case TraceKind::kBusLoss: return "bus_loss";
    case TraceKind::kBusDuplicate: return "bus_duplicate";
    case TraceKind::kBusPartitionDrop: return "bus_partition_drop";
    case TraceKind::kBusReorder: return "bus_reorder";
    case TraceKind::kBusDrop: return "bus_drop";
    case TraceKind::kCheckpoint: return "checkpoint";
    case TraceKind::kLeaseGranted: return "lease_granted";
    case TraceKind::kLeaseExpired: return "lease_expired";
    case TraceKind::kLeaseFenced: return "lease_fenced";
    case TraceKind::kShardAdopted: return "shard_adopted";
    case TraceKind::kSpeculationLaunched: return "speculation_launched";
    case TraceKind::kSpeculationWon: return "speculation_won";
    case TraceKind::kSpeculationCancelled: return "speculation_cancelled";
  }
  return "unknown";
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

TraceSink::TraceSink() : names_(1) { index_.emplace(names_.front(), Name{}); }

Name TraceSink::name(std::string_view text) {
  const auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  SPHINX_INVARIANT(names_.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "trace name table is full");
  const Name handle{static_cast<std::uint32_t>(names_.size())};
  if (needs_escape(text)) {
    names_.push_back(json_escape(text));
    index_.emplace(raw_keys_.emplace_back(text), handle);
  } else {
    index_.emplace(names_.emplace_back(text), handle);
  }
  return handle;
}

void TraceSink::record(const TraceEvent& event) {
  SPHINX_PRECONDITION(event.at >= last_at_,
                      "trace events must arrive in sim-time order");
  const auto known = [this](Name name) {
    return static_cast<std::size_t>(name) < names_.size();
  };
  SPHINX_PRECONDITION(
      known(event.source) && known(event.subject) && known(event.detail),
      "trace event names must come from this sink");
  last_at_ = event.at;
  if (size_ % kBlockEvents == 0) blocks_.push_back(std::make_unique<Block>());
  (*blocks_.back())[size_ % kBlockEvents] = event;
  ++size_;
}

std::vector<TraceView> TraceSink::events() const {
  std::vector<TraceView> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = event(i);
    std::string subject = text(e.subject);
    if (e.numbered) subject += ":" + std::to_string(e.number);
    out.push_back(TraceView{e.at, e.kind, text(e.source), std::move(subject),
                            text(e.detail), e.value});
  }
  return out;
}

std::string TraceSink::to_jsonl() const {
  std::string out;
  append_jsonl(out, 0, size_);
  return out;
}

void TraceSink::append_jsonl(std::string& out, std::size_t first,
                             std::size_t last) const {
  SPHINX_PRECONDITION(first <= last && last <= size_,
                      "event range past the end of the log");
  for (std::size_t i = first; i < last; ++i) {
    const TraceEvent& e = event(i);
    out += "{\"t\":";
    append_double(out, e.at);
    out += ",\"kind\":\"";
    out += to_string(e.kind);
    out += "\",\"src\":\"";
    out += text(e.source);
    out += "\",\"subj\":\"";
    out += text(e.subject);
    if (e.numbered) {
      char digits[std::numeric_limits<std::uint64_t>::digits10 + 1];
      const auto [end, ec] =
          std::to_chars(digits, digits + sizeof digits, e.number);
      SPHINX_INVARIANT(ec == std::errc{}, "integer formatting cannot fail");
      out += ':';
      out.append(digits, end);
    }
    out += "\",\"detail\":\"";
    out += text(e.detail);
    out += "\",\"v\":";
    append_double(out, e.value);
    out += "}\n";
  }
}

}  // namespace sphinx::obs
