#include "ctrl/renew.hpp"

#include <optional>

namespace sphinx::ctrl {

using rpc::XrReader;
using rpc::XrType;
using rpc::XrWriter;

namespace {

/// Room for a renewal's bytes: about 200 plus the two names.
constexpr std::size_t kRenewBytes = 256;

const char* to_string(RenewOutcome outcome) noexcept {
  switch (outcome) {
    case RenewOutcome::kRenewed: return "renewed";
    case RenewOutcome::kFenced: return "fenced";
    case RenewOutcome::kUnknownShard: break;
  }
  return "unknown";
}

}  // namespace

std::string encode_renew(std::string_view shard, std::string_view owner,
                         std::uint64_t epoch) {
  XrWriter out(kRenewBytes + shard.size() + owner.size());
  out.begin_call("ctrl.renew");
  out.begin_param();
  out.string_value(shard);
  out.end_param();
  out.begin_param();
  out.string_value(owner);
  out.end_param();
  out.begin_param();
  out.int_value(static_cast<std::int64_t>(epoch));
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<Renewal> decode_renew(XrReader& in) {
  // Each param is kept only when it has the type its position asks for.
  int params = 0;
  std::optional<std::string> shard;
  std::optional<std::string> owner;
  std::optional<std::int64_t> epoch;
  if (!in.each_param([&](int i) {
        ++params;
        XrType type;
        if (!in.open(1, type)) return false;
        if (type == XrType::kString && i < 2) {
          (i == 0 ? shard : owner).emplace(in.text());
        }
        if (type == XrType::kInt && i == 2) epoch = in.integer();
        return in.skip_open(type, 1);
      })) {
    return in.error();
  }
  if (params != 3 || !shard || !owner || !epoch) {
    return make_error("bad_request", "ctrl.renew(shard, owner, epoch)");
  }
  return Renewal{std::move(*shard), std::move(*owner),
                 static_cast<std::uint64_t>(*epoch)};
}

void write_renew_outcome(XrWriter& out, RenewOutcome outcome) {
  out.string_value(to_string(outcome));
}

Expected<RenewOutcome> read_renew_outcome(XrReader& in) {
  XrType type;
  if (!in.open(1, type) || !in.skip_open(type, 1)) return in.error();
  if (type != XrType::kString) {
    return make_error("codec", "reply is not a string");
  }
  for (const RenewOutcome outcome :
       {RenewOutcome::kRenewed, RenewOutcome::kFenced,
        RenewOutcome::kUnknownShard}) {
    if (in.text() == to_string(outcome)) return outcome;
  }
  return make_error("codec",
                    "unknown renew outcome: " + std::string(in.text()));
}

}  // namespace sphinx::ctrl
