#pragma once
/// \file renew.hpp
/// The wire form of `ctrl.renew`, the control plane's one call: a
/// HeartbeatAgent's renewal [shard, owner, epoch], answered with the
/// coordinator's verdict, a RenewOutcome written as "renewed", "fenced"
/// or "unknown".  Like the scheduling methods of core/codec.hpp, it goes
/// straight between its types and the bytes, and its encoder and decoder
/// are separate functions.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "ctrl/lease.hpp"
#include "rpc/xmlrpc.hpp"

namespace sphinx::ctrl {

/// The params of `ctrl.renew`.
struct Renewal {
  std::string shard;
  std::string owner;
  std::uint64_t epoch = 0;
};

/// `ctrl.renew` call bytes.
[[nodiscard]] std::string encode_renew(std::string_view shard,
                                       std::string_view owner,
                                       std::uint64_t epoch);
/// Its params decoder: other than [string, string, int] is refused
/// (`bad_request`).
[[nodiscard]] Expected<Renewal> decode_renew(rpc::XrReader& in);

/// Its reply.
void write_renew_outcome(rpc::XrWriter& out, RenewOutcome outcome);
/// A string reply naming an outcome; any other value is refused (`codec`).
[[nodiscard]] Expected<RenewOutcome> read_renew_outcome(rpc::XrReader& in);

}  // namespace sphinx::ctrl
