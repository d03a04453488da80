#pragma once
/// \file shard.hpp
/// Shard naming and assignment for multi-scheduler deployments.
///
/// The paper's section 4.3 starts "multiple instances of SPHINX servers
/// ... at the same time"; the control plane (ctrl/) partitions the DAG
/// workload across those instances by *shard*.  A shard is a stable
/// string identity ("shard:<i>") that outlives any particular owning
/// scheduler: leases (lease.hpp) bind a shard to its current owner, and
/// adoption rebinds the shard without renaming it, so every trace and
/// journal keyed by shard reads the same before and after a failover.

#include <cstddef>
#include <string>

namespace sphinx::ctrl {

/// Round-robin shard assignment for the k-th DAG of a campaign.  Pure
/// arithmetic on submission order, so the chaotic run and its baseline
/// route every DAG identically by construction.
[[nodiscard]] constexpr std::size_t shard_of(std::size_t k,
                                             std::size_t shards) noexcept {
  return shards == 0 ? 0 : k % shards;
}

/// Canonical shard identity: "shard:<index>".
[[nodiscard]] std::string shard_name(std::size_t index);

/// Canonical scheduler-instance name: "scheduler#<index>".
[[nodiscard]] std::string scheduler_name(std::size_t index);

}  // namespace sphinx::ctrl
