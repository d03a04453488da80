#pragma once
/// \file replication.hpp
/// Replica selection: choosing the best transfer source for an input.
///
/// The SPHINX planner decides "the optimal transfer source for the input
/// files" (paper section 3.2, Planner step 3).  Selection minimizes the
/// contention-free transfer estimate to the execution site; a replica
/// already at the execution site always wins with cost zero.

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "data/gridftp.hpp"
#include "data/lfn.hpp"

namespace sphinx::data {

/// Picks the replica with the cheapest stage-in estimate to
/// `destination` (the first of equals).  Returns nullopt when `replicas`
/// is empty.
[[nodiscard]] std::optional<Replica> select_replica(
    const std::vector<Replica>& replicas, SiteId destination,
    const TransferService& transfers);

}  // namespace sphinx::data
