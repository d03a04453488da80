#pragma once
/// \file lfn.hpp
/// Logical and physical file names.
///
/// Grid data management separates a *logical* file name (what a workflow
/// references) from its *physical* replicas (site + size).  The replica
/// location service maps one to the other.

#include <string>

#include "common/ids.hpp"

namespace sphinx::data {

/// A logical file name, e.g. "lfn://cms/reco/run42/evts.root".
using Lfn = std::string;

/// One physical replica of a logical file, which the caller names.
struct Replica {
  SiteId site;
  double size_bytes = 0.0;

  friend bool operator==(const Replica&, const Replica&) = default;
};

}  // namespace sphinx::data
