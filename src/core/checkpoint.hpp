#pragma once
/// \file checkpoint.hpp
/// The warehouse checkpoint image: snapshot + replay-start sequence.
///
/// A checkpoint makes recovery O(state) instead of O(history): the image
/// freezes the database snapshot (tables, rows, schemas with their index
/// declarations, allocation cursors).  `seq` marks the journal sequence
/// the snapshot reflects: replaying entries >= seq on top of the restored
/// image reproduces the crashed warehouse's tables exactly, and the
/// derived work state is a function of those tables (see
/// DataWarehouse::rebuild_work_state).

#include <cstdint>
#include <string>

#include "common/time.hpp"

namespace sphinx::core {

struct CheckpointImage {
  /// Journal sequence number the snapshot reflects; recovery replays the
  /// suffix with sequence >= seq on top of the restored snapshot.
  std::uint64_t seq = 0;
  /// Sim time of publication -- re-seeds the period-based checkpoint
  /// policy on the recovered instance so baseline and recovered runs
  /// keep checkpointing in lockstep.
  SimTime at = 0.0;
  /// db::Database::snapshot() image.
  std::string database;
};

}  // namespace sphinx::core
