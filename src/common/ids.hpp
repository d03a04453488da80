#pragma once
/// \file ids.hpp
/// Strongly-typed integer identifiers used throughout the system.
///
/// Every entity in the middleware (jobs, DAGs, sites, files, users,
/// messages, ...) is referred to by an opaque 64-bit id.  A shared
/// template with a tag type prevents accidentally passing a JobId where a
/// SiteId is expected -- the kind of mixup that is easy to make in a
/// scheduler that joins many tables keyed by integers.

#include <cstdint>
#include <functional>
#include <ostream>

namespace sphinx {

/// A strongly typed id.  \tparam Tag is an empty struct that makes each
/// instantiation a distinct type.
template <typename Tag>
class StrongId {
 public:
  using underlying_type = std::uint64_t;

  /// An invalid/unset id.  Value 0 is reserved for "none".
  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(underlying_type v) noexcept : value_(v) {}

  [[nodiscard]] constexpr underlying_type value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != 0; }

  friend constexpr bool operator==(StrongId, StrongId) noexcept = default;
  friend constexpr auto operator<=>(StrongId, StrongId) noexcept = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.value_;
  }

 private:
  underlying_type value_ = 0;
};

/// Monotonic generator for a given id type.  Not thread-safe by design:
/// each simulation owns its own generators and simulations are
/// single-threaded (see DESIGN.md section 5).
template <typename Id>
class IdGenerator {
 public:
  /// Returns a fresh id, never the invalid id.
  [[nodiscard]] Id next() noexcept { return Id(++last_); }

 private:
  typename Id::underlying_type last_ = 0;
};

struct JobIdTag {};
struct DagIdTag {};
struct SiteIdTag {};
struct FileIdTag {};
struct UserIdTag {};
struct TransferIdTag {};
struct SubmissionIdTag {};
struct VoIdTag {};

using JobId = StrongId<JobIdTag>;
using DagId = StrongId<DagIdTag>;
using SiteId = StrongId<SiteIdTag>;
using FileId = StrongId<FileIdTag>;
using UserId = StrongId<UserIdTag>;
using TransferId = StrongId<TransferIdTag>;
using SubmissionId = StrongId<SubmissionIdTag>;
using VoId = StrongId<VoIdTag>;

}  // namespace sphinx

namespace std {
template <typename Tag>
struct hash<sphinx::StrongId<Tag>> {
  size_t operator()(sphinx::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
