#pragma once
/// \file storage.hpp
/// Per-site storage elements with capacity and per-user accounting.
///
/// Output files land on the execution site's storage element.  A full
/// element refuses the file, and the gateway then skips the output's RLS
/// registration.  The per-user usage is accounting only: nothing reads
/// used_by(), and the policy engine's quota filter (eq. 4) reads the
/// warehouse `quotas` table instead.

#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "data/lfn.hpp"

namespace sphinx::data {

/// One site's storage element.
class StorageElement {
 public:
  StorageElement(SiteId site, double capacity_bytes);

  [[nodiscard]] SiteId site() const noexcept { return site_; }
  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] double used() const noexcept { return used_; }
  [[nodiscard]] double free_space() const noexcept { return capacity_ - used_; }
  [[nodiscard]] double used_by(UserId user) const noexcept;

  /// Stores a file for `user`.  Fails (without side effects) when the
  /// element is full or the lfn is already stored here.
  [[nodiscard]] StatusOrError store(UserId user, const Lfn& lfn, double bytes);

  /// Deletes a stored file; returns false if absent.
  bool erase(const Lfn& lfn);

  [[nodiscard]] bool has(const Lfn& lfn) const noexcept {
    return files_.contains(lfn);
  }
  [[nodiscard]] std::size_t file_count() const noexcept { return files_.size(); }

 private:
  struct StoredFile {
    UserId owner;
    double bytes = 0.0;
  };

  SiteId site_;
  double capacity_;
  double used_ = 0.0;
  std::unordered_map<Lfn, StoredFile> files_;
  std::unordered_map<UserId, double> per_user_;
};

/// Registry of storage elements, one per site.
class StorageFabric {
 public:
  /// Creates the storage element for a site (idempotent; first call wins).
  StorageElement& add(SiteId site, double capacity_bytes);
  [[nodiscard]] StorageElement* find(SiteId site) noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return elements_.size(); }

 private:
  std::unordered_map<SiteId, StorageElement> elements_;
};

}  // namespace sphinx::data
