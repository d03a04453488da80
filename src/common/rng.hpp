#pragma once
/// \file rng.hpp
/// Deterministic random number generation.
///
/// Every run of the simulator is reproducible from a single master seed.
/// Subsystems never share a generator; instead each obtains a child stream
/// derived from the master seed and a stable string label (splitmix-style
/// mixing of the label hash).  This keeps results stable when an unrelated
/// subsystem adds or removes draws.

#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>

#include "common/contracts.hpp"
#include "common/hash.hpp"

namespace sphinx {

/// A seeded random stream.  Thin wrapper over mt19937_64 with the
/// distributions the simulator actually needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return unit_(engine_); }
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  /// Exponential with the given mean (not rate).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  /// Bernoulli draw.
  [[nodiscard]] bool chance(double p) { return uniform() < p; }
  /// Log-normal parameterized by the mean/sigma of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Access to the raw engine for std distributions not wrapped above.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Derives independent child seeds from a master seed and a label, so each
/// subsystem gets its own stream (see file comment).
///
/// Stream labels are a contract, not a convenience: two call sites
/// sharing a label share a generator, entangling their draw sequences in
/// a way no test catches until a byte-diff oracle fails.  Each SeedTree
/// instance therefore hands out a given label at most once -- a second
/// stream() with the same label throws ContractViolation (when contracts
/// are armed).  Copies inherit the issued set, so a tree forwarded by
/// value into a subsystem still rejects labels the parent already used.
/// The static half of the same contract lives in sphinx-lint's
/// rng-stream-* rules and docs/rng_streams.md.
class SeedTree {
 public:
  explicit SeedTree(std::uint64_t master) noexcept : master_(master) {}

  SeedTree(const SeedTree& other) : master_(other.master_) {
    const std::lock_guard<std::mutex> lock(other.issued_mutex_);
    issued_ = other.issued_;
  }
  SeedTree& operator=(const SeedTree& other) {
    if (this != &other) {
      std::scoped_lock lock(issued_mutex_, other.issued_mutex_);
      master_ = other.master_;
      issued_ = other.issued_;
    }
    return *this;
  }

  /// Deterministic child seed for `label`.  Does not count as issuing a
  /// stream: planners may probe child seeds freely.
  [[nodiscard]] std::uint64_t seed_for(std::string_view label) const noexcept {  // sphinx-lint-allow(test-only): tests pin the derivation without issuing
    return mix(master_ ^ fnv1a(label));
  }

  /// Convenience: a ready-made Rng for `label`.  Throws
  /// ContractViolation if this instance already issued `label`.
  [[nodiscard]] Rng stream(std::string_view label) const {
    {
      const std::lock_guard<std::mutex> lock(issued_mutex_);
      const bool fresh = issued_.emplace(label).second;
      SPHINX_PRECONDITION(fresh, "rng stream label '" + std::string(label) +
                                     "' issued twice from one SeedTree; "
                                     "two streams sharing a label share a "
                                     "generator -- rename one");
    }
    return Rng(seed_for(label));
  }

  /// A replica of `label`'s stream: same seed on every call, exempt
  /// from the issue-once contract.  For call sites that *want* several
  /// identical generators (per-tenant structurally identical workloads);
  /// the deliberate name keeps grep and the static registry honest about
  /// where replication happens.
  [[nodiscard]] Rng stream_replica(std::string_view label) const noexcept {
    return Rng(seed_for(label));
  }

  /// Labels this instance has handed out, for registry cross-checks.
  [[nodiscard]] std::set<std::string, std::less<>> issued() const {  // sphinx-lint-allow(test-only): tests check issue-once bookkeeping
    const std::lock_guard<std::mutex> lock(issued_mutex_);
    return issued_;
  }

 private:
  // splitmix64 finalizer: decorrelates structurally similar inputs.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint64_t master_;
  /// Labels issued by stream(); mutable because issuing a stream is
  /// conceptually read-only derivation, tracked only to police labels.
  mutable std::set<std::string, std::less<>> issued_;
  mutable std::mutex issued_mutex_;
};

}  // namespace sphinx
