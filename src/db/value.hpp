#pragma once
/// \file value.hpp
/// Dynamically-typed cell values for the table store.
///
/// The SPHINX server keeps all scheduling state (DAGs, jobs, messages,
/// site statistics, quotas) in database tables so that modules communicate
/// through storage and the server can be rebuilt after a crash (paper
/// section 3.1, "robust and recoverable system").  Values are the cells of
/// those tables.

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

namespace sphinx::db {

/// Column/value type tags.
enum class ValueType { kNull, kInt, kReal, kText, kBool };

/// Human-readable name of a value type ("int", "text", ...).
[[nodiscard]] const char* to_string(ValueType type) noexcept;

/// A single dynamically typed cell.
class Value {
 public:
  Value() noexcept = default;  ///< null
  Value(std::int64_t v) noexcept : data_(v) {}
  Value(int v) noexcept : data_(static_cast<std::int64_t>(v)) {}
  Value(std::uint64_t v) noexcept : data_(static_cast<std::int64_t>(v)) {}
  Value(double v) noexcept : data_(v) {}
  Value(bool v) noexcept : data_(v) {}
  Value(std::string v) noexcept : data_(std::move(v)) {}
  Value(const char* v) : data_(std::string(v)) {}

  [[nodiscard]] ValueType type() const noexcept;
  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::monostate>(data_);
  }

  /// Typed accessors.  Reading the wrong type throws AssertionError --
  /// schemas are enforced on write, so this indicates a programming bug.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;  ///< also accepts int cells
  [[nodiscard]] const std::string& as_text() const;
  [[nodiscard]] bool as_bool() const;

  /// Hash of type and payload for Value-keyed index buckets, consistent
  /// with operator== for every value that equals itself (a NaN real does
  /// not, so no column that can hold a real carries an index).
  struct Hash {
    [[nodiscard]] std::size_t operator()(const Value& v) const noexcept {
      return std::hash<decltype(v.data_)>{}(v.data_);
    }
  };

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.data_ == b.data_;
  }
  friend bool operator<(const Value& a, const Value& b) noexcept {
    return a.data_ < b.data_;
  }

 private:
  std::variant<std::monostate, std::int64_t, double, std::string, bool> data_;
};

}  // namespace sphinx::db
