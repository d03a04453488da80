#include "db/value.hpp"

#include "common/error.hpp"

namespace sphinx::db {

const char* to_string(ValueType type) noexcept {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kReal: return "real";
    case ValueType::kText: return "text";
    case ValueType::kBool: return "bool";
  }
  return "?";
}

ValueType Value::type() const noexcept {
  switch (data_.index()) {
    case 0: return ValueType::kNull;
    case 1: return ValueType::kInt;
    case 2: return ValueType::kReal;
    case 3: return ValueType::kText;
    case 4: return ValueType::kBool;
  }
  return ValueType::kNull;
}

std::int64_t Value::as_int() const {
  SPHINX_ASSERT(std::holds_alternative<std::int64_t>(data_),
                "Value is not an int");
  return std::get<std::int64_t>(data_);
}

double Value::as_real() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  SPHINX_ASSERT(std::holds_alternative<double>(data_), "Value is not a real");
  return std::get<double>(data_);
}

const std::string& Value::as_text() const {
  SPHINX_ASSERT(std::holds_alternative<std::string>(data_),
                "Value is not text");
  return std::get<std::string>(data_);
}

bool Value::as_bool() const {
  SPHINX_ASSERT(std::holds_alternative<bool>(data_), "Value is not a bool");
  return std::get<bool>(data_);
}

}  // namespace sphinx::db
