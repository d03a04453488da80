#include "db/encoding.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <iterator>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/g17.hpp"

namespace sphinx::db {
namespace {

/// Reads all of `s` as a T; false on anything else.
template <typename T>
bool parse_number(std::string_view s, T& out) noexcept {
  const char* last = s.data() + s.size();
  const auto [end, error] = std::from_chars(s.data(), last, out);
  return error == std::errc{} && end == last;
}

/// The payload of a field tagged `tag` ("i", "r", ...); false when the
/// field carries another tag.
bool payload_of(std::string_view field, char tag,
                std::string_view& payload) noexcept {
  if (field.size() < 2 || field[0] != tag || field[1] != ':') return false;
  payload = field.substr(2);
  return true;
}

/// Whether append_field escapes `c`.
constexpr bool escaped(char c) noexcept {
  return c == '\\' || c == '\t' || c == '\n';
}

/// The position of the first byte at or after `at` that append_field
/// escapes, or s.size().  Whole 16-byte blocks are tested at once (SSE2);
/// the bytes after the last whole block one at a time, so no load reaches
/// past the field.
std::size_t next_escaped(std::string_view s, std::size_t at) noexcept {
#if defined(__SSE2__)
  const __m128i backslash = _mm_set1_epi8('\\');
  const __m128i tab = _mm_set1_epi8('\t');
  const __m128i newline = _mm_set1_epi8('\n');
  for (; s.size() - at >= 16; at += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.data() + at));
    const __m128i hits = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(block, backslash),
                     _mm_cmpeq_epi8(block, tab)),
        _mm_cmpeq_epi8(block, newline));
    if (const auto mask = static_cast<unsigned>(_mm_movemask_epi8(hits));
        mask != 0) {
      return at + static_cast<std::size_t>(std::countr_zero(mask));
    }
  }
#endif
  while (at < s.size() && !escaped(s[at])) ++at;
  return at;
}

const char* type_name(CellType type) noexcept {
  switch (type) {
    case CellType::kInt: return "int";
    case CellType::kReal: return "real";
    case CellType::kText: return "text";
    case CellType::kBool: return "bool";
  }
  return "?";
}

}  // namespace

void append_field(std::string& out, std::string_view s) {
  // Each clean run between two escaped bytes is copied in one append: a
  // journaled plan payload is ~1.8 KB.
  std::size_t from = 0;
  for (std::size_t at = next_escaped(s, 0); at < s.size();
       at = next_escaped(s, from)) {
    out.append(s.data() + from, at - from);
    out += '\\';
    out += s[at] == '\t' ? 't' : s[at] == '\n' ? 'n' : '\\';
    from = at + 1;
  }
  out.append(s.data() + from, s.size() - from);
}

Expected<std::string> unescape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  std::size_t from = 0;
  for (std::size_t at = s.find('\\'); at != std::string_view::npos;
       at = s.find('\\', from)) {
    out.append(s.substr(from, at - from));
    if (at + 1 >= s.size()) {
      return make_error("journal_parse", "dangling escape");
    }
    switch (s[at + 1]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: return make_error("journal_parse", "unknown escape");
    }
    from = at + 2;
  }
  out.append(s.substr(from));
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  char digits[20];
  out.append(digits,
             std::to_chars(std::begin(digits), std::end(digits), v).ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char num[20];  // any int64
  out += "i:";
  out.append(num, std::to_chars(std::begin(num), std::end(num), v).ptr);
}

void append_real(std::string& out, double v) {
  out += "r:";
  append_g17(out, v);
}

void append_text(std::string& out, std::string_view v) {
  out += "s:";
  append_field(out, v);
}

void append_bool(std::string& out, bool v) { out += v ? "b:1" : "b:0"; }

bool read_int(std::string_view field, std::int64_t& out) noexcept {
  std::string_view payload;
  return payload_of(field, 'i', payload) && parse_number(payload, out);
}

bool read_real(std::string_view field, double& out) noexcept {
  std::string_view payload;
  return payload_of(field, 'r', payload) && parse_number(payload, out);
}

bool read_text(std::string_view field, std::string& out) {
  std::string_view payload;
  if (!payload_of(field, 's', payload)) return false;
  auto text = unescape_field(payload);
  if (!text) return false;
  out = std::move(*text);
  return true;
}

bool read_bool(std::string_view field, bool& out) noexcept {
  std::string_view payload;
  if (!payload_of(field, 'b', payload) || payload.size() != 1 ||
      (payload[0] != '0' && payload[0] != '1')) {
    return false;
  }
  out = payload[0] == '1';
  return true;
}

StatusOrError append_canonical_cell(std::string& out, std::string_view field) {
  const auto bad = [&] {
    return make_error("journal_parse", "bad cell: " + std::string(field));
  };
  if (field.size() < 2 || field[1] != ':') return bad();
  switch (field[0]) {
    case 'n':
      if (field.size() != 2) return bad();
      out += "n:";
      return {};
    case 'i': {
      std::int64_t v = 0;
      if (!read_int(field, v)) return bad();
      append_int(out, v);
      return {};
    }
    case 'r': {
      double v = 0;
      if (!read_real(field, v)) return bad();
      append_real(out, v);
      return {};
    }
    case 's': {
      std::string v;
      if (!read_text(field, v)) return bad();
      append_text(out, v);
      return {};
    }
    case 'b': {
      bool v = false;
      if (!read_bool(field, v)) return bad();
      append_bool(out, v);
      return {};
    }
    default: return bad();
  }
}

void append_column(std::string& out, const Column& column) {
  // A trailing '!' marks an indexed column, so recovery can tell a
  // schema whose index set differs from the declared one.
  append_field(out, column.name);
  out += '=';
  out += type_name(column.type);
  if (column.indexed) out += '!';
}

Expected<Column> decode_column(std::string_view spec) {
  const auto eq = spec.rfind('=');
  if (eq == std::string_view::npos) {
    return make_error("journal_parse", "bad column spec: " + std::string(spec));
  }
  auto name = unescape_field(spec.substr(0, eq));
  if (!name) return Unexpected<Error>{name.error()};
  std::string_view type_text = spec.substr(eq + 1);
  const bool is_indexed = !type_text.empty() && type_text.back() == '!';
  if (is_indexed) type_text.remove_suffix(1);
  for (const CellType type :
       {CellType::kInt, CellType::kReal, CellType::kText, CellType::kBool}) {
    if (type_text != type_name(type)) continue;
    if (is_indexed && type == CellType::kReal) {
      return make_error("journal_parse",
                        "index on a real column: " + std::string(spec));
    }
    return Column{std::move(*name), type, is_indexed};
  }
  return make_error("journal_parse",
                    "unknown column type: " + std::string(type_text));
}

std::string_view take_line(std::string_view& rest) noexcept {
  const std::size_t end = rest.find('\n');
  const std::string_view line = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  return line;
}

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  fields.reserve(1 + static_cast<std::size_t>(
                         std::count(line.begin(), line.end(), '\t')));
  for (;;) {
    const std::size_t tab = line.find('\t');
    fields.push_back(line.substr(0, tab));
    if (tab == std::string_view::npos) return fields;
    line.remove_prefix(tab + 1);
  }
}

}  // namespace sphinx::db
