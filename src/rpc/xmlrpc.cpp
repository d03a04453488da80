#include "rpc/xmlrpc.hpp"

#include <charconv>
#include <iterator>
#include <string_view>

#include "common/g17.hpp"

namespace sphinx::rpc {

// --- writer ------------------------------------------------------------------

namespace {

constexpr std::string_view kDeclaration = "<?xml version=\"1.0\"?>";

/// Appends `raw` with the five predefined entities escaped.
void append_escaped(std::string& out, std::string_view raw) {
  std::size_t done = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(raw.substr(done, i - done));
    out += entity;
    done = i + 1;
  }
  out.append(raw.substr(done));
}

}  // namespace

XrWriter::XrWriter(std::size_t reserve) {
  out_.reserve(reserve);
  out_ += kDeclaration;
}

/// Appends `<tag>text</tag>`, or `<tag/>` when `text` is empty.
void XrWriter::text_element(std::string_view tag, std::string_view text) {
  out_ += '<';
  out_ += tag;
  if (text.empty()) {
    out_ += "/>";
    return;
  }
  out_ += '>';
  append_escaped(out_, text);
  out_ += "</";
  out_ += tag;
  out_ += '>';
}

void XrWriter::begin_call(std::string_view method) {
  out_ += "<methodCall>";
  text_element("methodName", method);
}

void XrWriter::begin_param() {
  if (!params_) out_ += "<params>";
  params_ = true;
  out_ += "<param>";
}

void XrWriter::end_call() {
  out_ += params_ ? "</params></methodCall>" : "<params/></methodCall>";
  params_ = false;
}

void XrWriter::fault(std::int64_t code, std::string_view message) {
  out_ += "<methodResponse><fault><value><struct>";
  int_member("faultCode", code);
  string_member("faultString", message);
  out_ += "</struct></value></fault></methodResponse>";
}

void XrWriter::int_digits(std::int64_t v) {
  char num[24];  // any int64
  out_.append(num, std::to_chars(num, std::end(num), v).ptr);
}

void XrWriter::int_value(std::int64_t v) {
  out_ += "<value><i8>";
  int_digits(v);
  out_ += "</i8></value>";
}

void XrWriter::double_value(double v) {
  out_ += "<value><double>";
  append_g17(out_, v);
  out_ += "</double></value>";
}

void XrWriter::bool_value(bool v) {
  out_ += v ? "<value><boolean>1</boolean></value>"
            : "<value><boolean>0</boolean></value>";
}

void XrWriter::string_value(std::string_view v) {
  out_ += "<value>";
  text_element("string", v);
  out_ += "</value>";
}

void XrWriter::end_struct() {
  if (out_.ends_with("<struct>")) {
    out_.back() = '/';  // nothing since begin_struct(): `<struct/>`
    out_ += "></value>";
  } else {
    out_ += "</struct></value>";
  }
}

void XrWriter::end_array() {
  if (out_.ends_with("<data>")) {
    out_.back() = '/';  // nothing since begin_array(): `<data/>`
    out_ += "></array></value>";
  } else {
    out_ += "</data></array></value>";
  }
}

void XrWriter::begin_member(std::string_view name) {
  if (name.empty()) {
    out_ += "<member><name/>";
    return;
  }
  out_ += "<member><name>";
  out_ += name;
  out_ += "</name>";
}

void XrWriter::int_member(std::string_view name, std::int64_t v) {
  begin_member(name);
  out_ += "<value><i8>";
  int_digits(v);
  out_ += "</i8></value></member>";
}

void XrWriter::double_member(std::string_view name, double v) {
  begin_member(name);
  out_ += "<value><double>";
  append_g17(out_, v);
  out_ += "</double></value></member>";
}

void XrWriter::bool_member(std::string_view name, bool v) {
  begin_member(name);
  bool_value(v);
  end_member();
}

void XrWriter::string_member(std::string_view name, std::string_view v) {
  begin_member(name);
  string_value(v);
  end_member();
}

// --- reader ------------------------------------------------------------------

namespace {

/// Sets `out` to all of `raw` read as a T: no sign but '-', no
/// whitespace, nothing after the number.
template <typename T>
bool whole_number(std::string_view raw, T& out) {
  const char* last = raw.data() + raw.size();
  const auto [stop, ec] = std::from_chars(raw.data(), last, out);
  return ec == std::errc{} && stop == last;
}

}  // namespace

Unexpected<Error> XrReader::error() const {
  return make_error("xmlrpc_parse",
                    what_ + " at offset " + std::to_string(at_));
}

bool XrReader::fail(std::string what) {
  what_ = std::move(what);
  at_ = pos_;
  return false;
}

bool XrReader::duplicate(std::string_view name) {
  return fail("duplicate struct member: " + std::string(name));
}

bool XrReader::fail_open(std::string_view tag) {
  return fail("expected <" + std::string(tag) + ">");
}

bool XrReader::fail_close(std::string_view tag) {
  return fail("expected </" + std::string(tag) + ">");
}

/// Consumes whatever `<name>` or `<name/>` comes next.
bool XrReader::open_any(std::string_view& name) noexcept {
  if (empty_ || pos_ >= in_.size() || in_[pos_] != '<') return false;
  std::size_t stop = pos_ + 1;
  while (stop < in_.size() && in_[stop] != '/' && in_[stop] != '>') ++stop;
  if (stop == in_.size()) return false;
  name = in_.substr(pos_ + 1, stop - pos_ - 1);
  if (in_[stop] == '>') {
    pos_ = stop + 1;
    return true;
  }
  if (stop + 1 == in_.size() || in_[stop + 1] != '>') return false;
  empty_ = true;
  pos_ = stop + 2;
  return true;
}

/// Skips the optional `<?...?>` declaration and consumes `<root>`.
bool XrReader::begin(std::string_view root) {
  skip_ws();
  if (in_.substr(pos_).starts_with("<?")) {
    const std::size_t end = in_.find("?>", pos_);
    if (end == std::string_view::npos) return fail("bad XML declaration");
    pos_ = end + 2;
    skip_ws();
  }
  if (!open_tag(root)) return fail("not a <" + std::string(root) + ">");
  skip_ws();
  return true;
}

/// Consumes the close tag of `root`; only whitespace may follow it.
bool XrReader::end(std::string_view root) {
  skip_ws();
  if (!close(root)) return false;
  skip_ws();
  return pos_ == in_.size() || fail("trailing content after root");
}

/// Appends `raw` to `out` with the five predefined entities decoded.
bool XrReader::decode(std::string_view raw, std::string& out) {
  while (true) {
    const std::size_t amp = raw.find('&');
    out.append(raw.substr(0, amp));
    if (amp == std::string_view::npos) return true;
    raw.remove_prefix(amp + 1);
    const std::size_t semi = raw.find(';');
    if (semi == std::string_view::npos) return fail("unterminated entity");
    const std::string_view entity = raw.substr(0, semi);
    if (entity == "amp") out += '&';
    else if (entity == "lt") out += '<';
    else if (entity == "gt") out += '>';
    else if (entity == "quot") out += '"';
    else if (entity == "apos") out += '\'';
    else return fail("unknown entity: " + std::string(entity));
    raw.remove_prefix(semi + 1);
  }
}

/// `raw` decoded, as a view of the input when it has no entity to
/// decode, else of `buffer`.
bool XrReader::decode_text(std::string_view raw, std::string& buffer,
                           std::string_view& out) {
  if (raw.find('&') == std::string_view::npos) {
    out = raw;
    return true;
  }
  buffer.clear();
  if (!decode(raw, buffer)) return false;
  out = buffer;
  return true;
}

/// A member's `<name>`, decoded.
bool XrReader::member_name(std::string_view& name) {
  std::string_view raw;
  return expect_open("name") && chars(raw) && close("name") &&
         decode_text(raw, name_buffer_, name);
}

bool XrReader::open(int depth, XrType& type) {
  skip_ws();
  if (depth > kMaxValueDepth) return fail("values nested too deep");
  std::string_view text;
  if (!expect_open("value") || !chars(text)) return false;
  if (try_close("value")) {
    // Bare text inside <value> is a string per the XML-RPC spec.
    type = XrType::kString;
    return decode_text(text, text_buffer_, text_);
  }
  for (const char c : text) {
    if (!is_blank(c)) return fail("text beside a typed value");
  }
  std::string_view tag;
  if (!open_any(tag)) return fail("expected a value type");
  if (tag == "struct") {
    type = XrType::kStruct;
    skip_ws();
    return true;
  }
  if (tag == "array") {
    type = XrType::kArray;
    skip_ws();
    if (!expect_open("data")) return false;
    skip_ws();
    return true;
  }
  std::string_view raw;
  if (!chars(raw) || !close(tag)) return false;
  if (tag == "string") {
    type = XrType::kString;
    if (!decode_text(raw, text_buffer_, text_)) return false;
  } else if (tag == "i8" || tag == "int" || tag == "i4") {
    type = XrType::kInt;
    if (!whole_number(raw, integer_)) {
      return fail("bad <" + std::string(tag) + ">: " + std::string(raw));
    }
  } else if (tag == "double") {
    type = XrType::kDouble;
    if (!whole_number(raw, real_)) {
      return fail("bad <" + std::string(tag) + ">: " + std::string(raw));
    }
  } else if (tag == "boolean" && (raw == "0" || raw == "1")) {
    type = XrType::kBool;
    boolean_ = raw == "1";
  } else {
    return fail("bad <" + std::string(tag) + "> value");
  }
  return close_value();
}

bool XrReader::skip_open(XrType type, int depth) {
  if (type == XrType::kArray) {
    return items([&] { return skip(depth + 1); });
  }
  if (type == XrType::kStruct) {
    return each_member([&](std::string_view) { return skip(depth + 1); });
  }
  return true;
}

bool XrReader::skip(int depth) {
  XrType type;
  return open(depth, type) && skip_open(type, depth);
}

bool XrReader::begin_call(std::string_view& method) {
  std::string_view raw;
  if (!begin("methodCall") || !expect_open("methodName") || !chars(raw) ||
      !close("methodName") || !decode_text(raw, method_buffer_, method)) {
    return false;
  }
  if (method.empty()) return fail("missing <methodName>");
  skip_ws();
  params_ = open_tag("params");
  if (params_) skip_ws();
  return true;
}

bool XrReader::begin_response(bool& fault, std::int64_t& code,
                              std::string& message) {
  if (!begin("methodResponse")) return false;
  fault = open_tag("fault");
  if (!fault) {
    if (!open_tag("params")) return fail("response without params or fault");
    skip_ws();
    params_ = true;
    return expect_open("param");
  }
  // A fault's value is a struct with an int faultCode and a string
  // faultString; whatever else it holds is validated and skipped.
  static constexpr std::array<std::string_view, 2> kFaultMembers = {
      "faultCode", "faultString"};
  bool has_code = false;
  bool has_message = false;
  XrType type;
  if (!open(1, type)) return false;
  if (type != XrType::kStruct) {
    if (!skip_open(type, 1)) return false;
  } else if (!known_members(1, kFaultMembers, [&](std::size_t i) {
               XrType member;
               if (!open(2, member)) return false;
               if (i == 0 && member == XrType::kInt) {
                 code = integer_;
                 has_code = true;
               }
               if (i == 1 && member == XrType::kString) {
                 message.assign(text_);
                 has_message = true;
               }
               return skip_open(member, 2);
             })) {
    return false;
  }
  skip_ws();
  if (!close("fault")) return false;
  skip_ws();
  return (has_code && has_message) || fail("fault struct incomplete");
}

bool XrReader::end_response() {
  if (params_) {
    skip_ws();
    if (!close("param")) return false;
    skip_ws();
    if (!close("params")) return false;
    params_ = false;
  }
  return end("methodResponse");
}

}  // namespace sphinx::rpc
