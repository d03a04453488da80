#include "rpc/xmlrpc.hpp"

#include <charconv>
#include <iterator>
#include <string_view>

namespace sphinx::rpc {

std::int64_t XrValue::as_int() const {
  SPHINX_ASSERT(is_int(), "XrValue is not an int");
  return std::get<std::int64_t>(data_);
}

double XrValue::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  SPHINX_ASSERT(is_double(), "XrValue is not a double");
  return std::get<double>(data_);
}

bool XrValue::as_bool() const {
  SPHINX_ASSERT(is_bool(), "XrValue is not a bool");
  return std::get<bool>(data_);
}

const std::string& XrValue::as_string() const {
  SPHINX_ASSERT(is_string(), "XrValue is not a string");
  return std::get<std::string>(data_);
}

const XrValue::Array& XrValue::as_array() const {
  SPHINX_ASSERT(is_array(), "XrValue is not an array");
  return std::get<Array>(data_);
}

const XrValue::Struct& XrValue::as_struct() const {
  SPHINX_ASSERT(is_struct(), "XrValue is not a struct");
  return std::get<Struct>(data_);
}

const XrValue& XrValue::at(const std::string& key) const {
  const Struct& s = as_struct();
  const auto it = s.find(key);
  SPHINX_ASSERT(it != s.end(), "missing struct member: " + key);
  return it->second;
}

const XrValue* XrValue::find(const std::string& key) const {
  const auto* s = std::get_if<Struct>(&data_);
  if (s == nullptr) return nullptr;
  const auto it = s->find(key);
  return it == s->end() ? nullptr : &it->second;
}


// --- writer ------------------------------------------------------------------

namespace {

constexpr std::string_view kDeclaration = "<?xml version=\"1.0\"?>";
/// Initial capacity of a generic envelope (a reply, a fault, a cold call).
constexpr std::size_t kEnvelopeReserve = 256;

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

void XrWriter::response(const XrValue& v) {
  out_ += "<methodResponse><params><param>";
  value(v);
  out_ += "</param></params></methodResponse>";
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

void XrWriter::double_digits(double v) {
  char num[32];  // a double as %.17g
  out_.append(num, std::to_chars(num, std::end(num), v,
                                 std::chars_format::general, 17)
                       .ptr);
}

void XrWriter::int_value(std::int64_t v) {
  out_ += "<value><i8>";
  int_digits(v);
  out_ += "</i8></value>";
}

void XrWriter::double_value(double v) {
  out_ += "<value><double>";
  double_digits(v);
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

void XrWriter::value(const XrValue& v) {
  if (v.is_string()) {
    string_value(v.as_string());
  } else if (v.is_int()) {
    int_value(v.as_int());
  } else if (v.is_double()) {
    double_value(v.as_double());
  } else if (v.is_bool()) {
    bool_value(v.as_bool());
  } else if (v.is_array()) {
    if (v.as_array().empty()) {
      empty_array();
    } else {
      begin_array();
      for (const XrValue& item : v.as_array()) value(item);
      end_array();
    }
  } else if (v.as_struct().empty()) {
    out_ += "<value><struct/></value>";
  } else {
    begin_struct();
    for (const auto& [key, member] : v.as_struct()) {
      out_ += "<member>";
      text_element("name", key);
      value(member);
      end_member();
    }
    end_struct();
  }
}

void XrWriter::begin_member(std::string_view name) {
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
  double_digits(v);
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

/// Consumes `<tag>text</tag>` into `out`.
bool XrReader::text_element(std::string_view tag, std::string& out) {
  std::string_view raw;
  return expect_open(tag) && chars(raw) && close(tag) && decode(raw, out);
}

/// A member's `<name>`, decoded.
bool XrReader::member_name(std::string_view& name) {
  std::string_view raw;
  return expect_open("name") && chars(raw) && close("name") &&
         decode_text(raw, name_buffer_, name);
}

/// The one `<value>` inside an open `<tag>`, through `</tag>` and the
/// whitespace after it.
bool XrReader::inner_value(std::string_view tag, XrValue& out) {
  if (!read(1, out)) return false;
  skip_ws();
  if (!close(tag)) return false;
  skip_ws();
  return true;
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
    NameSet seen;
    return members([&](std::string_view name) {
      return seen.emplace(name).second ? skip(depth + 1) : duplicate(name);
    });
  }
  return true;
}

bool XrReader::skip(int depth) {
  XrType type;
  return open(depth, type) && skip_open(type, depth);
}

bool XrReader::read(int depth, XrValue& out) {
  XrType type;
  if (!open(depth, type)) return false;
  switch (type) {
    case XrType::kString: out = XrValue(std::string(text_)); return true;
    case XrType::kInt: out = XrValue(integer_); return true;
    case XrType::kDouble: out = XrValue(real_); return true;
    case XrType::kBool: out = XrValue(boolean_); return true;
    case XrType::kArray: {
      XrValue::Array items;
      if (!this->items([&] { return read(depth + 1, items.emplace_back()); })) {
        return false;
      }
      out = XrValue(std::move(items));
      return true;
    }
    case XrType::kStruct: {
      XrValue::Struct members;
      if (!this->members([&](std::string_view name) {
            const auto [it, fresh] = members.try_emplace(std::string(name));
            return fresh ? read(depth + 1, it->second) : duplicate(name);
          })) {
        return false;
      }
      out = XrValue(std::move(members));
      return true;
    }
  }
  return false;
}

bool XrReader::begin_call(std::string& method) {
  if (!begin("methodCall") || !text_element("methodName", method)) {
    return false;
  }
  if (method.empty()) return fail("missing <methodName>");
  skip_ws();
  params_ = open_tag("params");
  if (params_) skip_ws();
  return true;
}

bool XrReader::params(std::vector<XrValue>& out) {
  return each_param([&](int) { return read(1, out.emplace_back()); });
}

bool XrReader::response(MethodResponse& out) {
  if (!begin("methodResponse")) return false;
  if (open_tag("fault")) {
    XrValue fault;
    if (!inner_value("fault", fault)) return false;
    const XrValue* code = fault.find("faultCode");
    const XrValue* message = fault.find("faultString");
    if (code == nullptr || !code->is_int() || message == nullptr ||
        !message->is_string()) {
      return fail("fault struct incomplete");
    }
    out = MethodResponse::failure(code->as_int(), message->as_string());
  } else {
    if (!open_tag("params")) return fail("response without params or fault");
    skip_ws();
    if (!expect_open("param") || !inner_value("param", out.value) ||
        !close("params")) {
      return false;
    }
  }
  return end("methodResponse");
}

// --- envelopes ---------------------------------------------------------------

std::string MethodCall::serialize() const {
  XrWriter out(kEnvelopeReserve);
  out.begin_call(method);
  for (const XrValue& p : params) {
    out.begin_param();
    out.value(p);
    out.end_param();
  }
  out.end_call();
  return std::move(out).take();
}

Expected<MethodCall> MethodCall::parse(const std::string& xml) {
  MethodCall call;
  XrReader in(xml);
  if (!in.begin_call(call.method) || !in.params(call.params) ||
      !in.end_call()) {
    return in.error();
  }
  return call;
}

std::string MethodResponse::serialize() const {
  XrWriter out(kEnvelopeReserve);
  if (is_fault) {
    out.fault(fault.code, fault.message);
  } else {
    out.response(value);
  }
  return std::move(out).take();
}

Expected<MethodResponse> MethodResponse::parse(const std::string& xml) {
  MethodResponse response;
  XrReader in(xml);
  if (!in.response(response)) return in.error();
  return response;
}

}  // namespace sphinx::rpc
