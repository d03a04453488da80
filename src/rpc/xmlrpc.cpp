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

namespace {

// --- writer ------------------------------------------------------------------

constexpr std::string_view kDeclaration = "<?xml version=\"1.0\"?>";
/// Initial capacity of a serialized envelope (the mean fig5 message is
/// about 640 bytes).
constexpr std::size_t kEnvelopeReserve = 1024;

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

/// Appends `<tag>text</tag>`, or `<tag/>` when `text` is empty.
void append_text_element(std::string& out, std::string_view tag,
                         std::string_view text) {
  out += '<';
  out += tag;
  if (text.empty()) {
    out += "/>";
    return;
  }
  out += '>';
  append_escaped(out, text);
  out += "</";
  out += tag;
  out += '>';
}

/// Appends `<value>...</value>`.
void append_value(std::string& out, const XrValue& v) {
  out += "<value>";
  char num[32];  // any int64, or a double as %.17g
  if (v.is_string()) {
    append_text_element(out, "string", v.as_string());
  } else if (v.is_int()) {
    out += "<i8>";
    out.append(num, std::to_chars(num, std::end(num), v.as_int()).ptr);
    out += "</i8>";
  } else if (v.is_double()) {
    out += "<double>";
    out.append(num, std::to_chars(num, std::end(num), v.as_double(),
                                  std::chars_format::general, 17)
                        .ptr);
    out += "</double>";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "<boolean>1</boolean>" : "<boolean>0</boolean>";
  } else if (v.is_array()) {
    if (v.as_array().empty()) {
      out += "<array><data/></array>";
    } else {
      out += "<array><data>";
      for (const XrValue& item : v.as_array()) append_value(out, item);
      out += "</data></array>";
    }
  } else if (v.as_struct().empty()) {
    out += "<struct/>";
  } else {
    out += "<struct>";
    for (const auto& [key, member] : v.as_struct()) {
      out += "<member>";
      append_text_element(out, "name", key);
      append_value(out, member);
      out += "</member>";
    }
    out += "</struct>";
  }
  out += "</value>";
}

// --- parser ------------------------------------------------------------------

/// Single-pass pull parser over one envelope.  Each method consumes one
/// construct and returns true, or records why it could not and returns
/// false; callers stop at the first false.  As in XML, `<tag/>` reads as
/// `<tag></tag>`.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  [[nodiscard]] Unexpected<Error> error() const {
    return make_error("xmlrpc_parse",
                      what_ + " at offset " + std::to_string(at_));
  }

  bool call(MethodCall& out) {
    if (!begin("methodCall") || !text_element("methodName", out.method)) {
      return false;
    }
    if (out.method.empty()) return fail("missing <methodName>");
    skip_ws();
    if (open("params")) {
      skip_ws();
      while (!try_close("params")) {
        if (!expect_open("param") ||
            !inner_value("param", out.params.emplace_back(), 1)) {
          return false;
        }
      }
    }
    return end("methodCall");
  }

  bool response(MethodResponse& out) {
    if (!begin("methodResponse")) return false;
    if (open("fault")) {
      XrValue fault;
      if (!inner_value("fault", fault, 1)) return false;
      const XrValue* code = fault.find("faultCode");
      const XrValue* message = fault.find("faultString");
      if (code == nullptr || !code->is_int() || message == nullptr ||
          !message->is_string()) {
        return fail("fault struct incomplete");
      }
      out = MethodResponse::failure(code->as_int(), message->as_string());
    } else {
      if (!open("params")) return fail("response without params or fault");
      skip_ws();
      if (!expect_open("param") || !inner_value("param", out.value, 1) ||
          !close("params")) {
        return false;
      }
    }
    return end("methodResponse");
  }

 private:
  bool fail(std::string what) {
    what_ = std::move(what);
    at_ = pos_;
    return false;
  }

  [[nodiscard]] std::string_view rest() const { return in_.substr(pos_); }

  void skip_ws() noexcept {
    if (empty_) return;  // the implied close tag comes first
    while (pos_ < in_.size() && kBlank.find(in_[pos_]) != kBlank.npos) ++pos_;
  }

  /// Consumes `<tag>` or `<tag/>` if it comes next.
  bool open(std::string_view tag) {
    const std::string_view r = rest();
    if (empty_ || !r.starts_with('<') || r.substr(1, tag.size()) != tag) {
      return false;
    }
    const std::string_view after = r.substr(1 + tag.size());
    empty_ = after.starts_with("/>");
    if (!empty_ && !after.starts_with('>')) return false;
    pos_ += tag.size() + (empty_ ? 3 : 2);
    return true;
  }

  /// Consumes whatever `<name>` or `<name/>` comes next.
  bool open_any(std::string_view& name) {
    const std::size_t stop = in_.find_first_of("/>", pos_ + 1);
    if (stop == std::string_view::npos) return false;
    name = in_.substr(pos_ + 1, stop - pos_ - 1);
    return open(name);
  }

  bool expect_open(std::string_view tag) {
    return open(tag) || fail("expected <" + std::string(tag) + ">");
  }

  /// Consumes `</tag>` if it comes next.
  bool try_close(std::string_view tag) {
    if (empty_) {
      empty_ = false;
      return true;
    }
    const std::string_view r = rest();
    if (!r.starts_with("</") || r.substr(2, tag.size()) != tag ||
        r.substr(2 + tag.size(), 1) != ">") {
      return false;
    }
    pos_ += tag.size() + 3;
    return true;
  }

  bool close(std::string_view tag) {
    return try_close(tag) || fail("expected </" + std::string(tag) + ">");
  }

  /// Skips the optional `<?...?>` declaration and consumes `<root>`.
  bool begin(std::string_view root) {
    skip_ws();
    if (rest().starts_with("<?")) {
      const std::size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) return fail("bad XML declaration");
      pos_ = end + 2;
      skip_ws();
    }
    if (!open(root)) return fail("not a <" + std::string(root) + ">");
    skip_ws();
    return true;
  }

  /// Consumes the close tag of `root`; only whitespace may follow it.
  bool end(std::string_view root) {
    skip_ws();
    if (!close(root)) return false;
    skip_ws();
    return pos_ == in_.size() || fail("trailing content after root");
  }

  /// Consumes the raw character data up to the next tag.
  bool chars(std::string_view& raw) {
    const std::size_t lt = empty_ ? pos_ : in_.find('<', pos_);
    if (lt == std::string_view::npos) return fail("unexpected end of input");
    raw = in_.substr(pos_, lt - pos_);
    pos_ = lt;
    return true;
  }

  /// Appends `raw` to `out` with the five predefined entities decoded.
  bool decode(std::string_view raw, std::string& out) {
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

  /// Consumes `<tag>text</tag>` into `out`.
  bool text_element(std::string_view tag, std::string& out) {
    std::string_view raw;
    return expect_open(tag) && chars(raw) && close(tag) && decode(raw, out);
  }

  /// Sets `out` to all of `raw` read as a T: no sign but '-', no
  /// whitespace, nothing after the number.
  template <typename T>
  bool number(std::string_view raw, std::string_view type, XrValue& out) {
    T n{};
    const char* last = raw.data() + raw.size();
    const auto [stop, ec] = std::from_chars(raw.data(), last, n);
    if (ec != std::errc{} || stop != last) {
      return fail("bad <" + std::string(type) + ">: " + std::string(raw));
    }
    out = XrValue(n);
    return true;
  }

  /// The one `<value>` inside an open `<tag>`, through `</tag>` and the
  /// whitespace after it.
  bool inner_value(std::string_view tag, XrValue& out, int depth) {
    skip_ws();
    if (!value(out, depth)) return false;
    skip_ws();
    if (!close(tag)) return false;
    skip_ws();
    return true;
  }

  /// One `<value>` at nesting `depth` (a param is depth 1) into `out`.
  bool value(XrValue& out, int depth) {
    if (depth > kMaxValueDepth) return fail("values nested too deep");
    std::string_view text;
    if (!expect_open("value") || !chars(text)) return false;
    if (try_close("value")) {
      // Bare text inside <value> is a string per the XML-RPC spec.
      std::string s;
      if (!decode(text, s)) return false;
      out = XrValue(std::move(s));
      return true;
    }
    if (text.find_first_not_of(kBlank) != std::string_view::npos) {
      return fail("text beside a typed value");
    }
    if (!typed(out, depth)) return false;
    skip_ws();
    return close("value");
  }

  /// The typed element inside a `<value>`.
  bool typed(XrValue& out, int depth) {
    std::string_view type;
    if (!open_any(type)) return fail("expected a value type");
    if (type == "array") {
      XrValue::Array items;
      skip_ws();
      if (!expect_open("data")) return false;
      skip_ws();
      while (!try_close("data")) {
        if (!value(items.emplace_back(), depth + 1)) return false;
        skip_ws();
      }
      skip_ws();
      out = XrValue(std::move(items));
      return close("array");
    }
    if (type == "struct") {
      XrValue::Struct members;
      skip_ws();
      while (!try_close("struct")) {
        std::string key;
        if (!expect_open("member")) return false;
        skip_ws();
        if (!text_element("name", key)) return false;
        const auto [it, fresh] = members.try_emplace(std::move(key));
        if (!fresh) return fail("duplicate struct member: " + it->first);
        if (!inner_value("member", it->second, depth + 1)) return false;
      }
      out = XrValue(std::move(members));
      return true;
    }
    std::string_view raw;
    if (!chars(raw) || !close(type)) return false;
    if (type == "string") {
      std::string s;
      if (!decode(raw, s)) return false;
      out = XrValue(std::move(s));
      return true;
    }
    if (type == "i8" || type == "int" || type == "i4") {
      return number<std::int64_t>(raw, type, out);
    }
    if (type == "double") return number<double>(raw, type, out);
    if (type == "boolean" && (raw == "0" || raw == "1")) {
      out = XrValue(raw == "1");
      return true;
    }
    return fail("bad <" + std::string(type) + "> value");
  }

  static constexpr std::string_view kBlank = " \t\r\n";

  std::string_view in_;
  std::size_t pos_ = 0;
  bool empty_ = false;  ///< just opened a `<tag/>`; its close is implied
  std::string what_;
  std::size_t at_ = 0;
};

}  // namespace

std::string MethodCall::serialize() const {
  std::string out;
  out.reserve(kEnvelopeReserve);
  out += kDeclaration;
  out += "<methodCall>";
  append_text_element(out, "methodName", method);
  if (params.empty()) {
    out += "<params/>";
  } else {
    out += "<params>";
    for (const XrValue& p : params) {
      out += "<param>";
      append_value(out, p);
      out += "</param>";
    }
    out += "</params>";
  }
  out += "</methodCall>";
  return out;
}

Expected<MethodCall> MethodCall::parse(const std::string& xml) {
  MethodCall call;
  Reader in(xml);
  if (!in.call(call)) return in.error();
  return call;
}

std::string MethodResponse::serialize() const {
  std::string out;
  out.reserve(kEnvelopeReserve);
  out += kDeclaration;
  out += "<methodResponse>";
  if (is_fault) {
    XrValue::Struct f;
    f.emplace("faultCode", XrValue(fault.code));
    f.emplace("faultString", XrValue(fault.message));
    out += "<fault>";
    append_value(out, XrValue(std::move(f)));
    out += "</fault>";
  } else {
    out += "<params><param>";
    append_value(out, value);
    out += "</param></params>";
  }
  out += "</methodResponse>";
  return out;
}

Expected<MethodResponse> MethodResponse::parse(const std::string& xml) {
  MethodResponse response;
  Reader in(xml);
  if (!in.response(response)) return in.error();
  return response;
}

}  // namespace sphinx::rpc
