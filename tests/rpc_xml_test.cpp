// Tests for the <methodCall>/<methodResponse> wire format, through the
// XrValue tree reference of wire_reference.hpp: its envelopes are written
// and read by rpc::XrWriter and rpc::XrReader, so every wire rule checked
// here is the reader's and the writer's.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <vector>

#include "rpc/xmlrpc.hpp"
#include "wire_reference.hpp"

namespace sphinx::rpc {
namespace {

using tree::MethodCall;
using tree::MethodResponse;
using tree::XrValue;

/// Parses a methodCall whose one <param> holds `param_body`.
Expected<MethodCall> parse_param(const std::string& param_body) {
  return MethodCall::parse(
      "<?xml version=\"1.0\"?><methodCall><methodName>m</methodName>"
      "<params><param>" +
      param_body + "</param></params></methodCall>");
}

/// value -> wire bytes -> value, as the one param of a methodCall.
Expected<XrValue> through_wire(const XrValue& value) {
  auto parsed = MethodCall::parse(MethodCall{"m", {value}}.serialize());
  if (!parsed) return Unexpected<Error>{parsed.error()};
  EXPECT_EQ(parsed->params.size(), 1u);
  return parsed->params.at(0);
}

/// `value` wrapped in `depth` single-element arrays.
XrValue nested(int depth, XrValue value) {
  for (int i = 0; i < depth; ++i) value = XrValue(XrValue::Array{value});
  return value;
}

TEST(XrValue, TypedConstructionAndAccess) {
  EXPECT_EQ(XrValue(5).as_int(), 5);
  EXPECT_DOUBLE_EQ(XrValue(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(XrValue(4).as_double(), 4.0);  // int widens
  EXPECT_TRUE(XrValue(true).as_bool());
  EXPECT_EQ(XrValue("hi").as_string(), "hi");
  EXPECT_THROW((void)XrValue("hi").as_int(), AssertionError);
}

TEST(XrValue, StructAccess) {
  XrValue::Struct s;
  s.emplace("site", XrValue("acdc"));
  s.emplace("cpus", XrValue(72));
  const XrValue v(std::move(s));
  ASSERT_NE(v.find("site"), nullptr);
  EXPECT_EQ(v.find("site")->as_string(), "acdc");
  EXPECT_EQ(v.find("nope"), nullptr);
  EXPECT_EQ(XrValue(3).find("site"), nullptr);  // not a struct
  EXPECT_EQ(v.at("cpus").as_int(), 72);
  EXPECT_THROW((void)v.at("nope"), AssertionError);
}

XrValue sample_value() {
  XrValue::Struct job;
  job.emplace("name", XrValue("cms-reco-042"));
  job.emplace("runtime", XrValue(61.25));
  job.emplace("retries", XrValue(3));
  job.emplace("held", XrValue(false));
  job.emplace("inputs",
              XrValue(XrValue::Array{XrValue("lfn://f1"), XrValue("lfn://f2")}));
  return XrValue(std::move(job));
}

TEST(XrValue, XmlRoundTripPreservesStructure) {
  const XrValue original = sample_value();
  const auto decoded = through_wire(original);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(XrValue, NestedArraysRoundTrip) {
  const XrValue v(XrValue::Array{
      XrValue(XrValue::Array{XrValue(1), XrValue(2)}),
      XrValue(XrValue::Array{}),
  });
  const auto decoded = through_wire(v);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
}

TEST(XrValue, BareTextValueIsString) {
  const auto call = parse_param("<value>plain</value>");
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->params.at(0).as_string(), "plain");
  const auto decoded = parse_param("<value>1 &lt; 2</value>");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->params.at(0).as_string(), "1 < 2");
}

TEST(XrValue, LegacyIntTagsAccepted) {
  for (const char* tag : {"i4", "int", "i8"}) {
    const auto call =
        parse_param("<value><" + std::string(tag) + ">7</" + tag + "></value>");
    ASSERT_TRUE(call.has_value()) << tag;
    EXPECT_EQ(call->params.at(0).as_int(), 7);
  }
}

TEST(XrValue, RejectsBadPayloads) {
  const auto bad = [](const std::string& body) {
    return !parse_param(body).has_value();
  };
  EXPECT_TRUE(bad("<value><i8>zzz</i8></value>"));
  EXPECT_TRUE(bad("<value><double>zzz</double></value>"));
  EXPECT_TRUE(bad("<value><boolean>7</boolean></value>"));
  EXPECT_TRUE(bad("<value><array/></value>"));
  EXPECT_TRUE(bad("<value><mystery>1</mystery></value>"));
  EXPECT_TRUE(bad("<notvalue>x</notvalue>"));
}

TEST(XrValue, SubnormalAndSpecialDoublesRoundTripBitExact) {
  const MethodCall smallest{"m", {XrValue(5e-324)}};
  EXPECT_NE(smallest.serialize().find(
                "<double>4.9406564584124654e-324</double>"),
            std::string::npos);
  for (const double d :
       {5e-324, 2.2e-308, DBL_MIN, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -0.0}) {
    const auto decoded = through_wire(XrValue(d));
    ASSERT_TRUE(decoded.has_value()) << d;
    ASSERT_TRUE(decoded->is_double());
    // Bytes, not ==, so NaN and -0 are compared too.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->as_double()),
              std::bit_cast<std::uint64_t>(d))
        << d;
  }
}

TEST(XrValue, NumberTextMustBeEntirelyANumber) {
  for (const char* body :
       {"<i8>12abc</i8>", "<i8> 7</i8>", "<i8>7 </i8>", "<i8>+7</i8>",
        "<i8></i8>", "<i8/>", "<i8>9223372036854775808</i8>", "<i4>0x10</i4>",
        "<double>0x10</double>", "<double> 1.5</double>",
        "<double>1.5e</double>", "<double>1e400</double>",
        "<double>1e-400</double>", "<double>&amp;1</double>"}) {
    EXPECT_FALSE(parse_param("<value>" + std::string(body) + "</value>")
                     .has_value())
        << body;
  }
  const auto call = parse_param("<value><i8>-9223372036854775808</i8></value>");
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->params.at(0).as_int(),
            std::numeric_limits<std::int64_t>::min());
  const auto d = parse_param("<value><double>-1.5e-3</double></value>");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->params.at(0).as_double(), -1.5e-3);
}

TEST(XrValue, DuplicateStructMembersRejected) {
  const auto member = [](const char* name, int v) {
    return std::string("<member><name>") + name + "</name><value><i8>" +
           std::to_string(v) + "</i8></value></member>";
  };
  EXPECT_FALSE(parse_param("<value><struct>" + member("a", 1) + member("a", 2) +
                           "</struct></value>")
                   .has_value());
  const auto ok = parse_param("<value><struct>" + member("a", 1) +
                              member("b", 2) + "</struct></value>");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->params.at(0).at("b").as_int(), 2);
}

TEST(XrValue, NestingIsCappedAtAFixedDepth) {
  // A top-level param is depth 1; each array level adds one.
  EXPECT_TRUE(through_wire(nested(kMaxValueDepth - 1, XrValue(1))).has_value());
  EXPECT_FALSE(through_wire(nested(kMaxValueDepth, XrValue(1))).has_value());
}

TEST(MethodCall, DeepNestingIsRejectedNotACrash) {
  constexpr int kLevels = 100000;
  std::string xml = "<methodCall><methodName>m</methodName><params><param>";
  for (int i = 0; i < kLevels; ++i) xml += "<value><array><data>";
  for (int i = 0; i < kLevels; ++i) xml += "</data></array></value>";
  xml += "</param></params></methodCall>";
  const auto parsed = MethodCall::parse(xml);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("nested too deep"), std::string::npos);
}

TEST(MethodCall, SerializeParseRoundTrip) {
  MethodCall call;
  call.method = "sphinx.schedule_dag";
  call.params = {XrValue("dag-xml"), sample_value(), XrValue(42)};
  const auto parsed = MethodCall::parse(call.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, call.method);
  ASSERT_EQ(parsed->params.size(), 3u);
  EXPECT_EQ(parsed->params[1], call.params[1]);
  EXPECT_EQ(parsed->params[2].as_int(), 42);
}

TEST(MethodCall, SerializesTheCompactWireForm) {
  XrValue::Struct s;
  s.emplace("a", XrValue(1));
  s.emplace("", XrValue(""));
  const MethodCall call{"x<&>\"'",
                        {XrValue(std::move(s)), XrValue(XrValue::Array{}),
                         XrValue(XrValue::Struct{}), XrValue(0.1),
                         XrValue(true)}};
  EXPECT_EQ(call.serialize(),
            "<?xml version=\"1.0\"?><methodCall>"
            "<methodName>x&lt;&amp;&gt;&quot;&apos;</methodName><params>"
            "<param><value><struct>"
            "<member><name/><value><string/></value></member>"
            "<member><name>a</name><value><i8>1</i8></value></member>"
            "</struct></value></param>"
            "<param><value><array><data/></array></value></param>"
            "<param><value><struct/></value></param>"
            "<param><value><double>0.10000000000000001</double></value></param>"
            "<param><value><boolean>1</boolean></value></param>"
            "</params></methodCall>");
  EXPECT_EQ((MethodCall{"ping", {}}).serialize(),
            "<?xml version=\"1.0\"?><methodCall><methodName>ping</methodName>"
            "<params/></methodCall>");
  EXPECT_EQ(MethodResponse::failure(3, "no").serialize(),
            "<?xml version=\"1.0\"?><methodResponse><fault><value><struct>"
            "<member><name>faultCode</name><value><i8>3</i8></value></member>"
            "<member><name>faultString</name><value><string>no</string>"
            "</value></member></struct></value></fault></methodResponse>");
}

TEST(MethodCall, ParseAcceptsLayoutWhitespace) {
  const auto parsed = MethodCall::parse(
      "<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>m</methodName>\n"
      "  <params>\n    <param>\n      <value> <array> <data>\n"
      "        <value><i8>1</i8></value>\n      </data> </array> </value>\n"
      "    </param>\n  </params>\n</methodCall>\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params.at(0), XrValue(XrValue::Array{XrValue(1)}));
}

TEST(MethodCall, NoParamsOk) {
  MethodCall call;
  call.method = "ping";
  const auto parsed = MethodCall::parse(call.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->params.empty());
}

TEST(MethodCall, ParseRejectsMissingMethodName) {
  EXPECT_FALSE(MethodCall::parse("<methodCall><params/></methodCall>").has_value());
  EXPECT_FALSE(MethodCall::parse("<other/>").has_value());
}

TEST(MethodCall, ParseRejectsMalformed) {
  const std::string name = "<methodName>m</methodName>";
  for (const std::string& xml : std::vector<std::string>{
           "",
           "<methodCall>",                                  // unterminated
           "<methodCall>" + name + "</methodResponse>",     // mismatched
           "<methodCall><methodName>m</methodCall></methodName>",  // crossed
           "<methodCall x=1>" + name + "</methodCall>",     // bad attribute
           "<methodCall><methodName>&bogus;</methodName></methodCall>",
           "<methodCall>" + name + "</methodCall><b/>",     // two roots
           "<methodCall><methodName>&amp</methodName></methodCall>",
       }) {
    EXPECT_FALSE(MethodCall::parse(xml).has_value()) << xml;
  }
}

TEST(MethodResponse, SuccessRoundTrip) {
  const auto r = MethodResponse::success(sample_value());
  const auto parsed = MethodResponse::parse(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_fault);
  EXPECT_EQ(parsed->value, r.value);
}

TEST(MethodResponse, FaultRoundTrip) {
  const auto r = MethodResponse::failure(3, "authorization denied");
  const auto parsed = MethodResponse::parse(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_fault);
  EXPECT_EQ(parsed->fault.code, 3);
  EXPECT_EQ(parsed->fault.message, "authorization denied");
}

TEST(MethodResponse, ParseRejectsEmptyResponse) {
  EXPECT_FALSE(MethodResponse::parse("<methodResponse/>").has_value());
}

TEST(MethodResponse, MistypedFaultMembersAreAnErrorNotAThrow) {
  const auto fault = [](const std::string& code, const std::string& text) {
    return "<methodResponse><fault><value><struct><member><name>faultCode"
           "</name><value>" +
           code + "</value></member><member><name>faultString</name><value>" +
           text + "</value></member></struct></value></fault></methodResponse>";
  };
  ASSERT_TRUE(MethodResponse::parse(fault("<i8>3</i8>", "no")).has_value());
  for (const std::string& xml :
       {fault("<string>3</string>", "no"), fault("<i8>3</i8>", "<i8>4</i8>")}) {
    Expected<MethodResponse> parsed = MethodResponse::failure(0, "");
    EXPECT_NO_THROW(parsed = MethodResponse::parse(xml)) << xml;
    EXPECT_FALSE(parsed.has_value()) << xml;
  }
}

}  // namespace
}  // namespace sphinx::rpc
