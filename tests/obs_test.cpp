// Tests for the flight recorder: trace serialization, metric
// aggregation, recorder wiring, file export, and the headline property
// -- two same-seed runs produce byte-identical trace + metrics output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "exp/runner.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {
namespace {

// --- serialization primitives ---------------------------------------------

TEST(FormatDouble, DeterministicShortestForm) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(-2.5), "-2.5");
  EXPECT_EQ(format_double(0.1), "0.1");
  // Non-finite values are quoted strings so the JSON stays valid.
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()),
            "\"nan\"");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(TraceEvent, JsonHasFixedKeyOrder) {
  TraceSink sink;
  TraceEvent event;
  event.at = 12.5;
  event.kind = TraceKind::kPlanSent;
  event.source = sink.name("sphinx-server/t");
  event.subject = sink.name("job");
  event.numbered = true;
  event.number = 7;
  event.detail = sink.name("site:3");
  event.value = 2.0;
  sink.record(event);
  EXPECT_EQ(sink.to_jsonl(),
            "{\"t\":12.5,\"kind\":\"plan_sent\",\"src\":\"sphinx-server/t\","
            "\"subj\":\"job:7\",\"detail\":\"site:3\",\"v\":2}\n");
}

TEST(TraceSink, StoresEachNameOnceEscaped) {
  TraceSink sink;
  EXPECT_EQ(sink.name(""), Name{});
  const Name job = sink.name("job");
  EXPECT_EQ(sink.name(std::string("job")), job);
  const Name quoted = sink.name("say \"hi\"");
  EXPECT_NE(quoted, job);
  EXPECT_EQ(sink.name("say \"hi\""), quoted);
  TraceEvent event;
  event.source = quoted;
  event.subject = job;
  event.numbered = true;
  event.number = 0;
  sink.record(event);
  event.numbered = false;
  sink.record(event);
  const std::vector<TraceView> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  // Views read the table's escaped text; a numbered subject reads
  // "name:number", a bare one the name alone.
  EXPECT_EQ(events[0].source, "say \\\"hi\\\"");
  EXPECT_EQ(events[0].subject, "job:0");
  EXPECT_EQ(events[1].subject, "job");
  EXPECT_EQ(events[1].detail, "");
}

TEST(TraceSink, RefusesNamesFromAnotherSink) {
  TraceSink other;
  (void)other.name("a");
  const Name foreign = other.name("b");
  TraceSink sink;
  TraceEvent event;
  event.detail = foreign;
  EXPECT_THROW(sink.record(event), ContractViolation);
  EXPECT_TRUE(sink.empty());
}

TEST(TraceSink, EnforcesMonotonicTime) {
  TraceSink sink;
  TraceEvent event;
  event.at = 10.0;
  sink.record(event);
  event.at = 10.0;  // equal timestamps are fine (same engine tick)
  sink.record(event);
  event.at = 20.0;
  sink.record(event);
  EXPECT_EQ(sink.size(), 3u);
  event.at = 5.0;  // time travel is a contract violation
  EXPECT_THROW(sink.record(event), ContractViolation);
}

TEST(TraceSink, JsonlIsOneObjectPerLine) {
  TraceSink sink;
  for (int i = 0; i < 3; ++i) {
    TraceEvent event;
    event.at = i;
    event.kind = TraceKind::kSweepBegin;
    event.source = sink.name("s");
    sink.record(event);
  }
  const std::string jsonl = sink.to_jsonl();
  std::size_t lines = 0;
  for (const char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(jsonl.find("\"t\":0"), 1u);  // first line starts at {"t":0
}

// --- metric set ------------------------------------------------------------

TEST(MetricSet, CountersAndHistograms) {
  MetricSet metrics;
  EXPECT_EQ(metrics.counter("missing"), 0u);
  EXPECT_EQ(metrics.histogram("missing"), nullptr);
  metrics.add("a");
  metrics.add("a", 4);
  metrics.add("b");
  EXPECT_EQ(metrics.counter("a"), 5u);
  EXPECT_EQ(metrics.counter("b"), 1u);
  metrics.observe("lat", 1.0);
  metrics.observe("lat", 3.0);
  const auto* histogram = metrics.histogram("lat");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->stats.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram->stats.mean(), 2.0);
  EXPECT_EQ(histogram->samples.size(), 2u);
}

TEST(MetricSet, JsonIsOrderedAndStable) {
  MetricSet metrics;
  metrics.add("z.counter", 2);
  metrics.add("a.counter", 1);
  metrics.observe("h", 4.0);
  const std::string json = metrics.to_json();
  // std::map storage: "a.counter" serializes before "z.counter" no
  // matter the insertion order.
  EXPECT_LT(json.find("a.counter"), json.find("z.counter"));
  EXPECT_NE(json.find("\"count\": 1, \"mean\": 4"), std::string::npos);
  // Serialization is a pure function of the contents.
  EXPECT_EQ(json, metrics.to_json());
}

// --- recorder --------------------------------------------------------------

TEST(Recorder, QualifiedNamesAndEngineStamping) {
  sim::Engine engine;
  Recorder recorder(engine);
  engine.schedule_at(7.0, "emit", [&] {
    recorder.event(TraceKind::kSweepBegin, recorder.name("srv"), {}, {}, 3.0);
    recorder.count("srv", "sweeps");
    recorder.count("", "unscoped");
    recorder.observe("srv", "depth", 3.0);
  });
  engine.run_until();
  // Metric names are qualified "name@source", bare without a source.
  EXPECT_TRUE(recorder.metrics().counters().contains("sweeps@srv"));
  EXPECT_TRUE(recorder.metrics().counters().contains("unscoped"));
  ASSERT_EQ(recorder.trace().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.trace().events().front().at, 7.0);
  EXPECT_EQ(recorder.counter("sweeps", "srv"), 1u);
  EXPECT_EQ(recorder.counter("sweeps", "other"), 0u);
  const auto* histogram = recorder.histogram("depth", "srv");
  ASSERT_NE(histogram, nullptr);
  EXPECT_DOUBLE_EQ(histogram->stats.mean(), 3.0);
}

// --- export ----------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    out.append(buffer, got);
  }
  std::fclose(file);
  return out;
}

TEST(Export, WritesSerializedFormsVerbatim) {
  TraceSink sink;
  TraceEvent event;
  event.at = 1.0;
  event.source = sink.name("s");
  sink.record(event);
  MetricSet metrics;
  metrics.add("c", 3);

  const std::string trace_path = ::testing::TempDir() + "obs_trace.jsonl";
  const std::string metrics_path = ::testing::TempDir() + "obs_metrics.json";
  ASSERT_TRUE(write_trace_jsonl(sink, trace_path).ok());
  ASSERT_TRUE(write_metrics_json(metrics, metrics_path).ok());
  EXPECT_EQ(slurp(trace_path), sink.to_jsonl());
  EXPECT_EQ(slurp(metrics_path), metrics.to_json());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// The export renders and writes one block of events at a time; the file
// must still equal the whole log's rendering (two full blocks and a
// partial third).
TEST(Export, StreamedTraceEqualsTheWholeRendering) {
  TraceSink sink;
  const Name source = sink.name("sphinx-server/t");
  const Name job = sink.name("job");
  for (std::uint64_t i = 0; i < 3000; ++i) {
    TraceEvent event;
    event.at = static_cast<double>(i) * 0.5;
    event.kind = i % 2 == 0 ? TraceKind::kPlanSent : TraceKind::kSweepBegin;
    event.source = source;
    event.subject = job;
    event.numbered = true;
    event.number = i;
    event.detail = sink.name("site:" + std::to_string(i % 7));
    event.value = static_cast<double>(i) / 3.0;
    sink.record(event);
  }
  const std::string path = ::testing::TempDir() + "obs_streamed.jsonl";
  ASSERT_TRUE(write_trace_jsonl(sink, path).ok());
  const std::string whole = sink.to_jsonl();
  EXPECT_EQ(std::count(whole.begin(), whole.end(), '\n'), 3000);
  EXPECT_EQ(slurp(path), whole);
  std::remove(path.c_str());
}

TEST(Export, UnwritablePathReportsIoError) {
  const auto result = write_trace_jsonl(TraceSink{}, "/nonexistent/dir/x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "io_error");
}

// --- the headline property -------------------------------------------------

TEST(Determinism, SameSeedRunsProduceByteIdenticalRecordings) {
  const auto record = [] {
    exp::ExperimentConfig config;
    config.scenario.seed = 11;
    config.scenario.site_failures = true;   // exercise outage tracing
    config.scenario.background_load = true;
    config.dag_count = 2;
    config.horizon = hours(6);
    exp::TenantOptions no_feedback;
    no_feedback.algorithm = core::Algorithm::kRoundRobin;
    no_feedback.use_feedback = false;
    exp::Experiment experiment(config);
    (void)experiment.run(
        {{"fb", exp::TenantOptions{}}, {"nofb", no_feedback}});
    const auto& recorder = experiment.recorder();
    EXPECT_FALSE(recorder.trace().empty());
    return std::pair{recorder.trace().to_jsonl(),
                     recorder.metrics().to_json()};
  };
  const auto a = record();
  const auto b = record();
  EXPECT_EQ(a.first, b.first);    // trace.jsonl
  EXPECT_EQ(a.second, b.second);  // metrics.json
}

}  // namespace
}  // namespace sphinx::obs
