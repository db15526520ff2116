#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/time.h"
#include "obs/span.h"
#include "obs/text_file.h"

namespace dlte::obs {
namespace {

bool contains(const std::string& doc, const std::string& needle) {
  return doc.find(needle) != std::string::npos;
}

// Drives a tracer through a representative attach + data slice. Taking
// the tracer by reference lets the determinism test run the exact same
// schedule twice against two independent instances.
void drive(SpanTracer& t) {
  TimePoint now{};
  t.set_clock([&now] { return now; });
  const SpanId attach = t.begin("attach", "ap1/ran", kNoSpan);
  t.activate(attach);
  now = now + Duration::millis(2.0);
  const SpanId aka = t.begin("aka", "ap1/epc");
  t.annotate(aka, "rand", "deadbeef");
  now = now + Duration::millis(31.0);
  t.end(aka);
  now = now + Duration::millis(1.0);
  t.end(attach);
  const SpanId up = t.begin("gtp_uplink", "core/gtp", kNoSpan);
  now = now + Duration::millis(15.0);
  t.end(up);
}

TEST(ChromeTraceExporter, ByteIdenticalForIdenticalRuns) {
  // The determinism contract CI leans on: same schedule, same bytes.
  SpanTracer a;
  SpanTracer b;
  drive(a);
  drive(b);
  EXPECT_EQ(ChromeTraceExporter::to_json(a), ChromeTraceExporter::to_json(b));
}

TEST(ChromeTraceExporter, DocumentShapeAndMetadata) {
  SpanTracer t;
  drive(t);
  const std::string doc = ChromeTraceExporter::to_json(t);
  EXPECT_TRUE(contains(doc, "\"displayTimeUnit\":\"ms\""));
  EXPECT_TRUE(contains(doc, "\"generator\":\"dlte-span-tracer\""));
  EXPECT_TRUE(contains(doc, "\"span_count\":3"));
  EXPECT_TRUE(contains(doc, "\"open_spans\":0"));
  EXPECT_TRUE(contains(doc, "\"dropped_spans\":0"));
  EXPECT_TRUE(contains(doc, "\"process_name\""));
  // One named track per category, so Perfetto shows components apart.
  EXPECT_TRUE(contains(doc, "\"name\":\"ap1/ran\""));
  EXPECT_TRUE(contains(doc, "\"name\":\"ap1/epc\""));
  EXPECT_TRUE(contains(doc, "\"name\":\"core/gtp\""));
  EXPECT_TRUE(contains(doc, "\"ph\":\"X\""));
}

TEST(ChromeTraceExporter, CausalityRidesInArgs) {
  SpanTracer t;
  drive(t);
  const std::string doc = ChromeTraceExporter::to_json(t);
  // Span 2 (aka) is parented under span 1 (attach); annotations are
  // plain args keys.
  EXPECT_TRUE(contains(doc, "\"id\":2,\"parent\":1,\"rand\":\"deadbeef\""));
  EXPECT_TRUE(contains(doc, "\"id\":1,\"parent\":0"));
}

TEST(ChromeTraceExporter, OpenSpansCloseAtLatestAndAreFlagged) {
  TimePoint now{};
  SpanTracer t{[&now] { return now; }};
  const SpanId id = t.begin("x2_round", "coord", kNoSpan);
  now = now + Duration::millis(40.0);
  t.annotate(id, "peers", "1");  // Advances latest() without ending.
  const std::string doc = ChromeTraceExporter::to_json(t);
  EXPECT_TRUE(contains(doc, "\"open\":\"true\""));
  EXPECT_TRUE(contains(doc, "\"open_spans\":1"));
  // 40 ms of simulated time, exported in microseconds.
  EXPECT_TRUE(contains(doc, "\"dur\":40000"));
  EXPECT_TRUE(t.find(id)->open);  // Export must not mutate the tracer.
}

TEST(ChromeTraceExporter, ReservedAndDuplicateKeysGetSuffixed) {
  SpanTracer t;
  const SpanId id = t.begin("attach", "ran", kNoSpan);
  t.annotate(id, "id", "spoof");      // Collides with the reserved key.
  t.annotate(id, "retry", "first");
  t.annotate(id, "retry", "second");  // Duplicate annotation key.
  const std::string doc = ChromeTraceExporter::to_json(t);
  EXPECT_TRUE(contains(doc, "\"id#1\":\"spoof\""));
  EXPECT_TRUE(contains(doc, "\"retry\":\"first\""));
  EXPECT_TRUE(contains(doc, "\"retry#2\":\"second\""));
}

TEST(ChromeTraceExporter, EscapesAnnotationStrings) {
  SpanTracer t;
  const SpanId id = t.begin("attach", "ran", kNoSpan);
  t.annotate(id, "msg", "quote \" backslash \\ newline \n done");
  const std::string doc = ChromeTraceExporter::to_json(t);
  EXPECT_TRUE(
      contains(doc, "\"msg\":\"quote \\\" backslash \\\\ newline \\n done\""));
}

TEST(ChromeTraceExporter, WriteFileMatchesToJson) {
  SpanTracer t;
  drive(t);
  const std::string path =
      testing::TempDir() + "/dlte_trace_export_test.json";
  ASSERT_TRUE(write_text_file(path, ChromeTraceExporter::to_json(t) + "\n"));
  std::ifstream in{path, std::ios::binary};
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), ChromeTraceExporter::to_json(t) + "\n");
  std::remove(path.c_str());
}

TEST(ChromeTraceExporter, FailsCleanlyOnUnwritablePath) {
  SpanTracer t;
  drive(t);
  EXPECT_FALSE(write_text_file("/nonexistent-dir/trace.json",
                               ChromeTraceExporter::to_json(t)));
}

}  // namespace
}  // namespace dlte::obs
