// Span tracer: JSON well-formedness (a minimal parser, no external
// deps), per-track span nesting, the disarmed-tracer-is-free contract,
// and the task-graph wiring (steal + park instants on rank tracks) that
// `ebvpart run --trace` depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/task_graph.h"
#include "obs/trace.h"

namespace ebv::obs::trace {
namespace {

// --- A minimal JSON reader --------------------------------------------
// Just enough to validate the tracer's output shape: objects, arrays,
// strings, numbers. Throws std::runtime_error on malformed input, which
// is exactly the failure the test wants to catch.

struct JsonValue {
  enum class Type { kObject, kArray, kString, kNumber };
  Type type = Type::kNumber;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing data");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = string_value();
      expect(':');
      v.object.emplace(key.string, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unclosed string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        v.string.push_back(text_[pos_++]);
        continue;
      }
      v.string.push_back(c);
    }
  }

  JsonValue number() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("expected number");
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

struct ParsedEvent {
  std::string name;
  std::string ph;
  double ts = 0.0;
  double dur = 0.0;
  double tid = 0.0;
};

std::vector<ParsedEvent> parse_events(const std::string& json) {
  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  EXPECT_EQ(doc.type, JsonValue::Type::kObject);
  const auto it = doc.object.find("traceEvents");
  EXPECT_NE(it, doc.object.end());
  std::vector<ParsedEvent> out;
  for (const JsonValue& e : it->second.array) {
    ParsedEvent ev;
    ev.name = e.object.at("name").string;
    ev.ph = e.object.at("ph").string;
    if (e.object.count("ts") != 0) ev.ts = e.object.at("ts").number;
    if (e.object.count("dur") != 0) ev.dur = e.object.at("dur").number;
    if (e.object.count("tid") != 0) ev.tid = e.object.at("tid").number;
    out.push_back(std::move(ev));
  }
  return out;
}

TEST(Trace, DisabledByDefaultAndRendersEmpty) {
  EXPECT_FALSE(enabled());
  {
    const Span span("should-not-appear");
    instant("also-not");
  }
  start();
  const std::string json = stop_and_render();
  const std::vector<ParsedEvent> events = parse_events(json);
  // Only per-thread name metadata may appear; no work events.
  for (const ParsedEvent& e : events) EXPECT_EQ(e.ph, "M");
  EXPECT_FALSE(enabled());
}

TEST(Trace, SpansAndInstantsRender) {
  start();
  EXPECT_TRUE(enabled());
  {
    const Span outer("outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      const Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    instant("mark", 3);
  }
  const std::string json = stop_and_render();
  const std::vector<ParsedEvent> events = parse_events(json);

  std::map<std::string, ParsedEvent> by_name;
  for (const ParsedEvent& e : events) by_name[e.name] = e;
  ASSERT_EQ(by_name.count("outer"), 1u);
  ASSERT_EQ(by_name.count("inner"), 1u);
  ASSERT_EQ(by_name.count("mark"), 1u);
  EXPECT_EQ(by_name["outer"].ph, "X");
  EXPECT_EQ(by_name["inner"].ph, "X");
  EXPECT_EQ(by_name["mark"].ph, "i");

  // Nesting: inner lies strictly within outer on the same track.
  const ParsedEvent& outer = by_name["outer"];
  const ParsedEvent& inner = by_name["inner"];
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur + 1e-3);
  EXPECT_GE(outer.dur, inner.dur);
}

TEST(Trace, EventsFromEarlierEpochAreDropped) {
  start();
  { const Span span("stale"); }
  (void)stop_and_render();
  // A fresh trace must not resurrect the earlier epoch's events.
  start();
  { const Span span("fresh"); }
  const std::string json = stop_and_render();
  EXPECT_EQ(json.find("stale"), std::string::npos);
  EXPECT_NE(json.find("fresh"), std::string::npos);
}

TEST(Trace, ThreadTrackGuardAssignsAndRestores) {
  EXPECT_EQ(thread_track(), 0u);
  start();
  {
    const ThreadTrackGuard guard(5);
    EXPECT_EQ(thread_track(), 5u);
    const Span span("on-track-5");
  }
  EXPECT_EQ(thread_track(), 0u);
  const std::string json = stop_and_render();
  const std::vector<ParsedEvent> events = parse_events(json);
  bool found = false;
  for (const ParsedEvent& e : events) {
    if (e.name == "on-track-5") {
      found = true;
      EXPECT_EQ(e.tid, 5.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Trace, RetrospectiveCompleteUsesGivenTimestamps) {
  start();
  const auto begin = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  const auto end = std::chrono::steady_clock::now();
  complete("queue-wait", begin, end, 2);
  const std::string json = stop_and_render();
  const std::vector<ParsedEvent> events = parse_events(json);
  bool found = false;
  for (const ParsedEvent& e : events) {
    if (e.name == "queue-wait") {
      found = true;
      EXPECT_EQ(e.ph, "X");
      EXPECT_GE(e.dur, 2'000.0);  // at least ~3 ms, in microseconds
    }
  }
  EXPECT_TRUE(found);
}

TEST(Trace, TaskGraphEmitsStealAndParkOnRankTracks) {
  // One root task fans out to dependents that sleep ~1 ms each: the
  // non-owning ranks must steal to make progress, and with more ranks
  // than initially-ready tasks some park first. Pins the executor's
  // instrumentation (ThreadTrackGuard + steal/park instants).
  start();
  {
    TaskGraph g;
    const TaskGraph::TaskId root = g.add([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    for (int i = 0; i < 16; ++i) {
      g.add(
          [] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          },
          {root});
    }
    g.run(4);
  }
  const std::string json = stop_and_render();
  const std::vector<ParsedEvent> events = parse_events(json);
  std::size_t steals = 0;
  std::size_t parks = 0;
  std::vector<double> tids;
  for (const ParsedEvent& e : events) {
    if (e.name == "steal") ++steals;
    if (e.name == "park") ++parks;
    if (e.ph != "M") tids.push_back(e.tid);
  }
  // All 16 dependents become ready when the root finishes on one rank's
  // local deque; the idle ranks must have stolen or parked meanwhile.
  ASSERT_GT(steals + parks, 0u);
  // Rank tracks are 1-based (tid 0 is the main thread).
  ASSERT_FALSE(tids.empty());
  std::sort(tids.begin(), tids.end());
  EXPECT_GE(tids.back(), 1.0);
}

TEST(Trace, WriteProducesReadableFile) {
  start();
  { const Span span("file-span"); }
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  write(path, stop_and_collect());
  std::string content;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      content.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());
  const std::vector<ParsedEvent> events = parse_events(content);
  bool found = false;
  for (const ParsedEvent& e : events) found |= (e.name == "file-span");
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ebv::obs::trace
