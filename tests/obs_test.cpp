// Tests for the observability subsystem (src/obs) and the CLI JSON writer:
// span nesting and ordering, counter atomicity under threads, Chrome
// trace-event JSON validity (parsed back with a real parser below), the
// zero-cost disabled path, RunStats consistency against the allocator's
// own evaluation tally on a paper example, and exact per-run RunStats
// counters: identical with tracing on and off, equal to the traced registry
// deltas, and unchanged when two runs share the process.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/crusade.hpp"
#include "example_specs.hpp"
#include "ft/crusade_ft.hpp"
#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/runstats.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"
#include "util/atomic_file.hpp"
#include "util/json_writer.hpp"

namespace crusade {
namespace {

// --- a small strict JSON parser (round-trip check, not a convenience) ----

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& key) const {
    auto it = fields.find(key);
    if (it == fields.end()) {
      static const JsonValue missing;
      ADD_FAILURE() << "missing key: " << key;
      return missing;
    }
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses one complete document; trailing garbage is an error.
  bool parse(JsonValue& out) {
    ok_ = true;
    pos_ = 0;
    out = value();
    skip_ws();
    if (pos_ != s_.size()) ok_ = false;
    return ok_;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  JsonValue value() {
    skip_ws();
    JsonValue v;
    if (!ok_ || pos_ >= s_.size()) {
      ok_ = false;
      return v;
    }
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.kind = JsonValue::String;
      v.text = string();
      return v;
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.kind = JsonValue::Bool;
      v.boolean = true;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.kind = JsonValue::Bool;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return v;
    }
    return number();
  }
  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Object;
    ok_ = ok_ && eat('{');
    if (eat('}')) return v;
    do {
      skip_ws();
      std::string key = string();
      ok_ = ok_ && eat(':');
      v.fields[key] = value();
    } while (ok_ && eat(','));
    ok_ = ok_ && eat('}');
    return v;
  }
  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Array;
    ok_ = ok_ && eat('[');
    if (eat(']')) return v;
    do {
      v.items.push_back(value());
    } while (ok_ && eat(','));
    ok_ = ok_ && eat(']');
    return v;
  }
  std::string string() {
    std::string out;
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      ok_ = false;
      return out;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          ok_ = false;
          return out;
        }
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) {
              ok_ = false;
              return out;
            }
            out += static_cast<char>(
                std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) {
      ok_ = false;
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }
  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Number;
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(start, &end);
    if (end == start) {
      ok_ = false;
      return v;
    }
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Every obs test starts from a clean, enabled registry and leaves the
/// global switch off so unrelated tests keep the zero-cost path.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

// --- spans ---------------------------------------------------------------

TEST_F(ObsTest, SpansRecordInCompletionOrderWithNesting) {
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner.a");
    }
    { OBS_SPAN("inner.b"); }
  }
  const std::vector<obs::TraceEvent> events = obs::events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "inner.a");
  EXPECT_EQ(events[1].name, "inner.b");
  EXPECT_EQ(events[2].name, "outer");
  // The outer span contains both inner spans in time.
  const obs::TraceEvent& outer = events[2];
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(events[i].ts_ns, outer.ts_ns);
    EXPECT_LE(events[i].ts_ns + events[i].dur_ns,
              outer.ts_ns + outer.dur_ns);
  }
  // inner.b starts no earlier than inner.a ends.
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns + events[0].dur_ns);
}

TEST_F(ObsTest, DisabledSpansAndCountersRecordNothing) {
  obs::set_enabled(false);
  {
    OBS_SPAN("ghost");
    obs::count("ghost.counter");
  }
  EXPECT_EQ(obs::event_count(), 0u);
  EXPECT_EQ(obs::counter_value("ghost.counter"), 0);
  EXPECT_TRUE(obs::counters().empty());

  // A span opened while disabled is not recorded retroactively even when
  // tracing turns on mid-span.
  {
    auto span = std::make_unique<obs::Span>("late");
    obs::set_enabled(true);
    span.reset();
  }
  EXPECT_EQ(obs::event_count(), 0u);
}

TEST_F(ObsTest, SinkCapacityDropsInsteadOfGrowing) {
  obs::set_event_capacity(4);
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("span.capped");
  }
  EXPECT_EQ(obs::event_count(), 4u);
  EXPECT_EQ(obs::dropped_events(), 6u);
  obs::set_event_capacity(262144);
}

// --- counters ------------------------------------------------------------

TEST_F(ObsTest, CountersAreAtomicAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kIncrements; ++i) obs::count("test.contended");
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::counter_value("test.contended"),
            static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, CountersSupportDeltasAndSortedListing) {
  obs::count("b.second", 5);
  obs::count("a.first", 2);
  obs::count("a.first", 3);
  const auto all = obs::counters();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a.first");
  EXPECT_EQ(all[0].second, 5);
  EXPECT_EQ(all[1].first, "b.second");
  EXPECT_EQ(all[1].second, 5);
}

// --- serialization -------------------------------------------------------

TEST_F(ObsTest, TraceJsonIsValidChromeTraceFormat) {
  {
    OBS_SPAN("phase.example");
    obs::count("sched.evals", 3);
  }
  const std::string json = obs::trace_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::Object);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Array);
  ASSERT_EQ(events.items.size(), 1u);
  const JsonValue& ev = events.items[0];
  EXPECT_EQ(ev.at("name").text, "phase.example");
  EXPECT_EQ(ev.at("ph").text, "X");  // complete event
  EXPECT_EQ(ev.at("pid").number, 1);
  EXPECT_GE(ev.at("ts").number, 0);   // microseconds since trace epoch
  EXPECT_GE(ev.at("dur").number, 0);
  EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  obs::count("alloc.sched_evals", 7);
  {
    OBS_SPAN("alloc.eval");
  }
  JsonValue doc;
  ASSERT_TRUE(JsonParser(obs::metrics_json()).parse(doc));
  EXPECT_EQ(doc.at("counters").at("alloc.sched_evals").number, 7);
  EXPECT_EQ(doc.at("events").number, 1);
  EXPECT_EQ(doc.at("dropped").number, 0);
  // The aligned-text table carries the same counter.
  EXPECT_NE(obs::metrics_table().find("alloc.sched_evals"),
            std::string::npos);
}

TEST_F(ObsTest, RunStatsJsonRoundTrips) {
  RunStats stats;
  stats.allocation_seconds = 0.25;
  stats.total_seconds = 1.0;
  stats.sched_evals = 42;
  JsonValue doc;
  ASSERT_TRUE(JsonParser(stats.to_json()).parse(doc));
  EXPECT_DOUBLE_EQ(doc.at("phases").at("allocation").number, 0.25);
  EXPECT_EQ(doc.at("counters").at("sched.evals").number, 42);
  // Table renders every phase row plus the counters.
  const std::string table = stats.table();
  EXPECT_NE(table.find("allocation"), std::string::npos);
  EXPECT_NE(table.find("sched.evals"), std::string::npos);
}

TEST(RunStatsJson, BytesArePinned) {
  // The CLI, the daemon's result bodies and the benches all splice these
  // bytes verbatim, so the exact form is pinned.
  RunStats stats;
  stats.preflight_seconds = 0.0000004;
  stats.allocation_seconds = 0.25;
  stats.survive_seconds = 12.3456789;
  stats.total_seconds = 13;
  stats.sched_evals = 42;
  stats.alloc_candidates = 1234567890123;
  stats.survive_ft_lies = -1;
  EXPECT_EQ(stats.to_json(),
            "{\"phases\":{\"preflight\":0.000000,\"clustering\":0.000000,"
            "\"allocation\":0.250000,\"reconfig\":0.000000,"
            "\"interface\":0.000000,\"repair\":0.000000,"
            "\"validation\":0.000000,\"diagnosis\":0.000000,"
            "\"ft.transform\":0.000000,\"ft.dependability\":0.000000,"
            "\"survive\":12.345679,\"total\":13.000000},"
            "\"counters\":{\"sched.evals\":42,\"sched.invocations\":0,"
            "\"sched.finish_estimates\":0,"
            "\"alloc.candidates\":1234567890123,\"alloc.clusters\":0,"
            "\"alloc.repair_moves\":0,\"merge.tried\":0,"
            "\"merge.accepted\":0,\"merge.rejected_cost\":0,"
            "\"merge.rejected_schedule\":0,\"merge.rejected_validator\":0,"
            "\"merge.reschedules\":0,\"merge.consolidations\":0,"
            "\"interface.candidates\":0,\"ft.check_tasks\":0,"
            "\"ft.checks_shared\":0,\"ft.spares\":0,"
            "\"survive.scenarios\":0,\"survive.ft_lies\":-1}}");
}

// --- the CLI JSON writer -------------------------------------------------

TEST(JsonWriter, NestedContainersAndEscaping) {
  tools::JsonWriter w;
  w.begin_object()
      .key("name").value("line\n\"quote\"")
      .key("ok").value(true)
      .key("n").value(42)
      .key("pi").value(3.14159, 3)
      .key("list").begin_array().value(1).value(2).value(3).end_array()
      .key("nested").begin_object().key("deep").value("yes").end_object()
      .end_object();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(w.str()).parse(doc)) << w.str();
  EXPECT_EQ(doc.at("name").text, "line\n\"quote\"");
  EXPECT_TRUE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("n").number, 42);
  EXPECT_DOUBLE_EQ(doc.at("pi").number, 3.142);
  ASSERT_EQ(doc.at("list").items.size(), 3u);
  EXPECT_EQ(doc.at("list").items[2].number, 3);
  EXPECT_EQ(doc.at("nested").at("deep").text, "yes");
}

TEST(JsonWriter, RawSplicesLibraryDocuments) {
  RunStats stats;
  stats.sched_evals = 9;
  tools::JsonWriter w;
  w.begin_object()
      .key("feasible").value(false)
      .key("stats").raw(stats.to_json())
      .end_object();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(w.str()).parse(doc)) << w.str();
  EXPECT_EQ(doc.at("stats").at("counters").at("sched.evals").number, 9);
}

// --- end-to-end on a paper example ---------------------------------------

TEST_F(ObsTest, RunStatsMatchesAllocatorTallyOnPaperExample) {
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = quickstart_spec(lib);
  const CrusadeResult result = Crusade(spec, lib, {}).run();

  // The headline consistency contract: RunStats' scheduler-evaluation count
  // IS the allocator's budgeted tally, and the obs counter incremented at
  // every Allocator::evaluate agrees with both.
  EXPECT_GT(result.stats.sched_evals, 0);
  EXPECT_EQ(result.stats.sched_evals,
            obs::counter_value("alloc.sched_evals"));
  EXPECT_EQ(result.stats.sched_invocations,
            obs::counter_value("sched.invocations"));
  EXPECT_GE(result.stats.sched_invocations, result.stats.sched_evals);
  EXPECT_GT(result.stats.clusters, 0);
  EXPECT_GT(result.stats.total_seconds, 0);
  EXPECT_LE(result.stats.allocation_seconds, result.stats.total_seconds);

  // The trace carries the driver's phase taxonomy: at least the preflight,
  // clustering, allocation, reconfig, interface and validation phases.
  JsonValue doc;
  ASSERT_TRUE(JsonParser(obs::trace_json()).parse(doc));
  std::map<std::string, int> phase_spans;
  for (const JsonValue& ev : doc.at("traceEvents").items) {
    const std::string& name = ev.at("name").text;
    if (name.rfind("phase.", 0) == 0) ++phase_spans[name];
  }
  EXPECT_GE(phase_spans.size(), 5u) << obs::trace_json();
  for (const char* phase :
       {"phase.preflight", "phase.clustering", "phase.allocation",
        "phase.reconfig", "phase.interface", "phase.validation"})
    EXPECT_EQ(phase_spans[phase], 1) << phase;
}

TEST_F(ObsTest, FtAndSurvivePhasesLandInStatsAndTrace) {
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = quickstart_spec(lib);
  CrusadeFtParams params;
  params.survive_check = true;
  params.survive_seeds = 16;
  const CrusadeFtResult result = CrusadeFt(spec, lib, params).run();
  ASSERT_TRUE(result.synthesis.feasible);

  // RunStats JSON round-trips the FT/survive phase laps and counters.
  JsonValue doc;
  ASSERT_TRUE(JsonParser(result.synthesis.stats.to_json()).parse(doc));
  const JsonValue& phases = doc.at("phases");
  EXPECT_GT(phases.at("ft.transform").number, 0.0);
  EXPECT_GE(phases.at("ft.dependability").number, 0.0);
  EXPECT_GT(phases.at("survive").number, 0.0);
  const JsonValue& counters = doc.at("counters");
  const int checks = result.transform.assertions_added +
                     result.transform.duplicate_compare_added;
  EXPECT_EQ(counters.at("ft.check_tasks").number, checks);
  EXPECT_EQ(counters.at("ft.checks_shared").number,
            result.transform.checks_shared);
  EXPECT_GE(counters.at("ft.spares").number, 0);
  EXPECT_EQ(counters.at("survive.scenarios").number,
            result.survival.scenarios);
  EXPECT_EQ(counters.at("survive.ft_lies").number, 0);

  // The obs registry carries the same tallies...
  EXPECT_EQ(obs::counter_value("ft.check_tasks"), checks);
  EXPECT_EQ(obs::counter_value("sim.scenarios"), result.survival.scenarios);
  EXPECT_EQ(obs::counter_value("sim.masked"), result.survival.masked);
  EXPECT_EQ(obs::counter_value("sim.ft_lie"), 0);

  // ...and the trace records the FT/sim phase spans (one sweep wrapping one
  // campaign wrapping per-scenario spans).
  JsonValue trace;
  ASSERT_TRUE(JsonParser(obs::trace_json()).parse(trace));
  std::map<std::string, int> spans;
  for (const JsonValue& ev : trace.at("traceEvents").items)
    ++spans[ev.at("name").text];
  EXPECT_EQ(spans["phase.ft.transform"], 1);
  EXPECT_EQ(spans["phase.ft.dependability"], 1);
  EXPECT_EQ(spans["phase.sim.sweep"], 1);
  EXPECT_EQ(spans["phase.sim.campaign"], 1);
  EXPECT_EQ(spans["sim.scenario"], result.survival.scenarios);
}

TEST_F(ObsTest, DisabledRunReportsPhaseTimesButNoGatedCounters) {
  // No RunStats counter is gated on tracing: with tracing off a run reports
  // its phase times and exactly the counters of the same run traced, and
  // records no events.
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = quickstart_spec(lib);
  const CrusadeResult traced = Crusade(spec, lib, {}).run();
  obs::set_enabled(false);
  obs::reset();
  const CrusadeResult result = Crusade(spec, lib, {}).run();
  EXPECT_GT(result.stats.total_seconds, 0);
  EXPECT_GT(result.stats.sched_evals, 0);
  EXPECT_GT(result.stats.clusters, 0);
  EXPECT_GT(result.stats.sched_invocations, 0);
  EXPECT_GT(result.stats.finish_estimates, 0);
  EXPECT_GT(result.stats.alloc_candidates, 0);
  EXPECT_EQ(result.stats.counter_rows(), traced.stats.counter_rows());
  EXPECT_EQ(obs::event_count(), 0u);
}

// --- exact per-run counters ----------------------------------------------

/// Runs `synthesize` untraced, then traced in a fresh obs session.  The two
/// RunStats must carry identical counters, and every counter the obs
/// registry also keeps must equal the traced run's registry delta.
template <typename Synthesize>
void expect_exact_counters(const Synthesize& synthesize,
                           const std::string& what) {
  obs::set_enabled(false);
  obs::reset();
  const RunStats untraced = synthesize();
  obs::set_enabled(true);
  const RunStats traced = synthesize();
  obs::set_enabled(false);
  EXPECT_EQ(untraced.counter_rows(), traced.counter_rows()) << what;
  EXPECT_GT(traced.sched_invocations, 0) << what;
  // Every allocator evaluation estimates finish times; nothing else does.
  EXPECT_EQ(traced.finish_estimates, traced.sched_evals) << what;
  const std::pair<std::int64_t, const char*> registry[] = {
      {traced.sched_evals, "alloc.sched_evals"},
      {traced.sched_invocations, "sched.invocations"},
      {traced.finish_estimates, "sched.finish_estimates"},
      {traced.alloc_candidates, "alloc.candidates"},
      {traced.merge_reschedules, "merge.reschedules"},
  };
  for (const auto& [value, name] : registry)
    EXPECT_EQ(value, obs::counter_value(name)) << what << ": " << name;
  obs::reset();
}

Specification profile_spec(const ResourceLibrary& lib, const char* profile,
                           double scale) {
  return SpecGenerator(lib).generate(
      profile_config(profile_by_name(profile), scale));
}

class RunStatsExactTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RunStatsExactTest, IdenticalWithTracingOnAndOff) {
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = profile_spec(lib, GetParam(), 0.03);
  for (bool reconfig : {true, false}) {
    CrusadeParams params;
    params.enable_reconfig = reconfig;
    expect_exact_counters(
        [&] { return Crusade(spec, lib, params).run().stats; },
        std::string(GetParam()) + (reconfig ? "" : " without reconfig"));
  }
}

INSTANTIATE_TEST_SUITE_P(Table2Profiles, RunStatsExactTest,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC", "ADMR", "B192G",
                                           "NGXM"));

class RunStatsExactFtTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RunStatsExactFtTest, IdenticalWithTracingOnAndOff) {
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = profile_spec(lib, GetParam(), 0.02);
  for (bool reconfig : {true, false}) {
    CrusadeFtParams params;
    params.base.enable_reconfig = reconfig;
    expect_exact_counters(
        [&] { return CrusadeFt(spec, lib, params).run().synthesis.stats; },
        std::string(GetParam()) + "-FT" +
            (reconfig ? "" : " without reconfig"));
  }
}

INSTANTIATE_TEST_SUITE_P(Table3Profiles, RunStatsExactFtTest,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC"));

// Two runs sharing a process (and, traced, one obs registry) each report
// the counters they report alone.
TEST(RunStatsConcurrencyTest, ConcurrentRunsReportTheirSoloCounters) {
  const ResourceLibrary lib = telecom_1999();
  const Specification a1tr = profile_spec(lib, "A1TR", 0.03);
  const Specification ngxm = profile_spec(lib, "NGXM", 0.03);
  const RunStats solo_a1tr = Crusade(a1tr, lib).run().stats;
  const RunStats solo_ngxm = Crusade(ngxm, lib).run().stats;
  ASSERT_GT(solo_a1tr.sched_invocations, 0);
  ASSERT_GT(solo_ngxm.alloc_candidates, 0);

  obs::reset();
  obs::set_enabled(true);
  RunStats both_a1tr, both_ngxm;
  {
    std::jthread a([&] { both_a1tr = Crusade(a1tr, lib).run().stats; });
    std::jthread n([&] { both_ngxm = Crusade(ngxm, lib).run().stats; });
  }
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(both_a1tr.counter_rows(), solo_a1tr.counter_rows());
  EXPECT_EQ(both_ngxm.counter_rows(), solo_ngxm.counter_rows());
}

// --- high-watermark counters ----------------------------------------------

TEST_F(ObsTest, RecordPeakKeepsHighWatermark) {
  obs::record_peak("test.peak", 5);
  EXPECT_EQ(obs::counter_value("test.peak"), 5);
  obs::record_peak("test.peak", 3);  // lower samples never regress the peak
  EXPECT_EQ(obs::counter_value("test.peak"), 5);
  obs::record_peak("test.peak", 9);
  EXPECT_EQ(obs::counter_value("test.peak"), 9);
  obs::record_peak("test.peak", 9);
  EXPECT_EQ(obs::counter_value("test.peak"), 9);
  obs::set_enabled(false);
  obs::record_peak("test.peak", 100);  // disabled: single relaxed load only
  EXPECT_EQ(obs::counter_value("test.peak"), 9);
}

// --- histograms ----------------------------------------------------------

TEST(Histogram, BucketSchemeIsExactBelow8AndWithin12PercentAbove) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(obs::histogram_bucket(v), v);
    EXPECT_EQ(obs::histogram_bucket_lo(v), v);
    EXPECT_EQ(obs::histogram_bucket_hi(v), v);
  }
  // For v >= 8 the bucket bounds bracket v and the upper bound (what
  // quantile() reports) errs high by at most one sub-bucket: 12.5 %.
  for (std::uint64_t v = 8; v < (1ull << 40); v = v * 3 + 1) {
    const std::size_t b = obs::histogram_bucket(v);
    ASSERT_LT(b, obs::kHistogramBuckets);
    EXPECT_LE(obs::histogram_bucket_lo(b), v) << v;
    EXPECT_GE(obs::histogram_bucket_hi(b), v) << v;
    EXPECT_LE(static_cast<double>(obs::histogram_bucket_hi(b)),
              1.125 * static_cast<double>(v)) << v;
  }
  // Buckets tile the value line: each upper bound is one below the next
  // bucket's lower bound.
  for (std::size_t b = 0; b + 1 < obs::kHistogramBuckets; ++b)
    EXPECT_EQ(obs::histogram_bucket_hi(b) + 1, obs::histogram_bucket_lo(b + 1))
        << b;
}

TEST(Histogram, QuantilesErrHighByAtMostOneSubBucket) {
  obs::Histogram hist;
  for (std::uint64_t v = 1; v <= 1000; ++v) hist.record(v);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total(), 1000u);
  EXPECT_EQ(snap.max(), 1000u);
  // The reported quantile is the upper bound of the bucket holding the true
  // rank value: never below it, never more than 12.5 % above.
  const struct { double q; std::uint64_t truth; } cases[] = {
      {0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}};
  for (const auto& c : cases) {
    const std::uint64_t got = snap.quantile(c.q);
    EXPECT_GE(got, c.truth) << c.q;
    EXPECT_LE(static_cast<double>(got), 1.125 * static_cast<double>(c.truth))
        << c.q;
  }
  // Empty histogram: all zeros.
  const obs::HistogramSnapshot empty = obs::Histogram().snapshot();
  EXPECT_EQ(empty.total(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.max(), 0u);
}

TEST(Histogram, MergeIsCommutative) {
  obs::Histogram a, b;
  for (std::uint64_t v = 0; v < 500; ++v) a.record(v * 7);
  for (std::uint64_t v = 0; v < 300; ++v) b.record(v * v);
  const obs::HistogramSnapshot ab = a.snapshot().merge(b.snapshot());
  const obs::HistogramSnapshot ba = b.snapshot().merge(a.snapshot());
  EXPECT_EQ(ab.total(), 800u);
  EXPECT_EQ(ab.total(), ba.total());
  EXPECT_EQ(ab.max(), ba.max());
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i)
    ASSERT_EQ(ab.bucket_count(i), ba.bucket_count(i)) << i;
  EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(Histogram, ConcurrentRecordingTotalsExactly) {
  constexpr int kThreads = 8;
  constexpr int kRecords = 10000;
  obs::Histogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecords; ++i)
        hist.record(static_cast<std::uint64_t>(t * kRecords + i));
    });
  for (std::thread& t : threads) t.join();
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total(),
            static_cast<std::uint64_t>(kThreads) * kRecords);
  std::uint64_t bucket_sum = 0;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i)
    bucket_sum += snap.bucket_count(i);
  EXPECT_EQ(bucket_sum, snap.total());
  EXPECT_EQ(snap.max(), static_cast<std::uint64_t>(kThreads) * kRecords - 1);
}

TEST(Histogram, JsonIsStrictAndOrdered) {
  obs::Histogram hist;
  for (std::uint64_t v = 1; v <= 200; ++v) hist.record(v);
  const obs::HistogramSnapshot snap = hist.snapshot();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(snap.to_json()).parse(doc)) << snap.to_json();
  EXPECT_EQ(doc.at("count").number, 200);
  EXPECT_LE(doc.at("p50").number, doc.at("p90").number);
  EXPECT_LE(doc.at("p90").number, doc.at("p99").number);
  EXPECT_LE(doc.at("p99").number, doc.at("max").number);
  EXPECT_EQ(doc.at("max").number, 200);
}

// --- the crash flight recorder -------------------------------------------

class FlightTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    path_ = "/tmp/crusade_flight_test_" + std::to_string(::getpid()) + ".ring";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    obs::disarm_flight_recorder();
    std::remove(path_.c_str());
    ObsTest::TearDown();
  }
  std::string path_;
};

TEST_F(FlightTest, RecordsSpansAndCountersReadableWhileArmed) {
  ASSERT_TRUE(obs::arm_flight_recorder(path_));
  obs::count("serve.worker.attempts");
  obs::count("sched.evals", 5);
  obs::count("sched.evals", 2);
  auto open_span = std::make_unique<obs::Span>("serve.worker.attempt");
  {
    OBS_SPAN("phase.allocation");
  }
  // A second process (the supervisor) reads the same file: MAP_SHARED pages
  // are visible through the page cache without any flush from the writer.
  const obs::FlightSnapshot snap = obs::read_flight(path_);
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.pid(), static_cast<std::uint32_t>(::getpid()));
  const std::vector<std::string> stack = snap.span_stack();
  ASSERT_EQ(stack.size(), 1u);
  EXPECT_EQ(stack[0], "serve.worker.attempt");
  const auto totals = snap.counter_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "sched.evals");
  EXPECT_EQ(totals[0].second, 7);
  EXPECT_EQ(totals[1].first, "serve.worker.attempts");
  EXPECT_EQ(totals[1].second, 1);

  open_span.reset();
  const obs::FlightSnapshot after = obs::read_flight(path_);
  EXPECT_TRUE(after.span_stack().empty());
}

TEST_F(FlightTest, HotLoopKeepsThePhaseAndEveryCounter) {
  // The allocator's inner loop records a span and a count per candidate,
  // thousands of times per phase: the file must still name the phase the
  // worker is in and every counter it ever touched, not only the newest.
  ASSERT_TRUE(obs::arm_flight_recorder(path_));
  obs::count("serve.worker.attempts");
  obs::Span attempt("serve.worker.attempt");
  obs::Span phase("phase.allocation");
  for (int i = 0; i < 5000; ++i) {
    OBS_SPAN("alloc.eval");
    obs::count("alloc.sched_evals");
  }
  obs::Span sched("sched.list");
  const obs::FlightSnapshot snap = obs::read_flight(path_);
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.span_stack(),
            (std::vector<std::string>{"serve.worker.attempt",
                                      "phase.allocation", "sched.list"}));
  EXPECT_EQ(snap.counter_totals(),
            (std::vector<std::pair<std::string, long long>>{
                {"alloc.sched_evals", 5000}, {"serve.worker.attempts", 1}}));
}

TEST_F(FlightTest, SurvivesSigkillMidSpan) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The worker: arm, open a span stack, then die the hard way — no exit
    // handlers, no flush, exactly what the watchdog does to a hung worker.
    obs::reset();
    obs::set_enabled(true);
    if (!obs::arm_flight_recorder(path_)) ::_exit(2);
    obs::count("serve.worker.attempts");
    obs::Span attempt("serve.worker.attempt");
    obs::Span hang("serve.worker.hang");
    ::kill(::getpid(), SIGKILL);
    ::_exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  const obs::FlightSnapshot snap = obs::read_flight(path_);
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.pid(), static_cast<std::uint32_t>(child));
  const std::vector<std::string> stack = snap.span_stack();
  ASSERT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack[0], "serve.worker.attempt");
  EXPECT_EQ(stack[1], "serve.worker.hang");
  const auto totals = snap.counter_totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].first, "serve.worker.attempts");
  EXPECT_EQ(totals[0].second, 1);
}

TEST_F(FlightTest, RejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(obs::read_flight("/nonexistent/flight.ring").valid());
  EXPECT_FALSE(obs::read_flight(path_).valid());  // never created
  // A file of the wrong size or with the wrong magic is rejected, not
  // misparsed.
  atomic_write_file(path_, std::string(4096, 'x'));
  EXPECT_FALSE(obs::read_flight(path_).valid());
  ASSERT_TRUE(obs::arm_flight_recorder(path_));
  obs::disarm_flight_recorder();
  std::string bytes = read_file(path_);
  ASSERT_TRUE(obs::read_flight(path_).valid());
  bytes[0] = static_cast<char>(bytes[0] ^ 0x5a);
  atomic_write_file(path_, bytes);
  EXPECT_FALSE(obs::read_flight(path_).valid());
}

}  // namespace
}  // namespace crusade
