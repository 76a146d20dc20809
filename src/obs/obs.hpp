// Synthesis tracing & metrics (the seam every perf PR reports through).
//
// Two primitives, both gated on one atomic enable flag so a disabled build
// path costs a single relaxed load and a predictable branch (measured in
// bench/microbench and bench/obs_overhead):
//
//  * OBS_SPAN("alloc.eval") — an RAII span.  While tracing is enabled every
//    span records a complete event (name, start, duration, thread) into the
//    global TraceSink, which serializes to Chrome trace-event JSON loadable
//    in chrome://tracing or https://ui.perfetto.dev.
//  * obs::count("sched.evals") — a named monotonic counter.  Counters live
//    in a registry and are read back either as a flat metrics table or as
//    per-run deltas (see RunStats in obs/runstats.hpp).
//
// Naming scheme (DESIGN.md §10): dot-separated lowercase, first component
// the subsystem ("alloc", "sched", "reconfig", "fpga", "interface"), or
// "phase.<name>" for the driver's top-level phase spans.  Span and counter
// names should be string literals; the sink stores its own copy, so dynamic
// strings are safe but cost an allocation per event.
//
// Thread safety: counters are lock-free atomics after first registration;
// the event sink takes a mutex per span END only (span start is just a
// clock read).  The sink is bounded — events past the cap are counted as
// dropped rather than growing without bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace crusade::tools {
class JsonWriter;
}

namespace crusade::obs {

/// Master switch.  Off by default: spans and counters reduce to one relaxed
/// atomic load.  Enabling mid-run is safe; spans opened while disabled are
/// not recorded retroactively.
bool enabled();
void set_enabled(bool on);

/// Clears every recorded event and counter and re-anchors the trace epoch.
/// Call before a run you want an isolated trace of.
void reset();

/// The trace epoch in steady-clock nanoseconds (what event ts_ns values are
/// relative to).  Steady-clock readings are CLOCK_MONOTONIC on Linux and so
/// comparable across processes on one machine — a forked worker times its
/// row of a job's merged trace from the job's admission instead
/// (append_trace_events, DESIGN.md §15.2).
std::int64_t epoch_ns();

// --- counters -------------------------------------------------------------

/// Adds `delta` to the named counter (no-op while disabled).
void count(const char* name, std::int64_t delta = 1);

/// Raises the named counter to `value` if it is currently lower (no-op
/// while disabled).  The high-watermark companion to count() for gauges
/// that are sampled rather than accumulated — e.g. a queue depth, where
/// the interesting number is the worst depth ever seen, not a sum.
void record_peak(const char* name, std::int64_t value);

/// Current value of a counter (0 if never incremented).
std::int64_t counter_value(const std::string& name);

/// Every counter, sorted by name.
std::vector<std::pair<std::string, std::int64_t>> counters();

// --- spans ----------------------------------------------------------------

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_;  ///< kDisabled when tracing was off at entry
};

#define OBS_CONCAT_INNER(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT_INNER(a, b)
/// Opens an RAII span covering the rest of the enclosing scope.
#define OBS_SPAN(name) \
  ::crusade::obs::Span OBS_CONCAT(obs_span_, __LINE__)(name)

// --- the trace sink -------------------------------------------------------

struct TraceEvent {
  std::string name;
  std::int64_t ts_ns = 0;   ///< start, relative to the trace epoch
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< dense per-process thread index
};

/// Snapshot of every recorded span, in completion order.
std::vector<TraceEvent> events();
std::size_t event_count();
/// Events discarded because the sink hit its capacity cap.
std::size_t dropped_events();
/// Resizes the sink's event cap (default 262144); existing events kept.
void set_event_capacity(std::size_t cap);

/// Appends every recorded span to the array `w` has open, as Chrome
/// "ph":"X" complete events on process row `pid`, timestamps in
/// microseconds since the steady-clock instant `origin_ns`.
void append_trace_events(tools::JsonWriter& w, long long pid,
                         std::int64_t origin_ns);

/// Chrome trace-event JSON: append_trace_events on pid 1 from the trace
/// epoch, in a "traceEvents" document.  Round-trips through any JSON
/// parser; load in chrome://tracing or Perfetto.
std::string trace_json();

/// Flat metrics as JSON: {"counters":{name:value,...},"events":N,
/// "dropped":N}.
std::string metrics_json();

/// Aligned-text counter table (src/util/table).
std::string metrics_table();

}  // namespace crusade::obs
