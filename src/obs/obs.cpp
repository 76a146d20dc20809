#include "obs/obs.hpp"

#include <pthread.h>

#include "obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "util/json_writer.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace crusade::obs {

namespace {

constexpr std::int64_t kDisabled = -1;

std::atomic<bool> g_enabled{false};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The epoch is re-anchored by reset() so trace timestamps start near zero.
std::atomic<std::int64_t> g_epoch_ns{0};

/// Counter registry: name -> lock-free atomic.  The shared_mutex protects
/// only the map shape; increments on registered counters never contend.
struct CounterRegistry {
  util::SharedMutex mutex;
  /// Guards only the map shape; the pointed-to atomics are lock-free and
  /// deliberately outlive the lock (slot() hands out stable references).
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>> values
      CRUSADE_GUARDED_BY(mutex);

  std::atomic<std::int64_t>& slot(const char* name) {
    {
      util::ReaderLock lock(mutex);
      auto it = values.find(name);
      if (it != values.end()) return *it->second;
    }
    util::WriterLock lock(mutex);
    auto& ptr = values[name];
    if (!ptr) ptr = std::make_unique<std::atomic<std::int64_t>>(0);
    return *ptr;
  }
};

struct EventSink {
  util::Mutex mutex;
  std::vector<TraceEvent> events CRUSADE_GUARDED_BY(mutex);
  std::size_t capacity CRUSADE_GUARDED_BY(mutex) = 262144;
  std::size_t dropped CRUSADE_GUARDED_BY(mutex) = 0;
  std::map<std::thread::id, std::uint32_t> thread_index
      CRUSADE_GUARDED_BY(mutex);
};

CounterRegistry*& counter_registry_ptr() {
  static CounterRegistry* r = new CounterRegistry;
  return r;
}

CounterRegistry& counter_registry() { return *counter_registry_ptr(); }

EventSink*& sink_ptr() {
  static EventSink* s = new EventSink;
  return s;
}

EventSink& sink() { return *sink_ptr(); }

/// fork() safety for multithreaded hosts (the crusaded daemon forks a
/// worker child per job attempt).  Only the forking thread survives in the
/// child, so a registry or sink lock held by any OTHER thread at fork time
/// would stay locked forever in the child — counter_value() takes the
/// registry lock unconditionally for RunStats, so the first synthesis in
/// the child would deadlock, the supervisor's watchdog would SIGKILL a
/// healthy worker, and the crash-retry budget would burn down to a bogus
/// failed-honest.  Locking the registry across the fork (the classic
/// prepare/parent/child pattern) does NOT work here: pthread rwlocks track
/// writer identity and waiting-writer handoffs, neither of which survives
/// into the child.  Instead the child abandons the inherited objects —
/// whatever lock or mid-mutation state they carry belongs to threads that
/// no longer exist — and starts from fresh ones.  Cost: one small leaked
/// object per forked worker (which _exit()s shortly anyway); counters in
/// the child restart from zero, which is exactly what per-run RunStats
/// deltas want.  glibc handles the malloc locks itself, and user child
/// handlers run after malloc is reinitialized, so allocating here is safe.
void fork_child() {
  counter_registry_ptr() = new CounterRegistry;
  sink_ptr() = new EventSink;
  // An inherited flight recorder belongs to the parent's job context;
  // the child must arm its own (run_worker_attempt does) or stay silent.
  disarm_flight_recorder();
}

[[maybe_unused]] const int g_fork_guard = [] {
  counter_registry_ptr();  // settle the static-init guards pre-fork
  sink_ptr();
  ::pthread_atfork(nullptr, nullptr, &fork_child);
  return 0;
}();

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  if (on && g_epoch_ns.load(std::memory_order_relaxed) == 0)
    g_epoch_ns.store(now_ns(), std::memory_order_relaxed);
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  {
    EventSink& s = sink();
    util::MutexLock lock(s.mutex);
    s.events.clear();
    s.dropped = 0;
    s.thread_index.clear();
  }
  {
    CounterRegistry& r = counter_registry();
    util::WriterLock lock(r.mutex);
    r.values.clear();
  }
  g_epoch_ns.store(now_ns(), std::memory_order_relaxed);
}

std::int64_t epoch_ns() {
  return g_epoch_ns.load(std::memory_order_relaxed);
}

void count(const char* name, std::int64_t delta) {
  if (!enabled()) return;
  const std::int64_t total =
      counter_registry().slot(name).fetch_add(delta,
                                              std::memory_order_relaxed) +
      delta;
  if (flight_recorder_armed()) flight_count(name, total, now_ns());
}

void record_peak(const char* name, std::int64_t value) {
  if (!enabled()) return;
  std::atomic<std::int64_t>& slot = counter_registry().slot(name);
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::int64_t counter_value(const std::string& name) {
  CounterRegistry& r = counter_registry();
  util::ReaderLock lock(r.mutex);
  auto it = r.values.find(name);
  return it == r.values.end()
             ? 0
             : it->second->load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::int64_t>> counters() {
  CounterRegistry& r = counter_registry();
  util::ReaderLock lock(r.mutex);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(r.values.size());
  for (const auto& [name, value] : r.values)
    out.emplace_back(name, value->load(std::memory_order_relaxed));
  return out;
}

Span::Span(const char* name)
    : name_(name), start_ns_(enabled() ? now_ns() : kDisabled) {
  // Flight hook sits behind the enabled check so the disabled path stays a
  // single relaxed load + branch (the BENCH_obs ~3 ns/span contract).
  if (start_ns_ != kDisabled && flight_recorder_armed())
    flight_begin(name_, start_ns_);
}

Span::~Span() {
  if (start_ns_ == kDisabled) return;
  // Tracing may have been switched off mid-span; the span still closes
  // (its start was real), keeping nesting in the trace consistent.
  const std::int64_t end = now_ns();
  if (flight_recorder_armed()) flight_end(name_, end);
  EventSink& s = sink();
  util::MutexLock lock(s.mutex);
  if (s.events.size() >= s.capacity) {
    ++s.dropped;
    return;
  }
  TraceEvent ev;
  ev.name = name_;
  ev.ts_ns = start_ns_ - g_epoch_ns.load(std::memory_order_relaxed);
  ev.dur_ns = end - start_ns_;
  auto [it, inserted] = s.thread_index.emplace(
      std::this_thread::get_id(),
      static_cast<std::uint32_t>(s.thread_index.size()));
  ev.tid = it->second;
  s.events.push_back(std::move(ev));
}

std::vector<TraceEvent> events() {
  EventSink& s = sink();
  util::MutexLock lock(s.mutex);
  return s.events;
}

std::size_t event_count() {
  EventSink& s = sink();
  util::MutexLock lock(s.mutex);
  return s.events.size();
}

std::size_t dropped_events() {
  EventSink& s = sink();
  util::MutexLock lock(s.mutex);
  return s.dropped;
}

void set_event_capacity(std::size_t cap) {
  EventSink& s = sink();
  util::MutexLock lock(s.mutex);
  s.capacity = cap;
}

void append_trace_events(tools::JsonWriter& w, long long pid,
                         std::int64_t origin_ns) {
  const std::int64_t shift = epoch_ns() - origin_ns;
  for (const TraceEvent& ev : events()) {
    // Chrome trace-event "complete" events; ts/dur are microseconds.
    w.begin_object()
        .key("name").value(ev.name)
        .key("cat").value("crusade")
        .key("ph").value("X")
        .key("pid").value(pid)
        .key("tid").value(static_cast<long long>(ev.tid))
        .key("ts").value(static_cast<double>(ev.ts_ns + shift) / 1000.0, 3)
        .key("dur").value(static_cast<double>(ev.dur_ns) / 1000.0, 3)
        .end_object();
  }
}

std::string trace_json() {
  tools::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  append_trace_events(w, 1, epoch_ns());
  w.end_array().key("displayTimeUnit").value("ms").end_object();
  return w.str();
}

std::string metrics_json() {
  tools::JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, value] : counters())
    w.key(name).value(static_cast<long long>(value));
  w.end_object()
      .key("events").value(static_cast<unsigned long long>(event_count()))
      .key("dropped").value(static_cast<unsigned long long>(dropped_events()))
      .end_object();
  return w.str();
}

std::string metrics_table() {
  Table table({"counter", "value"});
  for (const auto& [name, value] : counters())
    table.add_row({name, cell_int(value)});
  return table.to_string("observability counters");
}

}  // namespace crusade::obs
