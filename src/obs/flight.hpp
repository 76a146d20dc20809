// Crash flight recorder (DESIGN.md §15.4): a small mmap'd file holding the
// recording thread's open-span stack, every counter's running total and
// the time of the last event, kept current as the process runs so that it
// survives SIGKILL.
//
// A worker arms the recorder against a file in the job spool before doing
// any real work.  From then on every span begin/end and counter update on
// the arming thread stores into the file: a begin writes the next stack
// slot, an end lowers the depth, a count stores the counter's total into
// its slot.  No locks, no allocation, no syscalls.  Because the file is a
// MAP_SHARED mapping, the stores land in the page cache, not the process:
// when the watchdog SIGKILLs a hung worker the kernel still writes them
// back, so the supervisor can open the same file afterwards and read the
// worker's last span stack and counter totals as they stood.  The state
// has a fixed size, so it names the phase a worker died in however long
// the worker ran.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crusade::obs {

/// Maps `path` as this process's flight-recorder state and routes the
/// calling thread's span/counter events into it; events on other threads
/// are not recorded.  Returns false (leaving the recorder disarmed) if the
/// file cannot be created or mapped — telemetry failures never fail the
/// job.  Re-arming replaces the previous file.
bool arm_flight_recorder(const std::string& path);

/// Stops recording and unmaps the file.  Safe to call when disarmed.
void disarm_flight_recorder();

/// True while a flight file is armed in this process.
bool flight_recorder_armed();

/// Internal hooks used by the obs span/counter paths; no-ops when disarmed
/// or on a thread other than the arming one.  Times are steady-clock
/// nanoseconds; `total` is the counter's running total.
void flight_begin(const char* name, std::int64_t ts_ns);
void flight_end(const char* name, std::int64_t ts_ns);
void flight_count(const char* name, std::int64_t total, std::int64_t ts_ns);

/// One span that was open when the recorder last wrote.
struct FlightSpan {
  std::string name;
  std::int64_t begin_ns = 0;  ///< steady-clock nanoseconds
};

/// A flight-recorder file as read back by (possibly another) process.
class FlightSnapshot {
 public:
  /// False when the file was missing, unreadable, or not a flight file.
  bool valid() const { return valid_; }

  /// Pid of the process that armed the file (0 when invalid).
  std::uint32_t pid() const { return pid_; }

  /// Steady-clock time of the last recorded event: when a killed process
  /// was last seen alive.
  std::int64_t last_ns() const { return last_ns_; }

  /// Spans open at the last event, outermost first.  Spans nested deeper
  /// than the file's 32 stack slots are not named.
  const std::vector<FlightSpan>& spans() const { return spans_; }

  /// The names of spans(), outermost first.
  std::vector<std::string> span_stack() const;

  /// Running total per counter name, sorted by name.
  const std::vector<std::pair<std::string, long long>>& counter_totals()
      const {
    return counters_;
  }

 private:
  friend FlightSnapshot read_flight(const std::string& path);
  bool valid_ = false;
  std::uint32_t pid_ = 0;
  std::int64_t last_ns_ = 0;
  std::vector<FlightSpan> spans_;
  std::vector<std::pair<std::string, long long>> counters_;
};

/// Reads a flight-recorder file.  Never throws; an unreadable file or one
/// of another format (the version-1 ring included) yields an invalid
/// snapshot.
FlightSnapshot read_flight(const std::string& path);

}  // namespace crusade::obs
