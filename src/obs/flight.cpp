#include "obs/flight.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/io_faults.hpp"

namespace crusade::obs {

namespace {

constexpr std::uint64_t kFlightMagic = 0x43525546'4c494748ull;  // "CRUFLIGH"
constexpr std::uint32_t kFlightVersion = 2;
constexpr std::uint32_t kStackSlots = 32;
constexpr std::uint32_t kCounterSlots = 64;

// The on-disk layout: a header, then kStackSlots stack slots, then
// kCounterSlots counter slots, every part exactly 64 bytes.  The depth and
// the count of claimed counter slots are published with release after the
// slot they cover is written, so a reader that loads them with acquire
// never reads a slot before its name.
struct FlightHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t pid;
  std::atomic<std::uint32_t> depth;   // open spans, named or not
  std::atomic<std::uint32_t> used;    // counter slots claimed
  std::atomic<std::int64_t> last_ns;  // time of the last event
  char pad[64 - 8 - 4 - 4 - 4 - 4 - 8];
};
static_assert(sizeof(FlightHeader) == 64, "flight header must be 64 bytes");

constexpr std::size_t kNameBytes = 56;

// A stack slot holds a span's name and begin time; a counter slot holds a
// counter's name and running total.
struct FlightSlot {
  char name[kNameBytes];  // NUL-terminated, truncated if needed
  std::atomic<std::int64_t> value;
};
static_assert(sizeof(FlightSlot) == 64, "flight slot must be 64 bytes");

constexpr std::size_t kFileBytes =
    sizeof(FlightHeader) + (kStackSlots + kCounterSlots) * sizeof(FlightSlot);

struct Recorder {
  FlightHeader* header = nullptr;
  FlightSlot* stack = nullptr;
  FlightSlot* counters = nullptr;
  /// Only the arming thread records: spans on other threads would
  /// interleave with its stack.  A worker is single-threaded after fork.
  std::thread::id owner;
};

// The armed recorder, published with release so a thread that loads the
// pointer (acquire) sees its fields.  Arm and disarm must run while no
// other thread records a span or a count (every thread reads the owner):
// a worker arms before any real work, single-threaded after fork, and a
// forked child disarms when it has no other thread.
std::atomic<Recorder*> g_recorder{nullptr};

/// The armed recorder when the caller is its arming thread, else null.
Recorder* recording() {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  return r != nullptr && r->owner == std::this_thread::get_id() ? r : nullptr;
}

void set_name(FlightSlot& slot, const char* name) {
  const std::size_t n = std::min(std::strlen(name), kNameBytes - 1);
  std::memcpy(slot.name, name, n);
  slot.name[n] = '\0';
}

bool has_name(const FlightSlot& slot, const char* name) {
  return std::strncmp(slot.name, name, kNameBytes - 1) == 0;
}

std::string name_of(const FlightSlot& slot) {
  return std::string(slot.name, ::strnlen(slot.name, kNameBytes - 1));
}

}  // namespace

bool arm_flight_recorder(const std::string& path) {
  disarm_flight_recorder();
  // Arming is best-effort by contract (callers degrade to no recorder), so
  // injected open/ftruncate faults from the chaos seam surface as a false
  // return, never an exception; EINTR is retried like a real signal.
  int fd = -1;
  for (;;) {
    fd = iofault::xopen(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) break;
    if (errno == EINTR) continue;
    return false;
  }
  while (iofault::xftruncate(fd, static_cast<long long>(kFileBytes)) != 0) {
    if (errno == EINTR) continue;
    (void)::close(fd);
    (void)::unlink(path.c_str());
    return false;
  }
  void* map =
      ::mmap(nullptr, kFileBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  (void)::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    (void)::unlink(path.c_str());
    return false;
  }
  // The truncated file reads as zeros: no open span, no counter, no event.
  auto* r = new Recorder;
  r->header = static_cast<FlightHeader*>(map);
  r->stack = reinterpret_cast<FlightSlot*>(r->header + 1);
  r->counters = r->stack + kStackSlots;
  r->owner = std::this_thread::get_id();
  r->header->magic = kFlightMagic;
  r->header->version = kFlightVersion;
  r->header->pid = static_cast<std::uint32_t>(::getpid());
  g_recorder.store(r, std::memory_order_release);
  return true;
}

void disarm_flight_recorder() {
  Recorder* r = g_recorder.exchange(nullptr, std::memory_order_acq_rel);
  if (r == nullptr) return;
  ::munmap(static_cast<void*>(r->header), kFileBytes);
  delete r;
}

bool flight_recorder_armed() {
  return g_recorder.load(std::memory_order_relaxed) != nullptr;
}

void flight_begin(const char* name, std::int64_t ts_ns) {
  Recorder* r = recording();
  if (r == nullptr) return;
  FlightHeader& h = *r->header;
  const std::uint32_t depth = h.depth.load(std::memory_order_relaxed);
  if (depth < kStackSlots) {
    set_name(r->stack[depth], name);
    r->stack[depth].value.store(ts_ns, std::memory_order_relaxed);
  }
  h.depth.store(depth + 1, std::memory_order_release);
  h.last_ns.store(ts_ns, std::memory_order_relaxed);
}

void flight_end(const char* name, std::int64_t ts_ns) {
  Recorder* r = recording();
  if (r == nullptr) return;
  FlightHeader& h = *r->header;
  const std::uint32_t depth = h.depth.load(std::memory_order_relaxed);
  // Spans nest on one thread, so the span ending is the top one, unless it
  // opened before arming: then no slot holds it and the depth stays.
  if (depth > kStackSlots ||
      (depth > 0 && has_name(r->stack[depth - 1], name)))
    h.depth.store(depth - 1, std::memory_order_release);
  h.last_ns.store(ts_ns, std::memory_order_relaxed);
}

void flight_count(const char* name, std::int64_t total, std::int64_t ts_ns) {
  Recorder* r = recording();
  if (r == nullptr) return;
  FlightHeader& h = *r->header;
  h.last_ns.store(ts_ns, std::memory_order_relaxed);
  const std::uint32_t used = h.used.load(std::memory_order_relaxed);
  std::uint32_t i = 0;
  while (i < used && !has_name(r->counters[i], name)) ++i;
  if (i == used) {
    if (used == kCounterSlots) return;  // every slot claimed: dropped
    set_name(r->counters[i], name);
  }
  r->counters[i].value.store(total, std::memory_order_relaxed);
  if (i == used) h.used.store(used + 1, std::memory_order_release);
}

FlightSnapshot read_flight(const std::string& path) {
  FlightSnapshot snap;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return snap;
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      st.st_size != static_cast<off_t>(kFileBytes)) {
    (void)::close(fd);
    return snap;
  }
  void* map = ::mmap(nullptr, kFileBytes, PROT_READ, MAP_SHARED, fd, 0);
  (void)::close(fd);
  if (map == MAP_FAILED) return snap;
  const auto* h = static_cast<const FlightHeader*>(map);
  const auto* stack = reinterpret_cast<const FlightSlot*>(h + 1);
  const FlightSlot* counters = stack + kStackSlots;
  if (h->magic == kFlightMagic && h->version == kFlightVersion) {
    snap.valid_ = true;
    snap.pid_ = h->pid;
    snap.last_ns_ = h->last_ns.load(std::memory_order_relaxed);
    const std::uint32_t depth =
        std::min(h->depth.load(std::memory_order_acquire), kStackSlots);
    for (std::uint32_t i = 0; i < depth; ++i)
      snap.spans_.push_back(
          {name_of(stack[i]), stack[i].value.load(std::memory_order_relaxed)});
    const std::uint32_t used =
        std::min(h->used.load(std::memory_order_acquire), kCounterSlots);
    for (std::uint32_t i = 0; i < used; ++i)
      snap.counters_.emplace_back(
          name_of(counters[i]),
          counters[i].value.load(std::memory_order_relaxed));
    std::sort(snap.counters_.begin(), snap.counters_.end());
  }
  ::munmap(map, kFileBytes);
  return snap;
}

std::vector<std::string> FlightSnapshot::span_stack() const {
  std::vector<std::string> names;
  for (const FlightSpan& span : spans_) names.push_back(span.name);
  return names;
}

}  // namespace crusade::obs
