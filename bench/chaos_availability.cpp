// Chaos availability bench: stands up an in-process serve::Service under
// the deterministic environment-fault plan (util/io_faults.hpp) and
// measures what a client actually experiences as the injected fault rate
// rises: goodput (fraction of submissions answered canonically), p99
// end-to-end latency, and the split of the remainder into typed honest
// rejections vs busy pushback.  This is the number DESIGN.md §16's
// "degrade honestly, never wedge" claim rests on — at every fault rate the
// books must balance: submitted == good + degraded + failed + rejected +
// busy, with nothing lost and nothing hung.
//
// The fault plan is seeded, so a sweep replays bit-identically; scale job
// counts with CRUSADE_SCALE.
//
//   chaos_availability [output.json]     (default: BENCH_chaos.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "example_specs.hpp"
#include "graph/spec_io.hpp"
#include "resources/resource_library.hpp"
#include "serve/service.hpp"
#include "util/io_faults.hpp"

using namespace crusade;

namespace {

constexpr std::uint64_t kChaosSeed = 42;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct RatePoint {
  double fault_rate = 0;
  int submitted = 0;
  int good = 0;      ///< canonical answer (Ok or Masked)
  int degraded = 0;  ///< degraded-honest (best-so-far, named cause)
  int failed = 0;    ///< failed-honest (typed terminal failure)
  int rejected = 0;  ///< typed admission rejection (spool write failed, ...)
  int busy = 0;      ///< bounded-queue pushback after honoring the hint
  unsigned long long injected = 0;  ///< parent-side injected faults
  double goodput = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

RatePoint run_rate(const std::string& base_spec, double fault_rate,
                   int jobs, int point_index) {
  RatePoint point;
  point.fault_rate = fault_rate;

  serve::ServiceConfig config;
  config.spool_dir =
      "/tmp/crusaded.bench.chaos." + std::to_string(point_index);
  // A previous faulted run can leave recovered-able frames behind; start
  // each rate from an empty spool so the books cover only this sweep.
  std::error_code ec;
  std::filesystem::remove_all(config.spool_dir, ec);
  config.workers = 4;
  config.queue_capacity = 64;
  if (fault_rate > 0) {
    config.chaos_seed = kChaosSeed;
    config.chaos_rate = fault_rate;
  }
  serve::Service service(config);

  std::vector<std::uint64_t> admitted;
  for (int i = 0; i < jobs; ++i) {
    serve::SubmitRequest req;
    req.kind = serve::JobKind::Lint;
    // Unique trailing comment: lint keys the cache on the spec text, so
    // every submission is real work, never a cache hit.
    req.spec_text = base_spec + "# chaos-" + std::to_string(point_index) +
                    "-" + std::to_string(i) + "\n";
    serve::SubmitOutcome out = service.submit(req);
    ++point.submitted;
    if (out.busy) {
      // Honor the honest hint once; sustained pushback counts as busy.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<long>(out.retry_after_ms, 200)));
      out = service.submit(req);
    }
    if (out.busy) {
      ++point.busy;
    } else if (!out.admitted) {
      ++point.rejected;
    } else {
      admitted.push_back(out.id);
    }
  }

  std::vector<double> latencies;
  for (const std::uint64_t id : admitted) {
    serve::JobStatus status;
    std::string body;
    if (!service.wait_result(id, 60000, &status, &body)) {
      // A job that never goes terminal is the one unforgivable outcome.
      std::fprintf(stderr, "job %llu wedged at fault rate %.2f\n",
                   static_cast<unsigned long long>(id), fault_rate);
      std::exit(1);
    }
    latencies.push_back(static_cast<double>(status.wait_ms + status.run_ms));
    switch (status.outcome) {
      case serve::JobOutcome::Ok:
      case serve::JobOutcome::Masked: ++point.good; break;
      case serve::JobOutcome::DegradedHonest: ++point.degraded; break;
      default: ++point.failed; break;
    }
  }
  service.stop(true);
  std::filesystem::remove_all(config.spool_dir, ec);
  point.injected = iofault::counters().total;
  iofault::disarm();
  iofault::reset_counters();

  point.goodput = point.submitted > 0
                      ? static_cast<double>(point.good) / point.submitted
                      : 0;
  point.p50_ms = percentile(latencies, 0.50);
  point.p99_ms = percentile(latencies, 0.99);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_chaos.json";
  const double scale = bench::workload_scale(0.25);
  const ResourceLibrary lib = telecom_1999();
  std::ostringstream spec_stream;
  write_specification(spec_stream, quickstart_spec(lib), lib);
  const std::string spec = spec_stream.str();

  const int jobs = 40 + static_cast<int>(160 * scale);
  const double rates[] = {0.0, 0.02, 0.05, 0.10};
  std::vector<RatePoint> points;
  int index = 0;
  for (const double rate : rates)
    points.push_back(run_rate(spec, rate, jobs, index++));

  std::FILE* json = std::fopen(out_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"chaos_availability\",\n"
               "  \"scale\": %.2f,\n"
               "  \"chaos_seed\": %llu,\n"
               "  \"jobs_per_rate\": %d,\n"
               "  \"sweep\": [\n",
               scale, static_cast<unsigned long long>(kChaosSeed), jobs);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RatePoint& p = points[i];
    std::fprintf(
        json,
        "    {\"fault_rate\": %.2f, \"submitted\": %d, \"good\": %d, "
        "\"degraded\": %d, \"failed\": %d, \"rejected_typed\": %d, "
        "\"busy\": %d, \"injected_faults\": %llu, \"goodput\": %.4f, "
        "\"p50_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
        p.fault_rate, p.submitted, p.good, p.degraded, p.failed, p.rejected,
        p.busy, p.injected, p.goodput, p.p50_ms, p.p99_ms,
        i + 1 < points.size() ? "," : "");
  }

  // Honesty check at every rate: the books balance, the calm point is
  // perfect, and injections actually happened at the faulted points.
  bool honest = true;
  for (const RatePoint& p : points) {
    if (p.good + p.degraded + p.failed + p.rejected + p.busy != p.submitted)
      honest = false;
    if (p.fault_rate == 0 && (p.goodput < 1.0 || p.injected != 0))
      honest = false;
    if (p.fault_rate > 0 && p.injected == 0) honest = false;
  }
  std::fprintf(json,
               "  ],\n"
               "  \"honest\": %s\n"
               "}\n",
               honest ? "true" : "false");
  std::fclose(json);

  std::printf("chaos availability bench (scale=%.2f, %d jobs per rate)\n",
              scale, jobs);
  for (const RatePoint& p : points)
    std::printf(
        "  rate %.2f: goodput %.3f (%d/%d), %d degraded, %d failed, "
        "%d rejected, %d busy, %llu injected, p50=%.2f ms p99=%.2f ms\n",
        p.fault_rate, p.goodput, p.good, p.submitted, p.degraded, p.failed,
        p.rejected, p.busy, p.injected, p.p50_ms, p.p99_ms);
  std::printf("wrote %s\n", out_path);

  if (!honest) {
    std::fprintf(stderr, "availability books do not balance\n");
    return 1;
  }
  return 0;
}
