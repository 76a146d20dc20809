// Recovery-time bench: how long a crusaded restart takes as the spool
// grows — the boot-time cost of the durability machinery (DESIGN.md §17).
//
// For each population size the bench builds a realistic dirty spool (N
// terminal job records + M queued records a hard stop left parked),
// SIGKILL-shapes the daemon away, and then times the two phases a restart
// actually pays for:
//
//   * fsck_spool in classify-only mode — one scan of the whole spool;
//   * Service construction — the same scan with repair, then installing
//     what it verified.
//
// The honesty gate makes the numbers mean something: after every timed
// boot, all N terminal answers must be back (results_recovered) and all M
// parked jobs re-admitted — a fast boot that lost work would be worse than
// a slow one.  Scale populations with CRUSADE_SCALE.
//
//   recovery_time [output.json]     (default: BENCH_recovery.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "example_specs.hpp"
#include "graph/spec_io.hpp"
#include "resources/resource_library.hpp"
#include "serve/fsck.hpp"
#include "serve/service.hpp"

using namespace crusade;

namespace {

struct RecoveryPoint {
  int terminal = 0;   ///< terminal records on disk at boot
  int parked = 0;     ///< queued records awaiting re-admission
  double fsck_ms = 0;       ///< classify-only scrub of the dirty spool
  double recover_ms = 0;    ///< full Service boot: scan + install
  long long results_recovered = 0;
  long long frames_recovered = 0;  ///< queued records re-admitted
  long long disk_bytes = 0;
  bool honest = false;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

RecoveryPoint run_point(const std::string& base_spec, int terminal,
                        int parked, int point_index) {
  RecoveryPoint point;
  point.terminal = terminal;
  point.parked = parked;

  serve::ServiceConfig config;
  config.spool_dir =
      "/tmp/crusaded.bench.recovery." + std::to_string(point_index);
  (void)std::system(("rm -rf " + config.spool_dir).c_str());
  config.workers = 4;
  config.queue_capacity = terminal + parked + 8;
  config.terminal_retain = static_cast<std::size_t>(terminal + parked + 8);

  // --- build the dirty spool: drain N to terminal, park M queued ---------
  {
    serve::Service service(config);
    std::vector<std::uint64_t> drained;
    for (int i = 0; i < terminal; ++i) {
      serve::SubmitRequest req;
      req.kind = serve::JobKind::Lint;
      // Unique trailing comment: every job is real work, never a cache hit.
      req.spec_text = base_spec + "# recovery-" + std::to_string(point_index) +
                      "-" + std::to_string(i) + "\n";
      const serve::SubmitOutcome out = service.submit(req);
      if (!out.admitted) {
        std::fprintf(stderr, "bench submit rejected: %s\n", out.error.c_str());
        std::exit(1);
      }
      drained.push_back(out.id);
    }
    for (const std::uint64_t id : drained) {
      serve::JobStatus status;
      std::string body;
      if (!service.wait_result(id, 120000, &status, &body)) {
        std::fprintf(stderr, "bench job %llu never went terminal\n",
                     static_cast<unsigned long long>(id));
        std::exit(1);
      }
    }
    service.stop(true);
  }

  // Second incarnation with workers held: the parked submissions spool but
  // never run, so the hard stop leaves exactly M queued records.
  {
    serve::ServiceConfig paused = config;
    paused.start_paused = true;
    serve::Service service(paused);
    for (int i = 0; i < parked; ++i) {
      serve::SubmitRequest req;
      req.kind = serve::JobKind::Lint;
      req.spec_text = base_spec + "# recovery-parked-" +
                      std::to_string(point_index) + "-" + std::to_string(i) +
                      "\n";
      const serve::SubmitOutcome out = service.submit(req);
      if (!out.admitted) {
        std::fprintf(stderr, "bench park rejected: %s\n", out.error.c_str());
        std::exit(1);
      }
    }
    service.stop(false);  // hard stop: the parked records stay queued
  }

  // --- phase 1: classify-only fsck over the dirty spool ------------------
  {
    const auto started = std::chrono::steady_clock::now();
    const serve::FsckReport report =
        serve::fsck_spool(config.spool_dir, /*repair=*/false);
    point.fsck_ms = ms_since(started);
    point.disk_bytes = report.disk_bytes;
  }

  // --- phase 2: the full restart ----------------------------------------
  {
    config.start_paused = true;  // time recovery, not re-execution
    const auto started = std::chrono::steady_clock::now();
    serve::Service service(config);
    point.recover_ms = ms_since(started);
    const serve::ServiceStats stats = service.stats();
    point.results_recovered = stats.results_recovered;
    point.frames_recovered = service.recovered_jobs();
    point.honest = point.results_recovered == terminal &&
                   point.frames_recovered == parked;
    service.stop(false);
  }
  (void)std::system(("rm -rf " + config.spool_dir).c_str());
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  const double scale = bench::workload_scale(0.25);
  const ResourceLibrary lib = telecom_1999();
  std::ostringstream spec_stream;
  write_specification(spec_stream, quickstart_spec(lib), lib);
  const std::string spec = spec_stream.str();

  const int base = 8 + static_cast<int>(24 * scale);
  const int populations[] = {base, base * 4, base * 16};
  std::vector<RecoveryPoint> points;
  int index = 0;
  for (const int n : populations)
    points.push_back(run_point(spec, n, n / 4 + 1, index++));

  std::FILE* json = std::fopen(out_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  bool honest = true;
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"recovery_time\",\n"
               "  \"scale\": %.2f,\n"
               "  \"sweep\": [\n",
               scale);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RecoveryPoint& p = points[i];
    honest = honest && p.honest;
    std::fprintf(
        json,
        "    {\"terminal\": %d, \"parked\": %d, \"fsck_ms\": %.2f, "
        "\"recover_ms\": %.2f, \"results_recovered\": %lld, "
        "\"frames_recovered\": %lld, \"disk_bytes\": %lld, "
        "\"honest\": %s}%s\n",
        p.terminal, p.parked, p.fsck_ms, p.recover_ms, p.results_recovered,
        p.frames_recovered, p.disk_bytes, p.honest ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"honest\": %s\n"
               "}\n",
               honest ? "true" : "false");
  std::fclose(json);

  std::printf("recovery time bench (scale=%.2f)\n", scale);
  for (const RecoveryPoint& p : points)
    std::printf(
        "  %d terminal + %d parked: fsck %.2f ms, full recovery %.2f ms, "
        "%lld results + %lld frames back, %lld bytes scanned%s\n",
        p.terminal, p.parked, p.fsck_ms, p.recover_ms, p.results_recovered,
        p.frames_recovered, p.disk_bytes, p.honest ? "" : "  [DISHONEST]");
  std::printf("wrote %s\n", out_path);

  if (!honest) {
    std::fprintf(stderr, "recovery books do not balance\n");
    return 1;
  }
  return 0;
}
