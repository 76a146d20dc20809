// Service load bench: stands up an in-process serve::Service and measures
// end-to-end job latency under increasing offered submission rates, plus
// the latency of result-cache hits.  This is the number the daemon's
// admission-control hint (retry_after_ms) and DESIGN.md §13's "bounded
// wait" claim rest on, so the bench also reports how many submissions the
// bounded queue rejected at each rate — an overloaded service that stays
// honest shows up as rejections, not as unbounded p99.
//
// Latency per completed job is wait_ms + run_ms from JobStatus (admission
// to terminal, excluding client transport).  Cache-hit latency is measured
// client-side around submit(), since hits never enqueue.  Scale job counts
// with CRUSADE_SCALE.
//
//   serve_load [output.json]     (default: BENCH_serve.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "example_specs.hpp"
#include "graph/spec_io.hpp"
#include "resources/resource_library.hpp"
#include "serve/service.hpp"

using namespace crusade;

namespace {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct SweepPoint {
  int offered_qps = 0;
  int submitted = 0;
  int completed = 0;
  int rejected_busy = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Offer `jobs` lint submissions at `qps`, each with a unique body so the
/// result cache cannot absorb them, then wait for every admitted job.
/// Per-job run times are appended to `run_ms_all` for the client-vs-daemon
/// histogram agreement check.
SweepPoint sweep(serve::Service& service, const std::string& base_spec,
                 int qps, int jobs, std::vector<double>* run_ms_all) {
  SweepPoint point;
  point.offered_qps = qps;
  const auto gap = std::chrono::duration<double>(1.0 / qps);
  std::vector<std::uint64_t> admitted;
  auto next = std::chrono::steady_clock::now();
  for (int i = 0; i < jobs; ++i) {
    std::this_thread::sleep_until(next);
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        gap);
    serve::SubmitRequest req;
    req.kind = serve::JobKind::Lint;
    // Unique trailing comment: lint keys the cache on the spec text.
    req.spec_text =
        base_spec + "# load-" + std::to_string(qps) + "-" + std::to_string(i) +
        "\n";
    const serve::SubmitOutcome out = service.submit(req);
    ++point.submitted;
    if (out.busy) {
      ++point.rejected_busy;
    } else if (out.admitted || out.cached) {
      admitted.push_back(out.id);
    }
  }
  std::vector<double> latencies;
  for (const std::uint64_t id : admitted) {
    serve::JobStatus status;
    std::string body;
    if (service.wait_result(id, 60000, &status, &body)) {
      ++point.completed;
      latencies.push_back(static_cast<double>(status.wait_ms + status.run_ms));
      run_ms_all->push_back(static_cast<double>(status.run_ms));
    }
  }
  point.p50_ms = percentile(latencies, 0.50);
  point.p99_ms = percentile(latencies, 0.99);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const double scale = bench::workload_scale(0.25);
  const ResourceLibrary lib = telecom_1999();
  std::ostringstream spec_stream;
  write_specification(spec_stream, quickstart_spec(lib), lib);
  const std::string spec = spec_stream.str();

  serve::ServiceConfig config;
  config.spool_dir = "/tmp/crusaded.bench.spool";
  // A spool left by an earlier run would serve this run's jobs from its
  // cache and skew every number below.
  (void)std::system(("rm -rf " + config.spool_dir).c_str());
  config.workers = 4;
  config.queue_capacity = 64;
  serve::Service service(config);

  // Cold synthesis: first submission of the quickstart spec does real work
  // and seeds the cache.
  serve::SubmitRequest synth;
  synth.kind = serve::JobKind::Run;
  synth.spec_text = spec;
  const auto cold_start = std::chrono::steady_clock::now();
  const serve::SubmitOutcome cold = service.submit(synth);
  serve::JobStatus cold_status;
  std::string cold_body;
  if (!cold.admitted ||
      !service.wait_result(cold.id, 60000, &cold_status, &cold_body)) {
    std::fprintf(stderr, "cold synthesis submission failed: %s\n",
                 cold.error.c_str());
    return 1;
  }
  const double cold_ms = ms_since(cold_start);

  // Cache hits: identical resubmissions answer from the cache without
  // enqueueing, so time submit() itself.
  const int hit_count = 20 + static_cast<int>(180 * scale);
  std::vector<double> hit_ms;
  for (int i = 0; i < hit_count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const serve::SubmitOutcome out = service.submit(synth);
    if (!out.cached) {
      std::fprintf(stderr, "resubmission %d missed the cache\n", i);
      return 1;
    }
    hit_ms.push_back(ms_since(start));
  }

  // Offered-rate sweep on lint jobs (cheap enough that queueing, not the
  // worker fork, dominates at the high end).
  const int jobs_per_point = 40 + static_cast<int>(160 * scale);
  std::vector<double> run_ms_all;
  run_ms_all.push_back(static_cast<double>(cold_status.run_ms));
  std::vector<SweepPoint> points;
  for (const int qps : {25, 100, 400})
    points.push_back(sweep(service, spec, qps, jobs_per_point, &run_ms_all));

  // Sustained overload: a tight submission loop with no pacing, far above
  // drain rate, so the bounded queue pushes back constantly.  The contract
  // under test is the hint itself: every busy rejection must carry a sane
  // retry_after_ms (neither a stampede-inducing zero nor an absurd hour),
  // and a client that honors the hint must converge — every job admitted
  // within a bounded number of polite retries, none abandoned.
  const int overload_jobs = 80 + static_cast<int>(220 * scale);
  int overload_busy = 0;
  int overload_max_tries = 0;
  long hint_min = std::numeric_limits<long>::max();
  long hint_max = 0;
  bool hints_sane = true;
  bool converged = true;
  std::vector<std::uint64_t> overload_admitted;
  for (int i = 0; i < overload_jobs; ++i) {
    serve::SubmitRequest req;
    req.kind = serve::JobKind::Lint;
    req.spec_text = spec + "# overload-" + std::to_string(i) + "\n";
    int tries = 0;
    for (; tries < 50; ++tries) {
      const serve::SubmitOutcome out = service.submit(req);
      if (!out.busy) {
        if (out.admitted) overload_admitted.push_back(out.id);
        break;
      }
      ++overload_busy;
      hint_min = std::min(hint_min, out.retry_after_ms);
      hint_max = std::max(hint_max, out.retry_after_ms);
      if (out.retry_after_ms < 10 || out.retry_after_ms > 60000)
        hints_sane = false;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<long>(out.retry_after_ms, 250)));
    }
    overload_max_tries = std::max(overload_max_tries, tries + 1);
    if (tries == 50) converged = false;
  }
  if (hint_min == std::numeric_limits<long>::max()) hint_min = 0;
  for (const std::uint64_t id : overload_admitted) {
    serve::JobStatus status;
    std::string body;
    if (service.wait_result(id, 60000, &status, &body))
      run_ms_all.push_back(static_cast<double>(status.run_ms));
    else
      converged = false;
  }

  const serve::ServiceStats stats = service.stats();
  service.stop(true);

  // The daemon measured the same jobs with its own histograms.  Totals must
  // match the client's books exactly; percentiles must agree within the
  // histogram's documented error (quantiles err high by <= 12.5 %) plus the
  // client's whole-millisecond rounding.
  const double client_run_p50 = percentile(run_ms_all, 0.50);
  const double client_run_p99 = percentile(run_ms_all, 0.99);
  const double daemon_run_p50 =
      static_cast<double>(stats.run_us.quantile(0.50)) / 1000.0;
  const double daemon_run_p99 =
      static_cast<double>(stats.run_us.quantile(0.99)) / 1000.0;
  auto agrees = [](double daemon, double client) {
    const double tolerance = std::max(3.0, 0.25 * client);
    return daemon >= client - tolerance && daemon <= client + tolerance;
  };
  const bool totals_agree =
      stats.run_us.total() == run_ms_all.size() &&
      stats.queue_wait_us.total() == run_ms_all.size() &&
      stats.e2e_us.total() ==
          run_ms_all.size() + static_cast<std::size_t>(hit_count);
  const bool histograms_agree = totals_agree &&
                                agrees(daemon_run_p50, client_run_p50) &&
                                agrees(daemon_run_p99, client_run_p99);

  std::FILE* json = std::fopen(out_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"serve_load\",\n"
               "  \"scale\": %.2f,\n"
               "  \"workers\": %d,\n"
               "  \"queue_capacity\": %d,\n"
               "  \"cold_synthesis_ms\": %.2f,\n"
               "  \"cache_hits\": %d,\n"
               "  \"cache_hit_p50_ms\": %.4f,\n"
               "  \"cache_hit_p99_ms\": %.4f,\n"
               "  \"sweep\": [\n",
               scale, config.workers, config.queue_capacity, cold_ms,
               hit_count, percentile(hit_ms, 0.50), percentile(hit_ms, 0.99));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(json,
                 "    {\"offered_qps\": %d, \"submitted\": %d, "
                 "\"completed\": %d, \"rejected_busy\": %d, "
                 "\"p50_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
                 p.offered_qps, p.submitted, p.completed, p.rejected_busy,
                 p.p50_ms, p.p99_ms, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"overload\": {\"offered\": %d, \"admitted\": %zu, "
               "\"busy_rejections\": %d, \"hint_min_ms\": %ld, "
               "\"hint_max_ms\": %ld, \"max_tries\": %d, "
               "\"hints_sane\": %s, \"converged\": %s},\n",
               overload_jobs, overload_admitted.size(), overload_busy,
               hint_min, hint_max, overload_max_tries,
               hints_sane ? "true" : "false", converged ? "true" : "false");
  std::fprintf(json,
               "  \"total_finished\": %lld,\n"
               "  \"total_rejected_busy\": %lld,\n"
               "  \"client_run_p50_ms\": %.2f,\n"
               "  \"client_run_p99_ms\": %.2f,\n"
               "  \"daemon\": {\n"
               "    \"queue_wait_us\": %s,\n"
               "    \"run_us\": %s,\n"
               "    \"e2e_us\": %s\n"
               "  },\n"
               "  \"histograms_agree\": %s\n"
               "}\n",
               static_cast<long long>(stats.finished),
               static_cast<long long>(stats.rejected_busy),
               client_run_p50, client_run_p99,
               stats.queue_wait_us.to_json().c_str(),
               stats.run_us.to_json().c_str(),
               stats.e2e_us.to_json().c_str(),
               histograms_agree ? "true" : "false");
  std::fclose(json);

  std::printf("serve load bench (scale=%.2f, %d workers)\n", scale,
              config.workers);
  std::printf("  cold synthesis: %.2f ms; cache hit p50=%.4f ms p99=%.4f ms "
              "(%d hits)\n",
              cold_ms, percentile(hit_ms, 0.50), percentile(hit_ms, 0.99),
              hit_count);
  for (const SweepPoint& p : points)
    std::printf("  %4d qps offered: %d/%d completed, %d busy-rejected, "
                "p50=%.2f ms p99=%.2f ms\n",
                p.offered_qps, p.completed, p.submitted, p.rejected_busy,
                p.p50_ms, p.p99_ms);
  std::printf("  daemon run p50=%.2f ms p99=%.2f ms vs client p50=%.2f ms "
              "p99=%.2f ms (%s)\n",
              daemon_run_p50, daemon_run_p99, client_run_p50, client_run_p99,
              histograms_agree ? "agree" : "DISAGREE");
  std::printf("  overload: %d offered tight-loop, %zu admitted, %d busy "
              "pushbacks, hints %ld..%ld ms, max %d tries (%s, %s)\n",
              overload_jobs, overload_admitted.size(), overload_busy,
              hint_min, hint_max, overload_max_tries,
              hints_sane ? "hints sane" : "HINTS INSANE",
              converged ? "converged" : "DID NOT CONVERGE");
  std::printf("wrote %s\n", out_path);

  // Honesty check: every admitted job must have completed, and every
  // submission must be accounted for as completed or busy-rejected.
  for (const SweepPoint& p : points)
    if (p.completed + p.rejected_busy != p.submitted) {
      std::fprintf(stderr, "lost jobs at %d qps: %d + %d != %d\n",
                   p.offered_qps, p.completed, p.rejected_busy, p.submitted);
      return 1;
    }
  // Overload contract: every busy pushback carried a usable hint, and
  // honoring the hints admitted every job within the retry cap.
  if (!hints_sane || !converged) {
    std::fprintf(stderr,
                 "overload contract broken: hints %ld..%ld ms, %s\n",
                 hint_min, hint_max,
                 converged ? "converged" : "did not converge");
    return 1;
  }
  // Second honesty check: the daemon's own histograms must tell the same
  // story as the client's stopwatch.
  if (!histograms_agree) {
    std::fprintf(stderr,
                 "daemon histograms disagree with client timings "
                 "(totals %llu/%llu/%llu vs %zu jobs + %d hits)\n",
                 static_cast<unsigned long long>(stats.queue_wait_us.total()),
                 static_cast<unsigned long long>(stats.run_us.total()),
                 static_cast<unsigned long long>(stats.e2e_us.total()),
                 run_ms_all.size(), hit_count);
    return 1;
  }
  return 0;
}
