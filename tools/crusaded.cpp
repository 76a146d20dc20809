// crusaded: the multi-tenant synthesis daemon (DESIGN.md §13).
//
//   crusaded [--socket <path>] [--spool <dir>] [--workers <n>]
//            [--queue-cap <n>] [--max-attempts <n>] [--cache-cap <n>]
//            [--checkpoint-every <evals>] [--attempt-timeout-ms <n>]
//            [--limit-as-mb <n>] [--limit-cpu-s <n>] [--limit-fsize-mb <n>]
//            [--disk-budget-mb <n>] [--chaos <seed[:rate]>]
//            [--fsck [--dry-run]]
//
// --fsck runs the boot-time spool scan standalone (verify every job record
// and cache entry; quarantine + tombstone corrupt records, drop corrupt
// cache entries and temp debris, report unreadable files and ledger drift),
// prints the typed report as JSON, and exits without serving.  --dry-run
// classifies only.  Exit 0 unless a repair failed.
//
// Accepts submit/status/result/cancel jobs from `crusade submit` and
// friends over a local socket.  Every job attempt runs in a supervised
// forked worker: a crash is retried from the last checkpoint with capped
// exponential backoff, a deadline or cancellation returns the best-so-far
// validator-checked architecture, and a full queue earns an honest busy
// rejection with a retry-after hint.  The first SIGTERM/SIGINT drains the
// queue and exits; a second hard-stops, parking queued jobs in the spool
// for the next incarnation.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/daemon.hpp"
#include "serve/fsck.hpp"
#include "util/error.hpp"
#include "util/run_control.hpp"

using namespace crusade;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: crusaded [--socket <path>] [--spool <dir>] "
               "[--workers <n>] [--queue-cap <n>] [--max-attempts <n>] "
               "[--cache-cap <n>] [--checkpoint-every <evals>] "
               "[--attempt-timeout-ms <n>] [--limit-as-mb <n>] "
               "[--limit-cpu-s <n>] [--limit-fsize-mb <n>] "
               "[--disk-budget-mb <n>] [--chaos <seed[:rate]>] "
               "[--fsck [--dry-run]]\n"
               "  --fsck  scan the spool once, print the JSON report and "
               "exit: corrupt job records\n"
               "          are kept as .corrupt evidence and replaced by a "
               "failed-honest tombstone,\n"
               "          corrupt cache entries and temp debris removed, "
               "unreadable files and\n"
               "          ledger drift reported; --dry-run classifies "
               "without touching disk\n");
  return 2;
}

extern "C" void daemon_stop_signal(int sig) {
  // First signal: drain.  Second: hard stop (both observed by the accept
  // loop's StopHub poll).  Third: the default disposition kills for real.
  StopHub::instance().notify(sig);
  if (StopHub::instance().notifications() >= 2) std::signal(sig, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  serve::DaemonConfig cfg;
  cfg.socket_path = "/tmp/crusaded.sock";
  cfg.service.spool_dir = "/tmp/crusaded.spool";
  bool fsck_only = false;
  bool fsck_dry_run = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: option %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--socket") cfg.socket_path = value();
    else if (a == "--spool") cfg.service.spool_dir = value();
    else if (a == "--workers") cfg.service.workers = std::atoi(value());
    else if (a == "--queue-cap")
      cfg.service.queue_capacity = std::atoi(value());
    else if (a == "--max-attempts")
      cfg.service.max_attempts = std::atoi(value());
    else if (a == "--cache-cap")
      cfg.service.cache_capacity =
          static_cast<std::size_t>(std::atol(value()));
    else if (a == "--checkpoint-every")
      cfg.service.checkpoint_every = std::atol(value());
    else if (a == "--attempt-timeout-ms")
      cfg.service.attempt_timeout_ms = std::atol(value());
    else if (a == "--limit-as-mb") cfg.service.limit_as_mb = std::atol(value());
    else if (a == "--limit-cpu-s") cfg.service.limit_cpu_s = std::atol(value());
    else if (a == "--limit-fsize-mb")
      cfg.service.limit_fsize_mb = std::atol(value());
    else if (a == "--disk-budget-mb")
      cfg.service.disk_budget_bytes = std::atoll(value()) * (1ll << 20);
    else if (a == "--chaos") {
      // Same format as CRUSADE_CHAOS: seed[:rate].  Parsed here only to
      // fail fast on garbage; the Service arms the plan from the config.
      const std::string spec = value();
      const std::size_t colon = spec.find(':');
      cfg.service.chaos_seed =
          std::strtoull(spec.substr(0, colon).c_str(), nullptr, 10);
      if (colon != std::string::npos)
        cfg.service.chaos_rate = std::atof(spec.c_str() + colon + 1);
      if (cfg.service.chaos_seed == 0 || cfg.service.chaos_rate <= 0.0 ||
          cfg.service.chaos_rate > 1.0) {
        std::fprintf(stderr,
                     "error: --chaos wants <seed[:rate]> with seed > 0 and "
                     "rate in (0, 1]\n");
        return 2;
      }
    }
    else if (a == "--fsck") fsck_only = true;
    else if (a == "--dry-run") fsck_dry_run = true;
    else return usage();
  }
  if (fsck_dry_run && !fsck_only) return usage();

  if (fsck_only) {
    // Standalone scrub: the same scan the daemon boots from, minus
    // installing what it verified.  The report is the contract —
    // machine-readable, one typed verdict per inconsistency.
    const serve::FsckReport report =
        serve::fsck_spool(cfg.service.spool_dir, /*repair=*/!fsck_dry_run);
    std::printf("%s\n", report.to_json().c_str());
    return report.repair_failures > 0 ? 1 : 0;
  }

  std::signal(SIGINT, daemon_stop_signal);
  std::signal(SIGTERM, daemon_stop_signal);

  try {
    serve::Daemon daemon(cfg);
    const int recovered = daemon.service().recovered_jobs();
    std::printf("crusaded: listening on %s (spool %s, %d workers%s)\n",
                cfg.socket_path.c_str(), cfg.service.spool_dir.c_str(),
                cfg.service.workers,
                recovered > 0
                    ? (", " + std::to_string(recovered) + " jobs recovered")
                          .c_str()
                    : "");
    std::fflush(stdout);
    daemon.run();
    const serve::ServiceStats stats = daemon.service().stats();
    std::printf("crusaded: stopped (%lld finished: %lld ok, %lld masked, "
                "%lld degraded-honest, %lld failed-honest, %lld cancelled; "
                "%lld cache hits, %lld crashes supervised)\n",
                static_cast<long long>(stats.finished),
                static_cast<long long>(stats.completed_ok),
                static_cast<long long>(stats.masked),
                static_cast<long long>(stats.degraded_honest),
                static_cast<long long>(stats.failed_honest),
                static_cast<long long>(stats.cancelled),
                static_cast<long long>(stats.cache_hits),
                static_cast<long long>(stats.crashes));
  } catch (const Error& e) {
    std::fprintf(stderr, "crusaded: %s\n", e.what());
    return 2;
  }
  return 0;
}
