// The `crusade` command-line tool: co-synthesis on specification files
// without writing any C++.
//
//   crusade run <file.spec> [--no-reconfig] [--ft] [--boot-req <time>]
//               [--power-cap <mW>] [--dump-schedule] [--write-spec <out>]
//               [--trace <out.json>] [--stats] [--json]
//               [--deadline-ms <n>] [--checkpoint <file>]
//               [--checkpoint-every <evals>] [--resume]
//   crusade trace <file.spec> [-o <trace.json>] [--no-reconfig]
//               [--boot-req <time>] [--json]
//   crusade validate <file.spec> [--no-reconfig] [--boot-req <time>]
//   crusade generate (--profile <name> [--scale <f>] | --tasks <n>)
//               [--seed <n>] [-o <file.spec>]
//   crusade soak <file.spec> [--kills <n>] [--checkpoint-every <evals>]
//               [--seed <n>]
//   crusade ft <file.spec> [--no-reconfig] [--boot-req <time>]
//               [--power-cap <mW>] [--stats] [--json]
//   crusade survive <file.spec> [--seeds <n>] [--seed-base <n>]
//               [--no-reconfig] [--boot-req <time>] [--json]
//   crusade lint <file.spec> [--json]
//   crusade info <file.spec>
//   crusade profiles
//
// `crusade run` exit codes (mirrors lint's 0/1/2 plus the anytime case):
//   0  feasible architecture, search ran to completion
//   1  infeasible result (honest diagnosis printed)
//   2  operational error: bad arguments, unreadable spec, corrupt or
//      mismatched checkpoint
//   3  anytime result: the wall-clock deadline or a SIGINT/SIGTERM stop
//      truncated the search; the best architecture found so far was
//      reported (check `feasible` in --json for its quality)
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <set>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analyze/analyzer.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/crusade.hpp"
#include "core/field_upgrade.hpp"
#include "core/report.hpp"
#include "ft/crusade_ft.hpp"
#include "graph/spec_io.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "util/run_control.hpp"
#include "tgff/profiles.hpp"
#include "util/atomic_file.hpp"
#include "util/json_writer.hpp"

using namespace crusade;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s run <file.spec> [--no-reconfig] [--ft] "
               "[--boot-req <time>] [--power-cap <mW>] [--dump-schedule] "
               "[--write-spec <out>] [--trace <out.json>] [--stats] "
               "[--json] [--deadline-ms <n>] [--checkpoint <file>] "
               "[--checkpoint-every <evals>] [--resume]\n"
               "  %s trace <file.spec> [-o <trace.json>] [--no-reconfig] "
               "[--boot-req <time>] [--json]\n"
               "  %s validate <file.spec> [--no-reconfig] "
               "[--boot-req <time>]\n"
               "  %s generate (--profile <name> [--scale <f>] | --tasks <n>) "
               "[--seed <n>] [-o <file.spec>]\n"
               "  %s soak <file.spec> [--kills <n>] "
               "[--checkpoint-every <evals>] [--seed <n>]\n"
               "  %s upgrade <deployed.spec> <new.spec>\n"
               "  %s ft <file.spec> [--no-reconfig] [--boot-req <time>] "
               "[--power-cap <mW>] [--stats] [--json]\n"
               "  %s survive <file.spec> [--seeds <n>] [--seed-base <n>] "
               "[--no-reconfig] [--boot-req <time>] [--json]\n"
               "  %s lint <file.spec> [--json]\n"
               "  %s info <file.spec>\n"
               "  %s profiles\n"
               "  %s submit <file.spec> [--kind run|lint|validate|survive] "
               "[--priority <n>] [--deadline-ms <n>] [--no-reconfig] "
               "[--seeds <n>] [--wait] [--timeout-ms <n>] [--socket <path>] "
               "[--nonce <token>] [--retries <n>] [--recv-timeout-ms <n>]\n"
               "  %s status [id] [--socket <path>]\n"
               "  %s result <id> [--wait] [--timeout-ms <n>] "
               "[--trace <out.json>] [--socket <path>]\n"
               "  %s trace --job <id> [-o <trace.json>] [--socket <path>]\n"
               "  %s stats [--follow] [--interval-ms <n>] "
               "[--socket <path>]\n"
               "  %s cancel <id> [--socket <path>]\n"
               "  %s shutdown [--hard] [--socket <path>]\n"
               "run exit codes: 0 feasible, 1 infeasible, 2 operational "
               "error, 3 deadline/stop-truncated anytime result\n"
               "submit/result --wait exit codes: 0 ok/masked, 1 "
               "failed-honest/cancelled, 3 degraded-honest, 4 busy/pending\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0);
  return 2;
}

/// Shared anytime control: `--deadline-ms` arms the wall clock; the first
/// SIGINT/SIGTERM requests a cooperative stop (synthesis wraps up and
/// reports the best architecture so far), the second falls back to the
/// default handler and kills the process.
RunController g_control;

extern "C" void handle_stop_signal(int sig) {
  // Async-signal-safe: two relaxed atomic stores.  The controller observes
  // the hub through attach_process_stop — signals are routed per-process
  // here, per-job inside the crusaded daemon, so a daemon cancellation can
  // never stop an unrelated request.
  StopHub::instance().notify(sig);
  std::signal(sig, SIG_DFL);         // a second signal terminates for real
}

void install_stop_handlers() {
  g_control.attach_process_stop(&StopHub::instance());
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::set<std::string> flags;

  static Args parse(int argc, char** argv, const std::set<std::string>& with_value) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0 || a == "-o") {
        if (with_value.count(a)) {
          if (i + 1 >= argc) throw Error("option " + a + " needs a value");
          args.options[a] = argv[++i];
        } else {
          args.flags.insert(a);
        }
      } else {
        args.positional.push_back(std::move(a));
      }
    }
    return args;
  }
};

/// Serializes the observability event sink to a Chrome trace-event file
/// (chrome://tracing, https://ui.perfetto.dev).  Returns 0 on success.
int write_trace_file(const std::string& path, bool quiet) {
  try {
    atomic_write_file(path, obs::trace_json() + "\n");
  } catch (const Error& e) {
    std::fprintf(stderr, "error: cannot write trace file %s: %s\n",
                 path.c_str(), e.what());
    return 1;
  }
  if (!quiet) {
    std::printf("trace: %zu spans -> %s (load in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                obs::event_count(), path.c_str());
    if (obs::dropped_events() > 0)
      std::printf("trace: %lld spans dropped (sink at capacity)\n",
                  static_cast<long long>(obs::dropped_events()));
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  const Args args = Args::parse(
      argc, argv,
      {"--boot-req", "--power-cap", "--write-spec", "--trace",
       "--deadline-ms", "--checkpoint", "--checkpoint-every"});
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  Specification spec = read_specification_file(args.positional[0], lib);
  if (args.options.count("--boot-req"))
    spec.boot_time_requirement = parse_time(args.options.at("--boot-req"));

  install_stop_handlers();
  if (args.options.count("--deadline-ms"))
    g_control.set_deadline_ms(std::stol(args.options.at("--deadline-ms")));

  const bool want_trace = args.options.count("--trace") != 0;
  const bool want_stats = args.flags.count("--stats") != 0;
  const bool want_json = args.flags.count("--json") != 0;
  if (want_trace) {
    obs::reset();
    obs::set_enabled(true);
  }

  if (args.flags.count("--ft")) {
    if (args.options.count("--checkpoint") || args.flags.count("--resume"))
      throw Error(
          "--checkpoint/--resume are not supported with --ft "
          "(the fault-tolerance pipeline has no checkpoint trajectory yet)");
    CrusadeFtParams params;
    params.base.enable_reconfig = !args.flags.count("--no-reconfig");
    if (args.options.count("--power-cap"))
      params.base.power_cap_mw = std::stod(args.options.at("--power-cap"));
    const CrusadeFtResult r = CrusadeFt(spec, lib, params).run();
    std::printf("%s", describe_result(r.synthesis).c_str());
    int spares = 0;
    for (const ServiceModule& m : r.dependability.modules)
      spares += m.spares;
    std::printf("fault tolerance: %d assertions, %d duplicate-and-compare, "
                "%d shared; %zu service modules, %d spares; availability %s\n",
                r.transform.assertions_added,
                r.transform.duplicate_compare_added,
                r.transform.checks_shared, r.dependability.modules.size(),
                spares,
                r.dependability.meets_requirements ? "met" : "MISSED");
    if (want_stats) std::printf("%s", r.synthesis.stats.table().c_str());
    if (want_trace &&
        write_trace_file(args.options.at("--trace"), false) != 0)
      return 1;
    return r.synthesis.feasible ? 0 : 1;
  }

  CrusadeParams params;
  params.enable_reconfig = !args.flags.count("--no-reconfig");
  if (args.options.count("--power-cap"))
    params.power_cap_mw = std::stod(args.options.at("--power-cap"));
  params.control = &g_control;
  if (args.options.count("--checkpoint")) {
    params.checkpoint.path = args.options.at("--checkpoint");
    if (args.options.count("--checkpoint-every"))
      params.checkpoint.every_evals =
          std::stoll(args.options.at("--checkpoint-every"));
  } else if (args.flags.count("--resume") ||
             args.options.count("--checkpoint-every")) {
    throw Error("--resume/--checkpoint-every need --checkpoint <file>");
  }
  // Load-and-verify BEFORE synthesis: a corrupt, truncated, or foreign
  // checkpoint is an operational error (exit 2, via the Error path in
  // main), never a silent restart from scratch.
  ckpt::Checkpoint loaded;
  if (args.flags.count("--resume")) {
    loaded = ckpt::load_checkpoint(params.checkpoint.path, lib);
    ckpt::check_spec_hash(loaded, Crusade::fingerprint(spec, lib, params));
    params.resume = &loaded;
  }
  const CrusadeResult r = Crusade(spec, lib, params).run();
  // Exit-code contract (usage text): truncation outranks the feasibility
  // bit — a deadline-stopped run reports the best architecture so far and
  // exits 3 so scripts can tell "anytime answer" from "final answer".
  const int exit_code = r.stopped ? 3 : (r.feasible ? 0 : 1);
  if (want_trace && write_trace_file(args.options.at("--trace"), want_json))
    return 2;
  if (want_json) {
    // Machine-readable envelope; the stats sub-document comes straight from
    // RunStats::to_json so CLI and library schemas cannot drift.
    tools::JsonWriter w;
    w.begin_object()
        .key("spec").value(args.positional[0])
        .key("feasible").value(r.feasible)
        .key("stopped").value(r.stopped)
        .key("resumed").value(r.resumed)
        .key("validation_clean").value(r.validation.clean())
        .key("arch_hash").value(arch_fingerprint(r.arch))
        .key("cost").value(r.cost.total(), 2)
        .key("power_mw").value(r.power_mw, 2)
        .key("pes").value(r.pe_count)
        .key("links").value(r.link_count)
        .key("modes").value(r.mode_count);
    if (want_trace)
      w.key("trace_file").value(args.options.at("--trace"));
    w.key("stats").raw(r.stats.to_json()).end_object();
    std::printf("%s\n", w.str().c_str());
    return exit_code;
  }
  std::printf("%s", describe_result(r).c_str());
  if (want_stats) std::printf("%s", r.stats.table().c_str());
  if (!r.validation.clean())
    std::printf("self-check: %s", r.validation.summary().c_str());
  if (!r.diagnosis.empty())
    std::printf("%s", r.diagnosis.summary().c_str());
  if (args.flags.count("--dump-schedule")) {
    const FlatSpec flat(spec);
    std::printf("\n%s", dump_schedule(r, flat).c_str());
  }
  if (args.options.count("--write-spec"))
    write_specification_file(args.options.at("--write-spec"), spec, lib);
  return exit_code;
}

/// Unavailabilities are ~1e-8; fixed-point %.6f would print them as zero.
std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6e", v);
  return buf;
}

/// `crusade ft`: CRUSADE-FT synthesis with the transform report, per-module
/// unavailability and spare cost exposed — scriptable like run/lint/trace.
/// Exit codes: 0 feasible and every unavailability requirement met, 1 honest
/// negative, 2 operational error (via the Error path in main).
int cmd_ft(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {"--boot-req", "--power-cap"});
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  Specification spec = read_specification_file(args.positional[0], lib);
  if (args.options.count("--boot-req"))
    spec.boot_time_requirement = parse_time(args.options.at("--boot-req"));
  const bool want_json = args.flags.count("--json") != 0;
  const bool want_stats = args.flags.count("--stats") != 0;
  CrusadeFtParams params;
  params.base.enable_reconfig = !args.flags.count("--no-reconfig");
  if (args.options.count("--power-cap"))
    params.base.power_cap_mw = std::stod(args.options.at("--power-cap"));
  const CrusadeFtResult r = CrusadeFt(spec, lib, params).run();

  int spares = 0;
  for (const ServiceModule& m : r.dependability.modules) spares += m.spares;
  const bool ok = r.synthesis.feasible && r.dependability.meets_requirements;
  if (want_json) {
    tools::JsonWriter w;
    w.begin_object()
        .key("spec").value(args.positional[0])
        .key("feasible").value(r.synthesis.feasible)
        .key("meets_requirements").value(r.dependability.meets_requirements)
        .key("total_cost").value(r.total_cost, 2)
        .key("spare_cost").value(r.dependability.total_spare_cost, 2)
        .key("transform").begin_object()
            .key("assertions").value(r.transform.assertions_added)
            .key("duplicate_compare").value(r.transform.duplicate_compare_added)
            .key("checks_shared").value(r.transform.checks_shared)
            .key("tasks_before").value(r.transform.tasks_before)
            .key("tasks_after").value(r.transform.tasks_after)
        .end_object()
        .key("modules").begin_array();
    for (const ServiceModule& m : r.dependability.modules)
      w.begin_object()
          .key("pes").value(static_cast<int>(m.pes.size()))
          .key("spares").value(m.spares)
          .key("fit_total").value(m.fit_total, 1)
          .key("unavailability").raw(sci(m.unavailability))
          .key("spare_cost").value(m.spare_cost, 2)
          .end_object();
    w.end_array().key("graphs").begin_array();
    for (std::size_t g = 0; g < r.dependability.graph_unavailability.size();
         ++g)
      w.begin_object()
          .key("unavailability")
          .raw(sci(r.dependability.graph_unavailability[g]))
          .key("requirement")
          .raw(sci(g < r.ft_spec.unavailability_requirement.size()
                       ? r.ft_spec.unavailability_requirement[g]
                       : 0))
          .key("meets").value(r.dependability.graph_meets[g] != 0)
          .end_object();
    w.end_array()
        .key("stats").raw(r.synthesis.stats.to_json())
        .end_object();
    std::printf("%s\n", w.str().c_str());
    return ok ? 0 : 1;
  }
  std::printf("%s", describe_result(r.synthesis).c_str());
  std::printf("fault tolerance: %d assertions, %d duplicate-and-compare, "
              "%d shared; %zu service modules, %d spares ($%.2f); "
              "availability %s\n",
              r.transform.assertions_added,
              r.transform.duplicate_compare_added, r.transform.checks_shared,
              r.dependability.modules.size(), spares,
              r.dependability.total_spare_cost,
              r.dependability.meets_requirements ? "met" : "MISSED");
  for (std::size_t g = 0; g < r.dependability.graph_unavailability.size();
       ++g)
    std::printf("  graph %zu: unavailability %s (requirement %s) %s\n", g,
                sci(r.dependability.graph_unavailability[g]).c_str(),
                sci(g < r.ft_spec.unavailability_requirement.size()
                        ? r.ft_spec.unavailability_requirement[g]
                        : 0)
                    .c_str(),
                r.dependability.graph_meets[g] ? "ok" : "MISSED");
  if (want_stats) std::printf("%s", r.synthesis.stats.table().c_str());
  return ok ? 0 : 1;
}

/// `crusade survive`: CRUSADE-FT synthesis followed by a seeded fault
/// campaign replaying the synthesized schedule under injected faults
/// (src/sim).  The JSON output is deterministic — same spec + seeds gives
/// byte-identical bytes (no wall times, no pointers) — so scripts can diff
/// reruns.  Exit codes: 0 campaign clean, 1 infeasible synthesis or any
/// FT-LIE verdict, 2 operational error.
int cmd_survive(int argc, char** argv) {
  const Args args =
      Args::parse(argc, argv, {"--seeds", "--seed-base", "--boot-req"});
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  Specification spec = read_specification_file(args.positional[0], lib);
  if (args.options.count("--boot-req"))
    spec.boot_time_requirement = parse_time(args.options.at("--boot-req"));
  const bool want_json = args.flags.count("--json") != 0;

  CrusadeFtParams params;
  params.base.enable_reconfig = !args.flags.count("--no-reconfig");
  params.survive_check = true;
  params.survive_seeds = 100;
  if (args.options.count("--seeds"))
    params.survive_seeds = std::stoi(args.options.at("--seeds"));
  if (args.options.count("--seed-base"))
    params.survive_seed_base = std::stoull(args.options.at("--seed-base"));
  const CrusadeFtResult r = CrusadeFt(spec, lib, params).run();
  if (!r.synthesis.feasible) {
    if (want_json) {
      tools::JsonWriter w;
      w.begin_object()
          .key("spec").value(args.positional[0])
          .key("feasible").value(false)
          .key("scenarios").value(0)
          .end_object();
      std::printf("%s\n", w.str().c_str());
    } else {
      std::printf("survive: synthesis infeasible; nothing to simulate\n%s",
                  describe_result(r.synthesis).c_str());
    }
    return 1;
  }

  const CampaignResult& c = r.survival;
  if (want_json) {
    tools::JsonWriter w;
    w.begin_object()
        .key("spec").value(args.positional[0])
        .key("feasible").value(true)
        .key("seeds").value(params.survive_seeds)
        .key("seed_base").value(static_cast<long long>(params.survive_seed_base))
        .key("scenarios").value(c.scenarios)
        .key("masked").value(c.masked)
        .key("degraded_honest").value(c.degraded)
        .key("ft_lies").value(c.ft_lies)
        .key("transients").value(c.transients)
        .key("transients_cross_pe").value(c.transients_cross_pe)
        .key("outcomes").begin_array();
    for (const ScenarioOutcome& o : c.outcomes)
      w.begin_object()
          .key("seed").value(static_cast<long long>(o.scenario.seed))
          .key("kind").value(to_string(o.scenario.kind))
          .key("pe").value(o.scenario.pe)
          .key("mode").value(o.scenario.mode)
          .key("task").value(o.scenario.task)
          .key("edge").value(o.scenario.edge)
          .key("frame").value(o.scenario.frame)
          .key("at_ns").value(static_cast<long long>(o.scenario.at))
          .key("drops").value(o.scenario.drops)
          .key("verdict").value(to_string(o.verdict))
          .key("detected").value(o.detected)
          .key("checker_task").value(o.checker_task)
          .key("checker_pe").value(o.checker_pe)
          .key("faulted_pe").value(o.faulted_pe)
          .key("deadline_misses")
          .value(static_cast<long long>(o.deadline_misses))
          .key("frames_lost").value(static_cast<long long>(o.frames_lost))
          .key("retries").value(o.retries)
          .key("worst_boot_ns").value(static_cast<long long>(o.worst_boot))
          .key("detail").value(o.detail)
          .end_object();
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
    return c.clean() ? 0 : 1;
  }

  std::printf("survive: %d scenarios on %s — %d masked, %d degraded-honest, "
              "%d FT-LIE\n",
              c.scenarios, args.positional[0].c_str(), c.masked, c.degraded,
              c.ft_lies);
  if (c.transients > 0)
    std::printf("  transients: %d/%d observed by a checker on a different "
                "PE\n",
                c.transients_cross_pe, c.transients);
  for (const ScenarioOutcome& o : c.outcomes)
    if (o.verdict == Verdict::FtLie)
      std::printf("  FT-LIE seed %llu (%s): %s\n",
                  static_cast<unsigned long long>(o.scenario.seed),
                  to_string(o.scenario.kind), o.detail.c_str());
  return c.clean() ? 0 : 1;
}

/// `crusade trace --job`: fetch one job's merged cross-process timeline
/// from the daemon (defined with the other client commands below).
int cmd_trace_job(const Args& args, char** argv);

/// `crusade trace`: synthesize with tracing enabled, print the phase/counter
/// table, and write a Chrome trace-event file (default trace.json) that
/// loads in chrome://tracing or https://ui.perfetto.dev.  With --job <id>
/// the trace comes from the crusaded daemon instead: the job's merged
/// timeline (daemon queue/retry spans + every worker attempt's spans).
int cmd_trace(int argc, char** argv) {
  const Args args =
      Args::parse(argc, argv, {"-o", "--boot-req", "--job", "--socket"});
  if (args.options.count("--job")) return cmd_trace_job(args, argv);
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  Specification spec = read_specification_file(args.positional[0], lib);
  if (args.options.count("--boot-req"))
    spec.boot_time_requirement = parse_time(args.options.at("--boot-req"));
  const std::string out_path =
      args.options.count("-o") ? args.options.at("-o") : "trace.json";
  const bool json = args.flags.count("--json") != 0;

  obs::reset();
  obs::set_enabled(true);
  CrusadeParams params;
  params.enable_reconfig = !args.flags.count("--no-reconfig");
  const CrusadeResult r = Crusade(spec, lib, params).run();
  obs::set_enabled(false);

  if (write_trace_file(out_path, json) != 0) return 1;
  if (json) {
    tools::JsonWriter w;
    w.begin_object()
        .key("spec").value(args.positional[0])
        .key("feasible").value(r.feasible)
        .key("trace_file").value(out_path)
        .key("events").value(static_cast<long long>(obs::event_count()))
        .key("dropped").value(static_cast<long long>(obs::dropped_events()))
        .key("stats").raw(r.stats.to_json())
        .end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s\n", one_line_verdict(r).c_str());
    std::printf("%s", r.stats.table().c_str());
  }
  return r.feasible ? 0 : 1;
}

/// `crusade validate`: synthesize, then re-verify the result with the
/// independent validator and report every violation.  Exit status: 0 when
/// the validator confirms a feasible architecture, 1 when synthesis reports
/// infeasibility (the diagnosis explains why), 2 when the validator finds a
/// violation in a result the pipeline believed good — the case this command
/// exists to catch.
int cmd_validate(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {"--boot-req"});
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  Specification spec = read_specification_file(args.positional[0], lib);
  if (args.options.count("--boot-req"))
    spec.boot_time_requirement = parse_time(args.options.at("--boot-req"));

  CrusadeParams params;
  params.enable_reconfig = !args.flags.count("--no-reconfig");
  params.self_check = true;
  const CrusadeResult r = Crusade(spec, lib, params).run();
  std::printf("%s\n", one_line_verdict(r).c_str());
  if (r.validation.clean()) {
    std::printf("validator: CLEAN — schedule, capacities, precedence, "
                "costs all re-verified\n");
  } else {
    std::printf("validator: %s", r.validation.summary(50).c_str());
  }
  if (!r.diagnosis.empty()) std::printf("%s", r.diagnosis.summary().c_str());
  // Exit 2 is reserved for a contradicted feasibility claim; an honest
  // infeasible verdict re-confirmed by the validator (deadline-missed
  // violations and the like) is exit 1.
  if (r.validation.count(ViolationKind::FeasibilityOverclaimed) > 0)
    return 2;
  return r.feasible ? 0 : 1;
}

int cmd_generate(int argc, char** argv) {
  const Args args =
      Args::parse(argc, argv, {"--profile", "--scale", "--tasks", "--seed",
                               "-o"});
  const ResourceLibrary lib = telecom_1999();
  SpecGenerator generator(lib);
  SpecGenConfig cfg;
  if (args.options.count("--profile")) {
    const double scale = args.options.count("--scale")
                             ? std::stod(args.options.at("--scale"))
                             : 1.0;
    cfg = profile_config(profile_by_name(args.options.at("--profile")),
                         scale);
  } else if (args.options.count("--tasks")) {
    cfg.total_tasks = std::stoi(args.options.at("--tasks"));
  } else {
    return usage(argv[0]);
  }
  if (args.options.count("--seed"))
    cfg.seed = std::stoull(args.options.at("--seed"));
  const Specification spec = generator.generate(cfg);
  if (args.options.count("-o")) {
    write_specification_file(args.options.at("-o"), spec, lib);
    std::printf("wrote %s: %zu graphs, %d tasks, %d edges\n",
                args.options.at("-o").c_str(), spec.graphs.size(),
                spec.total_tasks(), spec.total_edges());
  } else {
    write_specification(std::cout, spec, lib);
  }
  return 0;
}

int cmd_upgrade(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {});
  if (args.positional.size() != 2) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  const Specification deployed_spec =
      read_specification_file(args.positional[0], lib);
  const Specification new_spec =
      read_specification_file(args.positional[1], lib);
  const CrusadeResult deployed = Crusade(deployed_spec, lib, {}).run();
  std::printf("deployed architecture: %s\n",
              one_line_verdict(deployed).c_str());
  const FieldUpgradeResult upgrade =
      try_field_upgrade(new_spec, lib, deployed.arch);
  if (upgrade.accommodated) {
    std::printf("UPGRADE OK: '%s' fits the existing board by "
                "reprogramming alone (all deadlines met)\n",
                args.positional[1].c_str());
    return 0;
  }
  std::printf("UPGRADE REJECTED: %d unplaceable clusters, schedule %s — "
              "a hardware change is required\n",
              upgrade.unplaceable_clusters,
              upgrade.schedule.feasible ? "feasible" : "infeasible");
  return 1;
}

int cmd_info(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {});
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  const Specification spec =
      read_specification_file(args.positional[0], lib);
  std::printf("spec %s: %zu graphs, %d tasks, %d edges, hyperperiod %s\n",
              spec.name.c_str(), spec.graphs.size(), spec.total_tasks(),
              spec.total_edges(), format_time(spec.hyperperiod()).c_str());
  for (std::size_t g = 0; g < spec.graphs.size(); ++g) {
    const TaskGraph& graph = spec.graphs[g];
    std::printf("  %-16s period %-8s est %-8s %3d tasks %3d edges",
                graph.name().c_str(), format_time(graph.period()).c_str(),
                format_time(graph.est()).c_str(), graph.task_count(),
                graph.edge_count());
    if (spec.compatibility) {
      std::string partners;
      for (std::size_t o = 0; o < spec.graphs.size(); ++o)
        if (o != g && spec.compatibility->compatible(static_cast<int>(g),
                                                     static_cast<int>(o)))
          partners += (partners.empty() ? "" : ",") + spec.graphs[o].name();
      if (!partners.empty())
        std::printf("  compatible: %s", partners.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// `crusade lint`: static analysis only — parse (without the parser's own
/// validation pass, so *every* problem is reported, not just the first) and
/// run the analyzer.  Exit code: 0 clean, 1 warnings only, 2 errors.
int cmd_lint(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {});
  if (args.positional.size() != 1) return usage(argv[0]);
  const std::string& path = args.positional[0];
  const ResourceLibrary lib = telecom_1999();
  const bool json = args.flags.count("--json") != 0;

  AnalysisReport report;
  SpecSourceMap source;
  try {
    SpecReadOptions read_options;
    read_options.source_map = &source;
    read_options.validate = false;
    const Specification spec = read_specification_file(path, lib,
                                                       read_options);
    AnalyzeOptions analyze_options;
    analyze_options.source = &source;
    report = analyze_specification(spec, lib, analyze_options);
  } catch (const Error& e) {
    // Unparseable input: the single A000 diagnostic carries the parser's
    // line-numbered message, and the exit contract still holds.
    report.diagnostics.push_back(parse_error_diagnostic(e));
  }

  if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    for (const Diagnostic& d : report.diagnostics) {
      if (d.line > 0)
        std::printf("%s:%d: %s: [%s] %s", path.c_str(), d.line,
                    to_string(d.severity), d.id.c_str(), d.message.c_str());
      else
        std::printf("%s: %s: [%s] %s", path.c_str(), to_string(d.severity),
                    d.id.c_str(), d.message.c_str());
      if (!d.paper_ref.empty()) std::printf(" (%s)", d.paper_ref.c_str());
      std::printf("\n");
    }
    std::printf("%d error(s), %d warning(s), %d note(s)\n",
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Note));
  }
  if (report.has_errors()) return 2;
  return report.has_warnings() ? 1 : 0;
}

/// `crusade soak`: the crash/resume soak harness (DESIGN.md §11).  Runs the
/// synthesis once uninterrupted to get the reference result, then forks
/// child synthesis processes that checkpoint as they go, SIGKILLs each at a
/// uniformly random point, resumes the survivor from its checkpoint, and
/// asserts (a) every checkpoint left on disk after a kill is absent or
/// fully loadable — never corrupt, and (b) every lineage that runs to
/// completion produces a result signature (architecture bytes, feasibility,
/// cost, search counters, validator verdict) bit-identical to the
/// uninterrupted baseline's.
int cmd_soak(int argc, char** argv) {
  const Args args =
      Args::parse(argc, argv, {"--kills", "--checkpoint-every", "--seed"});
  if (args.positional.size() != 1) return usage(argv[0]);
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = read_specification_file(args.positional[0], lib);
  const int kills = args.options.count("--kills")
                        ? std::stoi(args.options.at("--kills"))
                        : 20;
  const std::int64_t every =
      args.options.count("--checkpoint-every")
          ? std::stoll(args.options.at("--checkpoint-every"))
          : 25;
  const std::uint64_t seed = args.options.count("--seed")
                                 ? std::stoull(args.options.at("--seed"))
                                 : 12345;

  const CrusadeParams params;  // defaults; the fingerprint pins them
  const auto t0 = std::chrono::steady_clock::now();
  const CrusadeResult baseline = Crusade(spec, lib, params).run();
  const double base_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::string expect = result_signature(baseline);
  if (!baseline.validation.clean())
    throw Error(
        "soak needs a spec whose baseline result is validator-clean; this "
        "one is not (" +
        std::string(baseline.feasible ? "feasible" : "infeasible") +
        ") — pick or generate a feasible specification");
  std::printf("soak: baseline %s in %.3fs, signature %s\n",
              baseline.feasible ? "feasible" : "infeasible", base_seconds,
              expect.c_str());

  const std::string ckpt_path = args.positional[0] + ".soak.ckpt";
  const std::string sig_path = args.positional[0] + ".soak.sig";
  std::remove(ckpt_path.c_str());
  std::remove(sig_path.c_str());

  const std::uint64_t spec_hash = Crusade::fingerprint(spec, lib, params);
  std::mt19937_64 rng(seed);
  int killed = 0, completions = 0, resumed_kills = 0, attempts = 0;
  // Kills landing after a child already finished count as completions, not
  // kills; the guard bounds the loop if the spec synthesizes much faster
  // than the baseline suggested.
  const int max_attempts = kills * 5 + 50;
  while (killed < kills && attempts < max_attempts) {
    ++attempts;
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) throw Error("soak: fork failed");
    if (pid == 0) {
      // Child: resume from the lineage's checkpoint if one exists, run to
      // completion, publish the result signature atomically.  _exit (not
      // exit) so the parent's stdio buffers are not flushed twice.
      try {
        CrusadeParams p = params;
        p.checkpoint.path = ckpt_path;
        p.checkpoint.every_evals = every;
        ckpt::Checkpoint c;
        if (file_exists(ckpt_path)) {
          c = ckpt::load_checkpoint(ckpt_path, lib);
          ckpt::check_spec_hash(c, spec_hash);
          p.resume = &c;
        }
        const CrusadeResult r = Crusade(spec, lib, p).run();
        atomic_write_file(sig_path, result_signature(r));
        _exit(0);
      } catch (...) {
        _exit(90);
      }
    }
    const bool was_resume = file_exists(ckpt_path);
    const double frac =
        std::uniform_real_distribution<double>(0.0, 1.1)(rng);
    const double wait_s = frac * std::max(base_seconds, 0.002);
    ::usleep(static_cast<useconds_t>(wait_s * 1e6));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status)) {
      if (WEXITSTATUS(status) != 0)
        throw Error("soak: child synthesis failed (exit " +
                    std::to_string(WEXITSTATUS(status)) + ")");
      // Finished before the kill arrived: the lineage's final answer must
      // match the uninterrupted baseline bit for bit.
      if (read_file(sig_path) != expect)
        throw Error(
            "soak: completed child's result differs from the uninterrupted "
            "baseline (determinism or resume bug)");
      ++completions;
      std::remove(ckpt_path.c_str());  // start a fresh lineage
      std::remove(sig_path.c_str());
    } else {
      ++killed;
      if (was_resume) ++resumed_kills;
      // Crash-safety invariant: whatever instant the SIGKILL hit, the
      // checkpoint file is either absent or a complete, CRC-clean,
      // fingerprint-matching snapshot.  load_checkpoint throws otherwise.
      if (file_exists(ckpt_path)) {
        const ckpt::Checkpoint c = ckpt::load_checkpoint(ckpt_path, lib);
        ckpt::check_spec_hash(c, spec_hash);
      }
    }
  }
  if (killed < kills)
    throw Error("soak: only " + std::to_string(killed) + "/" +
                std::to_string(kills) + " kills landed in " +
                std::to_string(attempts) +
                " attempts — the spec synthesizes too fast; use a larger "
                "one (crusade generate)");

  // Drain the surviving lineage to completion in-process and hold it to
  // the same bit-identity bar (also covers the no-checkpoint-yet case,
  // which must simply reproduce the baseline from scratch).
  {
    CrusadeParams p = params;
    ckpt::Checkpoint c;
    if (file_exists(ckpt_path)) {
      c = ckpt::load_checkpoint(ckpt_path, lib);
      ckpt::check_spec_hash(c, spec_hash);
      p.resume = &c;
    }
    const CrusadeResult r = Crusade(spec, lib, p).run();
    if (result_signature(r) != expect)
      throw Error(
          "soak: final resumed result differs from the uninterrupted "
          "baseline");
    ++completions;
  }
  std::remove(ckpt_path.c_str());
  std::remove(sig_path.c_str());
  std::printf(
      "soak PASS: %d SIGKILLs (%d on resumed runs), %d completions, every "
      "checkpoint loadable, every completed result bit-identical to the "
      "baseline\n",
      killed, resumed_kills, completions);
  return 0;
}

// --- crusaded client commands (DESIGN.md §13) ------------------------------

constexpr const char* kDefaultSocket = "/tmp/crusaded.sock";

std::string socket_option(const Args& args) {
  const auto it = args.options.find("--socket");
  return it == args.options.end() ? kDefaultSocket : it->second;
}

/// Minimal extraction of a top-level "key":"value" string from a response
/// body — enough to map the daemon's outcome word to an exit code without
/// growing a JSON parser (the full body is printed verbatim for machines).
std::string json_string_field(const std::string& body,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = body.find('"', start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

/// Shared exit-code contract for submit/result: mirrors `crusade run`
/// (0 canonical, 1 failed-honest, 3 degraded-honest/cancelled best-so-far,
/// 4 busy/pending — try again later, 2 operational error).
int outcome_exit_code(const std::string& outcome) {
  if (outcome == "ok" || outcome == "masked") return 0;
  if (outcome == "degraded-honest") return 3;
  if (outcome.empty()) return 4;  // still pending
  return 1;                       // failed-honest, cancelled
}

int print_error_response(const serve::Response& response) {
  std::fprintf(stderr, "error (%s): %s\n", response.code.c_str(),
               response.body.c_str());
  if (response.code == "busy" || response.code == "pending" ||
      response.code == "shutting-down")
    return 4;
  return 2;
}

int cmd_submit(int argc, char** argv) {
  const Args args = Args::parse(
      argc, argv,
      {"--kind", "--priority", "--deadline-ms", "--seeds", "--timeout-ms",
       "--socket", "--fault-crash", "--fault-hang", "--fault-resource",
       "--nonce", "--retries", "--recv-timeout-ms"});
  if (args.positional.size() != 1) return usage(argv[0]);

  serve::SubmitRequest submit;
  if (args.options.count("--kind"))
    submit.kind = serve::kind_from_string(args.options.at("--kind"));
  if (args.options.count("--priority"))
    submit.priority = std::stoi(args.options.at("--priority"));
  if (args.options.count("--deadline-ms"))
    submit.deadline_ms = std::stol(args.options.at("--deadline-ms"));
  submit.enable_reconfig = args.flags.count("--no-reconfig") == 0;
  if (args.options.count("--seeds"))
    submit.survive_seeds = std::stoi(args.options.at("--seeds"));
  // Fault injection (tests, the check.sh load smoke): crash/hang the first
  // N attempts so the daemon's supervision is exercised end to end.
  if (args.options.count("--fault-crash"))
    submit.fault_crash_attempts = std::stoi(args.options.at("--fault-crash"));
  if (args.options.count("--fault-hang"))
    submit.fault_hang_attempts = std::stoi(args.options.at("--fault-hang"));
  if (args.options.count("--fault-resource"))
    submit.fault_resource_attempts =
        std::stoi(args.options.at("--fault-resource"));
  // Idempotency nonce: user-chosen (stable across invocations, so a shell
  // retry loop attaches to the same job) or auto-generated per invocation
  // (so call_resilient's own retries after a lost reply never duplicate
  // work, while separate submits stay separate jobs).
  if (args.options.count("--nonce")) {
    submit.client_nonce = args.options.at("--nonce");
  } else {
    submit.client_nonce =
        "cli-" + std::to_string(::getpid()) + "-" +
        std::to_string(std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count());
  }
  {
    std::ifstream in(args.positional[0]);
    if (!in) throw Error("cannot open " + args.positional[0]);
    std::ostringstream text;
    text << in.rdbuf();
    submit.spec_text = text.str();
  }

  serve::Request request = serve::make_submit_request(submit);
  long wait_ms = 0;
  if (args.flags.count("--wait")) {
    wait_ms = 600000;
    if (args.options.count("--timeout-ms"))
      wait_ms = std::stol(args.options.at("--timeout-ms"));
    request.fields["wait_ms"] = std::to_string(wait_ms);
  }

  // Bounded waits: the socket read must outlast the daemon-side wait, so a
  // hung daemon is a typed DaemonUnresponsive error after the window — a
  // wedged `crusade submit --wait` is never possible.
  serve::ClientConfig ccfg;
  ccfg.recv_timeout_ms = wait_ms + 10000;
  if (args.options.count("--recv-timeout-ms"))
    ccfg.recv_timeout_ms = std::stol(args.options.at("--recv-timeout-ms"));
  if (args.options.count("--retries"))
    ccfg.max_tries = std::stoi(args.options.at("--retries"));

  const serve::Response response =
      serve::Client(socket_option(args), ccfg).call_resilient(request);
  if (!response.ok) return print_error_response(response);
  std::printf("%s\n", response.body.c_str());
  if (!args.flags.count("--wait")) return 0;
  return outcome_exit_code(json_string_field(response.body, "outcome"));
}

int cmd_status(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {"--socket"});
  serve::Request request;
  request.verb = "STATUS";
  if (args.positional.size() == 1)
    request.fields["id"] = args.positional[0];
  else if (!args.positional.empty())
    return usage(argv[0]);
  const serve::Response response =
      serve::Client(socket_option(args)).call(request);
  if (!response.ok) return print_error_response(response);
  std::printf("%s\n", response.body.c_str());
  return 0;
}

/// Fetches a job's merged Chrome-trace timeline from the daemon and writes
/// it to `out_path`.  Returns 0 on success, the error-mapped exit code
/// otherwise.
int fetch_job_trace(const std::string& socket, const std::string& id,
                    const std::string& out_path, bool quiet) {
  serve::Request request;
  request.verb = "TRACE";
  request.fields["id"] = id;
  const serve::Response response = serve::Client(socket).call(request);
  if (!response.ok) return print_error_response(response);
  atomic_write_file(out_path, response.body + "\n");
  if (!quiet)
    std::printf("trace: job %s -> %s (load in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                id.c_str(), out_path.c_str());
  return 0;
}

int cmd_trace_job(const Args& args, char** argv) {
  if (!args.positional.empty()) return usage(argv[0]);
  const std::string out_path =
      args.options.count("-o") ? args.options.at("-o") : "trace.json";
  return fetch_job_trace(socket_option(args), args.options.at("--job"),
                         out_path, false);
}

int cmd_result(int argc, char** argv) {
  const Args args =
      Args::parse(argc, argv, {"--socket", "--timeout-ms", "--trace"});
  if (args.positional.size() != 1) return usage(argv[0]);
  serve::Request request;
  request.verb = "RESULT";
  request.fields["id"] = args.positional[0];
  if (args.flags.count("--wait")) {
    long timeout_ms = 600000;
    if (args.options.count("--timeout-ms"))
      timeout_ms = std::stol(args.options.at("--timeout-ms"));
    request.fields["wait_ms"] = std::to_string(timeout_ms);
  }
  const serve::Response response =
      serve::Client(socket_option(args)).call(request);
  if (!response.ok) return print_error_response(response);
  std::printf("%s\n", response.body.c_str());
  if (args.options.count("--trace")) {
    const int rc = fetch_job_trace(socket_option(args), args.positional[0],
                                   args.options.at("--trace"), false);
    if (rc != 0) return rc;
  }
  return outcome_exit_code(json_string_field(response.body, "outcome"));
}

/// `crusade stats`: one STATS snapshot, or a streaming view with --follow
/// (one JSON line per interval — pipe through jq for a live dashboard).
/// The daemon-side histograms (queue_wait_us / run_us / e2e_us) ride in
/// every snapshot.
int cmd_stats(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {"--socket", "--interval-ms"});
  if (!args.positional.empty()) return usage(argv[0]);
  long interval_ms = 1000;
  if (args.options.count("--interval-ms"))
    interval_ms = std::stol(args.options.at("--interval-ms"));
  if (interval_ms < 10) interval_ms = 10;
  const bool follow = args.flags.count("--follow") != 0;
  if (follow) install_stop_handlers();  // first ^C ends the stream cleanly
  while (true) {
    serve::Request request;
    request.verb = "STATS";
    const serve::Response response =
        serve::Client(socket_option(args)).call(request);
    if (!response.ok) return print_error_response(response);
    std::printf("%s\n", response.body.c_str());
    std::fflush(stdout);
    if (!follow || StopHub::instance().signalled()) return 0;
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    if (StopHub::instance().signalled()) return 0;
  }
}

int cmd_cancel(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {"--socket"});
  if (args.positional.size() != 1) return usage(argv[0]);
  serve::Request request;
  request.verb = "CANCEL";
  request.fields["id"] = args.positional[0];
  const serve::Response response =
      serve::Client(socket_option(args)).call(request);
  if (!response.ok) return print_error_response(response);
  std::printf("%s\n", response.body.c_str());
  return 0;
}

int cmd_shutdown(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, {"--socket"});
  serve::Request request;
  request.verb = "SHUTDOWN";
  // Default is the graceful drain; --hard parks queued jobs back to the
  // spool and truncates running workers to their best-so-far answers.
  request.fields["drain"] = args.flags.count("--hard") ? "0" : "1";
  const serve::Response response =
      serve::Client(socket_option(args)).call(request);
  if (!response.ok) return print_error_response(response);
  std::printf("%s\n", response.body.c_str());
  return 0;
}

int cmd_profiles() {
  std::printf("paper example profiles (Tables 2-3):\n");
  for (const ExampleProfile& p : paper_profiles())
    std::printf("  %-8s %5d tasks (seed %llu)\n", p.name.c_str(), p.tasks,
                static_cast<unsigned long long>(p.seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "trace") return cmd_trace(argc, argv);
    if (cmd == "validate") return cmd_validate(argc, argv);
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "soak") return cmd_soak(argc, argv);
    if (cmd == "upgrade") return cmd_upgrade(argc, argv);
    if (cmd == "ft") return cmd_ft(argc, argv);
    if (cmd == "survive") return cmd_survive(argc, argv);
    if (cmd == "lint") return cmd_lint(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "profiles") return cmd_profiles();
    if (cmd == "submit") return cmd_submit(argc, argv);
    if (cmd == "status") return cmd_status(argc, argv);
    if (cmd == "result") return cmd_result(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "cancel") return cmd_cancel(argc, argv);
    if (cmd == "shutdown") return cmd_shutdown(argc, argv);
  } catch (const Error& e) {
    // Operational errors — unreadable/invalid input, corrupt or mismatched
    // checkpoint, failed soak invariant — exit 2 (same slot lint uses for
    // hard errors), leaving 1 to mean an honest infeasible verdict.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage(argv[0]);
}
