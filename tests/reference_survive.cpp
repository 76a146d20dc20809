// simulate_scenario as it was before runs of identical frames were replayed
// once: every frame of every graph is replayed copy by copy.  The code is
// the old code with its comments trimmed and its obs calls dropped.  One
// expression changed: the spare-failover overflow guard, which overflowed
// itself for a death before time zero, is written as the library now
// writes it (the same answer for every death at or after time zero).
#include "reference_survive.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace crusade::reference {

namespace {

constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

struct CopyState {
  bool lost = false;
  bool corrupt = false;
  TimeNs finish = kNoTime;
};

}  // namespace

ScenarioOutcome simulate_scenario(const SurvivalInput& input,
                                  const FaultScenario& scenario,
                                  const SimParams& params) {
  CRUSADE_REQUIRE(input.flat && input.arch && input.task_cluster &&
                      input.schedule,
                  "survival input incomplete");
  const FlatSpec& flat = *input.flat;
  const ScheduleResult& sched = *input.schedule;
  const Architecture& arch = *input.arch;
  CRUSADE_REQUIRE(
      static_cast<int>(sched.task_start.size()) == flat.task_count() &&
          static_cast<int>(input.task_cluster->size()) >=
              static_cast<int>(flat.task_count()),
      "survival input does not match the flat specification");

  ScenarioOutcome out;
  out.scenario = scenario;
  out.injected = scenario.kind != FaultKind::None;

  TimeNs dead_from = kNever;
  TimeNs dead_until = kNever;
  if (scenario.kind == FaultKind::PeDeath) {
    CRUSADE_REQUIRE(
        scenario.pe >= 0 && scenario.pe < static_cast<int>(arch.pes.size()),
        "scenario PE out of range");
    out.faulted_pe = scenario.pe;
    dead_from = scenario.at;
    const bool spared =
        scenario.pe < static_cast<int>(input.pe_spares.size()) &&
        input.pe_spares[scenario.pe] > 0;
    if (spared && scenario.at < kNever - params.spare_failover) {
      dead_until = scenario.at + params.spare_failover;
      out.detected = true;
    }
  }

  int transient_cov = -1;
  if (scenario.kind == FaultKind::TransientTask) {
    CRUSADE_REQUIRE(scenario.task >= 0 && scenario.task < flat.task_count(),
                    "scenario task out of range");
    out.faulted_pe = input.task_pe(scenario.task);
    const Task& faulted = flat.task(scenario.task);
    if (faulted.covered_by >= 0) {
      transient_cov =
          flat.task_id(flat.graph_of_task(scenario.task), faulted.covered_by);
      out.checker_task = transient_cov;
      out.checker_pe = input.task_pe(transient_cov);
    }
  }

  TimeNs loss_delay = 0;
  bool loss_fatal = false;
  if (scenario.kind == FaultKind::LinkLoss) {
    CRUSADE_REQUIRE(scenario.edge >= 0 && scenario.edge < flat.edge_count(),
                    "scenario edge out of range");
    CRUSADE_REQUIRE(arch.edge_link[scenario.edge] >= 0,
                    "link-loss target must be an inter-PE edge");
    if (scenario.drops <= params.max_link_retries) {
      TimeNs timeout = params.link_retry_timeout;
      for (int i = 0; i < scenario.drops; ++i) {
        loss_delay += timeout;
        timeout = static_cast<TimeNs>(static_cast<double>(timeout) *
                                      params.link_backoff);
      }
      out.retries = scenario.drops;
    } else {
      loss_fatal = true;
      out.retries = params.max_link_retries;
    }
    out.detected = true;
  }

  TimeNs reboot_delay = 0;
  bool reboot_fatal = false;
  if (scenario.kind == FaultKind::ReconfigRetry) {
    CRUSADE_REQUIRE(
        scenario.pe >= 0 && scenario.pe < static_cast<int>(arch.pes.size()),
        "scenario PE out of range");
    const auto& modes = arch.pes[scenario.pe].modes;
    CRUSADE_REQUIRE(
        scenario.mode >= 0 && scenario.mode < static_cast<int>(modes.size()),
        "scenario mode out of range");
    out.faulted_pe = scenario.pe;
    const TimeNs boot = modes[scenario.mode].boot_time;
    reboot_delay = static_cast<TimeNs>(scenario.drops) * boot;
    out.worst_boot = static_cast<TimeNs>(scenario.drops + 1) * boot;
    reboot_fatal = scenario.drops > params.max_reboot_retries;
    out.detected = true;
  }

  const TimeNs hyper = flat.hyperperiod();
  std::vector<char> graph_affected(flat.graph_count(), 0);
  bool escape = false;
  std::string escape_detail;

  for (int g = 0; g < flat.graph_count(); ++g) {
    const TaskGraph& graph = flat.graph(g);
    const TimeNs period = graph.period();
    CRUSADE_REQUIRE(period > 0, "graph period must be positive");
    const int frames = static_cast<int>(hyper / period);
    const std::vector<int> order = graph.topo_order();
    std::vector<CopyState> st(graph.task_count());

    for (int k = 0; k < frames; ++k) {
      std::fill(st.begin(), st.end(), CopyState{});
      const TimeNs shift = static_cast<TimeNs>(k) * period;
      const bool target_frame = k == scenario.frame % frames;

      for (const int lt : order) {
        const int tid = flat.task_id(g, lt);
        const Task& task = graph.task(lt);
        CopyState& cs = st[lt];
        if (sched.task_start[tid] == kNoTime) {
          cs.lost = true;
          continue;
        }
        const bool is_check = task.checks >= 0;
        const int pe = input.task_pe(tid);

        TimeNs arrival = 0;
        bool input_lost = false;
        bool input_corrupt = false;
        for (const int le : graph.in_edges()[lt]) {
          const int src = graph.edge(le).src;
          const int eid = flat.edge_id(g, le);
          if (st[src].lost) {
            input_lost = true;
            continue;
          }
          if (st[src].corrupt) input_corrupt = true;
          TimeNs at;
          if (sched.edge_start[eid] == kNoTime || arch.edge_link[eid] < 0) {
            at = st[src].finish;
          } else {
            const TimeNs comm =
                sched.edge_finish[eid] - sched.edge_start[eid];
            TimeNs es = std::max(sched.edge_start[eid] + shift,
                                 st[src].finish);
            TimeNs extra = 0;
            if (scenario.kind == FaultKind::LinkLoss &&
                eid == scenario.edge && target_frame) {
              if (loss_fatal) {
                input_lost = true;
                continue;
              }
              extra = loss_delay;
            }
            at = es + comm + extra;
          }
          arrival = std::max(arrival, at);
        }

        if (input_lost && !is_check) cs.lost = true;
        if (input_corrupt && !is_check) cs.corrupt = true;

        TimeNs nominal = sched.task_start[tid] + shift;
        if (scenario.kind == FaultKind::ReconfigRetry &&
            pe == scenario.pe && input.task_mode(tid) == scenario.mode &&
            target_frame) {
          if (reboot_fatal)
            cs.lost = true;
          else
            nominal += reboot_delay;
        }

        const TimeNs duration =
            sched.task_finish[tid] - sched.task_start[tid];
        const TimeNs start = std::max(nominal, arrival);
        const TimeNs finish = start + duration;
        cs.finish = finish;

        if (scenario.kind == FaultKind::PeDeath && pe == scenario.pe &&
            finish > dead_from && (dead_until == kNever || start < dead_until))
          cs.lost = true;

        if (scenario.kind == FaultKind::TransientTask &&
            tid == scenario.task && target_frame && !cs.lost)
          cs.corrupt = true;

        if (is_check && !cs.lost && (input_corrupt || input_lost)) {
          if (scenario.kind == FaultKind::TransientTask) {
            if (tid == transient_cov) out.detected = true;
          } else if (!out.detected) {
            out.detected = true;
            out.checker_task = tid;
            out.checker_pe = pe;
          }
        }

        const TimeNs deadline = flat.absolute_deadline(tid);
        if (deadline != kNoTime && !cs.lost && finish > deadline + shift) {
          ++out.deadline_misses;
          graph_affected[g] = 1;
        }
      }

      for (int lt = 0; lt < graph.task_count(); ++lt) {
        if (!st[lt].lost) continue;
        ++out.frames_lost;
        graph_affected[g] = 1;
        if (flat.absolute_deadline(flat.task_id(g, lt)) != kNoTime)
          ++out.deadline_misses;
        if (scenario.kind != FaultKind::PeDeath) continue;
        if (input.task_pe(flat.task_id(g, lt)) != scenario.pe) continue;
        const Task& task = graph.task(lt);
        if (task.checks >= 0) {
          if (!out.detected) {
            out.detected = true;
            out.checker_task = flat.task_id(g, lt);
            out.checker_pe = input.task_pe(out.checker_task);
          }
          continue;
        }
        const int cov = task.covered_by;
        if (cov < 0) {
          escape = true;
          escape_detail = "lost task '" + task.name + "' has no checker";
        } else if (st[cov].lost) {
          escape = true;
          escape_detail = "checker '" + graph.task(cov).name +
                          "' died with its checked task '" + task.name + "'";
        } else if (!out.detected) {
          out.detected = true;
          out.checker_task = flat.task_id(g, cov);
          out.checker_pe = input.task_pe(out.checker_task);
        }
      }
    }
  }

  if (scenario.kind == FaultKind::TransientTask) {
    if (transient_cov < 0) {
      escape = true;
      escape_detail = "faulted task has no covering check";
    } else if (out.checker_pe >= 0 && out.checker_pe == out.faulted_pe) {
      escape = true;
      escape_detail = "covering check shares PE " +
                      std::to_string(out.faulted_pe) +
                      " with the faulted task";
    } else if (!out.detected) {
      escape = true;
      escape_detail = "corruption never reached the covering check";
    }
  }

  const bool boot_ok = input.boot_time_requirement <= 0 ||
                       out.worst_boot <= input.boot_time_requirement;
  if (scenario.kind == FaultKind::ReconfigRetry && !boot_ok)
    for (const int gg : arch.pes[scenario.pe].modes[scenario.mode].graphs)
      graph_affected[gg] = 1;

  for (int g = 0; g < flat.graph_count(); ++g)
    if (graph_affected[g]) out.affected_graphs.push_back(g);

  if (!out.injected) {
    if (out.deadline_misses == 0 && out.frames_lost == 0) {
      out.verdict = Verdict::Masked;
      out.detail = "baseline replay: every deadline met";
    } else {
      out.verdict = Verdict::FtLie;
      out.detail = "baseline replay of a feasible schedule missed " +
                   std::to_string(out.deadline_misses) + " deadline(s)";
    }
  } else if (escape) {
    out.verdict = Verdict::FtLie;
    out.detail = escape_detail;
  } else if (out.deadline_misses == 0 && out.frames_lost == 0 && boot_ok) {
    out.verdict = Verdict::Masked;
    out.detail = "fault absorbed; no deadline impact";
  } else {
    bool honest = !out.affected_graphs.empty() ||
                  (!boot_ok && out.deadline_misses == 0);
    for (const int g : out.affected_graphs)
      if (g >= static_cast<int>(input.graph_unavailability.size()) ||
          !(input.graph_unavailability[g] > 0))
        honest = false;
    if (honest) {
      out.verdict = Verdict::DegradedHonest;
      out.detail = "service degraded on graphs the dependability report "
                   "charges for";
    } else {
      out.verdict = Verdict::FtLie;
      out.detail = "degradation on a graph with no unavailability charge";
    }
  }
  return out;
}

}  // namespace crusade::reference
