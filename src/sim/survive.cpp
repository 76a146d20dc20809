#include "sim/survive.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace crusade {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::PeDeath: return "pe-death";
    case FaultKind::TransientTask: return "transient-task";
    case FaultKind::LinkLoss: return "link-loss";
    case FaultKind::ReconfigRetry: return "reconfig-retry";
  }
  return "?";
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::Masked: return "masked";
    case Verdict::DegradedHonest: return "degraded-honest";
    case Verdict::FtLie: return "FT-LIE";
  }
  return "?";
}

int SurvivalInput::task_pe(int tid) const {
  const int cluster = (*task_cluster)[tid];
  if (cluster < 0) return -1;
  return arch->cluster_pe[cluster];
}

int SurvivalInput::task_mode(int tid) const {
  const int cluster = (*task_cluster)[tid];
  if (cluster < 0) return -1;
  return arch->cluster_mode[cluster];
}

namespace {

constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

/// Runtime state of one task copy within the frame being replayed.
struct CopyState {
  bool lost = false;     ///< never produced output (PE dead, inputs missing)
  bool corrupt = false;  ///< produced a silently wrong result
  TimeNs finish = kNoTime;
};

/// What one replayed frame adds to the outcome.  A run of identical frames
/// adds it once per frame: the counts scale with the run's length, and the
/// first-wins detection and last-wins escape land where the run's first
/// and last frame would have put them.
struct FrameEffects {
  std::int64_t misses = 0;  ///< deadline misses, lost copies with a deadline
  std::int64_t lost = 0;    ///< task copies that never produced output
  /// First check that saw a fault; for a transient, only its covering check.
  int checker_task = -1;
  int checker_pe = -1;
  std::string escape;  ///< last escape of the frame; empty when none
};

/// The scenario's fault, resolved once per scenario.
struct Injection {
  const SurvivalInput& input;
  const FaultScenario& scenario;
  /// PeDeath outage window [dead_from, dead_until); dead_until stays kNever
  /// without a spare (the PE never returns).
  TimeNs dead_from = kNever;
  TimeNs dead_until = kNever;
  int transient_cov = -1;      ///< TransientTask: flat id of the covering check
  TimeNs loss_delay = 0;       ///< LinkLoss: retry delay added to the transfer
  bool loss_fatal = false;     ///< LinkLoss: retries exhausted, message dropped
  TimeNs reboot_delay = 0;     ///< ReconfigRetry: failed boots before the mode
  bool reboot_fatal = false;   ///< ReconfigRetry: retries exhausted, mode dark

  /// Replays the frame of graph `g` that starts at `shift`.  Only an `armed`
  /// frame lets the fault fire: the target frame's task, edge or mode, or
  /// the dead PE's loss test.
  FrameEffects replay(int g, const std::vector<int>& order, TimeNs shift,
                      bool armed, std::vector<CopyState>& st) const;
};

FrameEffects Injection::replay(int g, const std::vector<int>& order,
                               TimeNs shift, bool armed,
                               std::vector<CopyState>& st) const {
  const FlatSpec& flat = *input.flat;
  const ScheduleResult& sched = *input.schedule;
  const Architecture& arch = *input.arch;
  const TaskGraph& graph = flat.graph(g);
  FrameEffects fx;
  std::fill(st.begin(), st.end(), CopyState{});

  for (const int lt : order) {
    const int tid = flat.task_id(g, lt);
    const Task& task = graph.task(lt);
    CopyState& cs = st[lt];
    if (sched.task_start[tid] == kNoTime) {
      cs.lost = true;  // never placed; feasible schedules do not do this
      continue;
    }
    // Frames repeat only if no time is clamped at zero (DESIGN.md §12).
    CRUSADE_REQUIRE(sched.task_start[tid] >= 0,
                    "scheduled task starts before time zero");
    const bool is_check = task.checks >= 0;
    const int pe = input.task_pe(tid);

    // Gather inputs: arrival time, lost/corrupt propagation.
    TimeNs arrival = 0;
    bool input_lost = false;
    bool input_corrupt = false;
    for (const int le : graph.in_edges()[lt]) {
      const int src = graph.edge(le).src;
      const int eid = flat.edge_id(g, le);
      if (st[src].lost) {
        input_lost = true;  // a checker sees the gap; an app task stalls
        continue;
      }
      if (st[src].corrupt) input_corrupt = true;
      TimeNs at;
      if (sched.edge_start[eid] == kNoTime || arch.edge_link[eid] < 0) {
        at = st[src].finish;  // intra-PE: data ready at producer finish
      } else {
        const TimeNs comm = sched.edge_finish[eid] - sched.edge_start[eid];
        TimeNs es = std::max(sched.edge_start[eid] + shift, st[src].finish);
        TimeNs extra = 0;
        if (scenario.kind == FaultKind::LinkLoss && eid == scenario.edge &&
            armed) {
          if (loss_fatal) {
            input_lost = true;
            continue;  // the message never arrives
          }
          extra = loss_delay;
        }
        at = es + comm + extra;
      }
      arrival = std::max(arrival, at);
    }

    if (input_lost && !is_check) cs.lost = true;
    if (input_corrupt && !is_check) cs.corrupt = true;

    // Reconfiguration retries push the whole mode back by the failed boot
    // attempts; exhausting the retry budget keeps the mode dark for this
    // frame.
    TimeNs nominal = sched.task_start[tid] + shift;
    if (scenario.kind == FaultKind::ReconfigRetry && pe == scenario.pe &&
        input.task_mode(tid) == scenario.mode && armed) {
      if (reboot_fatal)
        cs.lost = true;
      else
        nominal += reboot_delay;
    }

    const TimeNs duration = sched.task_finish[tid] - sched.task_start[tid];
    const TimeNs start = std::max(nominal, arrival);
    const TimeNs finish = start + duration;
    cs.finish = finish;

    // Permanent PE death: copies whose window overlaps the outage are lost;
    // after a spare failover the (replacement) PE resumes.
    if (scenario.kind == FaultKind::PeDeath && armed && pe == scenario.pe &&
        finish > dead_from && (dead_until == kNever || start < dead_until))
      cs.lost = true;

    // Transient corruption of the targeted copy.
    if (scenario.kind == FaultKind::TransientTask && tid == scenario.task &&
        armed && !cs.lost)
      cs.corrupt = true;

    // A check task that runs and sees a corrupt or missing input has caught
    // the fault.
    if (is_check && !cs.lost && (input_corrupt || input_lost) &&
        fx.checker_task < 0 &&
        (scenario.kind != FaultKind::TransientTask || tid == transient_cov)) {
      fx.checker_task = tid;
      fx.checker_pe = pe;
    }

    // Deadline of this copy.
    const TimeNs deadline = flat.absolute_deadline(tid);
    if (deadline != kNoTime && !cs.lost && finish > deadline + shift)
      ++fx.misses;
  }

  // Frame post-pass: account losses and verify each lost application copy
  // was observable.  Under PeDeath the covering check must itself have
  // survived (it is pinned to a different PE by the §6 exclusion — this is
  // that constraint checked at runtime); a lost check copy is fail-silent,
  // its missing report is the observation.
  for (int lt = 0; lt < graph.task_count(); ++lt) {
    if (!st[lt].lost) continue;
    const int tid = flat.task_id(g, lt);
    ++fx.lost;
    if (flat.absolute_deadline(tid) != kNoTime) ++fx.misses;
    if (scenario.kind != FaultKind::PeDeath) continue;
    // The §6 exclusion binds a checker to its checked task's PE, so the
    // escape test below only applies to copies resident on the dead PE.
    // A transitively lost copy (inputs missing because an upstream producer
    // died) may share nothing with the outage; its root cause was already
    // observed by the resident tasks' checkers, and its own checker dying
    // too is coincidence, not an exclusion violation.
    if (input.task_pe(tid) != scenario.pe) continue;
    const Task& task = graph.task(lt);
    if (task.checks >= 0) {
      if (fx.checker_task < 0) {
        fx.checker_task = tid;
        fx.checker_pe = input.task_pe(tid);
      }
      continue;  // missing check report: observable by itself
    }
    const int cov = task.covered_by;
    if (cov < 0) {
      fx.escape = "lost task '" + task.name + "' has no checker";
    } else if (st[cov].lost) {
      fx.escape = "checker '" + graph.task(cov).name +
                  "' died with its checked task '" + task.name + "'";
    } else if (fx.checker_task < 0) {
      fx.checker_task = flat.task_id(g, cov);
      fx.checker_pe = input.task_pe(fx.checker_task);
    }
  }
  return fx;
}

}  // namespace

ScenarioOutcome simulate_scenario(const SurvivalInput& input,
                                  const FaultScenario& scenario,
                                  const SimParams& params) {
  OBS_SPAN("sim.scenario");
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
  obs::count("sim.scenarios");
  Injection inj{input, scenario};

  // --- per-kind setup -----------------------------------------------------
  if (scenario.kind == FaultKind::PeDeath) {
    CRUSADE_REQUIRE(
        scenario.pe >= 0 && scenario.pe < static_cast<int>(arch.pes.size()),
        "scenario PE out of range");
    out.faulted_pe = scenario.pe;
    inj.dead_from = scenario.at;
    const bool spared =
        scenario.pe < static_cast<int>(input.pe_spares.size()) &&
        input.pe_spares[scenario.pe] > 0;
    // at + failover must not overflow; written so that a death before time
    // zero does not overflow either.
    if (spared && scenario.at < kNever - params.spare_failover) {
      inj.dead_until = scenario.at + params.spare_failover;
      // Switching to the standby requires the module's health monitor to
      // have seen the death — failover is itself the detection.
      out.detected = true;
    }
  }

  if (scenario.kind == FaultKind::TransientTask) {
    CRUSADE_REQUIRE(scenario.task >= 0 && scenario.task < flat.task_count(),
                    "scenario task out of range");
    out.faulted_pe = input.task_pe(scenario.task);
    const Task& faulted = flat.task(scenario.task);
    if (faulted.covered_by >= 0) {
      inj.transient_cov =
          flat.task_id(flat.graph_of_task(scenario.task), faulted.covered_by);
      out.checker_task = inj.transient_cov;
      out.checker_pe = input.task_pe(inj.transient_cov);
    }
  }

  if (scenario.kind == FaultKind::LinkLoss) {
    CRUSADE_REQUIRE(scenario.edge >= 0 && scenario.edge < flat.edge_count(),
                    "scenario edge out of range");
    CRUSADE_REQUIRE(arch.edge_link[scenario.edge] >= 0,
                    "link-loss target must be an inter-PE edge");
    if (scenario.drops <= params.max_link_retries) {
      TimeNs timeout = params.link_retry_timeout;
      for (int i = 0; i < scenario.drops; ++i) {
        inj.loss_delay += timeout;
        timeout = static_cast<TimeNs>(static_cast<double>(timeout) *
                                      params.link_backoff);
      }
      out.retries = scenario.drops;
    } else {
      inj.loss_fatal = true;
      out.retries = params.max_link_retries;
    }
    // The link layer itself is the detector here: a lost message is seen as
    // a CRC/timeout event whether or not the retry eventually succeeds.
    out.detected = true;
  }

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
    inj.reboot_delay = static_cast<TimeNs>(scenario.drops) * boot;
    out.worst_boot = static_cast<TimeNs>(scenario.drops + 1) * boot;
    inj.reboot_fatal = scenario.drops > params.max_reboot_retries;
    // The reconfiguration controller observes every failed bitstream load.
    out.detected = true;
  }

  // --- hyperperiod replay -------------------------------------------------
  // A graph's frames fall into runs that replay identically (DESIGN.md
  // §12): a clean run [0, reach), the frames the fault can reach [reach,
  // tail), and a clean or dead run [tail, frames).  One frame stands for
  // each run; runs and single frames are applied in frame order.
  const TimeNs hyper = flat.hyperperiod();
  std::vector<char> graph_affected(flat.graph_count(), 0);
  bool escape = false;  // a fault its designated observer never saw
  std::string escape_detail;
  const auto apply = [&](int g, const FrameEffects& fx, std::int64_t length) {
    if (length == 0) return;
    out.deadline_misses += fx.misses * length;
    out.frames_lost += fx.lost * length;
    if (fx.misses > 0 || fx.lost > 0) graph_affected[g] = 1;
    // A transient's checker was named at setup; this sets the same values.
    if (fx.checker_task >= 0 && !out.detected) {
      out.detected = true;
      out.checker_task = fx.checker_task;
      out.checker_pe = fx.checker_pe;
    }
    if (!fx.escape.empty()) {
      escape = true;
      escape_detail = fx.escape;
    }
  };

  for (int g = 0; g < flat.graph_count(); ++g) {
    const TaskGraph& graph = flat.graph(g);
    const TimeNs period = graph.period();
    CRUSADE_REQUIRE(period > 0, "graph period must be positive");
    const int frames = static_cast<int>(hyper / period);
    const std::vector<int> order = graph.topo_order();
    std::vector<CopyState> st(graph.task_count());

    const FrameEffects clean = inj.replay(g, order, 0, false, st);
    int reach = frames;
    int tail = frames;
    bool dead_tail = false;
    if (scenario.kind == FaultKind::PeDeath) {
      // Losses only remove inputs, so a resident copy's faulted finish in
      // frame k lies in [task_finish, clean finish] + k·period, and its
      // start is at least task_start + k·period.  The loss test can hold
      // only from the first frame where a clean finish passes the death
      // and, with a spare, only until every start is past the failover.
      // Without a spare, from the first frame where every task_finish
      // passes the death, all resident copies are lost: a dead run.
      TimeNs lo = frames;
      TimeNs hi = 0;
      for (int lt = 0; lt < graph.task_count(); ++lt) {
        const int tid = flat.task_id(g, lt);
        if (sched.task_start[tid] == kNoTime ||
            input.task_pe(tid) != scenario.pe)
          continue;
        lo = std::min(lo, floor_div(inj.dead_from - st[lt].finish, period) + 1);
        hi = std::max(
            hi, inj.dead_until == kNever
                    ? floor_div(inj.dead_from - sched.task_finish[tid],
                                period) + 1
                    : floor_div(inj.dead_until - sched.task_start[tid] - 1,
                                period) + 1);
      }
      reach = static_cast<int>(std::clamp<TimeNs>(lo, 0, frames));
      tail = static_cast<int>(std::clamp<TimeNs>(hi, reach, frames));
      dead_tail = inj.dead_until == kNever;
    } else if (scenario.kind != FaultKind::None &&
               scenario.frame % frames >= 0) {
      reach = scenario.frame % frames;
      tail = reach + 1;
    }

    apply(g, clean, reach);
    for (int k = reach; k < tail; ++k)
      apply(g, inj.replay(g, order, k * period, true, st), 1);
    if (tail < frames)
      apply(g, dead_tail ? inj.replay(g, order, tail * period, true, st)
                         : clean,
            frames - tail);
  }

  // --- transient escape conditions ---------------------------------------
  if (scenario.kind == FaultKind::TransientTask) {
    if (inj.transient_cov < 0) {
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

  // --- verdict ------------------------------------------------------------
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
    // Degradation is honest only when every affected graph already carries
    // a non-zero unavailability charge in the DependabilityReport.
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

  switch (out.verdict) {
    case Verdict::Masked: obs::count("sim.masked"); break;
    case Verdict::DegradedHonest: obs::count("sim.degraded"); break;
    case Verdict::FtLie: obs::count("sim.ft_lie"); break;
  }
  if (out.retries > 0) obs::count("sim.retries", out.retries);
  if (out.frames_lost > 0) obs::count("sim.frames_lost", out.frames_lost);
  return out;
}

}  // namespace crusade
