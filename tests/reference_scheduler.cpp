// The list scheduler as it was before it learned to resume from a base
// schedule, kept verbatim as the test oracle for the incremental one: every
// resumed and from-scratch result must match it field for field (the
// resume record aside, which this version does not fill).
#include "reference_scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <queue>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace crusade::reference {

namespace {

/// Response-time inflation for restricted preemption: the busy window of a
/// task with execution `exec` stretched by interference from shorter-period
/// windows already on the CPU, each preemption paying the OS overhead.
/// Returns kNoTime if the fixed point diverges (CPU overloaded).
TimeNs inflate_for_preemption(TimeNs exec,
                              const std::vector<Timeline::Interference>& hp,
                              TimeNs overhead, TimeNs bound) {
  TimeNs c = exec;
  for (int iter = 0; iter < 64; ++iter) {
    TimeNs next = exec;
    for (const auto& i : hp)
      next += ceil_div(c, i.period) * (i.exec + overhead);
    if (next == c) return c;
    if (next > bound) return kNoTime;
    c = next;
  }
  return kNoTime;
}

struct ReadyEntry {
  double priority;
  int tid;
  bool operator<(const ReadyEntry& other) const {
    if (priority != other.priority) return priority < other.priority;
    return tid > other.tid;  // stable: lower id first
  }
};

}  // namespace

ScheduleResult run_list_scheduler(const SchedProblem& problem,
                                  const PriorityLevels& levels) {
  OBS_SPAN("sched.list");
  obs::count("sched.invocations");
  const FlatSpec& flat = *problem.flat;
  const int n_tasks = flat.task_count();
  const int n_edges = flat.edge_count();
  CRUSADE_REQUIRE(problem.task_resource.size() ==
                      static_cast<std::size_t>(n_tasks),
                  "task_resource arity");
  CRUSADE_REQUIRE(problem.edge_resource.size() ==
                      static_cast<std::size_t>(n_edges),
                  "edge_resource arity");

  ScheduleResult result;
  result.task_start.assign(n_tasks, kNoTime);
  result.task_finish.assign(n_tasks, kNoTime);
  result.edge_start.assign(n_edges, kNoTime);
  result.edge_finish.assign(n_edges, kNoTime);
  result.timelines.resize(problem.resources.size());

  // A task is schedulable iff it and its whole ancestry are allocated.
  std::vector<char> schedulable(n_tasks, 0);
  for (int tid : flat.topo_order()) {
    if (problem.task_resource[tid] < 0) continue;
    bool ok = true;
    for (int eid : flat.in_edges(tid))
      if (!schedulable[flat.edge_src(eid)]) ok = false;
    schedulable[tid] = ok ? 1 : 0;
  }

  // Reboot pseudo-tasks: placed lazily, the first time a (resource, mode)
  // pair is touched.  reboot_finish < 0 means "not yet placed".
  std::vector<std::vector<TimeNs>> reboot_finish(problem.resources.size());
  for (std::size_t r = 0; r < problem.resources.size(); ++r)
    reboot_finish[r].assign(problem.resources[r].mode_boot.size(), -1);

  std::vector<int> pending_preds(n_tasks, 0);
  std::priority_queue<ReadyEntry> ready;
  for (int tid = 0; tid < n_tasks; ++tid) {
    if (!schedulable[tid]) continue;
    int preds = 0;
    for (int eid : flat.in_edges(tid))
      if (schedulable[flat.edge_src(eid)]) ++preds;
    pending_preds[tid] = preds;
    if (preds == 0) ready.push({levels.task[tid], tid});
  }

  auto place_mode_reboot = [&](int res, int mode, TimeNs period) -> TimeNs {
    if (mode < 0) return 0;
    auto& info = problem.resources[res];
    if (info.mode_boot.empty() || info.mode_boot[mode] == 0) return 0;
    TimeNs& done = reboot_finish[res][mode];
    if (done >= 0) return done;
    const TimeNs boot = info.mode_boot[mode];
    const TimeNs start =
        earliest_fit(result.timelines[res], 0, boot, period, mode);
    if (start == kNoTime) {
      ++result.placement_failures;
      if (std::getenv("CRUSADE_DEBUG_SCHED"))
        std::fprintf(stderr,  // check-allow(C004): stderr debug aid, dead unless CRUSADE_DEBUG_SCHED is set
                     "[sched] reboot fail: res=%d mode=%d boot=%lld "
                     "period=%lld\n",
                     res, mode, static_cast<long long>(boot),
                     static_cast<long long>(period));
      done = 0;  // give up on modeling this reboot; failure already recorded
      return 0;
    }
    result.timelines[res].add(start, start + boot, period, mode,
                              -1000 - mode);
    done = start + boot;
    return done;
  };

  while (!ready.empty()) {
    const int tid = ready.top().tid;
    ready.pop();
    const int res = problem.task_resource[tid];
    const TimeNs period = flat.period(tid);
    const int mode = problem.task_mode[tid];

    // Ready time: graph EST, incoming communications, mode reboot.
    TimeNs t_ready = flat.est(tid);
    bool inputs_ok = true;
    for (int eid : flat.in_edges(tid)) {
      const int src = flat.edge_src(eid);
      if (result.task_finish[src] == kNoTime) {
        inputs_ok = false;
        break;
      }
      // Schedule the communication now (its destination is being placed).
      const int link = problem.edge_resource[eid];
      const TimeNs comm = problem.edge_comm[eid];
      TimeNs e_finish = result.task_finish[src];
      if (link >= 0 && comm > 0) {
        const TimeNs e_start = earliest_fit(result.timelines[link],
            result.task_finish[src], comm, period, /*mode=*/-1);
        if (e_start == kNoTime) {
          ++result.placement_failures;
          result.failed_edges.push_back(eid);
          if (std::getenv("CRUSADE_DEBUG_SCHED"))
            std::fprintf(stderr,  // check-allow(C004): stderr debug aid, dead unless CRUSADE_DEBUG_SCHED is set
                         "[sched] edge %d fail: link=%d comm=%lld "
                         "period=%lld windows=%zu\n",
                         eid, link, static_cast<long long>(comm),
                         static_cast<long long>(period),
                         result.timelines[link].windows().size());
          inputs_ok = false;
          break;
        }
        result.timelines[link].add(e_start, e_start + comm, period, -1, eid);
        result.edge_start[eid] = e_start;
        e_finish = e_start + comm;
        result.edge_finish[eid] = e_finish;
      } else {
        result.edge_start[eid] = result.task_finish[src];
        result.edge_finish[eid] = result.task_finish[src] + comm;
        e_finish = result.edge_finish[eid];
      }
      t_ready = std::max(t_ready, e_finish);
    }

    auto release_successors = [&]() {
      for (int eid : flat.out_edges(tid)) {
        const int dst = flat.edge_dst(eid);
        if (!schedulable[dst]) continue;
        if (--pending_preds[dst] == 0)
          ready.push({levels.task[dst], dst});
      }
    };

    if (!inputs_ok) {
      // Leave the task unscheduled but release successors so the failure
      // count reflects every unplaceable task exactly once.
      ++result.placement_failures;
      release_successors();
      continue;
    }

    t_ready = std::max(t_ready, place_mode_reboot(res, mode, period));

    const SchedResourceInfo& info = problem.resources[res];
    TimeNs duration = problem.task_exec[tid];
    Timeline& tl = result.timelines[res];
    if (info.preemptive) {
      // Three-band preemptive CPU model: shorter-period windows preempt this
      // task (response-time inflation, per-preemption OS overhead);
      // longer-period background is preempted by it and charged as a
      // processor-sharing factor; equal-period windows serialize exactly.
      const auto hp = tl.preemptors(period, mode);
      duration = inflate_for_preemption(duration, hp,
                                        info.preemption_overhead,
                                        /*bound=*/8 * period);
      if (duration != kNoTime) {
        const double u_long = tl.utilization_above(period, mode);
        if (u_long > 0.85) {
          duration = kNoTime;  // CPU saturated by slower work
        } else {
          duration = static_cast<TimeNs>(
              static_cast<double>(duration) / (1.0 - u_long));
          if (duration > 8 * period) duration = kNoTime;
        }
      }
    }
    TimeNs start = kNoTime;
    if (duration != kNoTime) {
      if (info.concurrent) {
        // Dedicated hardware: the task's circuit runs regardless of what
        // else is configured in the same mode.
        start = t_ready;
      } else if (info.preemptive) {
        start = earliest_fit(tl, t_ready, duration, period, mode,
                             /*ignore_below=*/period,
                             /*ignore_above=*/period);
      } else {
        start = earliest_fit(tl, t_ready, duration, period, mode);
      }
    }
    if (start == kNoTime) {
      ++result.placement_failures;
      if (std::getenv("CRUSADE_DEBUG_SCHED"))
        std::fprintf(stderr,  // check-allow(C004): stderr debug aid, dead unless CRUSADE_DEBUG_SCHED is set
                     "[sched] task %d fail: res=%d preempt=%d conc=%d "
                     "exec=%lld dur=%lld period=%lld mode=%d windows=%zu\n",
                     tid, res, info.preemptive ? 1 : 0,
                     info.concurrent ? 1 : 0,
                     static_cast<long long>(problem.task_exec[tid]),
                     static_cast<long long>(duration),
                     static_cast<long long>(period), mode,
                     tl.windows().size());
      release_successors();
      continue;
    }
    tl.add(start, start + duration, period, mode, tid,
           problem.task_exec[tid]);
    result.task_start[tid] = start;
    result.task_finish[tid] = start + duration;
    ++result.scheduled_tasks;

    const TimeNs deadline = flat.absolute_deadline(tid);
    if (deadline != kNoTime && result.task_finish[tid] > deadline)
      result.total_tardiness += result.task_finish[tid] - deadline;

    release_successors();
  }

  // Finish-time estimation for the unallocated remainder (§5): propagate
  // optimistic completion times through unscheduled tasks; a deadline missed
  // even under optimism means this partial allocation cannot be completed
  // into a feasible one.
  if (problem.task_optimistic) {
    obs::count("sched.finish_estimates");
    const auto& optimistic = *problem.task_optimistic;
    std::vector<TimeNs> estimate(n_tasks, kNoTime);
    for (int tid : flat.topo_order()) {
      if (result.task_finish[tid] != kNoTime) {
        estimate[tid] = result.task_finish[tid];
        continue;
      }
      if (schedulable[tid]) continue;  // placement failure, already counted
      TimeNs ready = flat.est(tid);
      bool known = true;
      for (int eid : flat.in_edges(tid)) {
        const TimeNs pred = estimate[flat.edge_src(eid)];
        if (pred == kNoTime) {
          known = false;
          break;
        }
        ready = std::max(ready, pred);  // optimistic: zero communication
      }
      if (!known) continue;
      estimate[tid] = ready + optimistic[tid];
      const TimeNs deadline = flat.absolute_deadline(tid);
      if (deadline != kNoTime && estimate[tid] > deadline) {
        result.estimated_tardiness += estimate[tid] - deadline;
        if (std::getenv("CRUSADE_DEBUG_SCHED"))
          std::fprintf(stderr,  // check-allow(C004): stderr debug aid, dead unless CRUSADE_DEBUG_SCHED is set
                       "[sched] estimate miss: task %d est=%lld dl=%lld "
                       "ready=%lld opt=%lld\n",
                       tid, static_cast<long long>(estimate[tid]),
                       static_cast<long long>(deadline),
                       static_cast<long long>(ready),
                       static_cast<long long>(optimistic[tid]));
      }
    }
  }

  result.feasible =
      result.placement_failures == 0 && result.total_tardiness == 0;
  return result;
}

}  // namespace crusade::reference
