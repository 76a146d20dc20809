#include "sched/scheduler.hpp"

#include <algorithm>
#include <queue>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace crusade {

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

/// True once the running counters have reached `cutoff` (null: never).
bool reached(const ScheduleCutoff* cutoff, int failures, TimeNs tardiness) {
  return cutoff && ScheduleCutoff{failures, tardiness} >= *cutoff;
}

/// A task is schedulable iff it and its whole ancestry are allocated.
std::vector<char> schedulable_tasks(const SchedProblem& problem) {
  const FlatSpec& flat = *problem.flat;
  std::vector<char> schedulable(flat.task_count(), 0);
  for (int tid : flat.topo_order()) {
    if (problem.task_resource[tid] < 0) continue;
    bool ok = true;
    for (int eid : flat.in_edges(tid))
      if (!schedulable[flat.edge_src(eid)]) ok = false;
    schedulable[tid] = ok ? 1 : 0;
  }
  return schedulable;
}

/// The resource of `to` that plays resource `r` of `from`, or -1: PE p is
/// PE p and link l is link l (see resume_point).
int counterpart(int r, const SchedProblem& from, const SchedProblem& to) {
  if (r < from.link_base) return r < to.link_base ? r : -1;
  const int twin = to.link_base + (r - from.link_base);
  return twin < static_cast<int>(to.resources.size()) ? twin : -1;
}

/// resume_point with the problem's schedulable tasks already known.
int find_resume_point(const ScheduleResult& base, const SchedProblem& problem,
                      const PriorityLevels& levels,
                      const std::vector<char>& schedulable) {
  const FlatSpec& flat = *problem.flat;
  const ScheduleRecord& rec = base.record;
  const SchedProblem& old = rec.problem;
  // A cut result's record stops at its cutoff and its closing counters
  // were never reached: nothing after the cut may be restored from it.
  CRUSADE_REQUIRE(!base.cut, "a cut schedule cannot be a base");
  CRUSADE_REQUIRE(rec.flat_fingerprint == flat.fingerprint() &&
                      old.task_resource.size() ==
                          problem.task_resource.size() &&
                      old.edge_resource.size() == problem.edge_resource.size(),
                  "base schedule belongs to another specification");
  CRUSADE_REQUIRE(rec.levels == levels.task,
                  "base schedule was built with other priority levels");

  // Per resource: its counterpart in the old problem, or -1 when it has
  // none or its SchedResourceInfo changed.
  const int n_res = static_cast<int>(problem.resources.size());
  std::vector<int> unchanged(n_res, -1);
  for (int r = 0; r < n_res; ++r) {
    const int o = counterpart(r, problem, old);
    if (o >= 0 && problem.resources[r] == old.resources[o]) unchanged[r] = o;
  }

  auto same_task = [&](int tid) {
    if (!schedulable[tid]) return false;
    const int o = unchanged[problem.task_resource[tid]];
    return o >= 0 && o == old.task_resource[tid] &&
           problem.task_mode[tid] == old.task_mode[tid] &&
           problem.task_exec[tid] == old.task_exec[tid];
  };
  auto same_edge = [&](int eid) {
    const int link = problem.edge_resource[eid];
    if (problem.edge_comm[eid] != old.edge_comm[eid]) return false;
    if (link < 0) return old.edge_resource[eid] < 0;
    const int o = unchanged[link];
    return o >= 0 && o == old.edge_resource[eid];
  };

  const int len = static_cast<int>(rec.steps.size()) - 1;  // closing entry
  std::vector<int> pos(flat.task_count(), -1);
  for (int k = 0; k < len; ++k) pos[rec.steps[k].tid] = k;
  int at = len;
  for (int k = 0; k < len && at == len; ++k) {
    const int tid = rec.steps[k].tid;
    bool same = same_task(tid);
    for (int eid : flat.in_edges(tid)) same = same && same_edge(eid);
    if (!same) at = k;
  }
  // A newly schedulable task whose predecessors all pop in the prefix is
  // ready from the position after the last of them, and takes the first
  // position whose base pop it outranks.
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    if (!schedulable[tid] || pos[tid] >= 0) continue;
    int ready_at = 0;
    for (int eid : flat.in_edges(tid)) {
      const int src_pos = pos[flat.edge_src(eid)];
      ready_at = src_pos < 0 ? len : std::max(ready_at, src_pos + 1);
      if (ready_at >= at) break;
    }
    const ReadyEntry entry{levels.task[tid], tid};
    for (int k = ready_at; k < at; ++k) {
      const int other = rec.steps[k].tid;
      if (ReadyEntry{levels.task[other], other} < entry) {
        at = k;
        break;
      }
    }
  }
  return at;
}

/// Restores `base`'s state before its resume point: task and edge times,
/// counters, timeline prefixes, settled reboots and the record, each
/// window, append and reboot moved to its resource's index in `problem`.
/// A prefix position whose counters reach `cutoff` ends the restore there,
/// so a cut call stops where it would without a base.  Marks the restored
/// pops in `popped`.
void restore_common_prefix(const ScheduleResult& base,
                           const SchedProblem& problem,
                           const PriorityLevels& levels,
                           const ScheduleCutoff* cutoff,
                           const std::vector<char>& schedulable,
                           ScheduleResult& result,
                           std::vector<std::vector<TimeNs>>& reboot_finish,
                           std::vector<char>& popped) {
  const FlatSpec& flat = *problem.flat;
  const ScheduleRecord& rec = base.record;
  int at = find_resume_point(base, problem, levels, schedulable);
  for (int k = 0; k < at; ++k)
    if (reached(cutoff, rec.steps[k].failures, rec.steps[k].tardiness)) {
      at = k;
      break;
    }

  const ScheduleRecord::Step& state = rec.steps[at];
  for (int k = 0; k < at; ++k) {
    const int tid = rec.steps[k].tid;
    popped[tid] = 1;
    result.task_start[tid] = base.task_start[tid];
    result.task_finish[tid] = base.task_finish[tid];
    for (int eid : flat.in_edges(tid)) {
      result.edge_start[eid] = base.edge_start[eid];
      result.edge_finish[eid] = base.edge_finish[eid];
    }
  }
  result.placement_failures = state.failures;
  result.failed_edges.assign(base.failed_edges.begin(),
                             base.failed_edges.begin() + state.failed_edges);
  result.scheduled_tasks = state.scheduled;
  result.total_tardiness = state.tardiness;

  // Every restored window and reboot sits on a resource a prefix pop used
  // unchanged, so its counterpart exists in the new problem with the same
  // modes.
  const int n_old = static_cast<int>(rec.problem.resources.size());
  std::vector<int> twin(n_old);
  for (int r = 0; r < n_old; ++r)
    twin[r] = counterpart(r, rec.problem, problem);
  ScheduleRecord& out = result.record;
  out.steps.assign(rec.steps.begin(), rec.steps.begin() + at);
  out.appends.resize(state.appends);
  std::vector<std::size_t> kept(n_old, 0);
  for (int i = 0; i < state.appends; ++i) {
    const int r = rec.appends[i];
    CRUSADE_REQUIRE(twin[r] >= 0, "restored window has no resource");
    out.appends[i] = twin[r];
    ++kept[r];
  }
  for (int r = 0; r < n_old; ++r)
    if (kept[r] > 0)
      result.timelines[twin[r]].assign_prefix(base.timelines[r], kept[r]);
  for (ScheduleRecord::Reboot reboot : rec.reboots) {
    if (reboot.step >= at) break;  // recorded in list order
    reboot.resource = twin[reboot.resource];
    CRUSADE_REQUIRE(reboot.resource >= 0, "restored reboot has no resource");
    reboot_finish[reboot.resource][reboot.mode] = reboot.finish;
    out.reboots.push_back(reboot);
  }
}

}  // namespace

bool ScheduleResult::deadline_met(int tid, const FlatSpec& flat) const {
  const TimeNs d = flat.absolute_deadline(tid);
  if (d == kNoTime) return true;
  if (task_finish[tid] == kNoTime) return false;
  return task_finish[tid] <= d;
}

int resume_point(const ScheduleResult& base, const SchedProblem& problem,
                 const PriorityLevels& levels) {
  return find_resume_point(base, problem, levels, schedulable_tasks(problem));
}

ScheduleResult run_list_scheduler(SchedProblem problem,
                                  const PriorityLevels& levels,
                                  const ScheduleResult* base,
                                  const ScheduleCutoff* cutoff) {
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
  CRUSADE_REQUIRE(problem.link_base >= 0 &&
                      problem.link_base <=
                          static_cast<int>(problem.resources.size()),
                  "link_base out of range");

  ScheduleResult result;
  result.task_start.assign(n_tasks, kNoTime);
  result.task_finish.assign(n_tasks, kNoTime);
  result.edge_start.assign(n_edges, kNoTime);
  result.edge_finish.assign(n_edges, kNoTime);
  result.timelines.resize(problem.resources.size());
  ScheduleRecord& record = result.record;
  record.flat_fingerprint = flat.fingerprint();
  record.levels = levels.task;
  // The problem goes into the record once the call no longer reads it.
  auto keep_problem = [&] {
    record.problem = std::move(problem);
    record.problem.flat = nullptr;
    record.problem.task_optimistic = nullptr;
  };

  const std::vector<char> schedulable = schedulable_tasks(problem);

  // Reboot pseudo-tasks: placed lazily, the first time a (resource, mode)
  // pair is touched.  reboot_finish < 0 means "not yet placed".
  std::vector<std::vector<TimeNs>> reboot_finish(problem.resources.size());
  for (std::size_t r = 0; r < problem.resources.size(); ++r)
    reboot_finish[r].assign(problem.resources[r].mode_boot.size(), -1);

  // Resume from the base's common prefix; from scratch that prefix is empty.
  std::vector<char> popped(n_tasks, 0);
  if (base && (base->cut || !base->record.empty())) {
    OBS_SPAN("sched.restore");
    restore_common_prefix(*base, problem, levels, cutoff, schedulable, result,
                          reboot_finish, popped);
  }

  std::vector<int> pending_preds(n_tasks, 0);
  std::priority_queue<ReadyEntry> ready;
  for (int tid = 0; tid < n_tasks; ++tid) {
    if (!schedulable[tid] || popped[tid]) continue;
    int preds = 0;
    for (int eid : flat.in_edges(tid)) {
      const int src = flat.edge_src(eid);
      if (schedulable[src] && !popped[src]) ++preds;
    }
    pending_preds[tid] = preds;
    if (preds == 0) ready.push({levels.task[tid], tid});
  }

  auto snapshot = [&](int tid) {
    return ScheduleRecord::Step{
        tid, static_cast<int>(record.appends.size()),
        result.placement_failures, static_cast<int>(result.failed_edges.size()),
        result.scheduled_tasks, result.total_tardiness};
  };
  auto add_window = [&](int res, TimeNs start, TimeNs finish, TimeNs period,
                        int mode, int owner, TimeNs work) {
    result.timelines[res].add(start, finish, period, mode, owner, work);
    record.appends.push_back(res);
  };

  auto place_mode_reboot = [&](int res, int mode, TimeNs period) -> TimeNs {
    if (mode < 0) return 0;
    auto& info = problem.resources[res];
    if (info.mode_boot.empty() || info.mode_boot[mode] == 0) return 0;
    TimeNs& done = reboot_finish[res][mode];
    if (done >= 0) return done;
    const TimeNs boot = info.mode_boot[mode];
    const TimeNs start =
        result.timelines[res].earliest_fit(0, boot, period, mode);
    if (start == kNoTime) {
      ++result.placement_failures;
      done = 0;  // give up on modeling this reboot; failure already recorded
    } else {
      add_window(res, start, start + boot, period, mode, -1000 - mode,
                 kNoTime);
      done = start + boot;
    }
    record.reboots.push_back(
        {static_cast<int>(record.steps.size()) - 1, res, mode, done});
    return done;
  };

  record.steps.reserve(static_cast<std::size_t>(n_tasks) + 1);
  record.appends.reserve(static_cast<std::size_t>(n_tasks + n_edges));
  while (!ready.empty()) {
    if (reached(cutoff, result.placement_failures, result.total_tardiness)) {
      result.cut = true;
      break;
    }
    const int tid = ready.top().tid;
    ready.pop();
    record.steps.push_back(snapshot(tid));
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
        const TimeNs e_start = result.timelines[link].earliest_fit(
            result.task_finish[src], comm, period, /*mode=*/-1);
        if (e_start == kNoTime) {
          ++result.placement_failures;
          result.failed_edges.push_back(eid);
          inputs_ok = false;
          break;
        }
        add_window(link, e_start, e_start + comm, period, -1, eid, kNoTime);
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
        start = tl.earliest_fit(t_ready, duration, period, mode,
                                /*ignore_below=*/period,
                                /*ignore_above=*/period);
      } else {
        start = tl.earliest_fit(t_ready, duration, period, mode);
      }
    }
    if (start == kNoTime) {
      ++result.placement_failures;
      release_successors();
      continue;
    }
    add_window(res, start, start + duration, period, mode, tid,
               problem.task_exec[tid]);
    result.task_start[tid] = start;
    result.task_finish[tid] = start + duration;
    ++result.scheduled_tasks;

    const TimeNs deadline = flat.absolute_deadline(tid);
    if (deadline != kNoTime && result.task_finish[tid] > deadline)
      result.total_tardiness += result.task_finish[tid] - deadline;

    release_successors();
  }
  if (result.cut) {
    // Still one finish-time estimation to the caller's tally, which counts
    // every call it makes whether or not the call was cut.
    if (problem.task_optimistic) obs::count("sched.finish_estimates");
    keep_problem();
    return result;
  }
  record.steps.push_back(snapshot(-1));

  // Finish-time estimation for the unallocated remainder (§5): propagate
  // optimistic completion times through unscheduled tasks; a deadline missed
  // even under optimism means this partial allocation cannot be completed
  // into a feasible one.
  if (problem.task_optimistic) {
    OBS_SPAN("sched.estimate");
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
      if (deadline != kNoTime && estimate[tid] > deadline)
        result.estimated_tardiness += estimate[tid] - deadline;
    }
  }

  result.feasible =
      result.placement_failures == 0 && result.total_tardiness == 0;
  keep_problem();
  return result;
}

std::vector<std::vector<PeriodicWindow>> graph_busy_windows(
    const FlatSpec& flat, const ScheduleResult& schedule) {
  std::vector<std::vector<PeriodicWindow>> windows(flat.graph_count());
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    if (schedule.task_start[tid] == kNoTime) continue;
    windows[flat.graph_of_task(tid)].push_back(
        PeriodicWindow{schedule.task_start[tid], schedule.task_finish[tid],
                       flat.period(tid)});
  }
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    if (schedule.edge_start[eid] == kNoTime) continue;
    if (schedule.edge_finish[eid] == schedule.edge_start[eid]) continue;
    windows[flat.graph_of_edge(eid)].push_back(PeriodicWindow{
        schedule.edge_start[eid], schedule.edge_finish[eid],
        flat.graph(flat.graph_of_edge(eid)).period()});
  }
  return windows;
}

}  // namespace crusade
