// The survivability simulator replays each graph's hyperperiod as runs of
// identical frames (src/sim/survive.cpp).  This test compares it, whole
// ScenarioOutcome against whole ScenarioOutcome, with the copy-by-copy
// replay it replaced, kept in tests/reference_survive.cpp.
//
// Inputs: Table 3's profiles at 0.02x through CRUSADE-FT, with and without
// reconfiguration (HRXC is past the test's budget), each in five forms:
// spares as provisioned, spares cleared, every 7th task unplaced, every 3rd
// task that has inputs started before they arrive, and every 5th task with
// a deadline finishing past it.  Scenarios: the baseline and 32 drawn
// seeds; PE deaths at 0, at the hyperperiod's last instant and around each
// resident copy's start and finish in frames 0, 1 and 3; every transient,
// link loss (inside and past the retry budget) and reconfiguration failure
// (inside and past the reboot budget) in frames 0, 1, the last one and one
// past every graph's count.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "ft/crusade_ft.hpp"
#include "reference_survive.hpp"
#include "sim/campaign.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

/// The reference replay walks every task copy of the hyperperiod once per
/// scenario; inputs past this many copies are left out to keep the test to
/// seconds.  HRXC at 0.02x has 561,037 and is not listed.
constexpr std::int64_t kMaxCopies = 200'000;

struct Input {
  const char* profile;
  bool reconfig;
};

void PrintTo(const Input& in, std::ostream* os) {
  *os << in.profile << "-FT at 0.02x"
      << (in.reconfig ? "" : " without reconfiguration");
}

std::string describe(const FaultScenario& s) {
  return std::string(to_string(s.kind)) + " seed=" + std::to_string(s.seed) +
         " pe=" + std::to_string(s.pe) + " mode=" + std::to_string(s.mode) +
         " task=" + std::to_string(s.task) + " edge=" +
         std::to_string(s.edge) + " frame=" + std::to_string(s.frame) +
         " at=" + std::to_string(s.at) + " drops=" + std::to_string(s.drops);
}

std::string describe(const ScenarioOutcome& o) {
  std::string graphs;
  for (const int g : o.affected_graphs) graphs += std::to_string(g) + ",";
  return std::string(to_string(o.verdict)) +
         " detected=" + std::to_string(o.detected) +
         " checker=" + std::to_string(o.checker_task) + "@" +
         std::to_string(o.checker_pe) +
         " faulted_pe=" + std::to_string(o.faulted_pe) +
         " misses=" + std::to_string(o.deadline_misses) +
         " lost=" + std::to_string(o.frames_lost) +
         " retries=" + std::to_string(o.retries) +
         " boot=" + std::to_string(o.worst_boot) + " graphs=[" + graphs +
         "] '" + o.detail + "'";
}

std::int64_t copies_per_hyperperiod(const FlatSpec& flat) {
  std::int64_t copies = 0;
  for (int g = 0; g < flat.graph_count(); ++g)
    copies += static_cast<std::int64_t>(flat.graph(g).task_count()) *
              (flat.hyperperiod() / flat.graph(g).period());
  return copies;
}

/// The scenarios replayed on one form of an input.
std::vector<FaultScenario> scenarios(const SurvivalInput& input,
                                     const SimParams& params) {
  const FlatSpec& flat = *input.flat;
  const ScheduleResult& sched = *input.schedule;
  const Architecture& arch = *input.arch;
  std::vector<FaultScenario> out(1);  // the baseline
  for (std::uint64_t seed = 1; seed <= 32; ++seed)
    out.push_back(draw_scenario(input, seed, params));

  int most_frames = 1;
  for (int g = 0; g < flat.graph_count(); ++g)
    most_frames = std::max(
        most_frames,
        static_cast<int>(flat.hyperperiod() / flat.graph(g).period()));
  const int frames[] = {0, 1, most_frames - 1, most_frames};

  for (int pe = 0; pe < static_cast<int>(arch.pes.size()); ++pe) {
    std::vector<TimeNs> at = {0, flat.hyperperiod() - 1};
    for (int tid = 0; tid < flat.task_count(); ++tid) {
      if (sched.task_start[tid] == kNoTime || input.task_pe(tid) != pe)
        continue;
      for (const int k : {0, 1, 3}) {
        const TimeNs shift = k * flat.period(tid);
        for (const TimeNs d : {-1, 0, 1}) {
          at.push_back(sched.task_start[tid] + shift + d);
          at.push_back(sched.task_finish[tid] + shift + d);
        }
      }
    }
    if (at.size() == 2) continue;  // hosts no work
    std::sort(at.begin(), at.end());
    at.erase(std::unique(at.begin(), at.end()), at.end());
    for (const TimeNs t : at) {
      FaultScenario s;
      s.kind = FaultKind::PeDeath;
      s.pe = pe;
      s.at = t;
      out.push_back(s);
    }
  }

  for (const int frame : frames) {
    for (int tid = 0; tid < flat.task_count(); ++tid) {
      FaultScenario s;
      s.kind = FaultKind::TransientTask;
      s.task = tid;
      s.frame = frame;
      out.push_back(s);
    }
    for (int eid = 0; eid < flat.edge_count(); ++eid) {
      if (arch.edge_link[eid] < 0) continue;
      for (const int drops : {1, params.max_link_retries + 1}) {
        FaultScenario s;
        s.kind = FaultKind::LinkLoss;
        s.edge = eid;
        s.drops = drops;
        s.frame = frame;
        out.push_back(s);
      }
    }
    for (int pe = 0; pe < static_cast<int>(arch.pes.size()); ++pe)
      for (int mode = 0; mode < static_cast<int>(arch.pes[pe].modes.size());
           ++mode)
        for (const int drops : {1, params.max_reboot_retries + 1}) {
          FaultScenario s;
          s.kind = FaultKind::ReconfigRetry;
          s.pe = pe;
          s.mode = mode;
          s.drops = drops;
          s.frame = frame;
          out.push_back(s);
        }
  }
  return out;
}

class SurviveOracle : public ::testing::TestWithParam<Input> {};

TEST_P(SurviveOracle, MatchesTheReferenceReplay) {
  const Input& in = GetParam();
  static const ResourceLibrary lib = telecom_1999();
  const Specification spec = SpecGenerator(lib).generate(
      profile_config(profile_by_name(in.profile), 0.02));
  CrusadeFtParams ft;
  ft.base.enable_reconfig = in.reconfig;
  const CrusadeFtResult r = CrusadeFt(spec, lib, ft).run();
  const FlatSpec flat(r.ft_spec);
  ASSERT_LE(copies_per_hyperperiod(flat), kMaxCopies);

  SurvivalInput input;
  input.flat = &flat;
  input.arch = &r.synthesis.arch;
  input.task_cluster = &r.synthesis.task_cluster;
  input.graph_unavailability = r.dependability.graph_unavailability;
  input.boot_time_requirement = r.ft_spec.boot_time_requirement;
  std::vector<int> spares(r.synthesis.arch.pes.size(), 0);
  for (const ServiceModule& module : r.dependability.modules)
    for (const int pe : module.pes)
      spares[static_cast<std::size_t>(pe)] = module.spares;

  const ScheduleResult& sched = r.synthesis.schedule;
  ScheduleResult unplaced = sched;
  for (int tid = 6; tid < flat.task_count(); tid += 7)
    unplaced.task_start[tid] = unplaced.task_finish[tid] = kNoTime;
  // A copy that starts where its first producer starts runs before its
  // input can arrive, so the replay starts it later than the schedule says.
  ScheduleResult early = sched;
  int with_inputs = 0;
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    if (flat.in_edges(tid).empty() || with_inputs++ % 3 != 0) continue;
    const TimeNs producer = sched.task_start[flat.edge_src(
        flat.in_edges(tid).front())];
    if (sched.task_start[tid] == kNoTime || producer == kNoTime) continue;
    early.task_finish[tid] -= sched.task_start[tid] - producer;
    early.task_start[tid] = producer;
  }
  // Every task placed, some of them past their deadlines: the unfaulted
  // frame a campaign shares between scenarios then has misses of its own.
  ScheduleResult late = sched;
  int with_deadline = 0;
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    const TimeNs deadline = flat.absolute_deadline(tid);
    if (deadline == kNoTime || with_deadline++ % 5 != 0) continue;
    const TimeNs shift = deadline + 1 - late.task_finish[tid];
    if (shift <= 0) continue;
    late.task_start[tid] += shift;
    late.task_finish[tid] += shift;
  }

  struct Form {
    const char* name;
    const ScheduleResult* schedule;
    std::vector<int> pe_spares;
  };
  const Form forms[] = {
      {"spares as provisioned", &sched, spares},
      {"spares cleared", &sched, std::vector<int>(spares.size(), 0)},
      {"every 7th task unplaced", &unplaced, spares},
      {"every 3rd task with inputs started early", &early, spares},
      {"every 5th deadline task late", &late, spares},
  };
  const SimParams params;
  for (const Form& form : forms) {
    input.schedule = form.schedule;
    input.pe_spares = form.pe_spares;
    int mismatches = 0;
    const std::vector<FaultScenario> all = scenarios(input, params);
    for (const FaultScenario& s : all) {
      const ScenarioOutcome want = reference::simulate_scenario(input, s);
      const ScenarioOutcome got = simulate_scenario(input, s);
      if (got == want) continue;
      if (++mismatches <= 5)
        ADD_FAILURE() << form.name << ": " << describe(s)
                      << "\n  got:  " << describe(got)
                      << "\n  want: " << describe(want);
    }
    EXPECT_EQ(mismatches, 0) << form.name << ", of " << all.size()
                             << " scenarios";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table3Profiles, SurviveOracle,
    ::testing::Values(Input{"A1TR", true}, Input{"A1TR", false},
                      Input{"VDRTX", true}, Input{"VDRTX", false},
                      Input{"HROST", true}, Input{"HROST", false},
                      Input{"EST189A", true}, Input{"EST189A", false}),
    [](const ::testing::TestParamInfo<Input>& info) {
      return std::string(info.param.profile) +
             (info.param.reconfig ? "_Reconfig" : "_NoReconfig");
    });

}  // namespace
}  // namespace crusade
