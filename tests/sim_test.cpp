// Survivability simulator (src/sim): schedule replay under injected faults.
//
// The acceptance bar proved here: across hundreds of seeded scenarios on
// several specifications, the simulator never renders FT-LIE on a feasible
// CRUSADE-FT result, every transient fault is observed by a check task on a
// *different* PE than the faulted one, and same-seed campaigns replay
// bit-identically.
#include <gtest/gtest.h>

#include <string>

#include "example_specs.hpp"
#include "ft/crusade_ft.hpp"
#include "sim/campaign.hpp"
#include "tgff/generator.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

/// Synthesizes a spec with CRUSADE-FT and wires the SurvivalInput exactly
/// the way CrusadeFt::run does for its self-check sweep.  Members are
/// declaration-ordered so `flat` is built from the owned ft_spec.
struct Survivable {
  CrusadeFtResult r;
  FlatSpec flat;
  SurvivalInput input;

  explicit Survivable(const Specification& spec)
      : r(CrusadeFt(spec, lib(), CrusadeFtParams{}).run()), flat(r.ft_spec) {
    input.flat = &flat;
    input.arch = &r.synthesis.arch;
    input.task_cluster = &r.synthesis.task_cluster;
    input.schedule = &r.synthesis.schedule;
    input.graph_unavailability = r.dependability.graph_unavailability;
    input.boot_time_requirement = r.ft_spec.boot_time_requirement;
    input.pe_spares.assign(r.synthesis.arch.pes.size(), 0);
    for (const ServiceModule& module : r.dependability.modules)
      for (const int pe : module.pes)
        input.pe_spares[static_cast<std::size_t>(pe)] = module.spares;
  }
};

Specification generated_spec() {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 40;
  cfg.seed = 7;
  return gen.generate(cfg);
}

/// First scheduled application task (not a check) with a covering check.
int pick_app_task(const Survivable& s) {
  for (int tid = 0; tid < s.flat.task_count(); ++tid) {
    const Task& t = s.flat.task(tid);
    if (t.checks < 0 && t.covered_by >= 0 &&
        s.r.synthesis.schedule.task_start[tid] != kNoTime)
      return tid;
  }
  return -1;
}

/// First scheduled inter-PE edge (one a link-loss fault can target).
int pick_inter_pe_edge(const Survivable& s) {
  for (int eid = 0; eid < s.flat.edge_count(); ++eid)
    if (s.r.synthesis.arch.edge_link[eid] >= 0 &&
        s.r.synthesis.schedule.edge_start[eid] != kNoTime)
      return eid;
  return -1;
}

TEST(SimTest, BaselineReplayIsMasked) {
  const Survivable s(quickstart_spec(lib()));
  ASSERT_TRUE(s.r.synthesis.feasible);
  const ScenarioOutcome out = simulate_scenario(s.input, FaultScenario{});
  EXPECT_EQ(out.verdict, Verdict::Masked) << out.detail;
  EXPECT_FALSE(out.injected);
  EXPECT_EQ(out.deadline_misses, 0);
  EXPECT_EQ(out.frames_lost, 0);
  EXPECT_TRUE(out.affected_graphs.empty());
}

TEST(SimTest, TransientCaughtByCheckerOnDifferentPe) {
  const Survivable s(quickstart_spec(lib()));
  ASSERT_TRUE(s.r.synthesis.feasible);
  const int tid = pick_app_task(s);
  ASSERT_GE(tid, 0);
  FaultScenario scenario;
  scenario.kind = FaultKind::TransientTask;
  scenario.task = tid;
  const ScenarioOutcome out = simulate_scenario(s.input, scenario);
  EXPECT_NE(out.verdict, Verdict::FtLie) << out.detail;
  EXPECT_TRUE(out.detected);
  ASSERT_GE(out.checker_task, 0);
  EXPECT_GE(out.checker_pe, 0);
  // The §6 exclusion holds at runtime: the observer survives the fault
  // domain because it executes somewhere else.
  EXPECT_NE(out.checker_pe, out.faulted_pe);
  EXPECT_EQ(s.input.task_pe(out.checker_task), out.checker_pe);
}

TEST(SimTest, LinkLossRetriesAreBoundedAndDetected) {
  const Survivable s(quickstart_spec(lib()));
  ASSERT_TRUE(s.r.synthesis.feasible);
  const int eid = pick_inter_pe_edge(s);
  if (eid < 0) GTEST_SKIP() << "schedule keeps all edges intra-PE";
  SimParams params;
  FaultScenario scenario;
  scenario.kind = FaultKind::LinkLoss;
  scenario.edge = eid;
  scenario.drops = 2;
  ScenarioOutcome out = simulate_scenario(s.input, scenario, params);
  EXPECT_TRUE(out.detected);
  EXPECT_EQ(out.retries, 2);
  EXPECT_NE(out.verdict, Verdict::FtLie) << out.detail;
  // Exhausting the retry budget drops the message instead of retrying
  // forever: the retry count saturates at the bound.
  scenario.drops = params.max_link_retries + 5;
  out = simulate_scenario(s.input, scenario, params);
  EXPECT_EQ(out.retries, params.max_link_retries);
  EXPECT_NE(out.verdict, Verdict::FtLie) << out.detail;
}

TEST(SimTest, PeDeathEitherMaskedOrHonestlyDegraded) {
  const Survivable s(fault_tolerant_sonet_spec(lib()));
  ASSERT_TRUE(s.r.synthesis.feasible);
  // Kill every PE that hosts work, at time zero (worst case: nothing of the
  // frame has run yet).  Each death must be observed and judged honestly.
  for (int pe = 0; pe < static_cast<int>(s.r.synthesis.arch.pes.size());
       ++pe) {
    bool hosts = false;
    for (int tid = 0; tid < s.flat.task_count(); ++tid)
      if (s.input.task_pe(tid) == pe) hosts = true;
    if (!hosts) continue;
    FaultScenario scenario;
    scenario.kind = FaultKind::PeDeath;
    scenario.pe = pe;
    scenario.at = 0;
    const ScenarioOutcome out = simulate_scenario(s.input, scenario);
    EXPECT_NE(out.verdict, Verdict::FtLie)
        << "PE " << pe << ": " << out.detail;
    EXPECT_TRUE(out.detected) << "PE " << pe;
  }
}

TEST(SimTest, CampaignsAreCleanAcrossSpecs) {
  // >= 300 scenarios across three specifications (the acceptance floor):
  // zero FT-LIE, every transient cross-PE, tallies consistent.
  const Specification specs[] = {quickstart_spec(lib()),
                                 fault_tolerant_sonet_spec(lib()),
                                 generated_spec()};
  int total = 0;
  for (const Specification& spec : specs) {
    const Survivable s(spec);
    ASSERT_TRUE(s.r.synthesis.feasible) << spec.name;
    CampaignParams params;
    params.seeds = 100;
    const CampaignResult c = run_campaign(s.input, params);
    EXPECT_EQ(c.scenarios, params.seeds + 1) << spec.name;  // + baseline
    EXPECT_EQ(c.masked + c.degraded + c.ft_lies, c.scenarios) << spec.name;
    EXPECT_TRUE(c.clean()) << spec.name << ": " << c.ft_lies << " FT-LIE(s)";
    EXPECT_EQ(c.transients_cross_pe, c.transients) << spec.name;
    for (const ScenarioOutcome& out : c.outcomes) {
      EXPECT_NE(out.verdict, Verdict::FtLie)
          << spec.name << " seed " << out.scenario.seed << ": " << out.detail;
      if (out.scenario.kind == FaultKind::TransientTask) {
        EXPECT_TRUE(out.detected) << spec.name;
        EXPECT_NE(out.checker_pe, out.faulted_pe) << spec.name;
      }
    }
    total += c.scenarios;
  }
  EXPECT_GE(total, 300);
}

TEST(SimTest, SameSeedCampaignsReplayIdentically) {
  const Survivable s(quickstart_spec(lib()));
  ASSERT_TRUE(s.r.synthesis.feasible);
  CampaignParams params;
  params.seeds = 60;
  params.seed_base = 42;
  const CampaignResult a = run_campaign(s.input, params);
  const CampaignResult b = run_campaign(s.input, params);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.ft_lies, b.ft_lies);
  EXPECT_EQ(a.transients, b.transients);
  EXPECT_EQ(a.transients_cross_pe, b.transients_cross_pe);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i)
    EXPECT_TRUE(a.outcomes[i] == b.outcomes[i]) << "outcome " << i;
  // A different seed base draws a different campaign (the seed actually
  // feeds the scenario, it is not decorative).
  params.seed_base = 43;
  const CampaignResult c = run_campaign(s.input, params);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.outcomes.size(); ++i) {
    const FaultScenario& x = a.outcomes[i].scenario;
    const FaultScenario& y = c.outcomes[i].scenario;
    if (x.kind != y.kind || x.task != y.task || x.pe != y.pe ||
        x.edge != y.edge || x.frame != y.frame || x.at != y.at)
      any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimTest, SelfCheckSweepLandsInResultAndStats) {
  CrusadeFtParams params;
  params.survive_check = true;
  params.survive_seeds = 24;
  const CrusadeFtResult r =
      CrusadeFt(quickstart_spec(lib()), lib(), params).run();
  ASSERT_TRUE(r.synthesis.feasible);
  EXPECT_EQ(r.survival.scenarios, params.survive_seeds + 1);
  EXPECT_TRUE(r.survival.clean());
  EXPECT_EQ(r.survival.transients_cross_pe, r.survival.transients);
  EXPECT_EQ(r.synthesis.stats.survive_scenarios, r.survival.scenarios);
  EXPECT_EQ(r.synthesis.stats.survive_ft_lies, 0);
  EXPECT_GT(r.synthesis.stats.survive_seconds, 0.0);
}

}  // namespace
}  // namespace crusade
