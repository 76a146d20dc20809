// Static analyzer (src/analyze, `crusade lint`) tests.
//
// The table-driven block feeds one minimal spec text per catalog diagnostic
// and checks the analyzer reports exactly that ID anchored to the expected
// source line.  The soundness blocks check the two claims the analyzer
// makes: every error diagnostic is a necessary condition for feasibility
// (preflight never rejects a synthesizable spec), and dominated-resource
// pruning never changes feasibility or final cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "analyze/analyzer.hpp"
#include "core/crusade.hpp"
#include "example_specs.hpp"
#include "graph/spec_io.hpp"
#include "tgff/generator.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

/// Parses spec text WITHOUT the parser's validation pass (the lint
/// configuration) and analyzes it with line anchors.
AnalysisReport lint_text(const std::string& text) {
  SpecSourceMap source;
  SpecReadOptions read_options;
  read_options.source_map = &source;
  read_options.validate = false;
  std::istringstream in(text);
  const Specification spec = read_specification(in, lib(), read_options);
  AnalyzeOptions options;
  options.source = &source;
  return analyze_specification(spec, lib(), options);
}

const Diagnostic* find_id(const AnalysisReport& report,
                          const std::string& id) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.id == id) return &d;
  return nullptr;
}

// --- table-driven: one spec text per diagnostic ID -----------------------

struct LintCase {
  const char* id;
  int line;  ///< expected anchor; 0 = library-level (no source line)
  Severity severity;
  const char* text;
};

TEST(AnalyzeTest, EveryTextReachableDiagnosticFiresAtItsLine) {
  // Line numbers are 1-based over the literal text below; the first line of
  // each raw string is empty (the newline right after the opening quote),
  // so directives start at line 2.
  const LintCase cases[] = {
      {"A001", 2, Severity::Error, R"(
graph g period 10ms
task a deadline 10ms exec MC68360=1ms
task b exec MC68360=1ms
edge a b 100
edge b a 100
)"},
      {"A003", 5, Severity::Warning, R"(
graph g period 10ms
task a deadline 10ms exec MC68360=1ms
task b exec MC68360=1ms
task c exec MC68360=1ms
edge a b 100
)"},
      {"A004", 2, Severity::Error, R"(
graph g period 0ms
task a deadline 10ms exec MC68360=1ms
)"},
      {"A005", 3, Severity::Warning, R"(
graph g period 10ms
task a deadline 15ms exec MC68360=1ms
)"},
      {"A006", 2, Severity::Error, R"(
graph g period 10ms
)"},
      {"A007", 6, Severity::Note, R"(
graph g period 10ms
task a deadline 10ms exec MC68360=1ms
task b exec MC68360=1ms
edge a b 100
edge a b 100
)"},
      {"A010", 2, Severity::Warning, R"(
graph g period 10ms
task a deadline 10ms exec MC68360=5ms
task b deadline 10ms exec MC68360=5ms
task c deadline 10ms exec MC68360=4ms
)"},
      {"A011", 3, Severity::Error, R"(
graph g period 10ms
task a deadline 1ns exec MC68360=1ms
)"},
      {"A012", 4, Severity::Error, R"(
graph g period 5ms
task x deadline 5ms exec MC68360=4ms
task y exec MC68360=3ms
edge x y 500
)"},
      // Restricting every task to one CPU type leaves the rest of the PE
      // library vacuously dominated along its cost/capacity axes.
      {"A020", 0, Severity::Warning, R"(
graph g period 100ms
task a deadline 100ms exec MC68360=1ms
)"},
      {"A030", 9, Severity::Warning, R"(
graph g0 period 10ms
task a deadline 10ms exec MC68360=9ms

graph g1 period 10ms
task b deadline 10ms exec MC68360=9ms

# densities 0.9 + 0.9 > 1: the graphs cannot avoid overlapping
compatible g0 g1
)"},
      {"A031", 2, Severity::Warning, R"(
boot_requirement 1ns
graph g0 period 100ms
task a deadline 100ms exec MC68360=1ms
graph g1 period 100ms
task b deadline 100ms exec MC68360=1ms
compatible g0 g1
)"},
  };

  for (const LintCase& c : cases) {
    SCOPED_TRACE(c.id);
    const AnalysisReport report = lint_text(c.text);
    const Diagnostic* d = find_id(report, c.id);
    ASSERT_NE(d, nullptr) << report.summary();
    EXPECT_EQ(d->line, c.line) << d->message;
    EXPECT_EQ(d->severity, c.severity) << d->message;
    EXPECT_FALSE(d->message.empty());
    EXPECT_FALSE(d->paper_ref.empty());
  }
}

TEST(AnalyzeTest, ParseErrorDiagnosticRecoversTheLine) {
  std::istringstream in("spec t\ngraph g period 10ms\ntask a nonsense\n");
  try {
    read_specification(in, lib());
    FAIL() << "parser accepted nonsense";
  } catch (const Error& e) {
    const Diagnostic d = parse_error_diagnostic(e);
    EXPECT_EQ(d.id, "A000");
    EXPECT_EQ(d.severity, Severity::Error);
    EXPECT_EQ(d.line, 3);
    EXPECT_NE(d.message.find("line 3"), std::string::npos);
  }
}

TEST(AnalyzeTest, CleanSpecsLintClean) {
  for (const Specification& spec :
       {quickstart_spec(lib()), base_station_spec(lib())}) {
    const AnalysisReport report = analyze_specification(spec, lib());
    EXPECT_FALSE(report.has_errors()) << report.summary();
  }
}

// --- in-memory-only diagnostics ------------------------------------------

TEST(AnalyzeTest, DanglingExclusionIndexIsReported) {
  Specification spec = quickstart_spec(lib());
  spec.graphs[0].task(0).exclusions.push_back(9999);
  const AnalysisReport report = analyze_specification(spec, lib());
  const Diagnostic* d = find_id(report, "A002");
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Error);
}

TEST(AnalyzeTest, ExecVectorArityMismatchIsReported) {
  Specification spec = quickstart_spec(lib());
  spec.graphs[0].task(0).exec.resize(2);
  const AnalysisReport report = analyze_specification(spec, lib());
  const Diagnostic* d = find_id(report, "A022");
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Error);
}

TEST(AnalyzeTest, TaskFeasibleNowhereIsReported) {
  Specification spec = quickstart_spec(lib());
  Task& victim = spec.graphs[0].task(0);
  std::fill(victim.exec.begin(), victim.exec.end(), kNoTime);
  const AnalysisReport report = analyze_specification(spec, lib());
  const Diagnostic* d = find_id(report, "A022");
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_NE(d->message.find("no PE"), std::string::npos);
}

TEST(AnalyzeTest, CompatibilityArityMismatchIsReported) {
  Specification spec = quickstart_spec(lib());
  spec.compatibility =
      CompatibilityMatrix(static_cast<int>(spec.graphs.size()) + 3);
  const AnalysisReport report = analyze_specification(spec, lib());
  const Diagnostic* d = find_id(report, "A030");
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Error);
}

TEST(AnalyzeTest, DominatedLinkIsReportedWithACustomLibrary) {
  ResourceLibrary custom = telecom_1999();
  // Clone the first link, then make the clone strictly worse on cost: the
  // clone is dominated, the original survives.
  LinkType worse = custom.link(0);
  worse.name = "worse-" + worse.name;
  worse.cost += 100;
  custom.add_link(worse);
  const AnalysisReport report =
      analyze_specification(quickstart_spec(custom), custom);
  const Diagnostic* d = find_id(report, "A021");
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_NE(d->message.find("worse-"), std::string::npos);
  ASSERT_EQ(static_cast<int>(report.dominated_links.size()),
            custom.link_count());
  EXPECT_TRUE(report.dominated_links.back());
  EXPECT_FALSE(report.dominated_links.front());
}

TEST(AnalyzeTest, ExactDuplicatePeKeepsTheLowerIndex) {
  ResourceLibrary custom = telecom_1999();
  PeType clone = custom.pe(0);
  clone.name = "clone-" + clone.name;
  custom.add_pe(clone);
  // Duplicate every task's exec/preference entry so the clone is exactly as
  // able as the original.
  Specification spec = quickstart_spec(telecom_1999());
  for (TaskGraph& g : spec.graphs)
    for (int t = 0; t < g.task_count(); ++t) {
      g.task(t).exec.push_back(g.task(t).exec[0]);
      if (!g.task(t).preference.empty())
        g.task(t).preference.push_back(g.task(t).preference[0]);
    }
  const AnalysisReport report = analyze_specification(spec, custom);
  ASSERT_EQ(static_cast<int>(report.dominated_pes.size()), custom.pe_count());
  // The tie breaks toward the earlier entry: the clone (last) is pruned,
  // the original (first) never is.
  EXPECT_TRUE(report.dominated_pes.back());
  EXPECT_FALSE(report.dominated_pes.front());
}

// --- report plumbing ------------------------------------------------------

TEST(AnalyzeTest, CatalogCoversEveryEmittedIdAndSeveritiesPartition) {
  std::set<std::string> catalog_ids;
  for (const DiagnosticInfo& info : diagnostic_catalog()) {
    EXPECT_TRUE(catalog_ids.insert(info.id).second)
        << "duplicate catalog id " << info.id;
    EXPECT_NE(std::string(info.title), "");
    EXPECT_NE(std::string(info.paper_ref), "");
  }
  // Spot-check the IDs the rest of the suite relies on.
  for (const char* id : {"A000", "A001", "A010", "A020", "A030", "A031"})
    EXPECT_TRUE(catalog_ids.count(id)) << id;

  // Everything the analyzer emitted across this suite's specimen inputs
  // must be a cataloged ID.
  const AnalysisReport report = lint_text(R"(
graph g period 0ms
)");
  for (const Diagnostic& d : report.diagnostics)
    EXPECT_TRUE(catalog_ids.count(d.id)) << d.id;
}

TEST(AnalyzeTest, JsonAndSummaryCarryTheDiagnostics) {
  const AnalysisReport report = lint_text(R"(
graph g period 10ms
task a deadline 1ns exec MC68360=1ms
)");
  ASSERT_TRUE(report.has_errors());
  EXPECT_EQ(report.count(Severity::Error), report.count_id("A011"));
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"A011\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":3"), std::string::npos);
  const std::string text = report.summary("spec.txt ");
  EXPECT_NE(text.find("spec.txt line 3: error: [A011]"), std::string::npos);
}

TEST(AnalyzeTest, JsonBytesArePinned) {
  // Lint job signatures hash these bytes, so the exact form is pinned:
  // escapes, field order, and the dominated-type index lists.
  AnalysisReport report;
  Diagnostic error;
  error.id = "A011";
  error.severity = Severity::Error;
  error.line = 3;
  error.message = "say \"hi\" \\ to\nall\tnow\x01";
  error.paper_ref = "§3";
  report.diagnostics.push_back(error);
  Diagnostic note;
  note.id = "A020";
  note.severity = Severity::Note;
  note.message = "plain";
  report.diagnostics.push_back(note);
  report.dominated_pes = {0, 1, 1};
  report.dominated_links = {1, 0};
  EXPECT_EQ(report.to_json(),
            "{\"errors\":1,\"warnings\":0,\"notes\":1,\"diagnostics\":["
            "{\"id\":\"A011\",\"severity\":\"error\",\"line\":3,"
            "\"message\":\"say \\\"hi\\\" \\\\ to\\nall\\tnow\\u0001\","
            "\"paper_ref\":\"§3\"},"
            "{\"id\":\"A020\",\"severity\":\"note\",\"line\":0,"
            "\"message\":\"plain\",\"paper_ref\":\"\"}],"
            "\"dominated_pe_types\":[1,2],\"dominated_link_types\":[0]}");
  EXPECT_EQ(AnalysisReport{}.to_json(),
            "{\"errors\":0,\"warnings\":0,\"notes\":0,\"diagnostics\":[],"
            "\"dominated_pe_types\":[],\"dominated_link_types\":[]}");
}

// --- preflight wiring -----------------------------------------------------

TEST(AnalyzeTest, PreflightTurnsLintErrorsIntoHonestInfeasibility) {
  Specification spec = quickstart_spec(lib());
  spec.graphs[0].task(spec.graphs[0].task_count() - 1).deadline = 1;
  const CrusadeResult r = Crusade(spec, lib(), {}).run();
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.preflight.has_errors());
  ASSERT_FALSE(r.diagnosis.preflight_errors.empty());
  // Preflight stopped before any search: nothing was allocated.
  EXPECT_EQ(r.pe_count, 0);
}

TEST(AnalyzeTest, PreflightOffPreservesTheOldPath) {
  Specification spec = quickstart_spec(lib());
  spec.graphs[0].task(spec.graphs[0].task_count() - 1).deadline = 1;
  CrusadeParams params;
  params.preflight = false;
  const CrusadeResult r = Crusade(spec, lib(), params).run();
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.preflight.diagnostics.empty());
  EXPECT_TRUE(r.diagnosis.preflight_errors.empty());
}

// --- pruning soundness ----------------------------------------------------

/// Pruning dominated resources must never change the verdict; on a library
/// with nothing to prune the masks are empty, so the search trajectory —
/// and therefore the money — must match exactly too.
void expect_prune_is_sound(const Specification& spec,
                           const ResourceLibrary& library,
                           const std::string& context) {
  CrusadeParams with;
  with.preflight_prune = true;
  CrusadeParams without;
  without.preflight_prune = false;
  const CrusadeResult a = Crusade(spec, library, with).run();
  const CrusadeResult b = Crusade(spec, library, without).run();
  EXPECT_EQ(a.feasible, b.feasible) << context;
  EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total()) << context;
}

TEST(AnalyzeTest, PruningSoundOnPaperExamples) {
  expect_prune_is_sound(quickstart_spec(lib()), lib(), "quickstart");
  expect_prune_is_sound(base_station_spec(lib()), lib(), "base station");
}

TEST(AnalyzeTest, PruningSoundOnSyntheticWorkloadWithDuplicateLibrary) {
  // Inflate the library with a strictly dominated PE and link so pruning
  // provably has something to remove.  The guarantee pruning makes is that
  // the search behaves exactly as if the dominated entries had never been
  // in the catalog — so the pruned run must reproduce the clean-library
  // verdict and cost bit-for-bit.  (The *unpruned* run on the inflated
  // catalog may legally land on a slightly different local optimum: the
  // extra entries perturb the heuristic's trajectory even when they never
  // appear in the final architecture.  Only feasibility must agree there.)
  ResourceLibrary custom = telecom_1999();
  PeType worse_pe = custom.pe(0);
  worse_pe.name = "worse-" + worse_pe.name;
  worse_pe.cost += 500;
  custom.add_pe(worse_pe);
  LinkType worse_link = custom.link(0);
  worse_link.name = "worse-" + worse_link.name;
  worse_link.cost += 500;
  custom.add_link(worse_link);

  SpecGenConfig config;
  config.total_tasks = 36;
  config.min_tasks_per_graph = 12;
  config.max_tasks_per_graph = 18;
  config.seed = 7;
  const Specification clean_spec =
      SpecGenerator(telecom_1999()).generate(config);
  const CrusadeResult reference =
      Crusade(clean_spec, telecom_1999(), CrusadeParams{}).run();

  // Mirror each task's entry for the cloned (strictly costlier) PE so the
  // clone is exactly as capable — i.e. provably dominated.
  Specification spec = clean_spec;
  for (TaskGraph& g : spec.graphs)
    for (int t = 0; t < g.task_count(); ++t) {
      g.task(t).exec.push_back(g.task(t).exec[0]);
      if (!g.task(t).preference.empty())
        g.task(t).preference.push_back(g.task(t).preference[0]);
    }

  const AnalysisReport report = analyze_specification(spec, custom);
  EXPECT_GE(report.dominated_pe_count(), 1);
  EXPECT_GE(report.dominated_link_count(), 1);

  CrusadeParams pruned;
  pruned.preflight_prune = true;
  const CrusadeResult on = Crusade(spec, custom, pruned).run();
  EXPECT_EQ(on.feasible, reference.feasible);
  EXPECT_DOUBLE_EQ(on.cost.total(), reference.cost.total())
      << "pruned run must reproduce the clean-library result";

  CrusadeParams unpruned;
  unpruned.preflight_prune = false;
  const CrusadeResult off = Crusade(spec, custom, unpruned).run();
  EXPECT_EQ(off.feasible, on.feasible);
}

}  // namespace
}  // namespace crusade
