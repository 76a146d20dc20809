// Spec fault-injection harness (src/validate/inject.hpp).
//
// The robustness contract under mutation: for ANY mutated specification,
// CRUSADE either (a) rejects the input with a typed crusade::Error, (b)
// reports an infeasible result with diagnostics, or (c) returns a feasible
// architecture that the independent validator confirms.  It never crashes,
// never hangs (search budgets bound every run) and never lies (a "feasible"
// the validator rejects fails the test).  Well over 500 seeded mutations
// run across structural and text-level corruption.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "analyze/analyzer.hpp"
#include "core/crusade.hpp"
#include "example_specs.hpp"
#include "ft/crusade_ft.hpp"
#include "graph/spec_io.hpp"
#include "util/rng.hpp"
#include "validate/inject.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

struct FuzzTally {
  int mutated = 0;
  int rejected = 0;    // crusade::Error out of parsing/validation/synthesis
  int infeasible = 0;  // honest "no" with diagnostics
  int feasible = 0;    // validator-confirmed architecture
  int lint_errors = 0;  // mutants the static analyzer proved hopeless
};

/// Runs one mutated spec through the full pipeline and scores the outcome.
/// Anything but the three honest outcomes fails the test.
void run_pipeline(const Specification& spec, FuzzTally& tally,
                  const std::string& context) {
  CrusadeParams params;
  // Budgets bound the run: a hostile mutation may open a hopeless search
  // space, and "never hangs" is part of the contract under test.
  params.max_iterations = 400;
  params.merge_budget = 60;
  // Static analysis first: the analyzer must digest ANY in-memory mutant
  // without throwing, and its errors claim provable infeasibility — a
  // claim checked against the synthesis outcome below.
  const AnalysisReport lint = analyze_specification(spec, lib());
  if (lint.has_errors()) ++tally.lint_errors;
  try {
    const CrusadeResult r = Crusade(spec, lib(), params).run();
    if (r.feasible) {
      ++tally.feasible;
      // Never lie: a claimed-feasible result must re-verify.
      EXPECT_TRUE(r.validation.clean())
          << context << "\n" << r.validation.summary(50);
      // Lint soundness: every lint *error* is a necessary condition for
      // feasibility, so a validator-confirmed feasible architecture from a
      // lint-rejected spec would prove the analyzer wrong.
      EXPECT_FALSE(lint.has_errors())
          << context << "\nlint claimed infeasibility:\n" << lint.summary();
    } else {
      ++tally.infeasible;
      // Graceful degradation: an infeasible verdict explains itself.
      EXPECT_FALSE(r.diagnosis.empty()) << context;
    }
  } catch (const Error&) {
    ++tally.rejected;  // typed rejection is an honest outcome
  }
  // Any other exception type propagates and fails the test: the pipeline
  // must never surface std::bad_alloc, std::out_of_range, UB traps, ...
}

TEST(InjectTest, StructuralMutationsNeverCrashOrLie) {
  const Specification bases[] = {quickstart_spec(lib()),
                                 base_station_spec(lib())};
  FuzzTally tally;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    for (std::size_t b = 0; b < 2; ++b) {
      Rng rng(0xC0FFEE ^ (seed * 2654435761u + b));
      Specification mutant = bases[b];
      const int rounds = 1 + static_cast<int>(rng.uniform_int(0, 2));
      std::string context = "seed " + std::to_string(seed) + " base " +
                            std::to_string(b) + ":";
      for (int i = 0; i < rounds; ++i) {
        const Mutation m = mutate_specification(mutant, rng);
        if (m.applied) context += " [" + m.description + "]";
      }
      ++tally.mutated;
      run_pipeline(mutant, tally, context);
    }
  }
  EXPECT_EQ(tally.mutated, 300);
  EXPECT_EQ(tally.rejected + tally.infeasible + tally.feasible, 300);
  // The mutator mix guarantees all three outcomes actually occur — a fuzz
  // run where nothing is ever rejected (or nothing ever survives) would
  // mean the harness is not exercising what it claims.
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.feasible, 0);
}

TEST(InjectTest, TextCorruptionNeverCrashesTheParser) {
  std::ostringstream out;
  write_specification(out, quickstart_spec(lib()), lib());
  const std::string pristine = out.str();

  FuzzTally tally;
  int parsed = 0, parse_rejected = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(0xBADF00D + seed * 977);
    std::string text = pristine;
    const int rounds = 1 + static_cast<int>(rng.uniform_int(0, 1));
    std::string context = "text seed " + std::to_string(seed) + ":";
    for (int i = 0; i < rounds; ++i) {
      const Mutation m = corrupt_spec_text(text, rng);
      if (m.applied) context += " [" + m.description + "]";
    }
    ++tally.mutated;
    Specification spec;
    try {
      std::istringstream in(text);
      spec = read_specification(in, lib());
    } catch (const Error& e) {
      ++parse_rejected;
      ++tally.rejected;
      // Parse-phase rejections map onto the lint A000 diagnostic, and
      // parser errors always carry the offending line.
      const Diagnostic d = parse_error_diagnostic(e);
      EXPECT_EQ(d.id, "A000");
      if (std::string(e.what()).rfind("spec line ", 0) == 0) {
        EXPECT_GT(d.line, 0) << context << "\n" << e.what();
      }
      continue;
    }
    ++parsed;
    // Corruption that still parses must still synthesize honestly.
    run_pipeline(spec, tally, context);
  }
  EXPECT_EQ(tally.mutated, 250);
  EXPECT_EQ(tally.rejected + tally.infeasible + tally.feasible, 250);
  // Hostile tokens ("999999999min", "5uss", truncated lines...) must
  // actually hit the parser's error paths, and benign corruption (deleted
  // comment, duplicated edge line) must still reach synthesis.
  EXPECT_GT(parse_rejected, 0);
  EXPECT_GT(parsed, 0);
}

/// A DependabilityReport that reaches the caller must be self-consistent:
/// every unavailability a finite probability, every meets flag derived from
/// the numbers it sits next to.  NaN poisoning any of them is the exact
/// "meets requirements" lie the Markov hardening exists to prevent.
void expect_consistent_report(const CrusadeFtResult& r,
                              const std::string& context) {
  for (const ServiceModule& m : r.dependability.modules) {
    EXPECT_TRUE(std::isfinite(m.unavailability) && m.unavailability >= 0 &&
                m.unavailability <= 1)
        << context << " module unavailability " << m.unavailability;
    EXPECT_TRUE(std::isfinite(m.fit_total)) << context;
  }
  const auto& dep = r.dependability;
  ASSERT_EQ(dep.graph_unavailability.size(), dep.graph_meets.size())
      << context;
  bool all = true;
  for (std::size_t g = 0; g < dep.graph_unavailability.size(); ++g) {
    const double u = dep.graph_unavailability[g];
    EXPECT_TRUE(std::isfinite(u) && u >= 0 && u <= 1)
        << context << " graph " << g << " unavailability " << u;
    if (g < r.ft_spec.unavailability_requirement.size()) {
      const double req = r.ft_spec.unavailability_requirement[g];
      EXPECT_EQ(dep.graph_meets[g] != 0, !(req > 0 && u > req))
          << context << " graph " << g << " meets flag inconsistent";
    }
    all = all && dep.graph_meets[g] != 0;
  }
  EXPECT_EQ(dep.meets_requirements, all) << context;
}

/// FT-relevant mutations: FIT rates (library), MTTR (parameters) and
/// per-graph unavailability requirements (specification).  Every mutant is
/// lint-caught, a typed Error, or yields a self-consistent report — never a
/// crash or a NaN-backed "meets requirements".
TEST(InjectTest, FtFieldMutationsNeverCrashOrLie) {
  const Specification bases[] = {quickstart_spec(lib()),
                                 fault_tolerant_sonet_spec(lib())};
  int rejected = 0, reported = 0, lint_caught = 0;
  const double kPoison[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -100.0, 0.0, 1e300};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (std::size_t b = 0; b < 2; ++b) {
      Rng rng(0xFA017 ^ (seed * 2654435761u + b));
      Specification mutant = bases[b];
      ResourceLibrary mlib = lib();
      CrusadeFtParams params;
      params.base.max_iterations = 400;
      params.base.merge_budget = 60;
      std::string context =
          "ft seed " + std::to_string(seed) + " base " + std::to_string(b);

      const int family = static_cast<int>(rng.uniform_int(0, 2));
      const double poison =
          kPoison[rng.uniform_int(0, std::size(kPoison) - 1)];
      if (family == 0) {
        // Unavailability requirements (spec-level, lint-visible as A040).
        mutant.unavailability_requirement.assign(mutant.graphs.size(),
                                                 12.0 / 525600.0);
        const auto g = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mutant.graphs.size()) - 1));
        mutant.unavailability_requirement[g] = poison;
        context += " unavailability := " + std::to_string(poison);
      } else if (family == 1) {
        params.dependability.mttr_hours =
            rng.chance(0.5) ? poison : -poison;
        context += " mttr := " +
                   std::to_string(params.dependability.mttr_hours);
      } else {
        // FIT rates: rebuild the library with one poisoned type.
        ResourceLibrary lib2;
        lib2.assumed_ports = mlib.assumed_ports;
        const int target = static_cast<int>(
            rng.uniform_int(0, mlib.pe_count() + mlib.link_count() - 1));
        for (int i = 0; i < mlib.pe_count(); ++i) {
          PeType pe = mlib.pe(i);
          if (i == target) pe.fit_rate = poison;
          lib2.add_pe(pe);
        }
        for (int i = 0; i < mlib.link_count(); ++i) {
          LinkType link = mlib.link(i);
          if (mlib.pe_count() + i == target) link.fit_rate = poison;
          lib2.add_link(link);
        }
        mlib = lib2;
        context += " fit := " + std::to_string(poison);
      }

      const AnalysisReport lint = analyze_specification(mutant, mlib);
      if (lint.has_errors()) ++lint_caught;
      try {
        const CrusadeFtResult r = CrusadeFt(mutant, mlib, params).run();
        ++reported;
        expect_consistent_report(r, context);
        EXPECT_FALSE(lint.has_errors())
            << context << "\nlint claimed infeasibility:\n" << lint.summary();
      } catch (const Error&) {
        ++rejected;  // typed rejection is an honest outcome
      }
    }
  }
  EXPECT_EQ(rejected + reported, 120);
  // The poison list guarantees both honest outcomes occur: NaN/negative
  // values must be rejected, zero-FIT / huge-but-finite values must flow
  // through to a (clamped, finite) report.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(reported, 0);
  EXPECT_GT(lint_caught, 0);
}

TEST(InjectTest, MutatorsAreDeterministic) {
  for (std::uint64_t seed : {7u, 42u, 1234u}) {
    Specification a = quickstart_spec(lib());
    Specification b = quickstart_spec(lib());
    Rng ra(seed), rb(seed);
    const Mutation ma = mutate_specification(a, ra);
    const Mutation mb = mutate_specification(b, rb);
    EXPECT_EQ(ma.kind, mb.kind);
    EXPECT_EQ(ma.description, mb.description);
    EXPECT_EQ(ma.applied, mb.applied);
  }
  const std::string base = "graph g period 10ms\ntask t exec *=1ms\n";
  for (std::uint64_t seed : {7u, 42u, 1234u}) {
    std::string a = base, b = base;
    Rng ra(seed), rb(seed);
    corrupt_spec_text(a, ra);
    corrupt_spec_text(b, rb);
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace crusade
