// crusade-check (analyze/source_check.hpp): per-rule fixtures proving each
// rule fires on violating code, stays silent on the fixed form, and honors
// reasoned check-allow suppressions — plus a whole-tree run pinning the
// repo's own suppression count so new silences can't slip in unreviewed.
#include <gtest/gtest.h>

#include <string>

#include "analyze/source_check.hpp"

namespace crusade {
namespace {

// --- catalog ----------------------------------------------------------------

TEST(CheckRules, CatalogIsStableAndDocumented) {
  const auto& rules = check_rule_catalog();
  ASSERT_EQ(rules.size(), 10u);
  EXPECT_STREQ(rules[0].id, "C000");
  EXPECT_STREQ(rules[7].id, "C007");
  EXPECT_STREQ(rules[8].id, "C008");
  EXPECT_STREQ(rules[9].id, "C009");
  for (const CheckRule& rule : rules) {
    EXPECT_NE(std::string(rule.name), "");
    EXPECT_GT(std::string(rule.rationale).size(), 20u) << rule.id;
  }
}

// --- C001: unordered iteration in decision code -----------------------------

TEST(CheckRules, C001FiresOnUnorderedRangeFor) {
  const std::string bad =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> scores;\n"
      "int total() {\n"
      "  int t = 0;\n"
      "  for (const auto& [k, v] : scores) t += v;\n"
      "  return t;\n"
      "}\n";
  const auto report = check_source("src/alloc/pick.cpp", bad);
  EXPECT_EQ(report.count_id("C001"), 1);
  EXPECT_EQ(report.findings[0].line, 5);
}

TEST(CheckRules, C001FiresOnExplicitBegin) {
  const std::string bad =
      "std::unordered_set<int> seen;\n"
      "auto it = seen.begin();\n";
  EXPECT_EQ(check_source("src/sched/x.cpp", bad).count_id("C001"), 1);
}

TEST(CheckRules, C001SilentOnOrderedMapAndKeyedLookup) {
  const std::string good =
      "std::map<int, int> scores;\n"
      "std::unordered_map<int, int> cache;\n"
      "int f(int k) {\n"
      "  for (const auto& [a, b] : scores) (void)b;\n"  // ordered: fine
      "  auto it = cache.find(k);\n"                    // keyed lookup: fine
      "  return it == cache.end() ? 0 : it->second;\n"
      "}\n";
  EXPECT_EQ(check_source("src/alloc/pick.cpp", good).count_id("C001"), 0);
}

TEST(CheckRules, C001ScopedToDecisionDirs) {
  const std::string bad =
      "std::unordered_map<int, int> m;\n"
      "void f() { for (auto& kv : m) (void)kv; }\n";
  EXPECT_EQ(check_source("src/alloc/a.cpp", bad).count_id("C001"), 1);
  EXPECT_EQ(check_source("src/ckpt/a.cpp", bad).count_id("C001"), 1);
  // serve/ may iterate unordered state it never folds into answers.
  EXPECT_EQ(check_source("src/serve/a.cpp", bad).count_id("C001"), 0);
  EXPECT_EQ(check_source("tests/a.cpp", bad).count_id("C001"), 0);
}

// --- C002: wall clock / libc randomness -------------------------------------

TEST(CheckRules, C002FiresOnSystemClockAndRand) {
  const std::string bad =
      "auto t = std::chrono::system_clock::now();\n"
      "int r = rand() % 6;\n"
      "std::random_device rd;\n";
  const auto report = check_source("src/core/x.cpp", bad);
  EXPECT_EQ(report.count_id("C002"), 3);
}

TEST(CheckRules, C002SilentOnSteadyClockAndSeededRng) {
  const std::string good =
      "auto t = std::chrono::steady_clock::now();\n"
      "util::Rng rng(seed);\n"
      "int r = rng.next_int(6);\n"
      "int grand_total = grand(x);\n";  // 'rand' inside an identifier
  EXPECT_EQ(check_source("src/core/x.cpp", good).count_id("C002"), 0);
}

TEST(CheckRules, C002ExemptsTimingCode) {
  const std::string timing = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_EQ(check_source("src/obs/obs.cpp", timing).count_id("C002"), 0);
  EXPECT_EQ(check_source("src/serve/service.cpp", timing).count_id("C002"),
            0);
  EXPECT_EQ(check_source("src/core/crusade.cpp", timing).count_id("C002"), 1);
}

// --- C003: raw file writes --------------------------------------------------

TEST(CheckRules, C003FiresOnOfstreamAndFopen) {
  const std::string bad =
      "std::ofstream out(path);\n"
      "FILE* f = fopen(path.c_str(), \"w\");\n";
  EXPECT_EQ(check_source("src/ckpt/x.cpp", bad).count_id("C003"), 2);
}

TEST(CheckRules, C003SilentOnAtomicWriteAndReads) {
  const std::string good =
      "atomic_write_file(path, body);\n"
      "std::ifstream in(path);\n";
  EXPECT_EQ(check_source("src/ckpt/x.cpp", good).count_id("C003"), 0);
}

TEST(CheckRules, C003ExemptsAtomicFileImpl) {
  const std::string impl = "FILE* f = fopen(tmp.c_str(), \"w\");\n";
  EXPECT_EQ(check_source("src/util/atomic_file.cpp", impl).count_id("C003"),
            0);
  EXPECT_EQ(check_source("src/util/other.cpp", impl).count_id("C003"), 1);
}

// --- C004: exit / stdio in library code -------------------------------------

TEST(CheckRules, C004FiresOnExitAndStdio) {
  const std::string bad =
      "if (broken) exit(1);\n"
      "std::cerr << \"oops\";\n"
      "printf(\"%d\", x);\n";
  EXPECT_EQ(check_source("src/core/x.cpp", bad).count_id("C004"), 3);
}

TEST(CheckRules, C004SilentOnUnderscoreExitAndSnprintf) {
  // ::_exit is the sanctioned forked-child exit; snprintf writes memory.
  const std::string good =
      "::_exit(99);\n"
      "std::snprintf(buf, sizeof buf, \"%d\", x);\n"
      "throw Error(\"honest failure\");\n";
  EXPECT_EQ(check_source("src/serve/worker.cpp", good).count_id("C004"), 0);
}

TEST(CheckRules, C004ScopedToLibraryCode) {
  const std::string cli = "printf(\"usage: crusade ...\");\n";
  EXPECT_EQ(check_source("tools/crusade_cli.cpp", cli).count_id("C004"), 0);
  EXPECT_EQ(check_source("src/core/x.cpp", cli).count_id("C004"), 1);
}

// --- C005: naked detach -----------------------------------------------------

TEST(CheckRules, C005FiresOnDetachAnywhere) {
  const std::string bad = "std::thread([]{ work(); }).detach();\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", bad).count_id("C005"), 1);
  EXPECT_EQ(check_source("tools/x.cpp", bad).count_id("C005"), 1);
}

TEST(CheckRules, C005SilentOnJoin) {
  const std::string good = "worker.join();\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", good).count_id("C005"), 0);
}

// --- C006: signal-handler async-signal-safety -------------------------------

TEST(CheckRules, C006FiresOnUnsafeHandlerCall) {
  const std::string bad =
      "void on_term(int) {\n"
      "  std::fprintf(stderr, \"stopping\\n\");\n"
      "  log_shutdown();\n"
      "}\n"
      "void install() { signal(SIGTERM, on_term); }\n";
  const auto report = check_source("src/serve/x.cpp", bad);
  EXPECT_EQ(report.count_id("C006"), 2);  // fprintf + log_shutdown
}

TEST(CheckRules, C006SilentOnStopHubPattern) {
  // The repo's sanctioned handler: StopHub::notify() (atomic stores only).
  const std::string good =
      "void on_term(int sig) {\n"
      "  StopHub::instance().notify();\n"
      "  g_last.store(sig);\n"
      "}\n"
      "void install() { signal(SIGTERM, on_term); }\n"
      "void helper() { open_log_file(); }\n";  // not a handler: unchecked
  EXPECT_EQ(check_source("src/serve/x.cpp", good).count_id("C006"), 0);
}

TEST(CheckRules, C006DetectsSigactionRegistration) {
  const std::string bad =
      "void on_term(int) { malloc(32); }\n"
      "void install() {\n"
      "  struct sigaction sa{};\n"
      "  sa.sa_handler = on_term;\n"
      "}\n";
  EXPECT_EQ(check_source("src/util/x.cpp", bad).count_id("C006"), 1);
}

// --- C007: obs name taxonomy ------------------------------------------------

TEST(CheckRules, C007FiresOnUnknownSubsystemAndShapelessNames) {
  const std::string bad =
      "void f() {\n"
      "  obs::count(\"frobnicator.calls\");\n"   // unknown subsystem
      "  OBS_SPAN(\"setup\");\n"                 // no dot
      "  obs::record_peak(\"Serve.Depth\", d);\n"  // uppercase
      "}\n";
  const auto report = check_source("src/core/x.cpp", bad);
  EXPECT_EQ(report.count_id("C007"), 3) << report.summary();
}

TEST(CheckRules, C007SilentOnTaxonomyNames) {
  const std::string good =
      "void f() {\n"
      "  obs::count(\"serve.worker.attempts\");\n"
      "  OBS_SPAN(\"phase.allocation\");\n"
      "  obs::Span attempt(\"serve.worker.attempt\");\n"
      "  obs::record_peak(\"serve.queue_depth_peak\", d);\n"
      "}\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", good).count_id("C007"), 0);
}

TEST(CheckRules, C007IgnoresCommentsAndNonSrcFiles) {
  const std::string comment_only =
      "// example: obs::count(\"bogus-name\") would be rejected\n";
  EXPECT_EQ(check_source("src/obs/x.cpp", comment_only).count_id("C007"), 0);
  const std::string bad = "obs::count(\"bogus\");\n";
  // tools/ and tests may fabricate names for fixtures; the taxonomy is a
  // contract on the library's own telemetry.
  EXPECT_EQ(check_source("tools/x.cpp", bad).count_id("C007"), 0);
  EXPECT_EQ(check_source("src/ft/x.cpp", bad).count_id("C007"), 1);
}

// --- C008: unchecked durability-syscall returns -----------------------------

TEST(CheckRules, C008FiresOnDiscardedCloseAndFsync) {
  const std::string bad =
      "void f(int fd, const std::string& a, const std::string& b) {\n"
      "  fsync(fd);\n"
      "  ::close(fd);\n"
      "  rename(a.c_str(), b.c_str());\n"
      "}\n";
  const auto report = check_source("src/util/x.cpp", bad);
  EXPECT_EQ(report.count_id("C008"), 3) << report.summary();
}

TEST(CheckRules, C008FiresOnErrnoAfterSameLineClose) {
  // close() completed (statement position), then errno is read: the
  // original failure's errno is gone.
  const std::string bad =
      "void f(int fd) {\n"
      "  (void)::close(fd); throw_io_error(\"write\", errno);\n"
      "}\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", bad).count_id("C008"), 1);
}

TEST(CheckRules, C008SilentOnCheckedAndVoidCastForms) {
  const std::string good =
      "void f(int fd, const std::string& a, const std::string& b) {\n"
      "  if (::fsync(fd) != 0) throw_io_error(\"fsync\", errno);\n"
      "  const int rc = ::close(fd);\n"
      "  (void)::close(rc);\n"  // deliberate best-effort discard
      "  if (::rename(a.c_str(), b.c_str()) != 0)\n"
      "    throw_io_error(\"rename\", errno);\n"
      "  const int e = errno;\n"  // captured before cleanup: fine
      "  (void)::unlink(a.c_str());\n"
      "}\n";
  const auto report = check_source("src/util/x.cpp", good);
  EXPECT_EQ(report.count_id("C008"), 0) << report.summary();
}

TEST(CheckRules, C008ScopedToLibraryCodeAndHonorsAllow) {
  const std::string bad = "void f(int fd) {\n  close(fd);\n}\n";
  EXPECT_EQ(check_source("tools/x.cpp", bad).count_id("C008"), 0);
  EXPECT_EQ(check_source("src/obs/x.cpp", bad).count_id("C008"), 1);
  const std::string allowed =
      "void f(int fd) {\n"
      "  // check-allow(C008): fd is read-only, close cannot lose data\n"
      "  close(fd);\n"
      "}\n";
  const auto report = check_source("src/obs/x.cpp", allowed);
  EXPECT_EQ(report.errors(), 0) << report.summary();
  EXPECT_EQ(report.suppressions(), 1);
}

// --- C009: unframed durable writes in serve/ckpt ----------------------------

TEST(CheckRules, C009FiresOnBareAtomicWriteInDurableCode) {
  const std::string bad =
      "void f(const std::string& path, const std::string& body) {\n"
      "  atomic_write_file(path, body);\n"
      "}\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", bad).count_id("C009"), 1);
  EXPECT_EQ(check_source("src/ckpt/x.cpp", bad).count_id("C009"), 1);
}

TEST(CheckRules, C009SilentOnFramedWriterAndOutsideScope) {
  const std::string framed =
      "void f(const std::string& path, const std::string& body) {\n"
      "  diskfmt::write_framed_file(path, kMagic, 1, body);\n"
      "}\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", framed).count_id("C009"), 0);
  // Outside the durable-format subsystems the raw helper stays legal.
  const std::string bare =
      "void f(const std::string& path, const std::string& body) {\n"
      "  atomic_write_file(path, body);\n"
      "}\n";
  EXPECT_EQ(check_source("src/util/x.cpp", bare).count_id("C009"), 0);
  EXPECT_EQ(check_source("tools/x.cpp", bare).count_id("C009"), 0);
  // Comment mentions never fire — only code lines do.
  const std::string comment =
      "// journal is written via atomic_write_file(path, body)\n"
      "void f() {}\n";
  EXPECT_EQ(check_source("src/serve/x.cpp", comment).count_id("C009"), 0);
}

TEST(CheckRules, C009HonorsReasonedAllow) {
  const std::string allowed =
      "void f(const std::string& path, const std::string& body) {\n"
      "  // check-allow(C009): debug dump, never re-read after a crash\n"
      "  atomic_write_file(path, body);\n"
      "}\n";
  const auto report = check_source("src/ckpt/x.cpp", allowed);
  EXPECT_EQ(report.errors(), 0) << report.summary();
  EXPECT_EQ(report.suppressions(), 1);
}

// --- suppressions and C000 --------------------------------------------------

TEST(CheckSuppressions, ReasonedAllowSilencesSameLine) {
  const std::string code =
      "printf(\"debug\");  // check-allow(C004): env-gated debug aid\n";
  const auto report = check_source("src/core/x.cpp", code);
  EXPECT_EQ(report.errors(), 0);
  EXPECT_EQ(report.suppressions(), 1);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].suppressed);
  EXPECT_EQ(report.findings[0].reason, "env-gated debug aid");
}

TEST(CheckSuppressions, ReasonedAllowSilencesNextLine) {
  const std::string code =
      "// check-allow(C004): env-gated debug aid\n"
      "printf(\"debug\");\n";
  const auto report = check_source("src/core/x.cpp", code);
  EXPECT_EQ(report.errors(), 0);
  EXPECT_EQ(report.suppressions(), 1);
}

TEST(CheckSuppressions, AllowDoesNotLeakPastItsLine) {
  const std::string code =
      "// check-allow(C004): only covers the next line\n"
      "printf(\"one\");\n"
      "printf(\"two\");\n";
  const auto report = check_source("src/core/x.cpp", code);
  EXPECT_EQ(report.errors(), 1);  // the second printf is NOT covered
  EXPECT_EQ(report.suppressions(), 1);
}

TEST(CheckSuppressions, AllowForOtherRuleDoesNotApply) {
  const std::string code =
      "printf(\"debug\");  // check-allow(C003): wrong rule\n";
  const auto report = check_source("src/core/x.cpp", code);
  EXPECT_EQ(report.count_id("C004"), 1);  // still an error
}

TEST(CheckSuppressions, ReasonlessAllowIsC000) {
  const std::string code = "printf(\"x\");  // check-allow(C004)\n";
  const auto report = check_source("src/core/x.cpp", code);
  EXPECT_EQ(report.count_id("C000"), 1);
  EXPECT_EQ(report.count_id("C004"), 1);  // and it does not suppress
}

TEST(CheckSuppressions, UnknownRuleAllowIsC000) {
  const std::string code = "int x;  // check-allow(C999): no such rule\n";
  EXPECT_EQ(check_source("src/core/x.cpp", code).count_id("C000"), 1);
}

// --- stripping: rules never fire inside comments or strings -----------------

TEST(CheckStripping, CommentsAndStringsAreInvisible) {
  const std::string code =
      "// printf(\"in a comment\"); exit(1);\n"
      "/* std::cerr << rand(); */\n"
      "const char* s = \"printf( exit( .detach()\";\n"
      "const char* r = R\"(std::cout << rand())\";\n";
  const auto report = check_source("src/core/x.cpp", code);
  EXPECT_EQ(report.errors(), 0) << report.summary();
}

TEST(CheckStripping, LineNumbersSurviveBlockComments) {
  const std::string code =
      "/* a\n"
      "   multi-line\n"
      "   comment */\n"
      "exit(1);\n";
  const auto report = check_source("src/core/x.cpp", code);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].line, 4);
}

// --- report plumbing --------------------------------------------------------

TEST(CheckReportTest, JsonCarriesCountsAndCatalog) {
  const std::string code =
      "exit(1);\n"
      "printf(\"x\");  // check-allow(C004): fixture\n";
  const auto report = check_source("src/core/x.cpp", code);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"tool\":\"crusade-check\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"C006\""), std::string::npos);  // catalog
}

// --- the repo checks itself -------------------------------------------------

TEST(CheckTree, RepoIsCleanWithPinnedSuppressions) {
  const CheckReport report = check_tree(".");
  EXPECT_GT(report.files_scanned, 80);
  EXPECT_EQ(report.errors(), 0) << report.summary();
  // The tree carries no suppression.  A new one anywhere must be reviewed:
  // it shows up here as a count change.
  EXPECT_EQ(report.suppressions(), 0);
  for (const CheckFinding& f : report.findings)
    EXPECT_FALSE(f.suppressed) << f.file << ":" << f.line << " " << f.id;
}

}  // namespace
}  // namespace crusade
