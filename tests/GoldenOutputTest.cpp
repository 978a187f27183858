//===- GoldenOutputTest.cpp - Compiled output pinned across commits ------===//
//
// The differential tests (ReferenceMode.*, AnalysisManagerDiff.*) compare
// two modes of the same build, so a change to code both modes share - the
// JUMPS step-6 rollback, say - can alter the compiled output with every one
// of them still green. This test pins the output itself: one line per
// config in golden/compiled_digests.txt, holding a 64-bit FNV-1a digest of
// the optimized RTL text (cfg::toString) plus the static RTL and
// unconditional-jump counts. It covers the 84 Table-3 suite configs and
// random programs 1-50 at JUMPS on both targets, including the configs
// where step 6 rolls a replication back (compact, quicksort, deroff and wc
// at JUMPS). A mismatch prints the line this build produces.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "Suite.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "support/Format.h"
#include "verify/RandomProgram.h"

#include <gtest/gtest.h>

#include <string>

using namespace coderep;
using namespace coderep::driver;
using namespace coderep::golden;

namespace {

/// "<config> digest=<hex> rtls=<n> jumps=<n>" for one compilation.
std::string digestLine(const std::string &Config, const std::string &Source,
                       target::TargetKind TK, opt::OptLevel Level) {
  Compilation C = compile(Source, TK, Level);
  if (!C.ok())
    return Config + " error=" + C.Error;
  return format("%s digest=%016llx rtls=%d jumps=%d", Config.c_str(),
                static_cast<unsigned long long>(fnv1a64(cfg::toString(*C.Prog))),
                C.Static.Instructions, C.Static.UncondJumps);
}

TEST(GoldenOutput, SuiteMatchesCommittedDigests) {
  const auto Golden = loadGolden(CODEREP_GOLDEN_DIGESTS);
  ASSERT_FALSE(Golden.empty()) << "cannot read " << CODEREP_GOLDEN_DIGESTS;
  const opt::OptLevel Levels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                  opt::OptLevel::Jumps};
  int Checked = 0;
  for (const bench::BenchProgram &BP : bench::suite())
    for (target::TargetKind TK : BothTargets)
      for (opt::OptLevel Level : Levels) {
        std::string Config = BP.Name + "/" + targetName(TK) + "/" +
                             opt::optLevelName(Level);
        expectGolden(Golden, digestLine(Config, BP.Source, TK, Level));
        ++Checked;
      }
  EXPECT_EQ(Checked, 84);
}

TEST(GoldenOutput, RandomProgramsMatchCommittedDigests) {
  const auto Golden = loadGolden(CODEREP_GOLDEN_DIGESTS);
  ASSERT_FALSE(Golden.empty()) << "cannot read " << CODEREP_GOLDEN_DIGESTS;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    std::string Source = verify::randomProgram(Seed);
    for (target::TargetKind TK : BothTargets) {
      std::string Config = "seed" + std::to_string(Seed) + "/" +
                           targetName(TK) + "/JUMPS";
      expectGolden(Golden,
                   digestLine(Config, Source, TK, opt::OptLevel::Jumps));
    }
  }
}

TEST(GoldenOutput, GoldenFileHasOneLinePerConfig) {
  // 84 suite configs plus 50 seeds x 2 targets; a stale extra line would
  // otherwise go unnoticed.
  EXPECT_EQ(loadGolden(CODEREP_GOLDEN_DIGESTS).size(), 84u + 100u);
}

} // namespace
