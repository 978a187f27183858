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

#include "Suite.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "support/Format.h"
#include "verify/RandomProgram.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

using namespace coderep;
using namespace coderep::driver;

namespace {

const target::TargetKind BothTargets[] = {target::TargetKind::M68,
                                          target::TargetKind::Sparc};

const char *targetName(target::TargetKind TK) {
  return TK == target::TargetKind::M68 ? "M68" : "SPARC";
}

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Golden lines keyed by their config name (the text before the first
/// space).
std::map<std::string, std::string> loadGolden() {
  std::map<std::string, std::string> Lines;
  std::ifstream In(CODEREP_GOLDEN_DIGESTS);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Lines[Line.substr(0, Line.find(' '))] = Line;
  return Lines;
}

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

/// Compares one config against its golden line.
void expectGolden(const std::map<std::string, std::string> &Golden,
                  const std::string &Actual) {
  std::string Config = Actual.substr(0, Actual.find(' '));
  auto It = Golden.find(Config);
  if (It == Golden.end()) {
    ADD_FAILURE() << "no golden line for " << Config << "; actual:\n"
                  << Actual;
    return;
  }
  EXPECT_EQ(It->second, Actual) << "actual:\n" << Actual;
}

TEST(GoldenOutput, SuiteMatchesCommittedDigests) {
  const auto Golden = loadGolden();
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
  const auto Golden = loadGolden();
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
  EXPECT_EQ(loadGolden().size(), 84u + 100u);
}

} // namespace
