//===- ReferenceModeTest.cpp - Default pipeline vs the reference ---------===//
//
// Every throughput mechanism of the Figure-3 pipeline - the
// invalidation-matrix pass scheduler, the AnalysisManager cache and the
// lazy shortest-path rows - holds one bar: output bytes identical to the
// paper-literal reference pipeline (PipelineOptions::Reference), which
// reruns every fixpoint pass in every round, recomputes every analysis at
// each query and builds the dense Warshall/Floyd matrix in every JUMPS
// round. This differential compares the two over the whole Table-3 suite
// at every level and target (84 configs) and over 200 random programs,
// and checks the counter identities that make the savings auditable:
// equal rounds, and default run+skipped pass bodies equal to the
// reference's run count.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "opt/Pipeline.h"
#include "verify/RandomProgram.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::bench;
using namespace coderep::driver;

namespace {

const target::TargetKind AllTargets[] = {target::TargetKind::Sparc,
                                         target::TargetKind::M68};
const opt::OptLevel AllLevels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                   opt::OptLevel::Jumps};

/// Compiles \p Source both ways and checks bytes and semantic counters.
/// Hands back the two runs' stats for whole-sweep checks.
void expectMatchesReference(const std::string &Source, target::TargetKind TK,
                            opt::OptLevel Level, const std::string &What,
                            opt::PipelineStats &Default,
                            opt::PipelineStats &Ref) {
  opt::PipelineOptions DefaultOpts;
  ASSERT_FALSE(DefaultOpts.Reference);
  opt::PipelineOptions RefOpts;
  RefOpts.Reference = true;

  Compilation D = compile(Source, TK, Level, &DefaultOpts);
  Compilation R = compile(Source, TK, Level, &RefOpts);
  ASSERT_TRUE(D.ok()) << What << ": " << D.Error;
  ASSERT_TRUE(R.ok()) << What << ": " << R.Error;
  ASSERT_EQ(cfg::toString(*D.Prog), cfg::toString(*R.Prog))
      << What << " differs from the reference pipeline at level "
      << opt::optLevelName(Level);

  Default = D.Pipeline;
  Ref = R.Pipeline;
  EXPECT_EQ(Default.FixpointIterations, Ref.FixpointIterations) << What;
  EXPECT_EQ(Default.QuiescentRounds, Ref.QuiescentRounds) << What;
  EXPECT_EQ(Default.Replication.JumpsReplaced, Ref.Replication.JumpsReplaced)
      << What;
  EXPECT_EQ(Default.DelaySlotNops, Ref.DelaySlotNops) << What;
  // Identical round counts, so run+skipped accounts for every body the
  // reference executed, and the skips are pure savings.
  EXPECT_EQ(Default.FixpointPassesRun + Default.FixpointPassesSkipped,
            Ref.FixpointPassesRun)
      << What;
  EXPECT_EQ(Ref.FixpointPassesSkipped, 0) << What;
  // The reference recomputes at every query: it never serves a hit.
  EXPECT_EQ(Ref.Analysis.totalHits(), 0) << What;
}

// (The suite's analysis-cache savings are checked by
// AnalysisManagerDiff.CachedVsAlwaysRecomputeByteIdenticalAcrossSuite.)
TEST(ReferenceMode, SuiteByteIdenticalToReference) {
  int64_t DefaultSkipped = 0;
  for (const BenchProgram &BP : suite()) {
    for (target::TargetKind TK : AllTargets) {
      for (opt::OptLevel Level : AllLevels) {
        opt::PipelineStats D, R;
        expectMatchesReference(BP.Source, TK, Level, BP.Name, D, R);
        if (HasFatalFailure())
          return;
        DefaultSkipped += D.FixpointPassesSkipped;
      }
    }
  }
  EXPECT_GT(DefaultSkipped, 0) << "the scheduler must skip some passes";
}

/// Seeds [\p First, \p Last] of the random-program corpus. Every seed runs
/// JUMPS; a third of them also run SIMPLE and a third LOOPS, so each level
/// sees a varied sample.
void expectRandomSeedsMatchReference(uint64_t First, uint64_t Last) {
  for (uint64_t Seed = First; Seed <= Last; ++Seed) {
    std::string Source = verify::randomProgram(Seed);
    target::TargetKind TK =
        Seed % 2 ? target::TargetKind::Sparc : target::TargetKind::M68;
    std::vector<opt::OptLevel> Levels = {opt::OptLevel::Jumps};
    if (AllLevels[Seed % 3] != opt::OptLevel::Jumps)
      Levels.push_back(AllLevels[Seed % 3]);
    for (opt::OptLevel Level : Levels) {
      opt::PipelineStats D, R;
      expectMatchesReference(Source, TK, Level,
                             "seed " + std::to_string(Seed) + "\n" + Source,
                             D, R);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

// 200 seeds in four shards, so the test runner can spread them over cores.
TEST(ReferenceMode, RandomProgramsSeeds1To50) {
  expectRandomSeedsMatchReference(1, 50);
}
TEST(ReferenceMode, RandomProgramsSeeds51To100) {
  expectRandomSeedsMatchReference(51, 100);
}
TEST(ReferenceMode, RandomProgramsSeeds101To150) {
  expectRandomSeedsMatchReference(101, 150);
}
TEST(ReferenceMode, RandomProgramsSeeds151To200) {
  expectRandomSeedsMatchReference(151, 200);
}

} // namespace
