//===- GoldenDynamicTest.cpp - Interpreter behaviour pinned across commits -===//
//
// The paper's dynamic numbers (Tables 4-6, §5.2) and the translation-
// validation oracle both rest on ease::run. This test pins what the
// interpreter observes, one line per run in golden/dynamic_stats.txt:
//
//  * the 84 Table-3 suite configs run on their workloads: every
//    DynamicStats field, the exit code, and FNV-1a digests of the output
//    bytes and of the FetchSink address stream (what the I-cache
//    simulator sees);
//  * every function of random programs 1-20 at JUMPS on both targets, run
//    the way the oracle runs one (entry mode, stubbed calls, a seeded
//    memory image, captured globals, a 2^20 step budget) on 4 seeded
//    inputs: trap kind and message, every DynamicStats field, and digests
//    of the call-event stream and of the final globals bytes. A fifth run
//    repeats input 1 under a small step budget, so where StepLimit fires
//    (and the partial stats at that point) is pinned too.
//
// A mismatch prints the line this build produces.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "Suite.h"
#include "driver/Compiler.h"
#include "ease/Interp.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "verify/RandomProgram.h"

#include <gtest/gtest.h>

#include <string>

using namespace coderep;
using namespace coderep::driver;
using namespace coderep::golden;

namespace {

/// Digests the fetch-address stream, word by word.
struct FetchDigest : ease::FetchSink {
  Fnv F;
  void fetch(uint32_t Addr) override { F.addWord(Addr); }
};

std::string statsText(const ease::DynamicStats &S) {
  return format("exec=%llu ujmp=%llu ijmp=%llu cond=%llu taken=%llu "
                "ret=%llu call=%llu nop=%llu",
                static_cast<unsigned long long>(S.Executed),
                static_cast<unsigned long long>(S.UncondJumps),
                static_cast<unsigned long long>(S.IndirectJumps),
                static_cast<unsigned long long>(S.CondBranches),
                static_cast<unsigned long long>(S.CondTaken),
                static_cast<unsigned long long>(S.Returns),
                static_cast<unsigned long long>(S.Calls),
                static_cast<unsigned long long>(S.Nops));
}

/// "<prog>/<target>/<level> trap=<k> exit=<n> <stats> out=<fnv> fetch=<fnv>".
std::string suiteLine(const bench::BenchProgram &BP, target::TargetKind TK,
                      opt::OptLevel Level) {
  std::string Key = BP.Name + "/" + targetName(TK) + "/" +
                    opt::optLevelName(Level);
  Compilation C = compile(BP.Source, TK, Level);
  if (!C.ok())
    return Key + " error=" + C.Error;
  FetchDigest Fetch;
  ease::RunOptions RO;
  RO.Input = BP.Input;
  RO.Sink = &Fetch;
  ease::RunResult R = ease::run(*C.Prog, RO);
  return format("%s trap=%d exit=%d %s out=%016llx fetch=%016llx",
                Key.c_str(), static_cast<int>(R.TrapKind), R.ExitCode,
                statsText(R.Stats).c_str(),
                static_cast<unsigned long long>(fnv1a64(R.Output)),
                static_cast<unsigned long long>(Fetch.F.H));
}

/// One oracle-style run of function \p Fn of \p P on input \p Input:
/// "<key> trap=<k> exit=<n> <stats> events=<n>:<fnv> globals=<n>:<fnv>
/// msg=<trap message>".
std::string probeLine(const std::string &Key, const cfg::Program &P, int Fn,
                      const std::vector<int> &Arity, uint64_t Seed, int Input,
                      uint64_t MaxSteps) {
  Rng G(Seed * 1000003u + static_cast<uint64_t>(Fn) * 7919u +
        static_cast<uint64_t>(Input));
  std::vector<uint8_t> Image(512);
  for (uint8_t &B : Image)
    B = static_cast<uint8_t>(G.next());
  ease::RunOptions RO;
  RO.MaxSteps = MaxSteps;
  RO.EntryFunction = Fn;
  for (int I = 0; I < 4; ++I)
    RO.EntryArgs.push_back(static_cast<int32_t>(G.range(-999, 999)));
  RO.StubCalls = true;
  RO.StubSeed = G.next();
  RO.StubArity = &Arity;
  RO.CaptureGlobals = true;
  if (Input != 0)
    RO.MemImage = &Image;
  ease::RunResult R = ease::run(P, RO);
  Fnv Events;
  for (const ease::RunResult::CallEvent &E : R.CallEvents) {
    Events.addWord(static_cast<uint32_t>(E.Callee));
    for (int32_t A : E.Args)
      Events.addWord(static_cast<uint32_t>(A));
    Events.addWord(static_cast<uint32_t>(E.Rv));
  }
  Fnv Globals;
  Globals.add(R.GlobalsMem.data(), R.GlobalsMem.size());
  return format("%s trap=%d exit=%d %s events=%zu:%016llx "
                "globals=%zu:%016llx msg=%s",
                Key.c_str(), static_cast<int>(R.TrapKind), R.ExitCode,
                statsText(R.Stats).c_str(), R.CallEvents.size(),
                static_cast<unsigned long long>(Events.H),
                R.GlobalsMem.size(),
                static_cast<unsigned long long>(Globals.H),
                R.TrapMessage.c_str());
}

constexpr int ProbeInputs = 4;

TEST(GoldenDynamic, SuiteMatchesCommittedStats) {
  const auto Golden = loadGolden(CODEREP_GOLDEN_DYNAMIC);
  ASSERT_FALSE(Golden.empty()) << "cannot read " << CODEREP_GOLDEN_DYNAMIC;
  const opt::OptLevel Levels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                  opt::OptLevel::Jumps};
  int Checked = 0;
  for (const bench::BenchProgram &BP : bench::suite())
    for (target::TargetKind TK : BothTargets)
      for (opt::OptLevel Level : Levels) {
        expectGolden(Golden, suiteLine(BP, TK, Level));
        ++Checked;
      }
  EXPECT_EQ(Checked, 84);
}

TEST(GoldenDynamic, OracleProbesMatchCommittedStats) {
  const auto Golden = loadGolden(CODEREP_GOLDEN_DYNAMIC);
  ASSERT_FALSE(Golden.empty()) << "cannot read " << CODEREP_GOLDEN_DYNAMIC;
  size_t Probes = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    const std::string Source = verify::randomProgram(Seed);
    for (target::TargetKind TK : BothTargets) {
      Compilation C = compile(Source, TK, opt::OptLevel::Jumps);
      ASSERT_TRUE(C.ok()) << C.Error;
      std::vector<int> Arity;
      for (const auto &F : C.Prog->Functions)
        Arity.push_back(F->ParamBytes / 4);
      for (int Fn = 0; Fn < static_cast<int>(C.Prog->Functions.size());
           ++Fn) {
        for (int In = 0; In < ProbeInputs; ++In) {
          const std::string Key =
              format("seed%llu/%s/JUMPS/%s/in%d",
                     static_cast<unsigned long long>(Seed), targetName(TK),
                     C.Prog->Functions[Fn]->Name.c_str(), In);
          expectGolden(Golden, probeLine(Key, *C.Prog, Fn, Arity, Seed, In,
                                         1u << 20));
          ++Probes;
        }
        const uint64_t Budget = 20 + (Seed * 7 + static_cast<uint64_t>(Fn) * 3) % 60;
        const std::string Key = format(
            "seed%llu/%s/JUMPS/%s/in1/steps%llu",
            static_cast<unsigned long long>(Seed), targetName(TK),
            C.Prog->Functions[Fn]->Name.c_str(),
            static_cast<unsigned long long>(Budget));
        expectGolden(Golden, probeLine(Key, *C.Prog, Fn, Arity, Seed, 1, Budget));
        ++Probes;
      }
    }
  }
  // One golden line per probe, plus the 84 suite configs: a stale extra
  // line would otherwise go unnoticed.
  EXPECT_EQ(Golden.size(), 84u + Probes);
}

} // namespace
