//===- fuzz_compile.cpp - Differential fuzzing driver for the pipeline -----===//
//
// Hammers the compiler with generated programs (and, with --suite, the
// paper's 84 benchmark configurations) and checks three things per compile:
//
//  1. a whole-program differential: the reference translation (front end +
//     target legalization, no optimizer) and the fully optimized program
//     must agree on exit code, output, and trap kind under ease::Interp;
//  2. the per-pass execution oracle, when a --verify granularity is given;
//  3. the CFG bisimulation validator over every applied replication rewrite.
//
// On a mismatch the offending source is delta-debugged down to a small
// repro (--reduce) and written to --repro-dir. The hidden flag
// --mutate-constant-folding plants a deliberate miscompile; together with
// --expect-mismatch (exit 0 only when a mismatch was found AND reduced to
// a small repro) it is the subsystem's mutation-testing self-check.
//
// Usage:
//   fuzz_compile --seeds=N|LO:HI [--suite] [--jobs=N]
//                [--target=m68|sparc|both] [--level=simple|loops|jumps|all]
//                [--reduce] [--repro-dir=DIR] [--expect-mismatch]
//                [--verify=off|final|pass|round] [--verify-seed=N]
//                [--verify-inputs=N]
//
// Examples:
//   ./build/examples/fuzz_compile --seeds=500 --verify=final
//   ./build/examples/fuzz_compile --suite --verify=pass
//   ./build/examples/fuzz_compile --seeds=25 --mutate-constant-folding
//       --expect-mismatch --repro-dir=repro   (one line: the self-check)
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "frontend/CodeGen.h"
#include "obs/ObsCli.h"
#include "support/Format.h"
#include "verify/Bisim.h"
#include "verify/Oracle.h"
#include "verify/RandomProgram.h"
#include "verify/Reduce.h"
#include "verify/VerifyCli.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace coderep;

namespace {

/// Step budget for the whole-program differential. Step-limited runs are
/// inconclusive (never flag a slow compile as a miscompile).
constexpr uint64_t DifferentialMaxSteps = 1u << 26;

/// One compile+compare unit of work.
struct FuzzJob {
  std::string Name; ///< "seed-42/m68/jumps" or "wc/sparc/loops"
  std::string Source;
  std::string Input; ///< bytes served by getchar()
  target::TargetKind TK = target::TargetKind::M68;
  opt::OptLevel Level = opt::OptLevel::Jumps;
};

struct FuzzOutcome {
  bool Failed = false;
  std::string Report; ///< rendered failure lines, one per '\n'
  verify::OracleCounters Oracle;
  int64_t BisimChecks = 0;
};

struct FuzzConfig {
  std::vector<target::TargetKind> Targets = {target::TargetKind::M68,
                                             target::TargetKind::Sparc};
  std::vector<opt::OptLevel> Levels = {opt::OptLevel::Jumps};
  verify::OracleOptions Oracle; ///< Gran==Off disables the oracle
  obs::TraceConfig Trace;       ///< shared sink; the obs layer is thread-safe
  bool Mutate = false;
  bool Reduce = false;
  bool ExpectMismatch = false;
  std::string ReproDir;
  unsigned Jobs = 0; ///< 0 = hardware concurrency
};

const char *targetName(target::TargetKind TK) {
  return TK == target::TargetKind::M68 ? "m68" : "sparc";
}

/// Front end + legalization only: the reference translation.
bool referenceTranslate(const std::string &Src, target::TargetKind TK,
                        cfg::Program &Out, std::string &Err) {
  if (!frontend::compileToRtl(Src, Out, Err))
    return false;
  std::unique_ptr<target::Target> T = target::createTarget(TK);
  for (auto &F : Out.Functions) {
    T->legalizeFunction(*F);
    F->verify();
  }
  return true;
}

ease::RunResult execute(const cfg::Program &P, const std::string &Input) {
  ease::RunOptions RO;
  RO.Input = Input;
  RO.MaxSteps = DifferentialMaxSteps;
  return ease::run(P, RO);
}

/// Compiles one job both ways and compares every checker's verdict.
FuzzOutcome checkJob(const FuzzConfig &C, const FuzzJob &J) {
  FuzzOutcome Out;
  auto fail = [&](const std::string &Line) {
    Out.Failed = true;
    Out.Report += J.Name + ": " + Line + "\n";
  };

  cfg::Program Ref;
  std::string Err;
  if (!referenceTranslate(J.Source, J.TK, Ref, Err)) {
    fail("reference translation failed: " + Err);
    return Out;
  }

  opt::PipelineOptions PO;
  PO.Trace = C.Trace;
  PO.MutateForTesting = C.Mutate;
  std::unique_ptr<verify::Oracle> O;
  if (C.Oracle.Gran != verify::Granularity::Off) {
    O = std::make_unique<verify::Oracle>(C.Oracle);
    PO.Verifier = O.get();
  }
  verify::BisimValidator BV;
  PO.Replication.Validator = &BV;

  driver::Compilation Compiled = driver::compile(J.Source, J.TK, J.Level, &PO);
  if (!Compiled.ok()) {
    fail("compile error: " + Compiled.Error);
    return Out;
  }

  if (O) {
    Out.Oracle = O->counters();
    if (!O->ok())
      for (const verify::VerifyReport &R : O->reports())
        fail(formatReport(R));
  }
  Out.BisimChecks = BV.checks();
  if (!BV.ok())
    for (const std::string &F : BV.failures())
      fail(F);

  const ease::RunResult A = execute(Ref, J.Input);
  const ease::RunResult B = execute(*Compiled.Prog, J.Input);
  // Double-clean rule at whole-program scope: a step-limited side is
  // inconclusive, everything else must match exactly.
  if (A.TrapKind != ease::Trap::StepLimit &&
      B.TrapKind != ease::Trap::StepLimit &&
      (A.TrapKind != B.TrapKind || A.ExitCode != B.ExitCode ||
       A.Output != B.Output))
    fail("differential mismatch: exit " + std::to_string(A.ExitCode) +
         " vs " + std::to_string(B.ExitCode) + ", output " +
         std::to_string(A.Output.size()) + " vs " +
         std::to_string(B.Output.size()) + " bytes" +
         (A.ok() && B.ok() ? "" : " (trap on one side)"));
  return Out;
}

/// Reduces a failing job and (when --repro-dir is given) writes the
/// artifacts. Returns the reduced block count, or -1 when the reduction
/// did not reproduce the mismatch (e.g. an input-dependent suite failure;
/// the reducer runs programs without input).
int reduceAndDump(const FuzzConfig &C, const FuzzJob &J,
                  const std::string &Report) {
  verify::ReduceOptions RO;
  RO.TK = J.TK;
  RO.Level = J.Level;
  RO.Pipeline.MutateForTesting = C.Mutate;
  verify::ReduceResult R = verify::reduce(J.Source, RO);

  std::fprintf(stderr,
               "%s: %s, repro %d lines / %d blocks\n", J.Name.c_str(),
               R.Mismatch ? "reduced" : "reduction did not reproduce",
               R.SourceLines, R.Blocks);
  if (!C.ReproDir.empty()) {
    std::filesystem::create_directories(C.ReproDir);
    std::string Stem = J.Name;
    for (char &Ch : Stem)
      if (Ch == '/')
        Ch = '-';
    const std::string Base = C.ReproDir + "/" + Stem;
    std::ofstream(Base + ".mc") << (R.Mismatch ? R.Source : J.Source);
    std::ofstream(Base + ".rtl") << R.RtlDump;
    std::ofstream(Base + ".report.txt")
        << Report << "reduced: " << (R.Mismatch ? "yes" : "no")
        << "\nsource lines: " << R.SourceLines
        << "\nblocks: " << R.Blocks << "\n";
  }
  return R.Mismatch ? R.Blocks : -1;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzConfig C;
  uint64_t SeedLo = 1, SeedHi = 0;
  bool Suite = false;
  obs::ObsCli Obs("fuzz_compile");
  verify::VerifyCli Verify;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--seeds=", 0) == 0) {
      const std::string Spec = Arg.substr(8);
      const size_t Colon = Spec.find(':');
      if (Colon == std::string::npos) {
        SeedLo = 1;
        SeedHi = parseDecimalFlag("--seeds", Spec, 0, UINT64_MAX);
      } else {
        SeedLo = parseDecimalFlag("--seeds", Spec.substr(0, Colon), 0,
                                  UINT64_MAX);
        SeedHi = parseDecimalFlag("--seeds", Spec.substr(Colon + 1), 0,
                                  UINT64_MAX);
      }
    } else if (Arg == "--suite")
      Suite = true;
    else if (Arg.rfind("--jobs=", 0) == 0)
      C.Jobs = static_cast<unsigned>(
          parseDecimalFlag("--jobs", Arg.substr(7), 0, INT_MAX));
    else if (Arg == "--target=m68")
      C.Targets = {target::TargetKind::M68};
    else if (Arg == "--target=sparc")
      C.Targets = {target::TargetKind::Sparc};
    else if (Arg == "--target=both")
      C.Targets = {target::TargetKind::M68, target::TargetKind::Sparc};
    else if (Arg == "--level=simple")
      C.Levels = {opt::OptLevel::Simple};
    else if (Arg == "--level=loops")
      C.Levels = {opt::OptLevel::Loops};
    else if (Arg == "--level=jumps")
      C.Levels = {opt::OptLevel::Jumps};
    else if (Arg == "--level=all")
      C.Levels = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                  opt::OptLevel::Jumps};
    else if (Arg == "--reduce")
      C.Reduce = true;
    else if (Arg == "--expect-mismatch")
      C.ExpectMismatch = C.Reduce = true;
    else if (Arg.rfind("--repro-dir=", 0) == 0)
      C.ReproDir = Arg.substr(12);
    else if (Arg == "--mutate-constant-folding")
      C.Mutate = true; // must precede Verify.consume, which also takes it
    else if (Obs.consume(Arg) || Verify.consume(Arg))
      ; // handled
    else {
      std::fprintf(stderr,
                   "usage: fuzz_compile --seeds=N|LO:HI [--suite] [--jobs=N] "
                   "[--target=m68|sparc|both] "
                   "[--level=simple|loops|jumps|all] [--reduce] "
                   "[--repro-dir=DIR] [--expect-mismatch] %s %s\n",
                   verify::VerifyCli::usage(), obs::ObsCli::usage());
      return 2;
    }
  }
  if (!Suite && SeedHi < SeedLo) {
    std::fprintf(stderr, "fuzz_compile: nothing to do "
                         "(pass --seeds=N and/or --suite)\n");
    return 2;
  }
  C.Oracle = Verify.options();
  C.Trace = Obs.config();
  C.Oracle.Sink = C.Trace.Sink;

  // The work list: every seed and/or every benchmark configuration. The
  // suite sweep always covers all 14 programs x 2 targets x 3 levels.
  std::vector<FuzzJob> Jobs;
  if (SeedHi >= SeedLo)
    for (uint64_t Seed = SeedLo; Seed <= SeedHi; ++Seed)
      for (target::TargetKind TK : C.Targets)
        for (opt::OptLevel Level : C.Levels) {
          FuzzJob J;
          J.Name = "seed-" + std::to_string(Seed) + "/" + targetName(TK) +
                   "/" + opt::optLevelName(Level);
          J.Source = verify::randomProgram(Seed);
          J.TK = TK;
          J.Level = Level;
          Jobs.push_back(std::move(J));
        }
  if (Suite)
    for (const bench::BenchProgram &BP : bench::suite())
      for (target::TargetKind TK :
           {target::TargetKind::M68, target::TargetKind::Sparc})
        for (opt::OptLevel Level :
             {opt::OptLevel::Simple, opt::OptLevel::Loops,
              opt::OptLevel::Jumps}) {
          FuzzJob J;
          J.Name = BP.Name + "/" + std::string(targetName(TK)) + "/" +
                   opt::optLevelName(Level);
          J.Source = BP.Source;
          J.Input = BP.Input;
          J.TK = TK;
          J.Level = Level;
          Jobs.push_back(std::move(J));
        }

  // Fan out over a worker pool; results land in job order.
  std::vector<FuzzOutcome> Outcomes(Jobs.size());
  std::atomic<size_t> Next{0};
  unsigned Workers = C.Jobs ? C.Jobs : std::thread::hardware_concurrency();
  if (Workers == 0)
    Workers = 1;
  Workers = std::min<unsigned>(Workers, Jobs.size());
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Workers; ++W)
    Pool.emplace_back([&] {
      for (size_t I = Next.fetch_add(1); I < Jobs.size();
           I = Next.fetch_add(1))
        Outcomes[I] = checkJob(C, Jobs[I]);
    });
  for (std::thread &T : Pool)
    T.join();

  verify::OracleCounters Total;
  int64_t BisimChecks = 0;
  size_t Failures = 0;
  int BestRepro = -1; ///< smallest reduced block count across failures
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const FuzzOutcome &O = Outcomes[I];
    Total.Checks += O.Oracle.Checks;
    Total.InputsRun += O.Oracle.InputsRun;
    Total.Mismatches += O.Oracle.Mismatches;
    Total.Inconclusive += O.Oracle.Inconclusive;
    BisimChecks += O.BisimChecks;
    if (!O.Failed)
      continue;
    ++Failures;
    std::fprintf(stderr, "%s", O.Report.c_str());
    if (C.Reduce) {
      const int Blocks = reduceAndDump(C, Jobs[I], O.Report);
      if (Blocks >= 0 && (BestRepro < 0 || Blocks < BestRepro))
        BestRepro = Blocks;
    }
  }

  std::printf("fuzz_compile: %zu configs, %lld oracle checks, %lld inputs, "
              "%lld inconclusive, %lld bisim checks, %zu failures\n",
              Jobs.size(), static_cast<long long>(Total.Checks),
              static_cast<long long>(Total.InputsRun),
              static_cast<long long>(Total.Inconclusive),
              static_cast<long long>(BisimChecks), Failures);

  if (!Obs.finish())
    return 1;
  if (C.ExpectMismatch) {
    // The mutation self-check: the planted miscompile must be caught AND
    // shrink to a small repro, or the whole verification story is broken.
    const bool Caught = Failures > 0 && BestRepro >= 0 && BestRepro <= 10;
    std::printf("fuzz_compile: expected mismatch %s (best repro: %d "
                "blocks)\n",
                Caught ? "caught and reduced" : "NOT demonstrated",
                BestRepro);
    return Caught ? 0 : 1;
  }
  return Failures == 0 ? 0 : 1;
}
