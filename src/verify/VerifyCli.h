//===- VerifyCli.h - Shared --verify flag handling --------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One place for the translation-validation flags every binary that
/// compiles MiniC can expose:
///
///   --verify=off|final|pass|round  oracle granularity (default off)
///   --verify-seed=N                root seed of the input battery
///   --verify-inputs=N              inputs executed per comparison (>= 1)
///
/// plus the *hidden* mutation-testing flag --mutate-constant-folding,
/// which makes the pipeline silently miscompile so the subsystem can
/// prove it catches real miscompiles (deliberately absent from usage()).
/// A malformed value exits 2 with a message naming the flag.
///
/// Usage mirrors obs::ObsCli: consume() each argv entry, apply() onto
/// the PipelineOptions before compiling, finish() after - it prints every
/// mismatch and returns false when verification failed.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_VERIFY_VERIFYCLI_H
#define CODEREP_VERIFY_VERIFYCLI_H

#include "support/Format.h"
#include "verify/Bisim.h"
#include "verify/Oracle.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace coderep::verify {

/// Owns the oracle + bisimulation validator for one binary.
class VerifyCli {
public:
  /// Returns true when \p Arg was one of the verification flags.
  bool consume(const std::string &Arg) {
    if (Arg.rfind("--verify=", 0) == 0) {
      if (!parseGranularity(Arg.substr(9), Opts.Gran))
        fail("--verify", Arg.c_str() + 9);
      return true;
    }
    if (Arg.rfind("--verify-seed=", 0) == 0) {
      Opts.Seed = parseDecimalFlag("--verify-seed", Arg.substr(14), 0,
                                   UINT64_MAX);
      return true;
    }
    if (Arg.rfind("--verify-inputs=", 0) == 0) {
      // Zero inputs would make every check vacuously clean (and mark cache
      // entries verified), so at least one is required.
      Opts.Inputs = static_cast<int>(
          parseDecimalFlag("--verify-inputs", Arg.substr(16), 1, INT_MAX));
      return true;
    }
    if (Arg == "--mutate-constant-folding") {
      Mutate = true;
      return true;
    }
    return false;
  }

  bool active() const { return Opts.Gran != Granularity::Off || Mutate; }

  /// Instantiates the oracle/validator and wires them into \p Options.
  /// \p Sink, when given, receives "verify <fn>" spans and the verify.*
  /// metrics at finish().
  void apply(opt::PipelineOptions &Options, obs::TraceSink *Sink = nullptr) {
    Options.MutateForTesting = Mutate;
    if (Opts.Gran == Granularity::Off)
      return;
    Opts.Sink = Sink;
    TheOracle = std::make_unique<Oracle>(Opts);
    TheBisim = std::make_unique<BisimValidator>();
    Options.Verifier = TheOracle.get();
    Options.Replication.Validator = TheBisim.get();
  }

  Oracle *oracle() { return TheOracle.get(); }
  BisimValidator *bisim() { return TheBisim.get(); }

  /// Prints every recorded mismatch and a one-line summary; returns false
  /// when any oracle or bisimulation check failed.
  bool finish(obs::TraceSink *Sink = nullptr) {
    if (!TheOracle)
      return true;
    if (Sink) {
      TheOracle->publishMetrics(Sink->metrics());
      TheBisim->publishMetrics(Sink->metrics());
    }
    for (const VerifyReport &R : TheOracle->reports())
      std::fprintf(stderr, "%s\n", formatReport(R).c_str());
    for (const std::string &F : TheBisim->failures())
      std::fprintf(stderr, "%s\n", F.c_str());
    const OracleCounters C = TheOracle->counters();
    std::fprintf(stderr,
                 "verify: %lld checks, %lld inputs, %lld mismatches, "
                 "%lld inconclusive, %lld bisim checks (%s)\n",
                 static_cast<long long>(C.Checks),
                 static_cast<long long>(C.InputsRun),
                 static_cast<long long>(C.Mismatches),
                 static_cast<long long>(C.Inconclusive),
                 static_cast<long long>(TheBisim->checks()),
                 granularityName(Opts.Gran));
    return TheOracle->ok() && TheBisim->ok();
  }

  const OracleOptions &options() const { return Opts; }

  /// One usage line for --help texts (the mutation flag stays hidden).
  static const char *usage() {
    return "[--verify=off|final|pass|round] [--verify-seed=N] "
           "[--verify-inputs=N]";
  }

private:
  [[noreturn]] static void fail(const char *Flag, const char *Value) {
    std::fprintf(stderr, "bad %s value: %s\n", Flag, Value);
    std::exit(2);
  }

  OracleOptions Opts = [] {
    OracleOptions O;
    O.Gran = Granularity::Off; // opt-in: no flag, no verification
    return O;
  }();
  bool Mutate = false;
  std::unique_ptr<Oracle> TheOracle;
  std::unique_ptr<BisimValidator> TheBisim;
};

} // namespace coderep::verify

#endif // CODEREP_VERIFY_VERIFYCLI_H
