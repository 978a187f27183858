//===- main.cpp - perfbench command line -----------------------------------===//
//
// Runs one workload and prints its metrics as the last stdout line:
//
//   perfbench --workload=suite|deep-nest|serve|verify --seed=N
//             --seconds=S --trace=0|1 --codrepd=PATH
//             [--work-dir=DIR] [--expected-dir=DIR]
//   perfbench --self-test --codrepd=PATH
//
// --self-test injects a wrong expected output, corrupted daemon responses
// and a daemon that cannot boot, and exits 0 only if each is reported as
// failed ops (and a clean control run is not).
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

bool expect(bool Cond, const char *What) {
  std::fprintf(stderr, "self-test: %s: %s\n", Cond ? "ok" : "FAILED", What);
  return Cond;
}

int selfTest(Config Base) {
  Base.Seconds = 0.2;
  bool Ok = true;

  Ok &= expect(RefKernel::runMs() > 0, "reference kernel checksum");
  Ok &= expect(RefKernel::hopsMs(2) > 0, "hop reference checksum");

  std::vector<double> Ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Ok &= expect(std::abs(quantile(Ten, 0.5) - 5.5) < 1e-9 &&
                   std::abs(quantile(Ten, 0.9) - 9.43512) < 1e-4,
               "Harrell-Davis quantiles");
  // A fixed-width kernel reads the distribution, not the sample count:
  // repeating every sample leaves its estimate unchanged.
  std::vector<double> Sevenfold;
  for (double X : Ten)
    Sevenfold.insert(Sevenfold.end(), 7, X);
  Ok &= expect(std::abs(quantile(Sevenfold, 0.9, 20) -
                        quantile(Ten, 0.9, 20)) < 1e-9 &&
                   std::abs(quantile(Ten, 0.9, 10) - quantile(Ten, 0.9)) <
                       1e-12,
               "fixed-width quantile kernel");

  SpanLog Log;
  int Root = Log.open("op", -1, 0);
  Log.close(Log.open("child", Root, 0));
  Log.close(Root);
  std::vector<double> Self = Log.selfMs();
  double Total =
      (Log.spans()[0].End - Log.spans()[0].Start) * 1000.0;
  Ok &= expect(Self[0] >= 0 && std::abs(Self[0] + Self[1] - Total) < 1e-9,
               "span self times add up to the root span");

  Config Clean = Base;
  Clean.Workload = "suite";
  Result R = runWorkload(Clean);
  Ok &= expect(R.Correct && R.Failed == 0 && R.Attempted > 0,
               "clean suite run passes");

  Config Wrong = Base;
  Wrong.Workload = "suite";
  Wrong.WrongExpected = "queens";
  R = runWorkload(Wrong);
  Ok &= expect(!R.Correct && R.Failed == 2 * SetupReps,
               "wrong expected output of queens fails its two ops in "
               "every set-up");

  Config WrongNest = Base;
  WrongNest.Workload = "deep-nest";
  WrongNest.WrongExpected = "nest";
  R = runWorkload(WrongNest);
  Ok &= expect(!R.Correct && R.Failed == 12 * SetupReps,
               "wrong generator outputs fail every deep-nest check");

  Config Corrupt = Base;
  Corrupt.Workload = "serve";
  Corrupt.CorruptResponseEvery = 5;
  R = runWorkload(Corrupt);
  Ok &= expect(!R.Correct && R.Failed > 0 && R.Failed * 5 <= R.Attempted,
               "corrupted daemon responses are failed ops");

  Config NoDaemon = Base;
  NoDaemon.Workload = "serve";
  NoDaemon.Codrepd = Base.WorkDir + "/no-such-codrepd";
  R = runWorkload(NoDaemon);
  Ok &= expect(!R.Correct && R.Failed == R.Attempted && R.Attempted > 0,
               "a daemon that cannot boot fails every op");

  std::fprintf(stderr, "self-test: %s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}

bool value(const std::string &Arg, const char *Flag, std::string &Out) {
  std::string Prefix = std::string(Flag) + "=";
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = Arg.substr(Prefix.size());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  C.ExpectedDir = PERFBENCH_EXPECTED_DIR;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], V;
    if (value(Arg, "--workload", V))
      C.Workload = V;
    else if (value(Arg, "--seed", V))
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (value(Arg, "--seconds", V))
      C.Seconds = std::strtod(V.c_str(), nullptr);
    else if (value(Arg, "--trace", V))
      C.Trace = V == "1";
    else if (value(Arg, "--codrepd", V))
      C.Codrepd = V;
    else if (value(Arg, "--work-dir", V))
      C.WorkDir = V;
    else if (value(Arg, "--expected-dir", V))
      C.ExpectedDir = V;
    else if (Arg == "--self-test")
      SelfTest = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", Arg.c_str());
      return 2;
    }
  }
  if (SelfTest)
    return selfTest(C);
  if (!knownWorkload(C.Workload) || C.Seconds <= 0) {
    std::fprintf(stderr, "perfbench: need --workload=suite|deep-nest|serve|"
                         "verify and --seconds > 0\n");
    return 2;
  }
  Result R = runWorkload(C);
  std::printf("%s\n", R.json().c_str());
  return R.Correct ? 0 : 1;
}
