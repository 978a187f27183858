//===- Workloads.h - The perfbench workloads ---------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload from a seed and reports its metrics. All four
/// workloads are closed loops over a seeded op list that is fixed for the
/// run; every run executes whole passes over it, so every run measures
/// the same mix of ops:
///
///   suite      the 14 Table-3 programs x {M68, SPARC} at JUMPS; one op is
///              driver::compile + cfg::toString, no cache, one client.
///   deep-nest  six generated programs with 100..161-deep if/else nests
///              x {M68, SPARC}; isolates JUMPS replication bookkeeping.
///   serve      the suite requests against a real codrepd (--jobs=2, fresh
///              in-memory function cache) from two client threads, plus one
///              request in eight that edits one function of a suite
///              program, so it misses for exactly that function.
///   verify     the suite ops with the final-state verify::Oracle attached;
///              the interpreter does most of the work.
///
/// Every timing is normalized to a nominal machine speed by the reference
/// kernel (Measure.h). The untraced run reports the end-to-end metrics;
/// the traced run alternates untraced and traced passes and reports the
/// per-layer split of the traced ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <string>

namespace perfbench {

/// Set-ups per run; setup_s is the median of their normalized times.
/// Every set-up checks every output, so a wrong output fails once per
/// set-up.
constexpr int SetupReps = 3;

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".perfbench_work"; ///< sockets, caches, span logs
  std::string Codrepd;                     ///< the daemon binary (serve)
  std::string ExpectedDir;                 ///< committed program outputs

  /// Fault injection for the benchmark's own self-test: corrupt the
  /// expected output of every program whose name starts with this prefix,
  /// and flip one byte of every Nth serve response before it is checked.
  std::string WrongExpected;
  int CorruptResponseEvery = 0;
};

/// True for the four workload names above.
bool knownWorkload(const std::string &Name);

/// Runs \p C.Workload and returns its result. Never throws; failures are
/// reported through Result::Correct/Failed.
Result runWorkload(const Config &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
