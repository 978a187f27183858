//===- DeepNest.h - Seeded deep if/else nests with known outputs -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deep-nest workload's inputs: MiniC programs with one function
/// holding an if/else chain nested Depth levels deep, called once per
/// input byte from main's read loop. JUMPS replication cost grows
/// super-linearly with that depth, so these programs isolate replication
/// bookkeeping. The generator also picks each
/// program's input and computes the output the program must print, so the
/// check does not depend on the compiler under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DEEPNEST_H
#define PERFBENCH_DEEPNEST_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct NestProgram {
  std::string Name;
  std::string Source;
  std::string Input;    ///< bytes served by getchar()
  std::string Expected; ///< what the program prints on Input
  int Depth = 0;
};

/// One program of nesting depth \p Depth, its shape drawn from \p Seed.
NestProgram makeNest(uint64_t Seed, int Depth);

/// The deep-nest program set for \p Seed: one program per depth stratum,
/// so the set's total depth (and with it compile time and the count
/// metrics) barely moves from seed to seed.
std::vector<NestProgram> deepNestSet(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_DEEPNEST_H
