//===- NestProgram.h - Deep if/else nests with known outputs ----*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A MiniC program whose one function nests Depth if/else levels, called
/// once per input byte from a read loop, plus an input and the output the
/// program must print on it (computed here, not by the compiler under
/// test). Replication turns every else-arm's jump into a copy of the
/// join's tail, so the shape stresses JUMPS bookkeeping, dominance queries
/// and the long single-predecessor chains local CSE walks.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_TESTS_NESTPROGRAM_H
#define CODEREP_TESTS_NESTPROGRAM_H

#include "support/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace coderep::nest {

struct NestProgram {
  std::string Source;
  std::string Input;    ///< bytes served by getchar()
  std::string Expected; ///< what the program prints on Input
};

/// Level k of the nest tests `c != V[k]`; a handful of levels get small
/// values the input contains (the nest is left there), the rest get
/// values no input byte has.
inline NestProgram makeNestProgram(int Depth, uint64_t Seed = 1) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(Depth));
  const int Exits = 8;
  std::vector<int> V(Depth), A(Depth), B(Depth);
  for (int K = 0; K < Depth; ++K) {
    V[K] = 128 + K;
    A[K] = static_cast<int>(R.range(1, 999));
    B[K] = static_cast<int>(R.range(1, 999));
  }
  NestProgram P;
  for (int J = 0; J < Exits; ++J) {
    int Level = static_cast<int>((J * 2 + 1) * static_cast<int64_t>(Depth) /
                                 (2 * Exits));
    V[Level] = J + 1;
    P.Input.push_back(static_cast<char>(J + 1));
  }
  P.Input.push_back('\0'); // fails no test: runs the whole nest
  const int S0 = static_cast<int>(R.range(0, 9999));

  std::string &S = P.Source;
  S = "int step(int c, int s) {\n";
  for (int K = 0; K < Depth; ++K)
    S += "if (c != " + std::to_string(V[K]) + ") {\ns = s + " +
         std::to_string(A[K]) + ";\n";
  for (int K = Depth - 1; K >= 0; --K)
    S += "} else {\ns = s - " + std::to_string(B[K]) + ";\n}\n";
  S += "return s;\n}\n"
       "int main() {\n"
       "  int c;\n"
       "  int s;\n"
       "  s = " + std::to_string(S0) + ";\n"
       "  while (1) {\n"
       "    c = getchar();\n"
       "    if (c < 0) {\n"
       "      printf(\"%d\\n\", s);\n"
       "      exit(0);\n"
       "    }\n"
       "    s = step(c, s);\n"
       "  }\n"
       "  return 0;\n"
       "}\n";

  int64_t Sum = S0;
  for (unsigned char C : P.Input)
    for (int K = 0; K < Depth; ++K) {
      if (C != V[K]) {
        Sum += A[K];
      } else {
        Sum -= B[K];
        break;
      }
    }
  P.Expected = std::to_string(Sum) + "\n";
  return P;
}

} // namespace coderep::nest

#endif // CODEREP_TESTS_NESTPROGRAM_H
