//===- DeepNest.cpp - Seeded deep if/else nests with known outputs ---------===//

#include "DeepNest.h"

#include "support/Rng.h"

#include <algorithm>
#include <numeric>

using namespace perfbench;

namespace {

/// Read-loop iterations per program (one input byte each); one of them
/// runs the whole nest, the others leave it at evenly spread depths.
constexpr int Iterations = 16;

} // namespace

NestProgram perfbench::makeNest(uint64_t Seed, int Depth) {
  coderep::Rng R(Seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(Depth));

  // Level k tests c != V[k]. Exit levels get distinct small V values the
  // input can contain; the others get values above any input byte, so the
  // compiler cannot tell which tests ever fail.
  std::vector<int> ExitLevel(Iterations - 1);
  for (int J = 0; J < Iterations - 1; ++J)
    ExitLevel[static_cast<size_t>(J)] =
        static_cast<int>((J + 0.5) * Depth / (Iterations - 1));
  std::vector<int> Small(127);
  std::iota(Small.begin(), Small.end(), 1);
  for (size_t I = Small.size() - 1; I > 0; --I)
    std::swap(Small[I], Small[R.below(I + 1)]);
  std::vector<int> V(static_cast<size_t>(Depth)), A(V.size()), B(V.size());
  for (int K = 0; K < Depth; ++K) {
    V[static_cast<size_t>(K)] = 128 + K;
    A[static_cast<size_t>(K)] = static_cast<int>(R.range(1, 999));
    B[static_cast<size_t>(K)] = static_cast<int>(R.range(1, 999));
  }
  for (size_t J = 0; J < ExitLevel.size(); ++J)
    V[static_cast<size_t>(ExitLevel[J])] = Small[J];
  int S0 = static_cast<int>(R.range(0, 9999));

  NestProgram P;
  P.Depth = Depth;
  P.Name = "nest" + std::to_string(Depth);
  // The nest lives in its own function; main is an infinite read loop
  // that ends through exit(), the paper's case of an unconditional jump
  // replication cannot remove, so code_jumps stays above zero.
  std::string &S = P.Source;
  S = "/* deep-nest: a " + std::to_string(Depth) +
      "-deep if/else nest called from a read loop */\n"
      "int step(int c, int s) {\n";
  for (int K = 0; K < Depth; ++K)
    S += "if (c != " + std::to_string(V[static_cast<size_t>(K)]) +
         ") {\ns = s + " + std::to_string(A[static_cast<size_t>(K)]) + ";\n";
  for (int K = Depth - 1; K >= 0; --K)
    S += "} else {\ns = s - " + std::to_string(B[static_cast<size_t>(K)]) +
         ";\n}\n";
  S += "return s;\n"
       "}\n"
       "\n"
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

  // Input: one byte per exit level plus a 0 byte, which fails no test and
  // runs the whole nest; shuffled.
  for (int L : ExitLevel)
    P.Input.push_back(static_cast<char>(V[static_cast<size_t>(L)]));
  P.Input.push_back('\0');
  for (size_t I = P.Input.size() - 1; I > 0; --I)
    std::swap(P.Input[I], P.Input[R.below(I + 1)]);

  int64_t Sum = S0;
  for (unsigned char C : P.Input) {
    for (int K = 0; K < Depth; ++K) {
      if (C != V[static_cast<size_t>(K)]) {
        Sum += A[static_cast<size_t>(K)];
      } else {
        Sum -= B[static_cast<size_t>(K)];
        break;
      }
    }
  }
  P.Expected = std::to_string(Sum) + "\n";
  return P;
}

std::vector<NestProgram> perfbench::deepNestSet(uint64_t Seed) {
  // Depth strata chosen so one JUMPS compile takes ~20-80 ms on a
  // 2020s x86 core; a seeded jitter of one level varies the shapes while
  // keeping compile time steady across seeds.
  static const int Strata[] = {100, 112, 124, 136, 148, 160};
  coderep::Rng R(Seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<NestProgram> Set;
  for (int Base : Strata)
    Set.push_back(makeNest(Seed, Base + static_cast<int>(R.below(2))));
  return Set;
}
