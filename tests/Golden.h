//===- Golden.h - Shared helpers of the golden-file tests -------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden files hold one line per run, keyed by the text before the
/// first space; '#' lines are comments. A mismatch prints the line this
/// build produces, so an intended change edits the file by hand.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_TESTS_GOLDEN_H
#define CODEREP_TESTS_GOLDEN_H

#include "target/Target.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>

namespace coderep::golden {

inline const target::TargetKind BothTargets[] = {target::TargetKind::M68,
                                                 target::TargetKind::Sparc};

inline const char *targetName(target::TargetKind TK) {
  return TK == target::TargetKind::M68 ? "M68" : "SPARC";
}

/// 64-bit FNV-1a, fed incrementally.
struct Fnv {
  uint64_t H = 14695981039346656037ull;
  void add(const void *Data, size_t Size) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Size; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  }
  void addWord(uint32_t W) { add(&W, sizeof W); }
};

inline uint64_t fnv1a64(const std::string &S) {
  Fnv F;
  F.add(S.data(), S.size());
  return F.H;
}

/// The lines of golden file \p Path keyed by their first word.
inline std::map<std::string, std::string> loadGolden(const char *Path) {
  std::map<std::string, std::string> Lines;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Lines[Line.substr(0, Line.find(' '))] = Line;
  return Lines;
}

/// Compares \p Actual with the golden line of the same key.
inline void expectGolden(const std::map<std::string, std::string> &Golden,
                         const std::string &Actual) {
  std::string Key = Actual.substr(0, Actual.find(' '));
  auto It = Golden.find(Key);
  if (It == Golden.end()) {
    ADD_FAILURE() << "no golden line for " << Key << "; actual:\n" << Actual;
    return;
  }
  EXPECT_EQ(It->second, Actual) << "actual:\n" << Actual;
}

} // namespace coderep::golden

#endif // CODEREP_TESTS_GOLDEN_H
