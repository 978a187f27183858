//===- DominanceTest.cpp - Interval dominance vs an idom-chain walk --------===//
//
// cfg::Dominators answers dominates() with an interval test on the pre/post
// numbering of its tree, and isReducible has an overload that reuses the
// caller's FlatCfg and Dominators (JUMPS step 6 passes the cached ones).
// These differentials hold both to what they replaced, a walk up the
// immediate-dominator chain and the self-contained isReducible(F), on
// every block pair of every function of the Table-3 suite (after
// legalization and after each level's pipeline, both targets), of random
// programs 1-50, of a deep nest, and of a hand-built graph with
// unreachable blocks and a looping entry (CfgTest covers the irreducible
// triangle). Small functions are also checked against dominance by its
// definition.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "NestProgram.h"
#include "Suite.h"
#include "cfg/CfgAnalysis.h"
#include "cfg/FlatCfg.h"
#include "driver/Compiler.h"
#include "frontend/CodeGen.h"
#include "verify/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::rtl;

namespace {

const opt::OptLevel AllLevels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                   opt::OptLevel::Jumps};

/// The reference: A lies on B's immediate-dominator chain. Blocks without
/// an idom other than the entry are unreachable and take part in nothing.
bool chainDominates(const Dominators &Dom, int A, int B) {
  auto reachable = [&](int X) { return X == 0 || Dom.idom(X) >= 0; };
  if (!reachable(A) || !reachable(B))
    return false;
  for (int X = B; X >= 0; X = Dom.idom(X))
    if (X == A)
      return true;
  return false;
}

/// Blocks reachable from the entry without passing block \p Avoid (-1:
/// avoid nothing).
std::vector<bool> reachableAvoiding(const FlatCfg &Flat, int Avoid) {
  std::vector<bool> Seen(Flat.size(), false);
  if (Avoid == 0)
    return Seen;
  std::vector<int> Work = {0};
  Seen[0] = true;
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    for (int S : Flat.succs(B))
      if (S != Avoid && !Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

/// Functions up to this size are also checked against the definition.
constexpr int DefinitionCheckLimit = 256;

void expectAgrees(const Function &F, const std::string &What) {
  SCOPED_TRACE(What + " fn " + F.Name);
  FlatCfg Flat(F);
  Dominators Dom(F, Flat);
  const int N = F.size();
  int Mismatches = 0;
  for (int A = 0; A < N; ++A)
    for (int B = 0; B < N; ++B)
      if (Dom.dominates(A, B) != chainDominates(Dom, A, B) &&
          ++Mismatches <= 5)
        ADD_FAILURE() << "dominates(" << A << ", " << B << ") = "
                      << Dom.dominates(A, B) << ", idom chain says "
                      << chainDominates(Dom, A, B);
  EXPECT_EQ(Mismatches, 0);

  if (N <= DefinitionCheckLimit) {
    // A dominates B iff B is reachable and removing A cuts it off.
    std::vector<bool> Reachable = reachableAvoiding(Flat, -1);
    for (int A = 0; A < N; ++A) {
      std::vector<bool> Without = reachableAvoiding(Flat, A);
      for (int B = 0; B < N; ++B) {
        bool Def = Reachable[B] && Reachable[A] && (A == B || !Without[B]);
        if (Dom.dominates(A, B) != Def && ++Mismatches <= 5)
          ADD_FAILURE() << "dominates(" << A << ", " << B
                        << ") disagrees with the definition";
      }
    }
  }

  EXPECT_EQ(isReducible(F, Flat, Dom), isReducible(F));
}

void expectAgrees(const Program &P, const std::string &What) {
  for (const auto &F : P.Functions)
    expectAgrees(*F, What);
}

/// Checks \p Source after legalization and after the pipeline at each of
/// \p Levels, on both targets.
void expectAgreesOnSource(const std::string &Source, const std::string &What,
                          const std::vector<opt::OptLevel> &Levels) {
  for (target::TargetKind TK : golden::BothTargets) {
    std::string Where = What + " " + golden::targetName(TK);
    Program Legal;
    std::string Error;
    ASSERT_TRUE(frontend::compileToRtl(Source, Legal, Error)) << Error;
    std::unique_ptr<target::Target> T = target::createTarget(TK);
    for (auto &F : Legal.Functions)
      T->legalizeFunction(*F);
    expectAgrees(Legal, Where + " legalized");
    for (opt::OptLevel Level : Levels) {
      driver::Compilation C = driver::compile(Source, TK, Level);
      ASSERT_TRUE(C.ok()) << Where << ": " << C.Error;
      expectAgrees(*C.Prog, Where + " " + opt::optLevelName(Level));
    }
  }
}

TEST(Dominance, IntervalMatchesIdomChainAcrossSuite) {
  for (const bench::BenchProgram &BP : bench::suite())
    expectAgreesOnSource(BP.Source, BP.Name,
                         {std::begin(AllLevels), std::end(AllLevels)});
}

TEST(Dominance, IntervalMatchesIdomChainOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed)
    expectAgreesOnSource(verify::randomProgram(Seed),
                         "seed " + std::to_string(Seed),
                         {opt::OptLevel::Jumps});
}

TEST(Dominance, IntervalMatchesIdomChainOnDeepNest) {
  // Deep enough for long idom chains, small enough for the all-pairs
  // walk.
  expectAgreesOnSource(nest::makeNestProgram(120).Source, "nest 120",
                       {opt::OptLevel::Simple, opt::OptLevel::Jumps});
}

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

TEST(Dominance, UnreachableBlocksAndLoopingEntry) {
  // 0: loop header at the entry (0 -> 0), falls to 1
  // 1: if v0 < 0 goto 3
  // 2: goto 4
  // 3: falls to 4
  // 4: return
  // 5: unreachable, jumps into 3
  // 6: unreachable self-loop
  auto F = std::make_unique<Function>("unreach");
  F->freshVReg();
  std::vector<int> L;
  for (int I = 0; I < 7; ++I)
    L.push_back(F->freshLabel());
  auto add = [&](int Idx, std::vector<Insn> Insns) {
    F->appendBlockWithLabel(L[Idx])->Insns = std::move(Insns);
  };
  add(0, {Insn::compare(vr(0), Operand::imm(9)),
          Insn::condJump(CondCode::Gt, L[0])});
  add(1, {Insn::compare(vr(0), Operand::imm(0)),
          Insn::condJump(CondCode::Lt, L[3])});
  add(2, {Insn::jump(L[4])});
  add(3, {Insn::move(vr(0), Operand::imm(1))});
  add(4, {Insn::ret()});
  add(5, {Insn::jump(L[3])});
  add(6, {Insn::jump(L[6])});
  F->verify();

  Dominators Dom(*F);
  EXPECT_TRUE(Dom.dominates(0, 0));
  EXPECT_TRUE(Dom.dominates(0, 4));
  EXPECT_TRUE(Dom.dominates(1, 3)); // block 5's edge into 3 is dead
  EXPECT_FALSE(Dom.dominates(2, 4));
  EXPECT_FALSE(Dom.dominates(3, 4));
  for (int X = 0; X < F->size(); ++X) {
    EXPECT_FALSE(Dom.dominates(5, X));
    EXPECT_FALSE(Dom.dominates(X, 5));
    EXPECT_FALSE(Dom.dominates(6, X));
    EXPECT_FALSE(Dom.dominates(X, 6));
  }
  expectAgrees(*F, "hand-built");
  EXPECT_TRUE(isReducible(*F));
}

} // namespace
