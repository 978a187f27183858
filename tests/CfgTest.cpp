//===- CfgTest.cpp - CFG and analysis unit tests ----------------------------------===//

#include "cfg/CfgAnalysis.h"
#include "cfg/FlatCfg.h"
#include "cfg/Function.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::rtl;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// Builds a diamond: 0 -> {1, 2} -> 3(ret).
std::unique_ptr<Function> buildDiamond() {
  auto F = std::make_unique<Function>("diamond");
  int L1 = F->freshLabel(), L2 = F->freshLabel(), L3 = F->freshLabel(),
      L0 = F->freshLabel();
  BasicBlock *B0 = F->appendBlockWithLabel(L0);
  B0->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
  B0->Insns.push_back(Insn::condJump(CondCode::Lt, L2));
  BasicBlock *B1 = F->appendBlockWithLabel(L1);
  B1->Insns.push_back(Insn::move(vr(1), Operand::imm(1)));
  B1->Insns.push_back(Insn::jump(L3));
  BasicBlock *B2 = F->appendBlockWithLabel(L2);
  B2->Insns.push_back(Insn::move(vr(1), Operand::imm(2)));
  BasicBlock *B3 = F->appendBlockWithLabel(L3);
  B3->Insns.push_back(Insn::ret());
  return F;
}

/// Builds a while loop: 0(pre) 1(header: exit to 3) 2(body, jump 1) 3(ret).
std::unique_ptr<Function> buildLoop() {
  auto F = std::make_unique<Function>("loop");
  int L0 = F->freshLabel(), L1 = F->freshLabel(), L2 = F->freshLabel(),
      L3 = F->freshLabel();
  BasicBlock *B0 = F->appendBlockWithLabel(L0);
  B0->Insns.push_back(Insn::move(vr(0), Operand::imm(0)));
  BasicBlock *B1 = F->appendBlockWithLabel(L1);
  B1->Insns.push_back(Insn::compare(vr(0), Operand::imm(10)));
  B1->Insns.push_back(Insn::condJump(CondCode::Ge, L3));
  BasicBlock *B2 = F->appendBlockWithLabel(L2);
  B2->Insns.push_back(
      Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)));
  B2->Insns.push_back(Insn::jump(L1));
  BasicBlock *B3 = F->appendBlockWithLabel(L3);
  B3->Insns.push_back(Insn::ret());
  return F;
}

TEST(Function, SuccessorsAndPredecessors) {
  auto F = buildDiamond();
  EXPECT_EQ(F->successors(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(F->successors(1), (std::vector<int>{3}));
  EXPECT_EQ(F->successors(2), (std::vector<int>{3}));
  EXPECT_TRUE(F->successors(3).empty());
  auto Preds = F->predecessors();
  EXPECT_EQ(Preds[3], (std::vector<int>{1, 2}));
  EXPECT_EQ(Preds[0], std::vector<int>{});
}

TEST(Function, LabelLookupSurvivesInsertionsAndErasures) {
  auto F = buildDiamond();
  int Label2 = F->block(2)->Label;
  EXPECT_EQ(F->indexOfLabel(Label2), 2);
  F->insertBlock(1);
  EXPECT_EQ(F->indexOfLabel(Label2), 3);
  F->eraseBlock(1);
  EXPECT_EQ(F->indexOfLabel(Label2), 2);
  EXPECT_EQ(F->indexOfLabel(99999), -1);
}

TEST(Function, CloneIsDeepAndEqual) {
  auto F = buildLoop();
  auto C = F->clone();
  ASSERT_EQ(C->size(), F->size());
  for (int I = 0; I < F->size(); ++I) {
    EXPECT_EQ(C->block(I)->Label, F->block(I)->Label);
    ASSERT_EQ(C->block(I)->Insns.size(), F->block(I)->Insns.size());
    for (size_t J = 0; J < F->block(I)->Insns.size(); ++J)
      EXPECT_TRUE(C->block(I)->Insns[J] == F->block(I)->Insns[J]);
  }
  // Mutating the clone leaves the original untouched.
  C->block(0)->Insns.clear();
  EXPECT_FALSE(F->block(0)->Insns.empty());
}

TEST(Function, NormalizeRemovesJumpToNext) {
  auto F = buildDiamond();
  // Insert a jump-to-next into block 1 (replacing its jump to L3 with a
  // jump to block 2's label would change semantics; instead append a new
  // block ending with a jump to its positional successor).
  int L3 = F->block(3)->Label;
  F->block(1)->Insns.back() = Insn::jump(F->block(2)->Label);
  F->normalizeFallthroughs();
  EXPECT_FALSE(F->block(1)->endsWithJump());
  (void)L3;
}

TEST(Function, NormalizeIsEpochNeutralWhenNothingChanges) {
  auto F = buildDiamond();
  uint64_t Before = F->analysisEpoch();
  F->normalizeFallthroughs(); // already normalized: a pure audit
  EXPECT_EQ(F->analysisEpoch(), Before)
      << "no-op normalize must not invalidate cached analyses";

  // And when it does delete a jump-to-next, the epoch must move.
  F->block(1)->Insns.back() = Insn::jump(F->block(2)->Label);
  F->normalizeFallthroughs();
  EXPECT_GT(F->analysisEpoch(), Before);
}

TEST(Function, VerifyAcceptsWellFormed) {
  buildDiamond()->verify();
  buildLoop()->verify();
}

TEST(Analysis, ReversePostorderStartsAtEntry) {
  auto F = buildLoop();
  std::vector<int> Rpo = reversePostorder(*F);
  ASSERT_FALSE(Rpo.empty());
  EXPECT_EQ(Rpo.front(), 0);
  EXPECT_EQ(Rpo.size(), 4u);
}

TEST(Analysis, Reachability) {
  auto F = buildDiamond();
  // Add an unreachable block after block 1 (which ends with a jump, so
  // nothing falls into the new block).
  F->insertBlock(2)->Insns.push_back(Insn::ret());
  std::vector<bool> R = reachableBlocks(*F);
  EXPECT_TRUE(R[0] && R[1] && R[3] && R[4]);
  EXPECT_FALSE(R[2]);
  EXPECT_EQ(removeUnreachableBlocks(*F), 1);
  F->verify();
}

TEST(Analysis, Dominators) {
  auto F = buildDiamond();
  Dominators Dom(*F);
  EXPECT_TRUE(Dom.dominates(0, 0));
  EXPECT_TRUE(Dom.dominates(0, 1));
  EXPECT_TRUE(Dom.dominates(0, 3));
  EXPECT_FALSE(Dom.dominates(1, 3)); // join reachable around block 1
  EXPECT_FALSE(Dom.dominates(2, 3));
  EXPECT_EQ(Dom.idom(3), 0);
  EXPECT_EQ(Dom.idom(0), -1);
}

TEST(Analysis, NaturalLoops) {
  auto F = buildLoop();
  LoopInfo LI(*F);
  ASSERT_EQ(LI.loops().size(), 1u);
  const NaturalLoop &L = LI.loops()[0];
  EXPECT_EQ(L.Header, 1);
  EXPECT_EQ(L.Blocks, (std::vector<int>{1, 2}));
  EXPECT_TRUE(L.contains(2));
  EXPECT_FALSE(L.contains(0));
  EXPECT_EQ(LI.loopWithHeader(1), &L);
  EXPECT_EQ(LI.loopWithHeader(2), nullptr);
  EXPECT_EQ(LI.innermostLoopContaining(2), &L);
  EXPECT_EQ(LI.innermostLoopContaining(3), nullptr);
}

TEST(Analysis, NestedLoopsInnermost) {
  // 0 -> 1(outer hdr) -> 2(inner hdr) -> 3(inner back) -> 4(outer back) -> 5
  auto F = std::make_unique<Function>("nest");
  std::vector<int> L;
  for (int I = 0; I < 6; ++I)
    L.push_back(F->freshLabel());
  Operand R0 = vr(0);
  auto add = [&](int Idx, std::vector<Insn> Insns) {
    F->appendBlockWithLabel(L[Idx])->Insns = std::move(Insns);
  };
  add(0, {Insn::move(R0, Operand::imm(0))});
  add(1, {Insn::compare(R0, Operand::imm(100)),
          Insn::condJump(CondCode::Ge, L[5])});
  add(2, {Insn::compare(R0, Operand::imm(10)),
          Insn::condJump(CondCode::Ge, L[4])});
  add(3, {Insn::binary(Opcode::Add, R0, R0, Operand::imm(1)),
          Insn::jump(L[2])});
  add(4, {Insn::binary(Opcode::Add, R0, R0, Operand::imm(1)),
          Insn::jump(L[1])});
  add(5, {Insn::ret()});
  F->verify();

  LoopInfo LI(*F);
  ASSERT_EQ(LI.loops().size(), 2u);
  const NaturalLoop *Inner = LI.innermostLoopContaining(3);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Header, 2);
  EXPECT_EQ(Inner->Blocks, (std::vector<int>{2, 3}));
  const NaturalLoop *OuterOf4 = LI.innermostLoopContaining(4);
  ASSERT_NE(OuterOf4, nullptr);
  EXPECT_EQ(OuterOf4->Header, 1);
}

TEST(Analysis, ReducibleGraphs) {
  EXPECT_TRUE(isReducible(*buildDiamond()));
  EXPECT_TRUE(isReducible(*buildLoop()));
}

TEST(Analysis, IrreducibleGraphDetected) {
  // The classic irreducible triangle: 0 branches to both 1 and 2, and 1
  // and 2 jump to each other.
  auto F = std::make_unique<Function>("irreducible");
  int L1 = F->freshLabel(), L2 = F->freshLabel(), L0 = F->freshLabel(),
      L3 = F->freshLabel();
  Operand R0 = vr(0);
  BasicBlock *B0 = F->appendBlockWithLabel(L0);
  B0->Insns.push_back(Insn::compare(R0, Operand::imm(0)));
  B0->Insns.push_back(Insn::condJump(CondCode::Lt, L2));
  BasicBlock *B1 = F->appendBlockWithLabel(L1);
  B1->Insns.push_back(Insn::compare(R0, Operand::imm(5)));
  B1->Insns.push_back(Insn::condJump(CondCode::Gt, L3));
  BasicBlock *B1b = F->appendBlock();
  B1b->Insns.push_back(Insn::jump(L2));
  BasicBlock *B2 = F->appendBlockWithLabel(L2);
  B2->Insns.push_back(Insn::compare(R0, Operand::imm(7)));
  B2->Insns.push_back(Insn::condJump(CondCode::Gt, L3));
  BasicBlock *B2b = F->appendBlock();
  B2b->Insns.push_back(Insn::jump(L1));
  BasicBlock *B3 = F->appendBlockWithLabel(L3);
  B3->Insns.push_back(Insn::ret());
  F->verify();
  EXPECT_FALSE(isReducible(*F));
  // The overload on prebuilt analyses (JUMPS step 6's) agrees.
  FlatCfg Flat(*F);
  EXPECT_FALSE(isReducible(*F, Flat, Dominators(*F, Flat)));
}

TEST(Analysis, RtlCountIncludesDelaySlots) {
  auto F = buildLoop();
  int Before = F->rtlCount();
  F->block(2)->DelaySlot = Insn(Opcode::Nop);
  EXPECT_EQ(F->rtlCount(), Before + 1);
}

} // namespace
