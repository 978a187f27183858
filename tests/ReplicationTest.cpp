//===- ReplicationTest.cpp - LOOPS/JUMPS replication unit tests -------------------===//

#include "replicate/Replication.h"

#include "Suite.h"
#include "cfg/AnalysisCache.h"
#include "cfg/CfgAnalysis.h"
#include "ease/Interp.h"
#include "frontend/CodeGen.h"
#include "replicate/ShortestPaths.h"
#include "target/Target.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::replicate;
using namespace coderep::rtl;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// Counts static Jump RTLs.
int jumpCount(const Function &F) {
  int N = 0;
  for (int B = 0; B < F.size(); ++B)
    for (const Insn &I : F.block(B)->Insns)
      if (I.Op == Opcode::Jump)
        ++N;
  return N;
}

/// Allocates vregs so the interpreter's register file covers vr(0..15).
void reserveVRegs(Function &F) {
  while (F.vregLimit() < FirstVirtual + 16)
    F.freshVReg();
}

/// Wraps a hand-built function into a program and runs it.
int32_t execute(const Function &F) {
  Program P;
  P.Functions.push_back(F.clone());
  P.Functions.back()->Name = "main";
  ease::RunOptions RO;
  ease::RunResult R = ease::run(P, RO);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return R.ExitCode;
}

/// While-loop shape: pre, header (test, exit), body (jump back), exit.
/// Computes sum 0..9 into RV.
std::unique_ptr<Function> whileLoop() {
  auto F = std::make_unique<Function>("w");
  int LH = F->freshLabel(), LB = F->freshLabel(), LE = F->freshLabel();
  BasicBlock *Pre = F->appendBlock();
  Pre->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
                Insn::move(vr(0), Operand::imm(0)),
                Insn::move(vr(1), Operand::imm(0))};
  BasicBlock *H = F->appendBlockWithLabel(LH);
  H->Insns = {Insn::compare(vr(0), Operand::imm(10)),
              Insn::condJump(CondCode::Ge, LE)};
  BasicBlock *Body = F->appendBlockWithLabel(LB);
  Body->Insns = {Insn::binary(Opcode::Add, vr(1), vr(1), vr(0)),
                 Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)),
                 Insn::jump(LH)};
  BasicBlock *Exit = F->appendBlockWithLabel(LE);
  Exit->Insns = {Insn::move(Operand::reg(RegRV), vr(1)),
                 Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                 Insn::ret()};
  reserveVRegs(*F);
  F->verify();
  return F;
}

/// For-loop shape: entry jump to the test at the bottom.
std::unique_ptr<Function> forLoop() {
  auto F = std::make_unique<Function>("f");
  int LB = F->freshLabel(), LT = F->freshLabel(), LE = F->freshLabel();
  BasicBlock *Pre = F->appendBlock();
  Pre->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
                Insn::move(vr(0), Operand::imm(0)),
                Insn::move(vr(1), Operand::imm(0)), Insn::jump(LT)};
  BasicBlock *Body = F->appendBlockWithLabel(LB);
  Body->Insns = {Insn::binary(Opcode::Add, vr(1), vr(1), vr(0)),
                 Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1))};
  BasicBlock *Test = F->appendBlockWithLabel(LT);
  Test->Insns = {Insn::compare(vr(0), Operand::imm(10)),
                 Insn::condJump(CondCode::Lt, LB)};
  BasicBlock *Exit = F->appendBlockWithLabel(LE);
  Exit->Insns = {Insn::move(Operand::reg(RegRV), vr(1)),
                 Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                 Insn::ret()};
  reserveVRegs(*F);
  F->verify();
  return F;
}

TEST(ShortestPathsTest, EdgeCostIsSourceBlockRtls) {
  auto F = whileLoop();
  ShortestPaths SP(*F);
  // header -> body: cost of the header (2 RTLs).
  EXPECT_EQ(SP.cost(1, 2), 2);
  // header -> exit via branch: 2 as well.
  EXPECT_EQ(SP.cost(1, 3), 2);
  // body -> exit: body(3) + header(2).
  EXPECT_EQ(SP.cost(2, 3), 5);
}

TEST(ShortestPathsTest, PathReconstruction) {
  auto F = whileLoop();
  ShortestPaths SP(*F);
  EXPECT_EQ(SP.path(2, 3), (std::vector<int>{2, 1}));
  EXPECT_EQ(SP.path(1, 2), (std::vector<int>{1}));
  // Unreachable: exit has no successors.
  EXPECT_TRUE(SP.path(3, 1).empty());
}

TEST(ShortestPathsTest, CheapestReturnPath) {
  auto F = whileLoop();
  ShortestPaths SP(*F);
  std::vector<int> P = SP.path(2, 3);
  std::vector<int> R = SP.cheapestReturnPath(2);
  ASSERT_FALSE(R.empty());
  EXPECT_EQ(R.back(), 3); // ends at the return block
  // From the return block itself: just that block.
  EXPECT_EQ(SP.cheapestReturnPath(3), (std::vector<int>{3}));
}

TEST(ShortestPathsTest, IndirectJumpsExcluded) {
  auto F = whileLoop();
  // Replace the body's back jump with an indirect jump through a table.
  F->block(2)->Insns.back() =
      Insn::switchJump(vr(0), {F->block(1)->Label, F->block(3)->Label});
  F->verify();
  ShortestPaths SP(*F);
  // No path may leave the switch block.
  EXPECT_GE(SP.cost(2, 3), ShortestPaths::Inf);
  EXPECT_GE(SP.cost(2, 1), ShortestPaths::Inf);
}

TEST(LoopsReplication, RotatesWhileLoop) {
  auto F = whileLoop();
  int32_t Before = execute(*F);
  ReplicationStats Stats;
  EXPECT_TRUE(runLoops(*F, &Stats));
  F->verify();
  EXPECT_EQ(execute(*F), Before);
  EXPECT_EQ(jumpCount(*F), 0);
  EXPECT_EQ(Stats.JumpsReplaced, 1);
  EXPECT_TRUE(isReducible(*F));
}

TEST(LoopsReplication, RemovesForLoopEntryJump) {
  auto F = forLoop();
  int32_t Before = execute(*F);
  ReplicationStats Stats;
  EXPECT_TRUE(runLoops(*F, &Stats));
  F->verify();
  EXPECT_EQ(execute(*F), Before);
  EXPECT_EQ(jumpCount(*F), 0);
}

TEST(LoopsReplication, IgnoresNonLoopJumps) {
  // A plain if-else join jump is not LOOPS material.
  auto F = std::make_unique<Function>("g");
  int LElse = F->freshLabel(), LJoin = F->freshLabel();
  BasicBlock *B0 = F->appendBlock();
  B0->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
               Insn::compare(vr(0), Operand::imm(0)),
               Insn::condJump(CondCode::Lt, LElse)};
  BasicBlock *Then = F->appendBlock();
  Then->Insns = {Insn::move(vr(1), Operand::imm(1)), Insn::jump(LJoin)};
  BasicBlock *Else = F->appendBlockWithLabel(LElse);
  Else->Insns = {Insn::move(vr(1), Operand::imm(2))};
  BasicBlock *Join = F->appendBlockWithLabel(LJoin);
  Join->Insns = {Insn::move(Operand::reg(RegRV), vr(1)),
                 Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                 Insn::ret()};
  reserveVRegs(*F);
  F->verify();
  EXPECT_FALSE(runLoops(*F));
  EXPECT_EQ(jumpCount(*F), 1);
}

TEST(JumpsReplication, ReplicatesIfElseJoin) {
  // The Table 2 situation: JUMPS duplicates the join/return.
  auto F = std::make_unique<Function>("g");
  int LElse = F->freshLabel(), LJoin = F->freshLabel();
  BasicBlock *B0 = F->appendBlock();
  B0->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
               Insn::move(vr(0), Operand::imm(7)),
               Insn::compare(vr(0), Operand::imm(0)),
               Insn::condJump(CondCode::Lt, LElse)};
  BasicBlock *Then = F->appendBlock();
  Then->Insns = {Insn::move(vr(1), Operand::imm(1)), Insn::jump(LJoin)};
  BasicBlock *Else = F->appendBlockWithLabel(LElse);
  Else->Insns = {Insn::move(vr(1), Operand::imm(2))};
  BasicBlock *Join = F->appendBlockWithLabel(LJoin);
  Join->Insns = {Insn::move(Operand::reg(RegRV), vr(1)),
                 Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                 Insn::ret()};
  reserveVRegs(*F);
  F->verify();
  int32_t Before = execute(*F);

  ReplicationStats Stats;
  EXPECT_TRUE(runJumps(*F, {}, &Stats));
  F->verify();
  EXPECT_EQ(execute(*F), Before);
  EXPECT_EQ(jumpCount(*F), 0);
  EXPECT_EQ(Stats.JumpsReplaced, 1);
  // Two return blocks now exist.
  int Returns = 0;
  for (int B = 0; B < F->size(); ++B)
    if (F->block(B)->terminator() &&
        F->block(B)->terminator()->Op == Opcode::Return)
      ++Returns;
  EXPECT_EQ(Returns, 2);
}

TEST(JumpsReplication, HandlesWhileLoopLikeLoops) {
  auto F = whileLoop();
  int32_t Before = execute(*F);
  EXPECT_TRUE(runJumps(*F));
  F->verify();
  EXPECT_EQ(execute(*F), Before);
  EXPECT_EQ(jumpCount(*F), 0);
  EXPECT_TRUE(isReducible(*F));
}

TEST(JumpsReplication, BottomTestLoopCompletionEntersAtHeader) {
  // Regression test: a jump into a bottom-test loop's header must not
  // replicate the loop body ahead of the test (step 3 rotation).
  auto F = std::make_unique<Function>("bt");
  int LB = F->freshLabel(), LT = F->freshLabel(), LE = F->freshLabel();
  BasicBlock *Pre = F->appendBlock();
  Pre->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
                Insn::move(vr(0), Operand::imm(100)), // i = 100: loop skipped
                Insn::move(vr(1), Operand::imm(0)),
                Insn::jump(LT)};
  BasicBlock *Body = F->appendBlockWithLabel(LB);
  Body->Insns = {Insn::binary(Opcode::Add, vr(1), vr(1), Operand::imm(1)),
                 Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1))};
  BasicBlock *Test = F->appendBlockWithLabel(LT); // header, positionally last
  Test->Insns = {Insn::compare(vr(0), Operand::imm(10)),
                 Insn::condJump(CondCode::Lt, LB)};
  BasicBlock *Exit = F->appendBlockWithLabel(LE);
  Exit->Insns = {Insn::move(Operand::reg(RegRV), vr(1)),
                 Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                 Insn::ret()};
  reserveVRegs(*F);
  F->verify();
  ASSERT_EQ(execute(*F), 0) << "loop must not run at all";

  runJumps(*F);
  F->verify();
  EXPECT_EQ(execute(*F), 0) << "replication must not execute the body";
}

TEST(JumpsReplication, SequenceLengthCapLimitsGrowth) {
  auto Unlimited = whileLoop();
  auto Capped = whileLoop();
  ReplicationOptions Tight;
  Tight.MaxSequenceRtls = 1; // nothing fits
  EXPECT_FALSE(runJumps(*Capped, Tight));
  EXPECT_EQ(Capped->rtlCount(), whileLoop()->rtlCount());
  EXPECT_TRUE(runJumps(*Unlimited));
  EXPECT_GE(Unlimited->rtlCount(), Capped->rtlCount());
}

TEST(JumpsReplication, GrowthBudgetRespected) {
  auto F = whileLoop();
  ReplicationOptions O;
  O.MaxGrowthFactor = 1.0; // baseline floor of 64 still allows small work
  O.GrowthBaselineRtls = F->rtlCount();
  int64_t Budget = static_cast<int64_t>(
      O.MaxGrowthFactor * std::max<int64_t>(F->rtlCount(), 64));
  runJumps(*F, O);
  EXPECT_LE(F->rtlCount(), Budget);
}

TEST(JumpsReplication, RemovesJumpToNext) {
  auto F = std::make_unique<Function>("jn");
  int LNext = F->freshLabel();
  BasicBlock *B0 = F->appendBlock();
  B0->Insns = {Insn::move(Operand::reg(RegRV), Operand::imm(1)),
               Insn::jump(LNext)};
  BasicBlock *B1 = F->appendBlockWithLabel(LNext);
  B1->Insns = {Insn::ret()};
  F->verify();
  EXPECT_TRUE(runJumps(*F));
  EXPECT_EQ(jumpCount(*F), 0);
  EXPECT_FALSE(F->block(0)->terminator());
}

TEST(JumpsReplication, SelfLoopSkipped) {
  // "Infinite loops do not provide any opportunity to replace the
  // unconditional branch."
  auto F = std::make_unique<Function>("inf");
  int L0 = F->freshLabel();
  BasicBlock *B0 = F->appendBlockWithLabel(L0);
  B0->Insns = {Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)),
               Insn::jump(L0)};
  F->verify();
  EXPECT_FALSE(runJumps(*F));
  EXPECT_EQ(jumpCount(*F), 1);
}

TEST(JumpsReplication, IndirectEndingsExtension) {
  // Section 6: with AllowIndirectEndings, a jump to a block that computes
  // a switch index and jumps indirectly can be replaced; the copied
  // indirect jump shares the original jump table (targets keep their
  // original labels).
  auto build = [] {
    auto F = std::make_unique<Function>("sw");
    int LSel = F->freshLabel(), LA = F->freshLabel(), LB = F->freshLabel();
    BasicBlock *B0 = F->appendBlockWithLabel(F->freshLabel());
    B0->Insns = {Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
                 Insn::move(vr(0), Operand::imm(1)), Insn::jump(LSel)};
    BasicBlock *Mid = F->appendBlock(); // makes LSel non-adjacent
    Mid->Insns = {Insn::move(vr(1), Operand::imm(5)), Insn::jump(LSel)};
    BasicBlock *Sel = F->appendBlockWithLabel(LSel);
    Sel->Insns = {Insn::binary(Opcode::And, vr(2), vr(0), Operand::imm(1)),
                  Insn::switchJump(vr(2), {LA, LB})};
    BasicBlock *A = F->appendBlockWithLabel(LA);
    A->Insns = {Insn::move(Operand::reg(RegRV), Operand::imm(10)),
                Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                Insn::ret()};
    BasicBlock *B = F->appendBlockWithLabel(LB);
    B->Insns = {Insn::move(Operand::reg(RegRV), Operand::imm(20)),
                Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
                Insn::ret()};
    reserveVRegs(*F);
    F->verify();
    return F;
  };

  // Without the extension the jump to the switch block stays.
  auto Plain = build();
  int32_t Expected = execute(*Plain);
  runJumps(*Plain);
  EXPECT_GE(jumpCount(*Plain), 1);

  auto Extended = build();
  ReplicationOptions O;
  O.AllowIndirectEndings = true;
  ReplicationStats Stats;
  EXPECT_TRUE(runJumps(*Extended, O, &Stats));
  Extended->verify();
  EXPECT_EQ(execute(*Extended), Expected);
  EXPECT_EQ(jumpCount(*Extended), 0);
  EXPECT_TRUE(isReducible(*Extended));
}

TEST(JumpsReplication, ResultAlwaysReducible) {
  // Whatever JUMPS does to these shapes, step 6 guarantees reducibility.
  for (auto Make : {whileLoop, forLoop}) {
    auto F = Make();
    runJumps(*F);
    EXPECT_TRUE(isReducible(*F));
  }
}

TEST(JumpsReplication, StatsAreConsistent) {
  auto F = forLoop();
  ReplicationStats Stats;
  runJumps(*F, {}, &Stats);
  EXPECT_GE(Stats.JumpsReplaced, 1);
  EXPECT_GE(Stats.SkippedNoCandidate, 0);
}

/// The suite's wc program lowered and legalized for \p TK, unoptimized.
std::unique_ptr<Program> legalizedWc(target::TargetKind TK) {
  auto P = std::make_unique<Program>();
  std::string Error;
  EXPECT_TRUE(frontend::compileToRtl(bench::program("wc").Source, *P, Error))
      << Error;
  auto T = target::createTarget(TK);
  for (auto &F : P->Functions)
    T->legalizeFunction(*F);
  return P;
}

// Step 6 on a real function: in wc's main one replication makes the flow
// graph irreducible and is undone through the undo log alone. Undo must
// leave the function executable, free every slot the attempt allocated, and
// leave no cached analysis describing the rolled-back state.
TEST(JumpsReplication, RollbackOfIrreducibleReplicationOnWc) {
  for (target::TargetKind TK :
       {target::TargetKind::M68, target::TargetKind::Sparc}) {
    SCOPED_TRACE(TK == target::TargetKind::M68 ? "M68" : "SPARC");
    auto P = legalizedWc(TK);
    Function &Main = *P->Functions[P->findFunction("main")];
    ease::RunOptions RO;
    RO.Input = bench::program("wc").Input;
    ease::RunResult Before = ease::run(*P, RO);
    ASSERT_TRUE(Before.ok()) << Before.TrapMessage;

    AnalysisCache AC(Main);
    AC.loops(); // warm the cache, so a stale entry would be observable
    const uint64_t EpochBefore = Main.analysisEpoch();
    ReplicationStats Stats;
    runJumps(Main, {}, &Stats, &AC);
    EXPECT_EQ(Stats.RolledBackIrreducible, 1);
    EXPECT_EQ(Stats.JumpsReplaced, 2);
    EXPECT_GT(Main.analysisEpoch(), EpochBefore);

    Main.verify();
    EXPECT_TRUE(isReducible(Main));
    EXPECT_EQ(Main.arena().liveInsns(),
              static_cast<uint32_t>(Main.rtlCount()))
        << "the rolled-back copies' slots must return to the free list";
    ease::RunResult After = ease::run(*P, RO);
    ASSERT_TRUE(After.ok()) << After.TrapMessage;
    EXPECT_EQ(After.Output, Before.Output);
    EXPECT_EQ(After.ExitCode, Before.ExitCode);

    const LoopInfo &Cached = AC.loops();
    LoopInfo Fresh(Main);
    ASSERT_EQ(Cached.loops().size(), Fresh.loops().size());
    for (size_t L = 0; L < Fresh.loops().size(); ++L) {
      EXPECT_EQ(Cached.loops()[L].Header, Fresh.loops()[L].Header);
      EXPECT_EQ(Cached.loops()[L].Blocks, Fresh.loops()[L].Blocks);
    }
  }
}

} // namespace
