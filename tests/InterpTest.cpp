//===- InterpTest.cpp - RTL interpreter unit tests --------------------------------===//

#include "ease/Interp.h"

#include "frontend/CodeGen.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::ease;
using namespace coderep::rtl;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// Builds a one-function program around the given body instructions; the
/// body must leave the result in RegRV and end with Return.
Program makeProgram(std::vector<Insn> Body) {
  Program P;
  auto F = std::make_unique<Function>("main");
  for (int I = 0; I < 16; ++I)
    F->freshVReg(); // size the register file for vr(0..15)
  BasicBlock *B = F->appendBlock();
  B->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  for (Insn &I : Body)
    B->Insns.push_back(std::move(I));
  if (!B->endsWithUnconditionalTransfer())
    B->Insns.push_back(Insn::ret());
  P.Functions.push_back(std::move(F));
  return P;
}

int32_t evalProgram(std::vector<Insn> Body) {
  Program P = makeProgram(std::move(Body));
  RunOptions RO;
  RunResult R = run(P, RO);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return R.ExitCode;
}

TEST(Interp, ArithmeticWrapsTo32Bits) {
  // INT_MAX + 1 == INT_MIN, observed via (x >> 31).
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(0x7fffffff)),
                Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)),
                Insn::binary(Opcode::Shr, vr(0), vr(0), Operand::imm(31)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -1);
}

TEST(Interp, MulWraps) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(0x10000)),
                Insn::binary(Opcode::Mul, vr(0), vr(0), vr(0)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            0);
}

TEST(Interp, ShiftCountsAreMasked) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(1)),
                Insn::binary(Opcode::Shl, vr(0), vr(0), Operand::imm(33)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            2);
}

TEST(Interp, SignedDivisionTruncatesTowardZero) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(-7)),
                Insn::binary(Opcode::Div, vr(0), vr(0), Operand::imm(2)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -3);
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(-7)),
                Insn::binary(Opcode::Rem, vr(0), vr(0), Operand::imm(2)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -1);
}

TEST(Interp, DivisionByZeroTraps) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::imm(1)),
      Insn::binary(Opcode::Div, vr(0), vr(0), Operand::imm(0)),
  });
  RunOptions RO;
  RunResult R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::DivByZero);
}

TEST(Interp, SignedDivisionOverflowTraps) {
  // INT32_MIN / -1 (and the matching Rem) is host UB; the interpreted
  // machine defines it as a trap so differential runs can compare it.
  for (Opcode Op : {Opcode::Div, Opcode::Rem}) {
    Program P = makeProgram({
        Insn::move(vr(0), Operand::imm(INT32_MIN)),
        Insn::binary(Op, vr(0), vr(0), Operand::imm(-1)),
    });
    RunOptions RO;
    RunResult R = run(P, RO);
    EXPECT_EQ(R.TrapKind, Trap::Overflow);
  }
}

TEST(Interp, EntryModeRunsOneFunctionOnArgs) {
  // Function-entry mode (the oracle's probe harness): start at a function
  // that is not main, with arguments at [SP + 4*i] per the stack
  // convention, and surface its return value as the exit code.
  Program P;
  auto F = std::make_unique<Function>("f");
  for (int I = 0; I < 4; ++I)
    F->freshVReg();
  BasicBlock *B = F->appendBlock();
  B->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  B->Insns.push_back(Insn::move(vr(0), Operand::mem(RegSP, 0, 4)));
  B->Insns.push_back(Insn::move(vr(1), Operand::mem(RegSP, 4, 4)));
  B->Insns.push_back(Insn::binary(Opcode::Sub, vr(0), vr(0), vr(1)));
  B->Insns.push_back(Insn::move(Operand::reg(RegRV), vr(0)));
  B->Insns.push_back(Insn::ret());
  P.Functions.push_back(std::move(F));
  RunOptions RO;
  RO.EntryFunction = 0;
  RO.EntryArgs = {9, 4};
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 5);
}

TEST(Interp, StubbedCallsAreRecordedAndDeterministic) {
  // StubCalls treats measured calls as uninterpreted observables: the
  // callee need not even exist, its arguments are captured from the
  // stack, and its return value is synthesized from the stub seed.
  auto runOnce = [](uint64_t StubSeed) {
    Program P = makeProgram({
        Insn::move(Operand::mem(RegSP, 0, 4), Operand::imm(11)),
        Insn::move(Operand::mem(RegSP, 4, 4), Operand::imm(22)),
        Insn::call(1),
    });
    RunOptions RO;
    RO.StubCalls = true;
    RO.StubSeed = StubSeed;
    RunResult R = run(P, RO);
    EXPECT_TRUE(R.ok()) << R.TrapMessage;
    return R;
  };
  RunResult A = runOnce(7);
  ASSERT_EQ(A.CallEvents.size(), 1u);
  EXPECT_EQ(A.CallEvents[0].Callee, 1);
  EXPECT_EQ(A.CallEvents[0].Args[0], 11);
  EXPECT_EQ(A.CallEvents[0].Args[1], 22);
  // The synthesized return value flows back through RegRV into the exit
  // code and is a pure function of (seed, event index, callee).
  EXPECT_EQ(A.ExitCode, A.CallEvents[0].Rv);
  RunResult B = runOnce(7);
  EXPECT_EQ(A.CallEvents, B.CallEvents);
}

TEST(Interp, MemImageSeedsGlobalsButInitializersWin) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::mem(-1, 0, 4, -1, 1, 0)), // g0 (no init)
      Insn::move(vr(1), Operand::mem(-1, 0, 4, -1, 1, 1)), // g1 (init 5)
      Insn::binary(Opcode::Add, vr(0), vr(0), vr(1)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  Global G0;
  G0.Name = "g0";
  G0.Size = 4;
  P.Globals.push_back(G0);
  Global G1;
  G1.Name = "g1";
  G1.Size = 4;
  G1.Init = {5, 0, 0, 0};
  P.Globals.push_back(G1);
  std::vector<uint8_t> Image(8, 0);
  Image[0] = 3; // overlays g0's first byte
  Image[4] = 9; // overlaid in turn by g1's initializer
  RunOptions RO;
  RO.MemImage = &Image;
  RO.CaptureGlobals = true;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 8);
  ASSERT_GE(R.GlobalsMem.size(), 8u);
  EXPECT_EQ(R.GlobalsMem[0], 3u);
  EXPECT_EQ(R.GlobalsMem[4], 5u);
}

TEST(Interp, ByteLoadsSignExtend) {
  // Store 0x80 as a byte below SP, load it back: -128.
  EXPECT_EQ(evalProgram({
                Insn::move(Operand::mem(RegSP, -64, 1), Operand::imm(0x80)),
                Insn::move(vr(0), Operand::mem(RegSP, -64, 1)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -128);
}

TEST(Interp, WordStoresAreLittleEndianBytes) {
  EXPECT_EQ(evalProgram({
                Insn::move(Operand::mem(RegSP, -64, 4),
                           Operand::imm(0x01020304)),
                Insn::move(vr(0), Operand::mem(RegSP, -64, 1)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            4);
}

TEST(Interp, ScaledIndexAddressing) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(1), Operand::imm(3)), // index
                Insn::move(Operand::mem(RegSP, -64 + 12, 4),
                           Operand::imm(77)),
                Insn::move(vr(0),
                           Operand::mem(RegSP, -64, 4, FirstVirtual + 1, 4)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            77);
}

TEST(Interp, NullPageAccessTraps) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::mem(-1, 8, 4)), // absolute address 8
  });
  RunOptions RO;
  RunResult R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::OutOfBounds);
}

TEST(Interp, OddAccessSizesAreCheckedAsWords) {
  // Any access size but 1 moves a 4-byte word, so the bounds check must
  // cover 4 bytes: a size-2 store at the last 2 bytes of memory traps
  // instead of writing past the end.
  for (bool IsStore : {true, false}) {
    const Operand Last2 = Operand::mem(-1, 4094, 2);
    Program P = makeProgram(
        {IsStore ? Insn::move(Last2, Operand::imm(7)) : Insn::move(vr(0), Last2)});
    RunOptions RO;
    RO.MemBytes = 4096;
    RunResult R = run(P, RO);
    EXPECT_EQ(R.TrapKind, Trap::OutOfBounds) << (IsStore ? "store" : "load");
  }
}

TEST(Interp, StepLimitTraps) {
  Program P;
  auto F = std::make_unique<Function>("main");
  int L = F->freshLabel();
  BasicBlock *B = F->appendBlockWithLabel(L);
  B->Insns.push_back(Insn::jump(L)); // infinite loop
  P.Functions.push_back(std::move(F));
  RunOptions RO;
  RO.MaxSteps = 1000;
  RunResult R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::StepLimit);
}

/// main falls through into an empty loop head, calls f from the end of a
/// block (so the return lands on a block end and falls through), loops
/// three times through a branch with a Nop delay slot, and returns 3
/// through an empty block; f starts with an empty block.
Program stepBoundaryProgram() {
  Program P;
  auto Main = std::make_unique<Function>("main");
  for (int I = 0; I < 4; ++I)
    Main->freshVReg();
  int LLoop = Main->freshLabel();
  BasicBlock *B0 = Main->appendBlock();
  B0->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  B0->Insns.push_back(Insn::move(vr(0), Operand::imm(0)));
  Main->appendBlockWithLabel(LLoop);
  Main->appendBlock()->Insns.push_back(Insn::call(1));
  BasicBlock *B3 = Main->appendBlock();
  B3->Insns.push_back(Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)));
  B3->Insns.push_back(Insn::compare(vr(0), Operand::imm(3)));
  B3->Insns.push_back(Insn::condJump(CondCode::Lt, LLoop));
  B3->DelaySlot = Insn(Opcode::Nop);
  Main->appendBlock();
  BasicBlock *B5 = Main->appendBlock();
  B5->Insns.push_back(Insn::move(Operand::reg(RegRV), vr(0)));
  B5->Insns.push_back(Insn::ret());
  P.Functions.push_back(std::move(Main));

  auto F = std::make_unique<Function>("f");
  F->appendBlock();
  BasicBlock *FB = F->appendBlock();
  FB->Insns.push_back(Insn::move(Operand::reg(RegRV), Operand::imm(7)));
  FB->Insns.push_back(Insn::ret());
  P.Functions.push_back(std::move(F));
  return P;
}

TEST(Interp, StepLimitBoundaryIsExact) {
  // Every RTL, every fall-through off a block's end and every empty block
  // costs one step: 3 in the entry block, 9 per iteration, 3 to return.
  constexpr uint64_t Steps = 33;
  Program P = stepBoundaryProgram();
  RunOptions RO;
  RO.MaxSteps = Steps;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Stats.Executed, 25u);
  EXPECT_EQ(R.Stats.Nops, 3u);
  RO.MaxSteps = Steps - 1;
  R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::StepLimit);
  EXPECT_EQ(R.TrapMessage, "step limit exceeded");
}

TEST(Interp, BadRegisterNumbersTrap) {
  // Physical registers live in [0, 64) and virtual ones below vregLimit();
  // any other register number is a defined BadProgram trap at the RTL that
  // names it, never a host abort - as a source, a destination or an
  // address register (where a negative number means "no register").
  for (int Reg : {100, -1, FirstVirtual + 16}) {
    std::vector<std::vector<Insn>> Uses = {
        {Insn::move(vr(0), Operand::reg(Reg))},
        {Insn::move(Operand::reg(Reg), Operand::imm(1))},
        {Insn::binary(Opcode::Add, vr(0), vr(0), Operand::reg(Reg))},
    };
    if (Reg >= 0)
      Uses.push_back({Insn::move(vr(0), Operand::mem(-1, 0x200, 4, Reg, 4))});
    for (const std::vector<Insn> &Body : Uses) {
      Program P = makeProgram(Body);
      RunOptions RO;
      RunResult R = run(P, RO);
      EXPECT_EQ(R.TrapKind, Trap::BadProgram) << "register " << Reg;
      EXPECT_EQ(R.TrapMessage, "register out of range") << "register " << Reg;
      // The prologue move ran, then the faulting RTL was fetched.
      EXPECT_EQ(R.Stats.Executed, 2u) << "register " << Reg;
    }
  }
}

TEST(Interp, BadRegisterOnAnUnexecutedPathIsHarmless) {
  // Decoding never traps by itself: only executing the bad RTL does.
  Program P = makeProgram({Insn::move(Operand::reg(RegRV), Operand::imm(5))});
  Function &F = *P.Functions[0];
  BasicBlock *Dead = F.appendBlock();
  Dead->Insns.push_back(Insn::move(vr(0), Operand::reg(100)));
  Dead->Insns.push_back(Insn::ret());
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 5);
}

TEST(Interp, DecodedProgramServesManyRuns) {
  // One decode, several runs with different inputs; the image outlives
  // the program it was decoded from.
  auto P = std::make_unique<Program>(makeProgram({
      Insn::move(vr(0), Operand::mem(RegSP, 0, 4)),
      Insn::binary(Opcode::Mul, Operand::reg(RegRV), vr(0), Operand::imm(3)),
  }));
  P->Functions[0]->Name = "f";
  DecodedProgram D(*P);
  P.reset();
  for (int32_t Arg : {1, 7, -4}) {
    RunOptions RO;
    RO.EntryFunction = 0;
    RO.EntryArgs = {Arg};
    RunResult R = run(D, RO);
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.ExitCode, 3 * Arg);
  }
}

TEST(Interp, MissingMainTraps) {
  Program P;
  RunOptions RO;
  EXPECT_EQ(run(P, RO).TrapKind, Trap::BadProgram);
}

TEST(Interp, GlobalsInitializedAndRelocated) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::mem(-1, 0, 4, -1, 1, 0)),  // g0 word 0
      Insn::move(vr(1), Operand::mem(-1, 0, 4, -1, 1, 1)),  // g1 = &g0
      Insn::move(vr(2), Operand::mem(FirstVirtual + 1, 0, 4)), // *g1
      Insn::binary(Opcode::Sub, vr(0), vr(0), vr(2)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  Global G0;
  G0.Name = "g0";
  G0.Size = 4;
  G0.Init = {42, 0, 0, 0};
  P.Globals.push_back(G0);
  Global G1;
  G1.Name = "g1";
  G1.Size = 4;
  G1.Relocs.push_back({0, 0});
  P.Globals.push_back(G1);
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 0); // *(&g0) == g0
}

TEST(Interp, DelaySlotExecutesOnBothBranchOutcomes) {
  // if (taken) -> slot must still run.
  for (int64_t Bias : {0, 1}) {
    Program P;
    auto F = std::make_unique<Function>("main");
    for (int I = 0; I < 16; ++I)
      F->freshVReg();
    int LExit = F->freshLabel();
    BasicBlock *B0 = F->appendBlock();
    B0->Insns.push_back(Insn::move(vr(0), Operand::imm(Bias)));
    B0->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
    B0->Insns.push_back(Insn::condJump(CondCode::Ne, LExit));
    B0->DelaySlot = Insn::move(Operand::reg(RegRV), Operand::imm(99));
    BasicBlock *B1 = F->appendBlock();
    B1->Insns.push_back(Insn::ret());
    BasicBlock *B2 = F->appendBlockWithLabel(LExit);
    B2->Insns.push_back(Insn::ret());
    P.Functions.push_back(std::move(F));
    RunOptions RO;
    RunResult R = run(P, RO);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ExitCode, 99) << "bias " << Bias;
  }
}

TEST(Interp, DynamicStatsCountKinds) {
  const char *Src = R"(
    int main() {
      int i, s;
      s = 0;
      for (i = 0; i < 10; i++)
        s += i;
      return s;
    }
  )";
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitCode, 45);
  EXPECT_EQ(R.Stats.UncondJumps, 1u);       // the for-loop entry jump
  EXPECT_EQ(R.Stats.CondBranches, 11u);     // 10 taken + 1 exit
  EXPECT_EQ(R.Stats.Returns, 1u);
  EXPECT_EQ(R.Stats.Calls, 0u);
  EXPECT_GT(R.Stats.Executed, 40u);
  EXPECT_GT(R.Stats.insnsBetweenBranches(), 1.0);
}

TEST(Interp, IntrinsicsRoundTrip) {
  const char *Src = R"(
    char buf[32];
    int main() {
      strcpy(buf, "abc");
      printf("[%s|%d|%c|%o|%x|%5d|%-3d]", buf, -7, 65, 8, 255, 42, 1);
      printf("%%");
      return strcmp(buf, "abd") < 0 && strlen(buf) == 3 && abs(-4) == 4 &&
             atoi("123") == 123;
    }
  )";
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "[abc|-7|A|10|ff|   42|1  ]%");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(Layout, AddressesAreSequentialWords) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::imm(1)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  CodeLayout L = layoutCode(P, 0x100);
  EXPECT_EQ(L.BlockAddr[0][0], 0x100u);
  EXPECT_EQ(L.insnAddr(0, 0, 2), 0x108u);
  // 4 RTLs (prologue move + 2 + ret).
  EXPECT_EQ(L.CodeBytes, 16u);
}

TEST(Layout, DelaySlotOccupiesWordAfterTerminator) {
  Program P = makeProgram({Insn::move(Operand::reg(RegRV), Operand::imm(0))});
  P.Functions[0]->block(0)->DelaySlot = Insn(Opcode::Nop);
  CodeLayout L = layoutCode(P);
  EXPECT_EQ(L.CodeBytes, 16u); // 3 RTLs + slot
}

TEST(Interp, FetchSinkSeesEveryExecutedInsn) {
  struct Counter : FetchSink {
    uint64_t N = 0;
    void fetch(uint32_t) override { ++N; }
  } Sink;
  Program P = makeProgram({
      Insn::move(vr(0), Operand::imm(5)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  RunOptions RO;
  RO.Sink = &Sink;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Sink.N, R.Stats.Executed);
}

} // namespace
