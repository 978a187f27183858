//===- TargetTest.cpp - Machine description unit tests -----------------------------===//

#include "target/Target.h"

#include "driver/Compiler.h"
#include "ease/Interp.h"
#include "frontend/CodeGen.h"
#include "target/M68Target.h"
#include "target/SparcTarget.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::rtl;
using namespace coderep::target;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

TEST(M68, AllowsMemoryOperandsInAlu) {
  M68Target T;
  Operand Mem = Operand::mem(RegFP, -4, 4);
  EXPECT_TRUE(T.isLegal(Insn::binary(Opcode::Add, vr(0), vr(1), Mem)));
  EXPECT_TRUE(T.isLegal(Insn::binary(Opcode::Div, vr(0), vr(0), Mem)));
  EXPECT_TRUE(T.isLegal(Insn::compare(Mem, Operand::imm(5))));
  // Memory-to-memory move (the paper's "B[a[0]]=B[a[0]+1]").
  EXPECT_TRUE(T.isLegal(
      Insn::move(Operand::mem(4, 0, 1), Operand::mem(4, 1, 1))));
  // Two-address memory ALU form.
  EXPECT_TRUE(T.isLegal(Insn::binary(Opcode::Add, Mem, Mem, Operand::imm(1))));
  // But not a three-operand memory form.
  EXPECT_FALSE(T.isLegal(
      Insn::binary(Opcode::Add, Mem, Operand::mem(RegFP, -8, 4),
                   Operand::imm(1))));
  // Nor two memory sources.
  EXPECT_FALSE(T.isLegal(Insn::binary(Opcode::Add, vr(0), Mem,
                                      Operand::mem(RegFP, -8, 4))));
}

TEST(M68, ScaledIndexAddressing) {
  M68Target T;
  EXPECT_TRUE(T.isLegalAddress(Operand::mem(4, 8, 4, 5, 4, 0)));
  EXPECT_FALSE(T.isLegalAddress(Operand::mem(4, 8, 4, 5, 8, 0)));
  EXPECT_FALSE(T.hasDelaySlots());
}

TEST(Sparc, LoadStoreOnly) {
  SparcTarget T;
  Operand Mem = Operand::mem(RegFP, -4, 4);
  EXPECT_TRUE(T.isLegal(Insn::move(vr(0), Mem)));             // load
  EXPECT_TRUE(T.isLegal(Insn::move(Mem, vr(0))));             // store
  EXPECT_FALSE(T.isLegal(Insn::move(Mem, Operand::imm(1))));  // store-imm
  EXPECT_FALSE(T.isLegal(Insn::binary(Opcode::Add, vr(0), vr(1), Mem)));
  EXPECT_FALSE(T.isLegal(Insn::compare(Mem, Operand::imm(0))));
  EXPECT_TRUE(T.isLegal(
      Insn::binary(Opcode::Add, vr(0), vr(1), Operand::imm(42))));
  EXPECT_FALSE(T.isLegal(
      Insn::binary(Opcode::Add, vr(0), Operand::imm(42), vr(1))));
  EXPECT_TRUE(T.hasDelaySlots());
}

TEST(Sparc, AddressingModes) {
  SparcTarget T;
  EXPECT_TRUE(T.isLegalAddress(Operand::mem(4, 1000, 4)));
  EXPECT_FALSE(T.isLegalAddress(Operand::mem(4, 0, 4, 5, 1)));   // indexed
  EXPECT_FALSE(T.isLegalAddress(Operand::mem(4, 0, 4, -1, 1, 0))); // symbol
  // Lea materializes a symbol address (sethi/or), nothing else.
  EXPECT_TRUE(
      T.isLegal(Insn::lea(vr(0), Operand::mem(-1, 0, 4, -1, 1, 3))));
  EXPECT_FALSE(T.isLegal(Insn::lea(vr(0), Operand::mem(4, 8, 4))));
}

TEST(Legalize, FunctionBecomesFullyLegal) {
  // Generate naive RTL with rich addressing and check every instruction is
  // legal after legalization, on both targets.
  const char *Src = R"(
    int g[10][10];
    char s[20];
    int main() {
      int i = 3, j = 4;
      g[i][j] = s[i] + g[j][i];
      s[j] = g[i][j] * 2;
      return g[3][4];
    }
  )";
  for (TargetKind K : {TargetKind::M68, TargetKind::Sparc}) {
    Program P;
    std::string Err;
    ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
    auto T = createTarget(K);
    for (auto &F : P.Functions) {
      T->legalizeFunction(*F);
      F->verify();
      for (int B = 0; B < F->size(); ++B)
        for (const Insn &I : F->block(B)->Insns)
          EXPECT_TRUE(T->isLegal(I)) << toString(I);
    }
  }
}

TEST(Legalize, PreservesSemantics) {
  const char *Src = R"(
    int tab[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int main() {
      int i, s = 0;
      for (i = 0; i < 8; i++)
        s += tab[i] * i;
      return s;
    }
  )";
  int32_t Expected = 0;
  for (int I = 0; I < 8; ++I)
    Expected += (I + 1) * I;
  for (TargetKind K : {TargetKind::M68, TargetKind::Sparc}) {
    Program P;
    std::string Err;
    ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
    auto T = createTarget(K);
    for (auto &F : P.Functions)
      T->legalizeFunction(*F);
    ease::RunOptions RO;
    ease::RunResult R = ease::run(P, RO);
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.ExitCode, Expected);
  }
}

TEST(Legalize, RiscCodeIsLargerThanCisc) {
  // The mechanism behind Table 5's target differences.
  const char *Src = R"(
    int a[32];
    int main() {
      int i;
      for (i = 0; i < 32; i++)
        a[i] = a[i] + i;
      return a[31];
    }
  )";
  driver::Compilation M68C = driver::compile(Src, TargetKind::M68,
                                             opt::OptLevel::Simple);
  driver::Compilation SparcC = driver::compile(Src, TargetKind::Sparc,
                                               opt::OptLevel::Simple);
  ASSERT_TRUE(M68C.ok() && SparcC.ok());
  EXPECT_LT(M68C.Static.Instructions, SparcC.Static.Instructions);
}

TEST(TargetFactory, CreatesBoth) {
  EXPECT_STREQ(createTarget(TargetKind::M68)->name(), "Motorola 68020");
  EXPECT_STREQ(createTarget(TargetKind::Sparc)->name(), "Sun SPARC");
  EXPECT_EQ(createTarget(TargetKind::Sparc)->kind(), TargetKind::Sparc);
  EXPECT_GT(createTarget(TargetKind::Sparc)->numAllocatableRegs(),
            createTarget(TargetKind::M68)->numAllocatableRegs());
}

} // namespace
