//===- DivOverflowTest.cpp - INT32_MIN / -1 is left to trap ----------------===//
//
// The one 32-bit quotient that does not fit in 32 bits traps on the
// interpreted machine (Trap::Overflow) and raises SIGFPE on an x86 host.
// Constant folding must therefore leave INT32_MIN / -1 and INT32_MIN % -1
// unfolded: folding them on host integers once killed the compiler, and
// folding them to any value would hide the program's trap.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "driver/Compiler.h"
#include "ease/Interp.h"
#include "opt/ConstEval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace coderep;
using namespace coderep::rtl;

namespace {

TEST(ConstEval, SignedDivisionOverflowIsNotFolded) {
  int64_t R = 12345;
  EXPECT_FALSE(opt::evalConstBinary(Opcode::Div, INT32_MIN, -1, R));
  EXPECT_FALSE(opt::evalConstBinary(Opcode::Rem, INT32_MIN, -1, R));
  EXPECT_EQ(R, 12345) << "a refused fold leaves the result alone";
  // Division by zero stays unfolded too; the neighbours of the overflow
  // pair still fold.
  EXPECT_FALSE(opt::evalConstBinary(Opcode::Div, 7, 0, R));
  ASSERT_TRUE(opt::evalConstBinary(Opcode::Div, INT32_MIN, 1, R));
  EXPECT_EQ(R, INT32_MIN);
  ASSERT_TRUE(opt::evalConstBinary(Opcode::Div, INT32_MIN + 1, -1, R));
  EXPECT_EQ(R, INT32_MAX);
  ASSERT_TRUE(opt::evalConstBinary(Opcode::Rem, INT32_MIN, 3, R));
  EXPECT_EQ(R, -2);
  ASSERT_TRUE(opt::evalConstUnary(Opcode::Neg, INT32_MIN, R));
  EXPECT_EQ(R, INT32_MIN);
}

TEST(ConstEval, SignedDivisionOverflowProgramsTrapAtEveryLevel) {
  for (const char *Op : {"/", "%"}) {
    std::string Source = std::string("int main() { int x; int y; "
                                     "x = -2147483647 - 1; y = -1; "
                                     "return x ") +
                         Op + " y; }\n";
    for (target::TargetKind TK : golden::BothTargets)
      for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                  opt::OptLevel::Jumps}) {
        SCOPED_TRACE(std::string(Op) + " " + golden::targetName(TK) + " " +
                     opt::optLevelName(Level));
        driver::Compilation C = driver::compile(Source, TK, Level);
        ASSERT_TRUE(C.ok()) << C.Error;
        ease::RunResult R = ease::run(*C.Prog, ease::RunOptions());
        EXPECT_EQ(R.TrapKind, ease::Trap::Overflow) << R.TrapMessage;
      }
  }
}

} // namespace
