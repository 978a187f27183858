//===- ConstEval.cpp - Compile-time RTL evaluation ---------------------------===//

#include "opt/ConstEval.h"

#include "support/Check.h"

#include <cstdint>

using namespace coderep;
using namespace coderep::opt;
using namespace coderep::rtl;

bool opt::evalConstBinary(Opcode Op, int64_t A, int64_t B, int64_t &Result) {
  int32_t X = static_cast<int32_t>(A);
  int32_t Y = static_cast<int32_t>(B);
  switch (Op) {
  case Opcode::Add:
    Result = static_cast<int64_t>(X) + Y;
    break;
  case Opcode::Sub:
    Result = static_cast<int64_t>(X) - Y;
    break;
  case Opcode::Mul:
    Result = static_cast<int64_t>(X) * Y;
    break;
  case Opcode::Div:
  case Opcode::Rem:
    // Division by zero and INT32_MIN / -1 trap at run time (ease reports
    // DivByZero / Overflow; the host would raise SIGFPE here): leave them
    // unfolded so the program keeps its trap.
    if (Y == 0 || (X == INT32_MIN && Y == -1))
      return false;
    Result = Op == Opcode::Div ? X / Y : X % Y;
    break;
  case Opcode::And:
    Result = X & Y;
    break;
  case Opcode::Or:
    Result = X | Y;
    break;
  case Opcode::Xor:
    Result = X ^ Y;
    break;
  case Opcode::Shl:
    Result = static_cast<int32_t>(static_cast<uint32_t>(X)
                                  << (static_cast<uint32_t>(Y) & 31));
    break;
  case Opcode::Shr:
    Result = X >> (static_cast<uint32_t>(Y) & 31);
    break;
  default:
    return false;
  }
  Result = static_cast<int32_t>(Result);
  return true;
}

bool opt::evalConstUnary(Opcode Op, int64_t A, int64_t &Result) {
  int32_t X = static_cast<int32_t>(A);
  switch (Op) {
  case Opcode::Neg:
    Result = static_cast<int32_t>(-static_cast<int64_t>(X));
    return true;
  case Opcode::Not:
    Result = static_cast<int32_t>(~X);
    return true;
  default:
    return false;
  }
}

bool opt::condHoldsFor(CondCode Cond, int64_t Diff) {
  switch (Cond) {
  case CondCode::Eq:
    return Diff == 0;
  case CondCode::Ne:
    return Diff != 0;
  case CondCode::Lt:
    return Diff < 0;
  case CondCode::Le:
    return Diff <= 0;
  case CondCode::Gt:
    return Diff > 0;
  case CondCode::Ge:
    return Diff >= 0;
  }
  CODEREP_UNREACHABLE("bad condition code");
}
