//===- Layout.h - Instruction address assignment ----------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns a static memory address to every RTL of a program: functions and
/// blocks in positional order, 4 bytes per instruction, delay slots placed
/// directly after their transfer. The interpreter reports these addresses
/// to the instruction-cache simulator, standing in for EASE's address
/// tracing of real generated code.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_EASE_LAYOUT_H
#define CODEREP_EASE_LAYOUT_H

#include "cfg/Function.h"

#include <cstdint>
#include <vector>

namespace coderep::ease {

/// Static code addresses for one program.
struct CodeLayout {
  /// BlockAddr[f][b] is the address of the first RTL of block b of
  /// function f; consecutive RTLs are 4 bytes apart, with the delay slot
  /// (when present) after the terminator.
  std::vector<std::vector<uint32_t>> BlockAddr;

  /// Total code bytes.
  uint32_t CodeBytes = 0;

  /// Address of RTL \p InsnIdx of the given block.
  uint32_t insnAddr(int Func, int Block, int InsnIdx) const {
    return BlockAddr[Func][Block] + 4 * static_cast<uint32_t>(InsnIdx);
  }
};

/// Computes the layout; \p Base is the address of the first instruction.
CodeLayout layoutCode(const cfg::Program &P, uint32_t Base = 0);

/// Lays out one function from \p Addr: appends the address of each of its
/// blocks to \p BlockAddr and advances \p Addr past its last RTL.
void layoutFunction(const cfg::Function &F, uint32_t &Addr,
                    std::vector<uint32_t> &BlockAddr);

} // namespace coderep::ease

#endif // CODEREP_EASE_LAYOUT_H
