//===- RtlArenaTest.cpp - SoA instruction arena unit tests --------------------===//
//
// The contracts the passes and the replication undo log lean on:
//
//  * InsnRef/InsnView stability - a ref (and a view's stream references)
//    stays valid across arbitrary arena growth, erases elsewhere, and
//    InsnSeq splices, until the slot itself is freed;
//  * label-pool handles - SwitchJump tables live in the shared pool as
//    (offset, length) spans, survive same-arena clones and cross-arena
//    clones, and same-length overwrites reuse their span;
//  * free-list reuse - freed slots are recycled LIFO.
//
//===----------------------------------------------------------------------===//

#include "rtl/InsnArena.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::rtl;

namespace {

Insn addImm(int Dst, int Src, int K) {
  return Insn::binary(Opcode::Add, Operand::reg(Dst), Operand::reg(Src),
                      Operand::imm(K));
}

TEST(InsnArena, RefsAndViewsSurviveGrowth) {
  InsnArena A;
  InsnRef R = A.alloc(addImm(FirstVirtual, FirstVirtual, 7));
  InsnView V(A, R);
  // Force many chunk allocations.
  for (int I = 0; I < 5000; ++I)
    A.alloc(Insn(Opcode::Nop));
  EXPECT_EQ(V.Op, Opcode::Add);
  EXPECT_TRUE(V.Dst.isRegNo(FirstVirtual));
  EXPECT_EQ(V.Src2.Disp, 7);
  // The ref addresses the same slot through the accessors too.
  EXPECT_EQ(A.head(R).Op, Opcode::Add);
  V.Src2 = Operand::imm(9);
  EXPECT_EQ(A.src2(R).Disp, 9);
}

TEST(InsnArena, FreeListIsReusedLifoOutsideSpeculation) {
  InsnArena A;
  InsnRef R0 = A.alloc(Insn(Opcode::Nop));
  InsnRef R1 = A.alloc(Insn(Opcode::Nop));
  A.free(R0);
  A.free(R1);
  EXPECT_EQ(A.liveInsns(), 0u);
  // LIFO: the most recently freed slot comes back first.
  EXPECT_EQ(A.alloc(Insn(Opcode::Nop)), R1);
  EXPECT_EQ(A.alloc(Insn(Opcode::Nop)), R0);
  // No new slots were created.
  EXPECT_EQ(A.peakRefs(), 2u);
}

TEST(InsnArena, SwitchTablesLiveInThePool) {
  InsnArena A;
  InsnRef R =
      A.alloc(Insn::switchJump(Operand::reg(FirstVirtual), {10, 20, 30}));
  EXPECT_EQ(A.head(R).TableLen, 3u);
  EXPECT_EQ(A.poolBytes(), 3 * sizeof(int));
  Insn Out = A.get(R);
  EXPECT_EQ(Out.Table, (std::vector<int>{10, 20, 30}));

  // Same-length overwrite reuses the span (no pool growth).
  TableRef T(A, R);
  T = std::vector<int>{11, 21, 31};
  EXPECT_EQ(A.poolBytes(), 3 * sizeof(int));
  EXPECT_EQ(A.get(R).Table, (std::vector<int>{11, 21, 31}));

  // A different length allocates a fresh span.
  A.setTable(R, std::vector<int>{1, 2, 3, 4}.data(), 4);
  EXPECT_EQ(A.get(R).Table, (std::vector<int>{1, 2, 3, 4}));
}

TEST(InsnArena, CloneCopiesTableIntoFreshSpan) {
  InsnArena A;
  InsnRef R =
      A.alloc(Insn::switchJump(Operand::reg(FirstVirtual), {5, 6, 7}));
  InsnRef C = A.clone(R);
  ASSERT_NE(A.head(C).TableOff, A.head(R).TableOff);
  // Mutating the clone's table leaves the original untouched.
  TableRef(A, C)[0] = 99;
  EXPECT_EQ(A.get(R).Table[0], 5);
  EXPECT_EQ(A.get(C).Table[0], 99);

  // Cross-arena clone carries the table into the destination pool.
  InsnArena B;
  InsnRef X = B.cloneFrom(A, R);
  EXPECT_EQ(B.get(X).Table, (std::vector<int>{5, 6, 7}));
}

TEST(InsnArena, DeepCopyPreservesSlotNumbering) {
  InsnArena A;
  InsnRef R0 = A.alloc(addImm(FirstVirtual, FirstVirtual, 1));
  InsnRef R1 =
      A.alloc(Insn::switchJump(Operand::reg(FirstVirtual), {1, 2}));
  InsnArena B(A);
  // Refs recorded against A address the same instructions in B.
  EXPECT_EQ(B.head(R0).Op, Opcode::Add);
  EXPECT_EQ(B.get(R1).Table, (std::vector<int>{1, 2}));
  // The copies are independent.
  B.src2(R0) = Operand::imm(42);
  EXPECT_EQ(A.src2(R0).Disp, 1);
}

TEST(InsnSeq, EraseElsewhereAndSplicesKeepRefsValid) {
  InsnArena A;
  InsnSeq S(A);
  for (int I = 0; I < 8; ++I)
    S.push_back(addImm(FirstVirtual + I, FirstVirtual, I));
  InsnRef Watched = S.refs()[5];

  // Erase in front of the watched instruction: its ref (and contents)
  // survive, only its position shifts.
  S.erase(S.begin() + 1);
  EXPECT_EQ(S.refs()[4], Watched);
  EXPECT_EQ(A.src2(Watched).Disp, 5);

  // Splice the whole sequence into another block: zero instruction bytes
  // move, the very same slots change owner.
  InsnSeq D(A);
  D.push_back(Insn(Opcode::Nop));
  D.spliceBack(S);
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(D.refs()[5], Watched);
  EXPECT_EQ(A.src2(Watched).Disp, 5);
}

TEST(InsnSeq, DetachAttachTransfersOwnershipWithoutFreeing) {
  InsnArena A;
  InsnSeq S(A);
  S.push_back(addImm(FirstVirtual, FirstVirtual, 1));
  S.push_back(Insn::jump(3));
  InsnRef Jump = S.detachBack();
  EXPECT_EQ(S.size(), 1u);
  // The slot is still live (not on the free list).
  EXPECT_EQ(A.liveInsns(), 2u);
  EXPECT_EQ(A.head(Jump).Op, Opcode::Jump);

  InsnSeq D(A);
  D.attachBack(Jump);
  EXPECT_EQ(D.back().Op, Opcode::Jump);
}

TEST(InsnSeq, AppendClonesOfCopiesAcrossArenas) {
  InsnArena A;
  InsnSeq S(A);
  S.push_back(addImm(FirstVirtual, FirstVirtual, 4));
  S.push_back(Insn::switchJump(Operand::reg(FirstVirtual), {7, 8}));

  InsnArena B2;
  InsnSeq D(B2);
  D.appendClonesOf(S);
  ASSERT_EQ(D.size(), 2u);
  EXPECT_EQ(static_cast<Insn>(D[0]), static_cast<Insn>(S[0]));
  EXPECT_EQ(static_cast<Insn>(D[1]), static_cast<Insn>(S[1]));
}

TEST(InsnSeq, DestructionReturnsSlotsToTheFreeList) {
  InsnArena A;
  {
    InsnSeq S(A);
    S.push_back(Insn(Opcode::Nop));
    S.push_back(Insn(Opcode::Nop));
    EXPECT_EQ(A.liveInsns(), 2u);
  }
  EXPECT_EQ(A.liveInsns(), 0u);
  EXPECT_EQ(A.peakRefs(), 2u);
}

} // namespace
