//===- Cse.cpp - Common subexpression elimination ------------------------------===//
//
// Value numbering with copy and constant propagation over extended basic
// blocks: a block with a unique, already-processed predecessor inherits its
// value table. Replication produces exactly such single-predecessor
// fall-through chains, which is how "an initial value is assigned to a
// register, followed by an unconditional jump" collapses after the jump is
// replaced by replicated code (§3.3.2). Store-to-load forwarding is
// included; any store or call invalidates unrelated memory values.
//
// The inheritance is scoped, not copied: one table is walked depth-first
// over the extended-basic-block forest, and an undo log restores a block's
// in-state before each of its siblings, so an n-deep chain costs O(n)
// memory instead of n tables.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "cfg/FlatCfg.h"
#include "opt/ConstEval.h"
#include "support/Check.h"

#include <array>
#include <unordered_map>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

using ExprKey = std::array<int64_t, 8>;

/// FNV-1a over the key words. Only used for bucketing - CSE never iterates
/// the expression table, so hash order can't leak into decisions.
struct ExprKeyHash {
  size_t operator()(const ExprKey &K) const {
    uint64_t H = 1469598103934665603ull;
    for (int64_t V : K) {
      H ^= static_cast<uint64_t>(V);
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

/// The value-numbering state at one program point, with an undo log.
///
/// Registers are small dense integers and value numbers are allocated
/// consecutively from 1, so every side table except the expression map is
/// a flat vector indexed directly (-1 / false = absent); the expression
/// map is a hash table. Every container is find-or-insert only - nothing
/// here is ever iterated - so the layout cannot perturb decisions. Every
/// write records the slot's old contents, so undoTo(mark()) returns the
/// table to exactly the state it had at the mark (the vectors may stay
/// longer, padded with "absent"). This table sits on the hottest path of
/// the fixpoint loop.
struct ValueTable {
  std::vector<int> RegVN;    ///< register -> value number (-1 = none)
  std::unordered_map<ExprKey, int, ExprKeyHash>
      ExprVN;                ///< expression -> value number
  std::vector<int64_t> ConstVal; ///< value number -> known constant
  std::vector<uint8_t> HasConst; ///< value number -> constant known?
  std::vector<int> Holder;   ///< value number -> register holding it (-1)
  int MemEpoch = 0;
  int NextVN = 1;

  /// One overwritten side-table slot: RegVN[Index], Holder[Index], or
  /// HasConst/ConstVal[Index].
  struct SlotUndo {
    enum : uint8_t { Reg, Hold, Const } Kind;
    uint8_t OldHasConst;
    int Index;
    int64_t Old;
  };
  /// One expression-map write; Old = 0 (no value number) if the key was
  /// inserted rather than overwritten.
  struct ExprUndo {
    ExprKey Key;
    int Old;
  };
  std::vector<SlotUndo> SlotLog;
  std::vector<ExprUndo> ExprLog;

  struct Mark {
    size_t Slots, Exprs;
    int MemEpoch, NextVN;
  };
  Mark mark() const {
    return {SlotLog.size(), ExprLog.size(), MemEpoch, NextVN};
  }

  void undoTo(const Mark &M) {
    while (SlotLog.size() > M.Slots) {
      const SlotUndo &U = SlotLog.back();
      switch (U.Kind) {
      case SlotUndo::Reg:
        RegVN[U.Index] = static_cast<int>(U.Old);
        break;
      case SlotUndo::Hold:
        Holder[U.Index] = static_cast<int>(U.Old);
        break;
      case SlotUndo::Const:
        HasConst[U.Index] = U.OldHasConst;
        ConstVal[U.Index] = U.Old;
        break;
      }
      SlotLog.pop_back();
    }
    while (ExprLog.size() > M.Exprs) {
      const ExprUndo &U = ExprLog.back();
      if (U.Old == 0)
        ExprVN.erase(U.Key);
      else
        ExprVN[U.Key] = U.Old;
      ExprLog.pop_back();
    }
    MemEpoch = M.MemEpoch;
    NextVN = M.NextVN;
  }

  void writeReg(int R, int VN) {
    ensure(RegVN, R);
    SlotLog.push_back({SlotUndo::Reg, 0, R, RegVN[R]});
    RegVN[R] = VN;
  }
  void writeHolder(int VN, int R) {
    ensure(Holder, VN);
    SlotLog.push_back({SlotUndo::Hold, 0, VN, Holder[VN]});
    Holder[VN] = R;
  }

  int freshVN() { return NextVN++; }

  static void ensure(std::vector<int> &V, int I) {
    if (static_cast<size_t>(I) >= V.size())
      V.resize(I + 1, -1);
  }

  /// \p R's value number without creating one, or -1.
  int lookupReg(int R) const {
    return static_cast<size_t>(R) < RegVN.size() ? RegVN[R] : -1;
  }

  int vnOfReg(int R) {
    int VN = lookupReg(R);
    if (VN >= 0)
      return VN;
    VN = freshVN();
    writeReg(R, VN);
    writeHolder(VN, R);
    return VN;
  }

  int vnOfExpr(ExprKey Key) {
    auto [It, Inserted] = ExprVN.try_emplace(Key, NextVN);
    if (Inserted) {
      ExprLog.push_back({Key, 0});
      ++NextVN;
    }
    return It->second;
  }

  /// Binds \p Key to \p VN, replacing any earlier binding.
  void bindExpr(const ExprKey &Key, int VN) {
    auto [It, Inserted] = ExprVN.try_emplace(Key, VN);
    ExprLog.push_back({Key, Inserted ? 0 : It->second});
    It->second = VN;
  }

  bool hasConst(int VN) const {
    return static_cast<size_t>(VN) < HasConst.size() && HasConst[VN];
  }
  int64_t constOf(int VN) const { return ConstVal[VN]; }
  void setConst(int VN, int64_t V) {
    if (static_cast<size_t>(VN) >= HasConst.size()) {
      HasConst.resize(VN + 1, 0);
      ConstVal.resize(VN + 1, 0);
    }
    SlotLog.push_back({SlotUndo::Const, HasConst[VN], VN, ConstVal[VN]});
    HasConst[VN] = 1;
    ConstVal[VN] = V;
  }

  int vnOfOperand(const Operand &O) {
    switch (O.Kind) {
    case OperandKind::Reg:
      return vnOfReg(O.Base);
    case OperandKind::Imm: {
      int VN = vnOfExpr({-1, O.Disp, 0, 0, 0, 0, 0, 0});
      setConst(VN, static_cast<int32_t>(O.Disp));
      return VN;
    }
    case OperandKind::Mem:
      return vnOfExpr(memKey(O, MemEpoch));
    case OperandKind::None:
      return vnOfExpr({-3, 0, 0, 0, 0, 0, 0, 0});
    }
    CODEREP_UNREACHABLE("bad operand kind");
  }

  /// Canonical key for a memory access at the given epoch: address
  /// components by value number, plus access size.
  ExprKey memKey(const Operand &O, int Epoch) {
    int64_t BaseVN = O.Base >= 0 ? vnOfReg(O.Base) : -1;
    int64_t IndexVN = O.Index >= 0 ? vnOfReg(O.Index) : -1;
    return {-2, BaseVN, IndexVN, O.Scale, O.Sym, O.Disp, O.Size, Epoch};
  }

  /// Canonical key for the *address* of a memory operand (no epoch; used
  /// by Lea, whose result does not depend on memory contents).
  ExprKey addrKey(const Operand &O) {
    int64_t BaseVN = O.Base >= 0 ? vnOfReg(O.Base) : -1;
    int64_t IndexVN = O.Index >= 0 ? vnOfReg(O.Index) : -1;
    return {-4, BaseVN, IndexVN, O.Scale, O.Sym, O.Disp, 0, 0};
  }

  /// The register currently holding \p VN, or -1.
  int validHolder(int VN) const {
    int H = static_cast<size_t>(VN) < Holder.size() ? Holder[VN] : -1;
    if (H < 0 || lookupReg(H) != VN)
      return -1;
    return H;
  }

  void setReg(int R, int VN) {
    writeReg(R, VN);
    if (validHolder(VN) < 0)
      writeHolder(VN, R);
  }

  void killMemory() { ++MemEpoch; }
};

class CsePass {
public:
  /// \p Flat, when given, serves the predecessor lists (it is the
  /// manager's cached CSR snapshot; content and order are identical to
  /// Function::predecessors(), which is built on demand otherwise).
  CsePass(Function &F, const target::Target &T,
          const cfg::FlatCfg *Flat = nullptr)
      : F(F), T(T), Flat(Flat) {}

  bool run() {
    const int N = F.size();
    std::vector<std::vector<int>> PredsOwned;
    if (!Flat)
      PredsOwned = F.predecessors();
    // The extended-basic-block forest: a block's parent is its sole
    // predecessor when that comes earlier in the layout. Children are
    // linked in ascending block order.
    std::vector<int> Parent(N, -1), FirstChild(N, -1), NextSibling(N, -1);
    for (int B = N - 1; B >= 0; --B) {
      int SolePred = -1;
      if (Flat) {
        cfg::FlatCfg::Range R = Flat->preds(B);
        if (R.size() == 1)
          SolePred = *R.begin();
      } else if (PredsOwned[B].size() == 1) {
        SolePred = PredsOwned[B][0];
      }
      if (SolePred >= 0 && SolePred < B) {
        Parent[B] = SolePred;
        NextSibling[B] = FirstChild[SolePred];
        FirstChild[SolePred] = B;
      }
    }

    // Depth-first over each tree with an explicit stack: a block starts
    // from exactly its parent's out-state, and leaving it undoes its
    // writes. A root starts from (and returns to) the empty table.
    ValueTable VT;
    struct Frame {
      int NextChild;
      ValueTable::Mark Mark;
    };
    std::vector<Frame> Stack;
    bool Changed = false;
    auto enter = [&](int B) {
      Stack.push_back({FirstChild[B], VT.mark()});
      Changed |= processBlock(*F.block(B), VT);
    };
    for (int Root = 0; Root < N; ++Root) {
      if (Parent[Root] >= 0)
        continue;
      enter(Root);
      while (!Stack.empty()) {
        Frame &Top = Stack.back();
        if (int C = Top.NextChild; C >= 0) {
          Top.NextChild = NextSibling[C];
          enter(C);
        } else {
          VT.undoTo(Top.Mark);
          Stack.pop_back();
        }
      }
    }
    return Changed;
  }

private:
  Function &F;
  const target::Target &T;
  const cfg::FlatCfg *Flat;

  bool processBlock(BasicBlock &B, ValueTable &VT);
  template <class InsnT> bool rewriteOperands(InsnT &I, ValueTable &VT);
};

/// \p I is an Insn or an arena view; rewrites through a view land directly
/// in the SoA operand streams.
template <class InsnT>
bool CsePass::rewriteOperands(InsnT &I, ValueTable &VT) {
  // SP/FP arithmetic is the stack discipline: hands off.
  int D = I.definedReg();
  if (D == RegSP || D == RegFP)
    return false;
  bool Changed = false;
  auto rewrite = [&](Operand &O, bool ValuePosition) {
    if (!ValuePosition || !O.isReg())
      return;
    if (O.Base == RegSP || O.Base == RegFP || O.Base == RegCC)
      return;
    int VN = VT.vnOfReg(O.Base);
    Operand Saved = O;
    // Constant propagation first.
    if (VT.hasConst(VN)) {
      O = Operand::imm(VT.constOf(VN));
      if (T.isLegal(I)) {
        Changed |= !(O == Saved);
        return;
      }
      O = Saved;
    }
    // Copy propagation: use the oldest holder of the same value.
    int H = VT.validHolder(VN);
    if (H >= 0 && H != O.Base && H != RegCC && H != RegRV) {
      O = Operand::reg(H);
      if (T.isLegal(I)) {
        Changed = true;
        return;
      }
      O = Saved;
    }
  };
  rewrite(I.Src1, true);
  rewrite(I.Src2, true);
  return Changed;
}

bool CsePass::processBlock(BasicBlock &B, ValueTable &VT) {
  bool Changed = false;
  for (size_t Idx = 0; Idx < B.Insns.size(); ++Idx) {
    auto I = B.Insns[Idx];
    Changed |= rewriteOperands(I, VT);

    int D = I.definedReg();
    bool StackDef = D == RegSP || D == RegFP;

    switch (I.Op) {
    case Opcode::Move: {
      if (I.Dst.isMem()) {
        // Store: kill memory, then forward the stored value to later loads
        // of the same address.
        int VN = VT.vnOfOperand(I.Src1);
        VT.killMemory();
        // Store-to-load forwarding is value-preserving only for full
        // words: a byte store truncates and the later load sign-extends.
        if (I.Dst.Size == 4)
          VT.bindExpr(VT.memKey(I.Dst, VT.MemEpoch), VN);
        break;
      }
      if (StackDef) {
        VT.setReg(D, VT.freshVN());
        break;
      }
      int VN = VT.vnOfOperand(I.Src1);
      // A load whose value is already in a register becomes a register
      // move; a known constant becomes an immediate move.
      if (I.Src1.isMem()) {
        int H = VT.validHolder(VN);
        if (VT.hasConst(VN)) {
          Insn New = Insn::move(I.Dst, Operand::imm(VT.constOf(VN)));
          if (T.isLegal(New)) {
            I = New;
            Changed = true;
          }
        } else if (H >= 0 && H != D && H != RegCC) {
          Insn New = Insn::move(I.Dst, Operand::reg(H));
          if (T.isLegal(New)) {
            I = New;
            Changed = true;
          }
        }
      }
      VT.setReg(D, VN);
      if (I.Src1.isImm())
        VT.setConst(VN, static_cast<int32_t>(I.Src1.Disp));
      break;
    }
    case Opcode::Lea:
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr: {
      if (StackDef || !I.Dst.isReg()) {
        if (I.Dst.isMem())
          VT.killMemory();
        if (D >= 0)
          VT.setReg(D, VT.freshVN());
        break;
      }
      ExprKey Key;
      int VN1 = -1, VN2 = -1;
      if (I.Op == Opcode::Lea) {
        Key = VT.addrKey(I.Src1);
      } else {
        VN1 = VT.vnOfOperand(I.Src1);
        VN2 = VT.vnOfOperand(I.Src2);
        Key = {static_cast<int>(I.Op), VN1, VN2, 0, 0, 0, 0, 0};
      }
      int VN = VT.vnOfExpr(Key);
      // Constant propagation through the operation itself: when every
      // operand's value is known, the result is known, even on targets
      // where an immediate operand would be illegal in this RTL.
      if (I.Op != Opcode::Lea && !VT.hasConst(VN)) {
        int64_t R;
        if (I.isUnaryOp()) {
          if (VT.hasConst(VN1) && evalConstUnary(I.Op, VT.constOf(VN1), R))
            VT.setConst(VN, R);
        } else if (I.isBinaryOp()) {
          if (VT.hasConst(VN1) && VT.hasConst(VN2) &&
              evalConstBinary(I.Op, VT.constOf(VN1), VT.constOf(VN2), R))
            VT.setConst(VN, R);
        }
      }
      int H = VT.validHolder(VN);
      if (VT.hasConst(VN)) {
        Insn New = Insn::move(I.Dst, Operand::imm(VT.constOf(VN)));
        if (T.isLegal(New) && !(New == I)) {
          I = New;
          Changed = true;
        }
      } else if (H >= 0 && H != D) {
        Insn New = Insn::move(I.Dst, Operand::reg(H));
        if (T.isLegal(New)) {
          I = New;
          Changed = true;
        }
      }
      VT.setReg(D, VN);
      break;
    }
    case Opcode::Compare: {
      int VN1 = VT.vnOfOperand(I.Src1);
      int VN2 = VT.vnOfOperand(I.Src2);
      int VN = VT.vnOfExpr(
          {static_cast<int>(Opcode::Compare), VN1, VN2, 0, 0, 0, 0, 0});
      if (VT.hasConst(VN1) && VT.hasConst(VN2))
        VT.setConst(VN, static_cast<int32_t>(VT.constOf(VN1)) -
                            static_cast<int64_t>(static_cast<int32_t>(
                                VT.constOf(VN2))));
      VT.setReg(RegCC, VN);
      break;
    }
    case Opcode::CondJump: {
      // Constant folding at conditional branches, with the comparison
      // value propagated across the extended basic block (§3.3.1).
      int CC = VT.lookupReg(RegCC);
      if (CC >= 0 && VT.hasConst(CC)) {
        if (condHoldsFor(I.Cond, VT.constOf(CC)))
          I = Insn::jump(I.Target);
        else
          B.Insns.erase(B.Insns.begin() + Idx);
        Changed = true;
        return Changed; // terminator handled; block done
      }
      break;
    }
    case Opcode::Call:
      VT.killMemory();
      VT.setReg(RegRV, VT.freshVN());
      break;
    case Opcode::Jump:
    case Opcode::SwitchJump:
    case Opcode::Return:
    case Opcode::Nop:
      break;
    }
  }
  return Changed;
}

class LocalCsePass final : public Pass {
public:
  explicit LocalCsePass(const target::Target &T) : T(T) {}
  const char *name() const override { return "common subexpression elim"; }
  PassResult run(Function &F, AnalysisManager &AM) override {
    PassResult R;
    R.Changed = runLocalCse(F, T, AM);
    // Constant propagation folds conditional branches into jumps (or
    // deletes them), changing edges, so a change preserves no shape or
    // dataflow result (the PassResult default).
    return R;
  }

private:
  const target::Target &T;
};

} // namespace

bool opt::runLocalCse(Function &F, const target::Target &T) {
  return CsePass(F, T).run();
}

bool opt::runLocalCse(Function &F, const target::Target &T,
                      AnalysisManager &AM) {
  // The FlatCfg reference stays valid through run(): CSE edits in place
  // and never queries the manager again.
  return CsePass(F, T, &AM.flatCfg()).run();
}

std::unique_ptr<Pass> opt::createLocalCsePass(const target::Target &T) {
  return std::make_unique<LocalCsePass>(T);
}
