//===- InsnArena.h - Struct-of-arrays RTL storage ---------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-function struct-of-arrays instruction store. Each RTL occupies one
/// 32-bit slot (an InsnRef); its opcode/condition/target/table handle live
/// in a packed InsnHead stream and its three operands in parallel Operand
/// streams. SwitchJump label tables are out-lined into a shared label pool
/// addressed by an (offset, length) handle, so an instruction carries no
/// embedded heap allocation and replication copies RTLs with plain stores.
///
/// Stability contract: an InsnRef stays valid (same slot, same streams)
/// until it is explicitly freed - block splices, erases in *other*
/// positions, and stream growth never invalidate it. Streams are chunked,
/// so element addresses are stable too: an InsnView's references survive
/// any number of alloc() calls. A freed slot goes on a free list that the
/// next allocation reuses.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_RTL_INSNARENA_H
#define CODEREP_RTL_INSNARENA_H

#include "rtl/Insn.h"
#include "rtl/InsnOps.h"
#include "support/Check.h"

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace coderep::rtl {

/// Index of an instruction slot inside an InsnArena.
using InsnRef = uint32_t;
inline constexpr InsnRef InvalidInsnRef = 0xFFFFFFFFu;

/// The packed per-instruction header stream element: everything an RTL
/// carries besides its three operands. 16 bytes.
struct InsnHead {
  Opcode Op = Opcode::Nop;
  CondCode Cond = CondCode::Eq;
  int Target = -1;      ///< label id for Jump/CondJump
  int Callee = 0;       ///< Call only
  uint32_t TableOff = 0; ///< label-pool offset of the SwitchJump table
  uint32_t TableLen = 0; ///< number of labels in the table
};

class InsnView;
class ConstInsnView;
class InsnSeq;

/// The struct-of-arrays instruction store for one function.
class InsnArena {
public:
  InsnArena() = default;
  /// Deep copy: identical slot numbering, so InsnRefs recorded against the
  /// source arena address the same instructions in the copy (Function::clone
  /// relies on this).
  InsnArena(const InsnArena &O)
      : Pool(O.Pool), FreeList(O.FreeList), SlotCount(O.SlotCount),
        PeakSlots(O.PeakSlots) {
    Chunks.reserve(O.Chunks.size());
    for (const auto &C : O.Chunks)
      Chunks.push_back(std::make_unique<Chunk>(*C));
  }
  InsnArena &operator=(const InsnArena &) = delete;

  /// Allocates a slot holding a copy of \p I (table included).
  InsnRef alloc(const Insn &I) {
    InsnRef R = allocSlot();
    set(R, I);
    return R;
  }

  /// Allocates a slot holding a copy of slot \p Src of \p SrcA (which may
  /// be this arena or another function's).
  InsnRef cloneFrom(const InsnArena &SrcA, InsnRef Src) {
    InsnRef R = allocSlot();
    assignFrom(R, SrcA, Src);
    return R;
  }

  /// Same-arena clone (replication's copy step).
  InsnRef clone(InsnRef Src) { return cloneFrom(*this, Src); }

  /// Returns \p R's slot to the free list. The slot's contents are left in
  /// place; only re-allocation may overwrite them.
  void free(InsnRef R) { FreeList.push_back(R); }

  // -- Stream accessors (the hot path: passes that walk whole blocks read
  // -- these directly instead of going through views).
  InsnHead &head(InsnRef R) { return chunk(R).Heads[sub(R)]; }
  const InsnHead &head(InsnRef R) const { return chunk(R).Heads[sub(R)]; }
  Operand &dst(InsnRef R) { return chunk(R).Dst[sub(R)]; }
  const Operand &dst(InsnRef R) const { return chunk(R).Dst[sub(R)]; }
  Operand &src1(InsnRef R) { return chunk(R).Src1[sub(R)]; }
  const Operand &src1(InsnRef R) const { return chunk(R).Src1[sub(R)]; }
  Operand &src2(InsnRef R) { return chunk(R).Src2[sub(R)]; }
  const Operand &src2(InsnRef R) const { return chunk(R).Src2[sub(R)]; }

  int *tableData(uint32_t Off) { return Pool.data() + Off; }
  const int *tableData(uint32_t Off) const { return Pool.data() + Off; }

  /// Overwrites slot \p R with \p I, table included.
  void set(InsnRef R, const Insn &I) {
    InsnHead &H = head(R);
    H.Op = I.Op;
    H.Cond = I.Cond;
    H.Target = I.Target;
    H.Callee = I.Callee;
    dst(R) = I.Dst;
    src1(R) = I.Src1;
    src2(R) = I.Src2;
    setTable(R, I.Table.data(), static_cast<uint32_t>(I.Table.size()));
  }

  /// Overwrites slot \p Dst with slot \p Src of \p SrcA.
  void assignFrom(InsnRef Dst, const InsnArena &SrcA, InsnRef Src) {
    const InsnHead &SH = SrcA.head(Src);
    InsnHead &H = head(Dst);
    H.Op = SH.Op;
    H.Cond = SH.Cond;
    H.Target = SH.Target;
    H.Callee = SH.Callee;
    dst(Dst) = SrcA.dst(Src);
    src1(Dst) = SrcA.src1(Src);
    src2(Dst) = SrcA.src2(Src);
    if (&SrcA == this && SH.TableLen != 0) {
      // The source table lives in this pool; allocating the destination
      // span may reallocate it, so stage the labels first.
      std::vector<int> Tmp(SrcA.tableData(SH.TableOff),
                           SrcA.tableData(SH.TableOff) + SH.TableLen);
      setTable(Dst, Tmp.data(), SH.TableLen);
    } else {
      setTable(Dst, SrcA.tableData(SH.TableOff), SH.TableLen);
    }
  }

  /// Points slot \p R at a fresh pool span holding \p Len labels copied
  /// from \p Data (reuses the current span when the length matches).
  void setTable(InsnRef R, const int *Data, uint32_t Len) {
    InsnHead &H = head(R);
    if (Len == 0) {
      H.TableOff = 0;
      H.TableLen = 0;
      return;
    }
    // Reuse the current span only when it has the right length. The
    // bounds test is a safety check: no handle may address past the pool.
    if (H.TableLen != Len ||
        static_cast<size_t>(H.TableOff) + Len > Pool.size()) {
      H.TableOff = static_cast<uint32_t>(Pool.size());
      H.TableLen = Len;
      Pool.resize(Pool.size() + Len);
    }
    // The source may alias the pool (same-length overwrite of self is a
    // no-op copy; cross-span copies never overlap because spans are
    // disjoint).
    int *Out = Pool.data() + H.TableOff;
    for (uint32_t I = 0; I < Len; ++I)
      Out[I] = Data[I];
  }

  /// Materializes slot \p R as a value-type Insn.
  Insn get(InsnRef R) const {
    const InsnHead &H = head(R);
    Insn I;
    I.Op = H.Op;
    I.Cond = H.Cond;
    I.Target = H.Target;
    I.Callee = H.Callee;
    I.Dst = dst(R);
    I.Src1 = src1(R);
    I.Src2 = src2(R);
    I.Table.assign(tableData(H.TableOff), tableData(H.TableOff) + H.TableLen);
    return I;
  }

  // -- Stats (run_benches.sh prints these).
  uint32_t liveInsns() const {
    return SlotCount - static_cast<uint32_t>(FreeList.size());
  }
  uint32_t peakRefs() const { return PeakSlots; }
  size_t poolBytes() const { return Pool.size() * sizeof(int); }

private:
  static constexpr uint32_t ChunkShift = 8;
  static constexpr uint32_t ChunkSize = 1u << ChunkShift;
  static constexpr uint32_t ChunkMask = ChunkSize - 1;

  /// One fixed-size block of every stream. Chunking keeps element
  /// addresses stable across arena growth.
  struct Chunk {
    InsnHead Heads[ChunkSize];
    Operand Dst[ChunkSize];
    Operand Src1[ChunkSize];
    Operand Src2[ChunkSize];
  };

  Chunk &chunk(InsnRef R) { return *Chunks[R >> ChunkShift]; }
  const Chunk &chunk(InsnRef R) const { return *Chunks[R >> ChunkShift]; }
  static uint32_t sub(InsnRef R) { return R & ChunkMask; }

  InsnRef allocSlot() {
    if (!FreeList.empty()) {
      InsnRef R = FreeList.back();
      FreeList.pop_back();
      return R;
    }
    InsnRef R = SlotCount++;
    if (SlotCount > PeakSlots)
      PeakSlots = SlotCount;
    if ((R >> ChunkShift) >= Chunks.size())
      Chunks.push_back(std::make_unique<Chunk>());
    return R;
  }

  std::vector<std::unique_ptr<Chunk>> Chunks;
  std::vector<int> Pool; ///< out-lined SwitchJump label tables
  std::vector<InsnRef> FreeList;
  uint32_t SlotCount = 0; ///< allocation frontier (slots ever created)
  uint32_t PeakSlots = 0;
};

/// Mutable span view of one SwitchJump table in the label pool. Iterator
/// pointers are computed per call, so they stay correct across pool growth
/// as long as they are not held across a table allocation.
class TableRef {
public:
  TableRef(InsnArena &A, InsnRef R) : A(&A), R(R) {}
  size_t size() const { return A->head(R).TableLen; }
  bool empty() const { return size() == 0; }
  int *begin() const { return A->tableData(A->head(R).TableOff); }
  int *end() const { return begin() + size(); }
  int &operator[](size_t I) const { return begin()[I]; }
  TableRef &operator=(const std::vector<int> &V) {
    A->setTable(R, V.data(), static_cast<uint32_t>(V.size()));
    return *this;
  }
  operator std::vector<int>() const {
    return std::vector<int>(begin(), end());
  }

private:
  InsnArena *A;
  InsnRef R;
};

/// Read-only counterpart of TableRef.
class ConstTableRef {
public:
  ConstTableRef(const InsnArena &A, InsnRef R) : A(&A), R(R) {}
  ConstTableRef(const TableRef &T) : A(nullptr), R(0), Mut(&T) {}
  size_t size() const { return Mut ? Mut->size() : A->head(R).TableLen; }
  bool empty() const { return size() == 0; }
  const int *begin() const {
    return Mut ? Mut->begin() : A->tableData(A->head(R).TableOff);
  }
  const int *end() const { return begin() + size(); }
  const int &operator[](size_t I) const { return begin()[I]; }
  operator std::vector<int>() const {
    return std::vector<int>(begin(), end());
  }

private:
  const InsnArena *A;
  InsnRef R;
  const TableRef *Mut = nullptr;
};

/// A mutable window onto one arena slot that looks like an rtl::Insn:
/// field accesses (I.Op, I.Dst.Base, I.Target = L, ...) compile unchanged
/// because the members are references into the SoA streams. Converts
/// implicitly to Insn (materializing the table) so code passing
/// `const Insn &` keeps working.
class InsnView {
  InsnArena *A;
  InsnRef R;

public:
  Opcode &Op;
  CondCode &Cond;
  Operand &Dst;
  Operand &Src1;
  Operand &Src2;
  int &Target;
  int &Callee;
  TableRef Table;

  InsnView(InsnArena &Arena, InsnRef Ref)
      : A(&Arena), R(Ref), Op(Arena.head(Ref).Op), Cond(Arena.head(Ref).Cond),
        Dst(Arena.dst(Ref)), Src1(Arena.src1(Ref)), Src2(Arena.src2(Ref)),
        Target(Arena.head(Ref).Target), Callee(Arena.head(Ref).Callee),
        Table(Arena, Ref) {}
  InsnView(const InsnView &) = default;

  /// Value assignment: overwrites the viewed slot (not the view).
  InsnView &operator=(const Insn &I) {
    A->set(R, I);
    return *this;
  }
  InsnView &operator=(const InsnView &O) {
    A->assignFrom(R, *O.A, O.R);
    return *this;
  }

  operator Insn() const { return A->get(R); }
  InsnRef ref() const { return R; }
  InsnArena &arena() const { return *A; }

  bool isBinaryOp() const { return detail::isBinaryOpOf(*this); }
  bool isUnaryOp() const { return detail::isUnaryOpOf(*this); }
  bool isUnconditionalTransfer() const {
    return detail::isUnconditionalTransferOf(*this);
  }
  bool isTransfer() const { return detail::isTransferOf(*this); }
  int definedReg() const { return detail::definedRegOf(*this); }
  void appendUsedRegs(std::vector<int> &Out) const {
    detail::appendUsedRegsOf(*this, Out);
  }
  bool writesMem() const { return detail::writesMemOf(*this); }
  bool readsMem() const { return detail::readsMemOf(*this); }
  bool hasSideEffects() const { return detail::hasSideEffectsOf(*this); }
  void renameUses(int From, int To) const {
    InsnView V(*A, R);
    detail::renameUsesOf(V, From, To);
  }
  void renameDef(int From, int To) const {
    InsnView V(*A, R);
    detail::renameDefOf(V, From, To);
  }
};

/// Read-only window onto one arena slot.
class ConstInsnView {
  const InsnArena *A;
  InsnRef R;

public:
  const Opcode &Op;
  const CondCode &Cond;
  const Operand &Dst;
  const Operand &Src1;
  const Operand &Src2;
  const int &Target;
  const int &Callee;
  ConstTableRef Table;

  ConstInsnView(const InsnArena &Arena, InsnRef Ref)
      : A(&Arena), R(Ref), Op(Arena.head(Ref).Op),
        Cond(Arena.head(Ref).Cond), Dst(Arena.dst(Ref)),
        Src1(Arena.src1(Ref)), Src2(Arena.src2(Ref)),
        Target(Arena.head(Ref).Target), Callee(Arena.head(Ref).Callee),
        Table(Arena, Ref) {}
  ConstInsnView(const InsnView &V)
      : ConstInsnView(const_cast<const InsnArena &>(V.arena()), V.ref()) {}
  ConstInsnView(const ConstInsnView &) = default;
  ConstInsnView &operator=(const ConstInsnView &) = delete;

  operator Insn() const { return A->get(R); }
  InsnRef ref() const { return R; }

  bool isBinaryOp() const { return detail::isBinaryOpOf(*this); }
  bool isUnaryOp() const { return detail::isUnaryOpOf(*this); }
  bool isUnconditionalTransfer() const {
    return detail::isUnconditionalTransferOf(*this);
  }
  bool isTransfer() const { return detail::isTransferOf(*this); }
  int definedReg() const { return detail::definedRegOf(*this); }
  void appendUsedRegs(std::vector<int> &Out) const {
    detail::appendUsedRegsOf(*this, Out);
  }
  bool writesMem() const { return detail::writesMemOf(*this); }
  bool readsMem() const { return detail::readsMemOf(*this); }
  bool hasSideEffects() const { return detail::hasSideEffectsOf(*this); }
};

/// The RTL sequence of one basic block: an ordered list of InsnRefs into
/// the function's arena, with a std::vector<rtl::Insn>-shaped interface so
/// passes migrate incrementally. Owns its refs: destruction, erase, and
/// overwriting assignment return slots to the arena free list. Ref-level
/// splicing primitives (detachBack, spliceBack, setRefs) move instructions
/// between sequences of the same arena without copying a byte.
class InsnSeq {
public:
  InsnSeq() = default;
  explicit InsnSeq(InsnArena &Arena) : A(&Arena) {}
  InsnSeq(const InsnSeq &) = delete;
  InsnSeq &operator=(const InsnSeq &) = delete;
  InsnSeq(InsnSeq &&O) noexcept : A(O.A), Refs(std::move(O.Refs)) {
    O.Refs.clear();
  }
  InsnSeq &operator=(InsnSeq &&O) noexcept {
    if (this != &O) {
      freeAll();
      A = O.A;
      Refs = std::move(O.Refs);
      O.Refs.clear();
    }
    return *this;
  }
  ~InsnSeq() { freeAll(); }

  InsnArena &arena() const { return *A; }

  size_t size() const { return Refs.size(); }
  bool empty() const { return Refs.empty(); }

  InsnView operator[](size_t I) { return InsnView(*A, Refs[I]); }
  ConstInsnView operator[](size_t I) const {
    return ConstInsnView(*A, Refs[I]);
  }
  InsnView front() { return (*this)[0]; }
  ConstInsnView front() const { return (*this)[0]; }
  InsnView back() { return (*this)[Refs.size() - 1]; }
  ConstInsnView back() const { return (*this)[Refs.size() - 1]; }

  void push_back(const Insn &I) { Refs.push_back(A->alloc(I)); }
  void pop_back() {
    A->free(Refs.back());
    Refs.pop_back();
  }
  void clear() { freeAll(); }

  void assign(size_t N, const Insn &I) {
    freeAll();
    for (size_t K = 0; K < N; ++K)
      push_back(I);
  }
  void assign(const std::vector<Insn> &V) {
    freeAll();
    for (const Insn &I : V)
      push_back(I);
  }
  InsnSeq &operator=(const std::vector<Insn> &V) {
    assign(V);
    return *this;
  }
  void resize(size_t N) {
    while (Refs.size() > N)
      pop_back();
    if (Refs.size() < N) {
      Insn Filler;
      while (Refs.size() < N)
        push_back(Filler);
    }
  }

  // -- Iterators (random access; dereference yields views).
  template <bool IsConst> class iterator_impl {
    using SeqT = std::conditional_t<IsConst, const InsnSeq, InsnSeq>;
    using ViewT = std::conditional_t<IsConst, ConstInsnView, InsnView>;
    SeqT *S = nullptr;
    size_t I = 0;
    friend class InsnSeq;

  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Insn;
    using difference_type = std::ptrdiff_t;
    using reference = ViewT;
    struct ArrowProxy {
      ViewT V;
      ViewT *operator->() { return &V; }
    };
    using pointer = ArrowProxy;

    iterator_impl() = default;
    iterator_impl(SeqT *S, size_t I) : S(S), I(I) {}
    // iterator -> const_iterator
    template <bool C = IsConst, class = std::enable_if_t<C>>
    iterator_impl(const iterator_impl<false> &O)
        : S(O.seq()), I(O.index()) {}

    SeqT *seq() const { return S; }
    size_t index() const { return I; }

    ViewT operator*() const { return (*S)[I]; }
    ArrowProxy operator->() const { return ArrowProxy{(*S)[I]}; }
    ViewT operator[](difference_type D) const { return (*S)[I + D]; }

    iterator_impl &operator++() {
      ++I;
      return *this;
    }
    iterator_impl operator++(int) {
      iterator_impl T = *this;
      ++I;
      return T;
    }
    iterator_impl &operator--() {
      --I;
      return *this;
    }
    iterator_impl operator--(int) {
      iterator_impl T = *this;
      --I;
      return T;
    }
    iterator_impl &operator+=(difference_type D) {
      I += D;
      return *this;
    }
    iterator_impl &operator-=(difference_type D) {
      I -= D;
      return *this;
    }
    friend iterator_impl operator+(iterator_impl It, difference_type D) {
      It += D;
      return It;
    }
    friend iterator_impl operator+(difference_type D, iterator_impl It) {
      It += D;
      return It;
    }
    friend iterator_impl operator-(iterator_impl It, difference_type D) {
      It -= D;
      return It;
    }
    friend difference_type operator-(const iterator_impl &X,
                                     const iterator_impl &Y) {
      return static_cast<difference_type>(X.I) -
             static_cast<difference_type>(Y.I);
    }
    friend bool operator==(const iterator_impl &X, const iterator_impl &Y) {
      return X.I == Y.I;
    }
    friend bool operator!=(const iterator_impl &X, const iterator_impl &Y) {
      return X.I != Y.I;
    }
    friend bool operator<(const iterator_impl &X, const iterator_impl &Y) {
      return X.I < Y.I;
    }
    friend bool operator<=(const iterator_impl &X, const iterator_impl &Y) {
      return X.I <= Y.I;
    }
    friend bool operator>(const iterator_impl &X, const iterator_impl &Y) {
      return X.I > Y.I;
    }
    friend bool operator>=(const iterator_impl &X, const iterator_impl &Y) {
      return X.I >= Y.I;
    }
  };
  using iterator = iterator_impl<false>;
  using const_iterator = iterator_impl<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, Refs.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, Refs.size()); }

  iterator insert(iterator Pos, const Insn &I) {
    Refs.insert(Refs.begin() + Pos.index(), A->alloc(I));
    return Pos;
  }
  iterator erase(iterator Pos) {
    A->free(Refs[Pos.index()]);
    Refs.erase(Refs.begin() + Pos.index());
    return Pos;
  }
  iterator erase(iterator First, iterator Last) {
    for (size_t K = First.index(); K < Last.index(); ++K)
      A->free(Refs[K]);
    Refs.erase(Refs.begin() + First.index(), Refs.begin() + Last.index());
    return First;
  }

  // -- Ref-level primitives (same-arena splicing; no instruction bytes
  // -- move).
  const std::vector<InsnRef> &refs() const { return Refs; }
  /// Replaces the ref list wholesale without freeing the old refs (callers
  /// manage slot ownership; Function::clone copies lists verbatim).
  void setRefs(std::vector<InsnRef> R) { Refs = std::move(R); }
  /// Detaches and returns the last ref without freeing its slot.
  InsnRef detachBack() {
    InsnRef R = Refs.back();
    Refs.pop_back();
    return R;
  }
  /// Appends an already-allocated ref (ownership transfers to this seq).
  void attachBack(InsnRef R) { Refs.push_back(R); }
  /// Moves every instruction of \p From to the end of this sequence.
  void spliceBack(InsnSeq &From) {
    Refs.insert(Refs.end(), From.Refs.begin(), From.Refs.end());
    From.Refs.clear();
  }
  /// Appends clones of every instruction of \p From (any arena).
  void appendClonesOf(const InsnSeq &From) {
    Refs.reserve(Refs.size() + From.Refs.size());
    for (InsnRef R : From.Refs)
      Refs.push_back(A->cloneFrom(*From.A, R));
  }

private:
  void freeAll() {
    for (InsnRef R : Refs)
      A->free(R);
    Refs.clear();
  }

  InsnArena *A = nullptr;
  std::vector<InsnRef> Refs;
};

} // namespace coderep::rtl

#endif // CODEREP_RTL_INSNARENA_H
