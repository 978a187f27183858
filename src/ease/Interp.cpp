//===- Interp.cpp - RTL interpreter with EASE-style measurement -------------===//
//
// Two halves: a decoder that turns each function into a flat array of
// DInsns once (see Interp.h for the form), and an executor that steps
// through those arrays with a switch on the decoded opcode.
//
//===----------------------------------------------------------------------===//

#include "ease/Interp.h"

#include "support/Check.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstring>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::ease;
using namespace coderep::rtl;

FetchSink::~FetchSink() = default;

void ease::layoutFunction(const Function &F, uint32_t &Addr,
                          std::vector<uint32_t> &BlockAddr) {
  BlockAddr.reserve(BlockAddr.size() + static_cast<size_t>(F.size()));
  for (int B = 0; B < F.size(); ++B) {
    BlockAddr.push_back(Addr);
    Addr += 4 * static_cast<uint32_t>(F.block(B)->rtlCount());
  }
}

CodeLayout ease::layoutCode(const Program &P, uint32_t Base) {
  CodeLayout L;
  uint32_t Addr = Base;
  for (const auto &F : P.Functions)
    layoutFunction(*F, Addr, L.BlockAddr.emplace_back());
  L.CodeBytes = Addr - Base;
  return L;
}

namespace {

/// First data address handed to globals; lower addresses trap so that null
/// dereferences are caught.
constexpr uint32_t GlobalBase = 0x100;

/// Register-file slots: physical registers 0..63, then the function's
/// virtual registers from FirstVirtual up to its vregLimit().
constexpr int PhysRegs = 64;

/// Deeper call chains trap as BadProgram instead of exhausting the host.
constexpr size_t MaxCallDepth = 100000;

/// Decoded opcodes: the rtl::Opcode values, then three that exist only in
/// decoded form.
enum class DOp : uint8_t {
  Move = static_cast<uint8_t>(Opcode::Move),
  Add = static_cast<uint8_t>(Opcode::Add),
  Sub = static_cast<uint8_t>(Opcode::Sub),
  Mul = static_cast<uint8_t>(Opcode::Mul),
  Div = static_cast<uint8_t>(Opcode::Div),
  Rem = static_cast<uint8_t>(Opcode::Rem),
  And = static_cast<uint8_t>(Opcode::And),
  Or = static_cast<uint8_t>(Opcode::Or),
  Xor = static_cast<uint8_t>(Opcode::Xor),
  Shl = static_cast<uint8_t>(Opcode::Shl),
  Shr = static_cast<uint8_t>(Opcode::Shr),
  Neg = static_cast<uint8_t>(Opcode::Neg),
  Not = static_cast<uint8_t>(Opcode::Not),
  Lea = static_cast<uint8_t>(Opcode::Lea),
  Compare = static_cast<uint8_t>(Opcode::Compare),
  CondJump = static_cast<uint8_t>(Opcode::CondJump),
  Jump = static_cast<uint8_t>(Opcode::Jump),
  SwitchJump = static_cast<uint8_t>(Opcode::SwitchJump),
  Call = static_cast<uint8_t>(Opcode::Call),
  Return = static_cast<uint8_t>(Opcode::Return),
  Nop = static_cast<uint8_t>(Opcode::Nop),
  Fault,       ///< malformed RTL: traps BadProgram with FaultMessage[Target]
  FallThrough, ///< end of a block without a transfer: a step, no fetch
  FellOff,     ///< control left the function's last block
};

/// Messages of the decode-time faults, indexed by DInsn::Target.
enum FaultKind { BadRegister, MissingOperand, BadDestination, BadSymbol };
const char *const FaultMessage[] = {
    "register out of range",
    "use of missing operand",
    "bad destination operand",
    "bad global symbol",
};

/// A pre-classified operand. Reg: Base is the register slot. Imm: Disp is
/// the value. Mem: the address is Disp (displacement plus the resolved
/// global address) + slot Base + slot Index * Scale, absent slots -1.
struct DOperand {
  OperandKind Kind = OperandKind::None;
  uint8_t Size = 4;
  int32_t Base = -1;
  int32_t Index = -1;
  int32_t Scale = 1;
  int64_t Disp = 0;
};

/// One decoded RTL, fall-through step or fell-off marker.
struct DInsn {
  DOp Op = DOp::Nop;
  CondCode Cond = CondCode::Eq;
  /// The next step; for CondJump the not-taken path.
  int32_t Next = -1;
  /// Jump/CondJump: taken path (-1 for an unknown label). SwitchJump:
  /// first entry in DFunction::Tables. Call: callee id. Fault: message.
  int32_t Target = -1;
  int32_t Count = 0;  ///< SwitchJump table entries
  int32_t Delay = -1; ///< delay-slot index of a transfer, -1 if none
  DOperand Dst, Src1, Src2;
};

struct DFunction {
  std::vector<DInsn> Code;
  std::vector<int32_t> Tables; ///< switch targets (-1: unknown label)
  int32_t Entry = 0;           ///< first step of a call
  uint32_t CodeBase = 0;       ///< fetch address of Code[0]
  uint32_t FrameSize = PhysRegs;
};

} // namespace

struct ease::DecodedProgram::Impl {
  std::vector<DFunction> Functions;
  std::vector<Global> Globals;
  std::vector<uint32_t> GlobalAddr;
  uint32_t GlobalsEnd = GlobalBase; ///< one past the last global byte
  int Main = -1;

  void layOutGlobals(const std::vector<Global> &Gs);
  void decode(const Function &F, uint32_t &Addr);
};

namespace {

/// Decodes the RTLs of one function into DInsns.
class Decoder {
public:
  Decoder(const Function &F, const std::vector<uint32_t> &GlobalAddr)
      : F(F), GlobalAddr(GlobalAddr) {}

  /// Decodes \p I into \p D; \p Next and \p Delay are its position's
  /// sequential successor and delay slot.
  template <typename InsnT>
  void decode(const InsnT &I, int32_t Next, int32_t Delay,
              const std::vector<int32_t> &LabelEntry,
              std::vector<int32_t> &Tables, DInsn &D) {
    Fault = -1;
    D.Op = static_cast<DOp>(I.Op);
    D.Cond = I.Cond;
    D.Next = Next;
    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::Move:
    case Opcode::Neg:
    case Opcode::Not:
      D.Src1 = value(I.Src1);
      D.Dst = dest(I.Dst);
      break;
    case Opcode::Lea:
      D.Src1 = address(I.Src1);
      D.Dst = dest(I.Dst);
      break;
    case Opcode::Compare:
      D.Src1 = value(I.Src1);
      D.Src2 = value(I.Src2);
      break;
    case Opcode::CondJump:
    case Opcode::Jump:
      D.Target = labelEntry(LabelEntry, I.Target);
      D.Delay = Delay;
      break;
    case Opcode::SwitchJump:
      D.Src1 = value(I.Src1);
      D.Target = static_cast<int32_t>(Tables.size());
      D.Count = static_cast<int32_t>(I.Table.size());
      for (int Label : I.Table)
        Tables.push_back(labelEntry(LabelEntry, Label));
      D.Delay = Delay;
      break;
    case Opcode::Call:
      D.Target = I.Callee;
      break;
    case Opcode::Return:
      D.Delay = Delay;
      break;
    default: // binary ALU ops
      D.Src1 = value(I.Src1);
      D.Src2 = value(I.Src2);
      D.Dst = dest(I.Dst);
      break;
    }
    if (Fault >= 0) {
      D.Op = DOp::Fault;
      D.Target = Fault;
    }
  }

private:
  const Function &F;
  const std::vector<uint32_t> &GlobalAddr;
  int Fault = -1; ///< first FaultKind found in the current RTL

  void fail(FaultKind K) {
    if (Fault < 0)
      Fault = K;
  }

  static int32_t labelEntry(const std::vector<int32_t> &LabelEntry,
                            int Label) {
    if (Label < 0 || Label >= static_cast<int>(LabelEntry.size()))
      return -1;
    return LabelEntry[static_cast<size_t>(Label)];
  }

  int32_t slot(int R) {
    if (R >= 0 && R < PhysRegs)
      return R;
    if (R >= FirstVirtual && R < F.vregLimit())
      return PhysRegs + (R - FirstVirtual);
    fail(BadRegister);
    return 0;
  }

  /// \p O read as an address, whatever its kind (what Lea computes).
  DOperand address(const Operand &O) {
    DOperand D;
    D.Kind = OperandKind::Mem;
    D.Size = O.Size;
    D.Scale = O.Scale;
    D.Disp = O.Disp;
    if (O.Sym >= 0) {
      if (O.Sym < static_cast<int>(GlobalAddr.size()))
        D.Disp += GlobalAddr[static_cast<size_t>(O.Sym)];
      else
        fail(BadSymbol);
    }
    if (O.Base >= 0)
      D.Base = slot(O.Base);
    if (O.Index >= 0)
      D.Index = slot(O.Index);
    return D;
  }

  DOperand value(const Operand &O) {
    DOperand D;
    switch (O.Kind) {
    case OperandKind::Reg:
      D.Kind = OperandKind::Reg;
      D.Base = slot(O.Base);
      return D;
    case OperandKind::Imm:
      D.Kind = OperandKind::Imm;
      D.Disp = O.Disp;
      return D;
    case OperandKind::Mem:
      return address(O);
    case OperandKind::None:
      break;
    }
    fail(MissingOperand);
    return D;
  }

  DOperand dest(const Operand &O) {
    if (O.isReg() || O.isMem())
      return value(O);
    fail(BadDestination);
    return DOperand();
  }
};

} // namespace

void DecodedProgram::Impl::layOutGlobals(const std::vector<Global> &Gs) {
  Globals = Gs;
  uint32_t Addr = GlobalBase;
  for (const Global &G : Globals) {
    Addr = (Addr + 3u) & ~3u;
    GlobalAddr.push_back(Addr);
    Addr += static_cast<uint32_t>(G.Size);
  }
  GlobalsEnd = Addr;
}

void DecodedProgram::Impl::decode(const Function &F, uint32_t &Addr) {
  DFunction &Out = Functions.emplace_back();
  Out.CodeBase = Addr;
  Out.FrameSize = static_cast<uint32_t>(PhysRegs + F.vregLimit() -
                                        FirstVirtual);
  const int NumBlocks = F.size();

  // Code order: every block's RTLs and delay slot at their layoutCode
  // addresses, then a fall-through step for each block not ending in a
  // transfer, then the fell-off marker.
  std::vector<uint32_t> BlockAddr;
  layoutFunction(F, Addr, BlockAddr);
  std::vector<int32_t> Start(static_cast<size_t>(NumBlocks));
  for (int B = 0; B < NumBlocks; ++B)
    Start[B] = static_cast<int32_t>((BlockAddr[B] - Out.CodeBase) / 4);
  int32_t N = static_cast<int32_t>((Addr - Out.CodeBase) / 4);
  std::vector<int32_t> Fall(static_cast<size_t>(NumBlocks), -1);
  for (int B = 0; B < NumBlocks; ++B)
    if (!F.block(B)->terminator())
      Fall[B] = N++;
  const int32_t FellOff = N++;
  Out.Code.resize(static_cast<size_t>(N));
  Out.Code[FellOff].Op = DOp::FellOff;

  // Where control lands on entering block B: its first RTL, or its
  // fall-through step when it is empty.
  auto entry = [&](int B) {
    if (B >= NumBlocks)
      return FellOff;
    return F.block(B)->Insns.empty() ? Fall[B] : Start[B];
  };
  std::vector<int32_t> LabelEntry(static_cast<size_t>(F.labelLimit()), -1);
  for (int B = 0; B < NumBlocks; ++B) {
    const int Label = F.block(B)->Label;
    if (Label >= 0 && Label < F.labelLimit())
      LabelEntry[static_cast<size_t>(Label)] = entry(B);
  }

  Decoder Dec(F, GlobalAddr);
  for (int B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = *F.block(B);
    const int32_t Size = static_cast<int32_t>(BB.Insns.size());
    const int32_t Delay = BB.DelaySlot ? Start[B] + Size : -1;
    for (int32_t K = 0; K < Size; ++K) {
      const auto I = BB.Insns[static_cast<size_t>(K)];
      // A not-taken branch enters the next block directly; any other RTL
      // steps to its successor, the last one to the fall-through step.
      const int32_t Next = I.Op == Opcode::CondJump ? entry(B + 1)
                           : K + 1 < Size           ? Start[B] + K + 1
                                                    : Fall[B];
      Dec.decode(I, Next, Delay, LabelEntry, Out.Tables,
                 Out.Code[Start[B] + K]);
    }
    if (BB.DelaySlot)
      Dec.decode(*BB.DelaySlot, -1, -1, LabelEntry, Out.Tables,
                 Out.Code[Delay]);
    if (Fall[B] >= 0) {
      Out.Code[Fall[B]].Op = DOp::FallThrough;
      Out.Code[Fall[B]].Next = entry(B + 1);
    }
  }
  Out.Entry = entry(0);
}

DecodedProgram::DecodedProgram(const Program &P) : I(std::make_unique<Impl>()) {
  I->layOutGlobals(P.Globals);
  uint32_t Addr = 0;
  for (const auto &F : P.Functions)
    I->decode(*F, Addr);
  I->Main = P.findFunction("main");
}

DecodedProgram::DecodedProgram(const std::vector<Global> &Globals,
                               const Function &F)
    : I(std::make_unique<Impl>()) {
  I->layOutGlobals(Globals);
  uint32_t Addr = 0;
  I->decode(F, Addr);
  I->Main = F.Name == "main" ? 0 : -1;
}

DecodedProgram::DecodedProgram(DecodedProgram &&) noexcept = default;
DecodedProgram &DecodedProgram::operator=(DecodedProgram &&) noexcept = default;
DecodedProgram::~DecodedProgram() = default;

namespace {

/// The data memory of one run, zero-filled. Allocating and clearing a
/// fresh MemBytes buffer (4 MB by default) measured ~190 us per run on a
/// 4-core x86-64 VM, against ~1.4 us for a run of a two-RTL program with
/// the scheme below: each thread keeps one zeroed buffer, every write
/// marks the 4 KB pages it touches, and the destructor re-zeroes only
/// those pages before handing the buffer to the thread's next run.
class DataMemory {
public:
  explicit DataMemory(uint32_t Size)
      : Dirty((static_cast<size_t>(Size) >> PageBits) / 64 + 1, 0) {
    std::vector<uint8_t> &Spare = spare();
    if (Spare.size() == Size)
      Bytes.swap(Spare);
    else
      Bytes.assign(Size, 0);
  }
  DataMemory(const DataMemory &) = delete;
  DataMemory &operator=(const DataMemory &) = delete;
  ~DataMemory() {
    for (size_t W = 0; W < Dirty.size(); ++W)
      for (uint64_t Bits = Dirty[W]; Bits; Bits &= Bits - 1) {
        const size_t Begin =
            (W * 64 + static_cast<size_t>(std::countr_zero(Bits)))
            << PageBits;
        std::memset(Bytes.data() + Begin, 0,
                    std::min(PageSize, Bytes.size() - Begin));
      }
    spare() = std::move(Bytes);
  }

  size_t size() const { return Bytes.size(); }
  uint8_t &operator[](size_t Addr) { return Bytes[Addr]; }
  const uint8_t *data() const { return Bytes.data(); }

  /// Notes a write of \p Size >= 1 bytes at \p Addr, all within bounds.
  void touch(uint32_t Addr, uint32_t Size) {
    for (uint32_t P = Addr >> PageBits; P <= (Addr + Size - 1) >> PageBits;
         ++P)
      Dirty[P / 64] |= uint64_t(1) << (P % 64);
  }

private:
  static constexpr unsigned PageBits = 12;
  static constexpr size_t PageSize = size_t(1) << PageBits;

  std::vector<uint8_t> Bytes;
  std::vector<uint64_t> Dirty; ///< one bit per page written this run

  static std::vector<uint8_t> &spare() {
    thread_local std::vector<uint8_t> Spare;
    return Spare;
  }
};

class Machine {
public:
  Machine(const DecodedProgram::Impl &D, const RunOptions &Options)
      : D(D), Options(Options), Mem(Options.MemBytes) {}

  RunResult run();

private:
  const DecodedProgram::Impl &D;
  const RunOptions &Options;

  DataMemory Mem;

  /// The register files of every active call, innermost last; Regs points
  /// at the current one (re-derived whenever Stack may have grown).
  std::vector<int64_t> Stack;
  int64_t *Regs = nullptr;

  struct Frame {
    const DFunction *Fn;
    int32_t ReturnPc;
    uint32_t RegBase;
  };
  std::vector<Frame> CallStack;

  RunResult Result;
  bool Halted = false;
  size_t InputPos = 0;

  void exec();

  //===--- helpers -------------------------------------------------------===//

  // Traps are rare; keeping them out of line keeps the step loop small.
  [[gnu::cold, gnu::noinline]] void trap(Trap Kind, const char *Msg) {
    if (Halted)
      return;
    Result.TrapKind = Kind;
    Result.TrapMessage = Msg;
    Halted = true;
  }

  /// Gives the frame at \p Base a zeroed register file of \p Size slots.
  void enterFrame(uint32_t Base, uint32_t Size) {
    if (Stack.size() < Base + Size)
      Stack.resize(Base + Size);
    Regs = Stack.data() + Base;
    std::fill_n(Regs, Size, 0);
  }

  bool checkAddr(uint32_t Addr, uint32_t Size) {
    if (Addr < GlobalBase || Addr + Size > Mem.size() || Addr + Size < Addr) {
      outOfBounds(Addr);
      return false;
    }
    return true;
  }

  [[gnu::cold, gnu::noinline]] void outOfBounds(uint32_t Addr) {
    trap(Trap::OutOfBounds, format("memory access at 0x%x", Addr).c_str());
  }

  // Accesses are bytes (Size 1) or words (any other Size): the bounds
  // check and the dirty-page mark cover the bytes actually accessed.
  int64_t load(uint32_t Addr, uint8_t Size) {
    if (!checkAddr(Addr, Size == 1 ? 1 : 4))
      return 0;
    if (Size == 1)
      return static_cast<int8_t>(Mem[Addr]);
    uint32_t V;
    std::memcpy(&V, &Mem[Addr], 4);
    return static_cast<int32_t>(V);
  }

  void store(uint32_t Addr, uint8_t Size, int64_t Value) {
    const uint32_t Width = Size == 1 ? 1 : 4;
    if (!checkAddr(Addr, Width))
      return;
    Mem.touch(Addr, Width);
    if (Size == 1) {
      Mem[Addr] = static_cast<uint8_t>(Value);
      return;
    }
    uint32_t V = static_cast<uint32_t>(Value);
    std::memcpy(&Mem[Addr], &V, 4);
  }

  uint32_t memAddr(const DOperand &O) const {
    int64_t Addr = O.Disp;
    if (O.Base >= 0)
      Addr += Regs[O.Base];
    if (O.Index >= 0)
      Addr += Regs[O.Index] * O.Scale;
    return static_cast<uint32_t>(Addr);
  }

  int64_t eval(const DOperand &O) {
    if (O.Kind == OperandKind::Reg)
      return Regs[O.Base];
    if (O.Kind == OperandKind::Imm)
      return O.Disp;
    return load(memAddr(O), O.Size);
  }

  void writeResult(const DOperand &Dst, int64_t Value) {
    Value = static_cast<int32_t>(Value); // 32-bit machine words
    if (Dst.Kind == OperandKind::Reg)
      Regs[Dst.Base] = Value;
    else
      store(memAddr(Dst), Dst.Size, Value);
  }

  //===--- intrinsics ----------------------------------------------------===//

  void setRV(int64_t V) { Regs[RegRV] = V; }

  int64_t intrinsicArg(int I) {
    return load(static_cast<uint32_t>(Regs[RegSP]) + 4 * I, 4);
  }

  std::string readCString(uint32_t Addr) {
    std::string S;
    while (true) {
      if (!checkAddr(Addr, 1))
        return S;
      char C = static_cast<char>(Mem[Addr++]);
      if (!C)
        return S;
      S.push_back(C);
      if (S.size() > Mem.size())
        return S; // cyclic garbage guard
    }
  }

  void doPrintf();
  void doIntrinsic(int Callee);
  void doStubCall(int Callee);

  //===--- execution -----------------------------------------------------===//

  // Inlined into the step loop: it runs for most executed RTLs.
  [[gnu::always_inline]] inline void execData(const DInsn &I);
  void execDelaySlot(const DFunction &Fn, const DInsn &Transfer);
};

void Machine::doPrintf() {
  std::string Fmt = readCString(static_cast<uint32_t>(intrinsicArg(0)));
  int ArgIdx = 1;
  std::string &Out = Result.Output;
  for (size_t I = 0; I < Fmt.size(); ++I) {
    char C = Fmt[I];
    if (C != '%') {
      Out.push_back(C);
      continue;
    }
    // Parse %[-0][width][conv].
    std::string Spec = "%";
    ++I;
    while (I < Fmt.size() && (Fmt[I] == '-' || Fmt[I] == '0')) {
      Spec.push_back(Fmt[I]);
      ++I;
    }
    while (I < Fmt.size() && Fmt[I] >= '0' && Fmt[I] <= '9') {
      Spec.push_back(Fmt[I]);
      ++I;
    }
    if (I >= Fmt.size())
      break;
    char Conv = Fmt[I];
    switch (Conv) {
    case '%':
      Out.push_back('%');
      break;
    case 'd':
    case 'u':
    case 'o':
    case 'x':
    case 'c': {
      Spec.push_back(Conv == 'u' ? 'd' : Conv);
      long long V = intrinsicArg(ArgIdx++);
      if (Conv == 'd' || Conv == 'u')
        Out += format((Spec.insert(Spec.size() - 1, "ll"), Spec).c_str(), V);
      else
        Out += format((Spec.insert(Spec.size() - 1, "ll"), Spec).c_str(),
                      static_cast<unsigned long long>(
                          static_cast<uint32_t>(V)));
      break;
    }
    case 's': {
      Spec.push_back('s');
      std::string S = readCString(static_cast<uint32_t>(intrinsicArg(ArgIdx++)));
      Out += format(Spec.c_str(), S.c_str());
      break;
    }
    default:
      Out.push_back(Conv);
      break;
    }
  }
}

void Machine::doIntrinsic(int Callee) {
  switch (Callee) {
  case IntrinsicGetchar:
    if (InputPos < Options.Input.size())
      setRV(static_cast<unsigned char>(Options.Input[InputPos++]));
    else
      setRV(-1);
    break;
  case IntrinsicPutchar: {
    int64_t C = intrinsicArg(0);
    Result.Output.push_back(static_cast<char>(C));
    setRV(C);
    break;
  }
  case IntrinsicPuts: {
    Result.Output += readCString(static_cast<uint32_t>(intrinsicArg(0)));
    Result.Output.push_back('\n');
    setRV(0);
    break;
  }
  case IntrinsicPrintf:
    doPrintf();
    setRV(0);
    break;
  case IntrinsicExit:
    Result.ExitCode = static_cast<int32_t>(intrinsicArg(0));
    Halted = true;
    break;
  case IntrinsicStrlen:
    setRV(static_cast<int64_t>(
        readCString(static_cast<uint32_t>(intrinsicArg(0))).size()));
    break;
  case IntrinsicStrcmp: {
    std::string A = readCString(static_cast<uint32_t>(intrinsicArg(0)));
    std::string B = readCString(static_cast<uint32_t>(intrinsicArg(1)));
    setRV(A < B ? -1 : A > B ? 1 : 0);
    break;
  }
  case IntrinsicStrcpy: {
    uint32_t Dst = static_cast<uint32_t>(intrinsicArg(0));
    std::string S = readCString(static_cast<uint32_t>(intrinsicArg(1)));
    for (char C : S)
      store(Dst++, 1, C);
    store(Dst, 1, 0);
    setRV(intrinsicArg(0));
    break;
  }
  case IntrinsicAbs: {
    int64_t V = static_cast<int32_t>(intrinsicArg(0));
    setRV(V < 0 ? -V : V);
    break;
  }
  case IntrinsicAtoi: {
    std::string S = readCString(static_cast<uint32_t>(intrinsicArg(0)));
    setRV(std::atoi(S.c_str()));
    break;
  }
  default:
    trap(Trap::BadProgram, "unknown intrinsic");
  }
}

void Machine::doStubCall(int Callee) {
  // Uninterpreted call: record the observable (callee + argument words)
  // and synthesize a return value that depends only on (StubSeed, event
  // index, callee), so the event stream and every downstream value are
  // identical across differential runs.
  ++Result.Stats.Calls;
  RunResult::CallEvent Ev;
  Ev.Callee = Callee;
  const uint32_t SP = static_cast<uint32_t>(Regs[RegSP]);
  uint32_t NArgs = 4;
  if (Options.StubArity &&
      Callee < static_cast<int>(Options.StubArity->size()))
    NArgs = std::min<uint32_t>(
        4, static_cast<uint32_t>((*Options.StubArity)[Callee]));
  for (uint32_t A = 0; A < NArgs; ++A) {
    const uint32_t At = SP + 4 * A;
    if (At >= GlobalBase && At + 4 <= Mem.size()) {
      uint32_t V;
      std::memcpy(&V, &Mem[At], 4);
      Ev.Args[A] = static_cast<int32_t>(V);
    }
  }
  Rng G(Options.StubSeed ^
        0x9e3779b97f4a7c15ULL * (Result.CallEvents.size() + 1) ^
        0x517cc1b727220a95ULL * static_cast<uint64_t>(Callee));
  Ev.Rv = static_cast<int32_t>(G.next());
  setRV(Ev.Rv);
  Result.CallEvents.push_back(Ev);
}

inline void Machine::execData(const DInsn &I) {
  switch (I.Op) {
  case DOp::Nop:
    ++Result.Stats.Nops;
    return;
  case DOp::Move:
    writeResult(I.Dst, eval(I.Src1));
    return;
  case DOp::Lea:
    writeResult(I.Dst, memAddr(I.Src1));
    return;
  case DOp::Neg:
    writeResult(I.Dst, -eval(I.Src1));
    return;
  case DOp::Not:
    writeResult(I.Dst, ~eval(I.Src1));
    return;
  case DOp::Compare: {
    const int64_t A = static_cast<int32_t>(eval(I.Src1));
    const int64_t B = static_cast<int32_t>(eval(I.Src2));
    Regs[RegCC] = A - B;
    return;
  }
  case DOp::Fault:
    trap(Trap::BadProgram, FaultMessage[I.Target]);
    return;
  default:
    break;
  }
  const int64_t A = static_cast<int32_t>(eval(I.Src1));
  const int64_t B = static_cast<int32_t>(eval(I.Src2));
  int64_t R = 0;
  switch (I.Op) {
  case DOp::Add:
    R = A + B;
    break;
  case DOp::Sub:
    R = A - B;
    break;
  case DOp::Mul:
    R = A * B;
    break;
  case DOp::Div:
  case DOp::Rem:
    if (B == 0) {
      trap(Trap::DivByZero, "division by zero");
      return;
    }
    // The one 32-bit quotient that does not fit in 32 bits. Real targets
    // fault here (SIGFPE on x86); making it an explicit trap keeps every
    // machine fault a defined observable for differential fuzzing.
    if (A == INT32_MIN && B == -1) {
      trap(Trap::Overflow, "signed division overflow");
      return;
    }
    R = I.Op == DOp::Div ? A / B : A % B;
    break;
  case DOp::And:
    R = A & B;
    break;
  case DOp::Or:
    R = A | B;
    break;
  case DOp::Xor:
    R = A ^ B;
    break;
  case DOp::Shl:
    R = static_cast<int64_t>(static_cast<uint32_t>(A)
                             << (static_cast<uint32_t>(B) & 31));
    break;
  case DOp::Shr:
    R = static_cast<int32_t>(A) >> (static_cast<uint32_t>(B) & 31);
    break;
  default:
    CODEREP_UNREACHABLE("not a data operation");
  }
  writeResult(I.Dst, R);
}

void Machine::execDelaySlot(const DFunction &Fn, const DInsn &Transfer) {
  if (Transfer.Delay < 0)
    return;
  if (Options.Sink)
    Options.Sink->fetch(Fn.CodeBase +
                        4 * static_cast<uint32_t>(Transfer.Delay));
  ++Result.Stats.Executed;
  const DInsn &I = Fn.Code[static_cast<size_t>(Transfer.Delay)];
  switch (I.Op) {
  case DOp::Compare:
    trap(Trap::BadProgram, "compare in delay slot would clobber CC");
    return;
  case DOp::CondJump:
  case DOp::Jump:
  case DOp::SwitchJump:
  case DOp::Call:
  case DOp::Return:
    trap(Trap::BadProgram, "transfer in delay slot");
    return;
  default:
    execData(I);
  }
}

RunResult Machine::run() {
  exec();
  if (Options.CaptureGlobals && D.GlobalsEnd > GlobalBase &&
      D.GlobalsEnd <= Mem.size())
    Result.GlobalsMem.assign(Mem.data() + GlobalBase,
                             Mem.data() + D.GlobalsEnd);
  return Result;
}

void Machine::exec() {
  if (D.GlobalsEnd >= Options.MemBytes / 2) {
    trap(Trap::OutOfBounds, "globals exceed data memory");
    return;
  }
  // The fuzzing memory image first, so declared initializers and
  // relocations below overwrite it: uninitialized globals start at
  // deterministic garbage instead of zero. (The check above leaves the
  // whole globals region inside memory.)
  if (Options.MemImage) {
    const size_t N =
        std::min(Options.MemImage->size(), Mem.size() - GlobalBase);
    if (N) {
      std::memcpy(&Mem[GlobalBase], Options.MemImage->data(), N);
      Mem.touch(GlobalBase, static_cast<uint32_t>(N));
    }
  }
  for (size_t GI = 0; GI < D.Globals.size(); ++GI) {
    const Global &G = D.Globals[GI];
    uint32_t Base = D.GlobalAddr[GI];
    const size_t N = std::min(G.Init.size(), Mem.size() - Base);
    if (N) {
      std::memcpy(&Mem[Base], G.Init.data(), N);
      Mem.touch(Base, static_cast<uint32_t>(N));
    }
    for (auto [Off, Sym] : G.Relocs) {
      if (Sym < 0 || Sym >= static_cast<int>(D.GlobalAddr.size())) {
        trap(Trap::BadProgram, "relocation against unknown global");
        return;
      }
      store(Base + static_cast<uint32_t>(Off), 4, D.GlobalAddr[Sym]);
    }
  }

  int Func;
  int64_t SP;
  if (Options.EntryFunction >= 0) {
    if (Options.EntryFunction >= static_cast<int>(D.Functions.size())) {
      trap(Trap::BadProgram, "entry function out of range");
      return;
    }
    Func = Options.EntryFunction;
    // Leave headroom above SP for the argument words (the callee reads its
    // parameters at [SP + 4*i], exactly where a real caller stores them).
    SP = static_cast<int64_t>(Options.MemBytes) - 64;
  } else {
    Func = D.Main;
    if (Func < 0) {
      trap(Trap::BadProgram, "no main function");
      return;
    }
    SP = static_cast<int64_t>(Options.MemBytes) - 16;
  }
  const DFunction *Fn = &D.Functions[static_cast<size_t>(Func)];
  uint32_t RegBase = 0;
  enterFrame(RegBase, Fn->FrameSize);
  Regs[RegSP] = SP;
  if (Options.EntryFunction >= 0)
    for (size_t I = 0; I < Options.EntryArgs.size() && I < 12; ++I)
      store(static_cast<uint32_t>(SP) + 4 * static_cast<uint32_t>(I), 4,
            Options.EntryArgs[I]);

  FetchSink *const Sink = Options.Sink;
  const uint64_t MaxSteps = Options.MaxSteps;
  uint64_t Steps = 0;
  DynamicStats &Stats = Result.Stats;
  int32_t Pc = Fn->Entry;
  // Transfers to a code index; -1 names a label no block carries.
  auto jumpTo = [&](int32_t Target) {
    if (Target < 0)
      trap(Trap::BadProgram, "jump to unknown label");
    else
      Pc = Target;
  };

  while (!Halted) {
    if (++Steps > MaxSteps) {
      trap(Trap::StepLimit, "step limit exceeded");
      break;
    }
    const DInsn &I = Fn->Code[static_cast<size_t>(Pc)];
    if (I.Op == DOp::FallThrough) {
      Pc = I.Next;
      continue;
    }
    if (I.Op == DOp::FellOff) {
      trap(Trap::BadProgram, "control fell off the end of a function");
      break;
    }
    if (Sink)
      Sink->fetch(Fn->CodeBase + 4 * static_cast<uint32_t>(Pc));
    ++Stats.Executed;

    switch (I.Op) {
    case DOp::Jump:
      ++Stats.UncondJumps;
      execDelaySlot(*Fn, I);
      jumpTo(I.Target);
      break;
    case DOp::CondJump: {
      ++Stats.CondBranches;
      const int64_t CC = Regs[RegCC];
      bool Taken = false;
      switch (I.Cond) {
      case CondCode::Eq:
        Taken = CC == 0;
        break;
      case CondCode::Ne:
        Taken = CC != 0;
        break;
      case CondCode::Lt:
        Taken = CC < 0;
        break;
      case CondCode::Le:
        Taken = CC <= 0;
        break;
      case CondCode::Gt:
        Taken = CC > 0;
        break;
      case CondCode::Ge:
        Taken = CC >= 0;
        break;
      }
      execDelaySlot(*Fn, I);
      if (Taken) {
        ++Stats.CondTaken;
        jumpTo(I.Target);
      } else {
        Pc = I.Next;
      }
      break;
    }
    case DOp::SwitchJump: {
      ++Stats.IndirectJumps;
      const int64_t Index = eval(I.Src1);
      execDelaySlot(*Fn, I);
      if (Index < 0 || Index >= I.Count) {
        trap(Trap::BadProgram, "switch index out of table range");
        break;
      }
      jumpTo(Fn->Tables[static_cast<size_t>(I.Target + Index)]);
      break;
    }
    case DOp::Call: {
      const int Callee = I.Target;
      if (Callee < 0) {
        doIntrinsic(Callee);
        Pc = I.Next;
        break;
      }
      if (Options.StubCalls) {
        doStubCall(Callee);
        Pc = I.Next;
        break;
      }
      if (Callee >= static_cast<int>(D.Functions.size())) {
        trap(Trap::BadProgram, "call to unknown function");
        break;
      }
      ++Stats.Calls;
      const int64_t SavedSP = Regs[RegSP];
      CallStack.push_back({Fn, I.Next, RegBase});
      RegBase += Fn->FrameSize;
      Fn = &D.Functions[static_cast<size_t>(Callee)];
      enterFrame(RegBase, Fn->FrameSize);
      Regs[RegSP] = SavedSP;
      Pc = Fn->Entry;
      if (CallStack.size() > MaxCallDepth)
        trap(Trap::BadProgram, "call stack overflow");
      break;
    }
    case DOp::Return: {
      ++Stats.Returns;
      execDelaySlot(*Fn, I);
      if (CallStack.empty()) {
        Result.ExitCode = static_cast<int32_t>(Regs[RegRV]);
        Halted = true;
        break;
      }
      const int64_t RV = Regs[RegRV];
      const Frame F = CallStack.back();
      CallStack.pop_back();
      Fn = F.Fn;
      Pc = F.ReturnPc;
      RegBase = F.RegBase;
      Regs = Stack.data() + RegBase;
      Regs[RegRV] = RV;
      break;
    }
    default:
      execData(I);
      Pc = I.Next;
      break;
    }
  }
}

} // namespace

RunResult ease::run(const DecodedProgram &D, const RunOptions &Options) {
  Machine M(*D.I, Options);
  return M.run();
}

RunResult ease::run(const Program &P, const RunOptions &Options) {
  return run(DecodedProgram(P), Options);
}
