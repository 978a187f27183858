//===- Interp.h - RTL interpreter with EASE-style measurement ---*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled Program directly at the RTL level and collects the
/// paper's dynamic measurements: executed instruction counts, unconditional
/// jump counts, branch distances, and a per-fetch address stream for the
/// instruction-cache simulation. This substitutes for EASE (Davidson &
/// Whalley 1990), which obtained the same numbers by instrumenting real
/// generated code.
///
/// Execution model:
///  * Words are 32-bit little-endian; ALU results wrap to 32 bits; byte
///    loads sign-extend.
///  * Each function invocation has a private register file (the SPARC
///    register-window idealization); RegSP flows into a call and RegRV
///    flows back out.
///  * Library routines are interpreter intrinsics and are *not* measured,
///    matching the paper ("library routines could not be measured").
///
/// Execution runs off a pre-decoded image (DecodedProgram), never off the
/// cfg::Function itself: each function is decoded once into a flat array
/// of decoded RTLs in layoutCode order, delay slots right after their
/// terminators, so RTL i of a function is fetched from the function's
/// base address + 4*i. Operands are pre-classified into register-slot,
/// immediate and memory form with global symbols resolved to addresses;
/// branch and switch targets are array indices; each fall-through off the
/// end of a block that does not end in a transfer (and each empty block)
/// is an explicit entry after the RTLs that costs one step and fetches
/// nothing. The executor keeps every active call's registers in one
/// contiguous stack.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_EASE_INTERP_H
#define CODEREP_EASE_INTERP_H

#include "cfg/Function.h"
#include "ease/Layout.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace coderep::ease {

/// Receives the address of every fetched (executed) instruction.
class FetchSink {
public:
  virtual ~FetchSink();
  virtual void fetch(uint32_t Addr) = 0;
};

/// Interpreter configuration.
struct RunOptions {
  uint32_t MemBytes = 1u << 22;       ///< data memory size
  uint64_t MaxSteps = 1ull << 32;     ///< runaway guard
  std::string Input;                  ///< bytes returned by getchar()
  FetchSink *Sink = nullptr;          ///< optional fetch-address consumer

  /// Function-entry mode, used by the translation-validation oracle
  /// (verify::Oracle) to execute a single function in isolation: when
  /// >= 0, execution starts at this function index instead of "main",
  /// EntryArgs are stored at [SP + 4*i] (the stack argument convention of
  /// frontend::CodeGen), and the entry function's return value becomes the
  /// run's exit code.
  int EntryFunction = -1;
  std::vector<int32_t> EntryArgs;

  /// Treat calls to measured (non-intrinsic) functions as uninterpreted
  /// observables: each call is recorded as a RunResult::CallEvent and its
  /// return value is synthesized deterministically from StubSeed, the
  /// event index and the callee id, so a lone function can be executed
  /// while the rest of the program is mid-optimization. Intrinsics still
  /// execute normally.
  bool StubCalls = false;
  uint64_t StubSeed = 0;

  /// Optional per-callee argument-word counts, indexed by function id.
  /// A stubbed call to callee C then records only the first StubArity[C]
  /// argument words (clamped to 4): the words beyond a callee's declared
  /// parameters are the caller's own frame, whose layout legally changes
  /// under optimization. Callees outside the vector keep the 4-word peek.
  const std::vector<int> *StubArity = nullptr;

  /// Bytes copied over the data segment starting at the global base
  /// *before* globals are initialized (declared initializers and
  /// relocations win), giving fuzzers a deterministic nonzero initial
  /// memory image. Clipped to the data segment.
  const std::vector<uint8_t> *MemImage = nullptr;

  /// Capture the final globals region into RunResult::GlobalsMem so
  /// differential harnesses can compare observable stores byte by byte.
  bool CaptureGlobals = false;
};

/// Why a run ended. Every runtime fault of the interpreted machine is a
/// defined, observable trap - never host UB - so differential fuzzing can
/// compare trap behavior across optimization levels.
enum class Trap {
  None,          ///< main returned or exit() was called
  OutOfBounds,   ///< memory access outside the data segment
  DivByZero,
  StepLimit,
  BadProgram,    ///< malformed code (bad register, operand, label or
                 ///< global symbol, control falling off a function) or
                 ///< missing main
  Overflow,      ///< signed division overflow (INT32_MIN / -1)
};

/// Dynamic measurements of one run (the paper's EASE counters).
struct DynamicStats {
  uint64_t Executed = 0;      ///< RTLs executed (intrinsics excluded)
  uint64_t UncondJumps = 0;   ///< executed Jump RTLs
  uint64_t IndirectJumps = 0; ///< executed SwitchJump RTLs
  uint64_t CondBranches = 0;  ///< executed CondJump RTLs
  uint64_t CondTaken = 0;     ///< executed CondJump RTLs that were taken
  uint64_t Returns = 0;
  uint64_t Calls = 0;         ///< calls to measured (non-intrinsic) code
  uint64_t Nops = 0;          ///< executed Nop RTLs (unfilled delay slots)

  /// All executed control transfers.
  uint64_t transfers() const {
    return UncondJumps + IndirectJumps + CondBranches + Returns + Calls;
  }

  /// Average number of instructions between branches (§5.2 statistic).
  double insnsBetweenBranches() const {
    return transfers() ? static_cast<double>(Executed) / transfers() : 0.0;
  }
};

/// Result of a run.
struct RunResult {
  /// One stubbed (uninterpreted) call, recorded in execution order when
  /// RunOptions::StubCalls is set.
  struct CallEvent {
    int Callee = 0;
    int32_t Args[4] = {0, 0, 0, 0}; ///< first argument words at [SP]
    int32_t Rv = 0;                 ///< the synthesized return value
    bool operator==(const CallEvent &O) const = default;
  };

  Trap TrapKind = Trap::None;
  std::string TrapMessage;
  int32_t ExitCode = 0;
  std::string Output; ///< bytes written via putchar/puts/printf
  DynamicStats Stats;
  std::vector<CallEvent> CallEvents; ///< stubbed calls (StubCalls mode)
  std::vector<uint8_t> GlobalsMem;   ///< final globals bytes (CaptureGlobals)

  bool ok() const { return TrapKind == Trap::None; }
};

/// A program decoded for execution (see the file comment). The image is a
/// snapshot: it copies what it needs and stays valid after the program it
/// was decoded from changes or is destroyed, so one decode can serve many
/// runs. An RTL that names a register outside its function's register
/// file, lacks an operand it reads, has a destination that is neither a
/// register nor memory, or names an unknown global decodes to a fault:
/// executing it is fetched and counted, then traps with Trap::BadProgram.
class DecodedProgram {
public:
  /// Decodes every function and the global-data layout of \p P.
  explicit DecodedProgram(const cfg::Program &P);
  /// Decodes the one-function program "\p F (function id 0) over
  /// \p Globals" without building it.
  DecodedProgram(const std::vector<cfg::Global> &Globals,
                 const cfg::Function &F);
  DecodedProgram(DecodedProgram &&) noexcept;
  DecodedProgram &operator=(DecodedProgram &&) noexcept;
  ~DecodedProgram();

  struct Impl;

private:
  std::unique_ptr<Impl> I;
  friend RunResult run(const DecodedProgram &D, const RunOptions &Options);
};

/// Executes \p D starting at its "main" function (or at
/// RunOptions::EntryFunction).
RunResult run(const DecodedProgram &D, const RunOptions &Options);

/// Decodes \p P and executes it.
RunResult run(const cfg::Program &P, const RunOptions &Options);

} // namespace coderep::ease

#endif // CODEREP_EASE_INTERP_H
