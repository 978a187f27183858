//===- Pass.h - The standard VPO optimization passes ------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "standard code optimization techniques" of the paper's Section 5:
/// branch chaining, dead code elimination, basic-block reordering,
/// instruction selection (RTL combining), common subexpression elimination,
/// dead variable elimination, code motion, strength reduction, constant
/// folding (including at conditional branches), register allocation by
/// coloring and delay-slot filling.
///
/// Two ways in:
///
///  * The uniform Pass interface: run(F, AnalysisManager&) serves analyses
///    out of the manager's cache and returns a PassResult - did the
///    function change, and which cached analyses the change preserved.
///    The pipeline drives passes exclusively through this interface (via
///    the create*Pass factories) so the invalidation protocol of
///    AnalysisManager.h is applied uniformly.
///
///  * The original free functions, which recompute analyses from scratch.
///    Each is exactly the corresponding Pass with a private
///    always-recompute manager; they remain the convenient entry point for
///    tests and tools that run a single pass.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OPT_PASS_H
#define CODEREP_OPT_PASS_H

#include "cfg/Function.h"
#include "opt/AnalysisManager.h"
#include "target/Target.h"

#include <memory>

namespace coderep::opt {

/// What one pass invocation reports back to the pipeline.
struct PassResult {
  /// True when the function changed (drives the Figure-3 fixpoint loop).
  bool Changed = false;

  /// Which cached analyses the change left valid; consulted only when
  /// Changed (an unchanged pass trivially preserves everything). Every
  /// claim here carries a structural argument at the pass's run() and is
  /// differentially tested against the always-recompute oracle.
  PreservedAnalyses Preserved = PreservedAnalyses::none();
};

/// The uniform pass interface.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stable printable name (matches the Phase name used by the pipeline).
  virtual const char *name() const = 0;

  /// Runs the pass over \p F, taking analyses from \p AM. Must route every
  /// analysis it consumes through the manager and flag every mutation via
  /// the epoch protocol (returning Changed lets the pipeline's runner
  /// commit; mid-run edit bursts that precede further analysis queries use
  /// AM.noteEdit directly).
  virtual PassResult run(cfg::Function &F, AnalysisManager &AM) = 0;
};

/// Factories, one per pass, in Figure-3 order of first use. Stateful
/// parameters (the target, the delay-slot Nop out-param) are captured at
/// construction.
std::unique_ptr<Pass> createBranchChainingPass();
std::unique_ptr<Pass> createUnreachableElimPass();
std::unique_ptr<Pass> createBlockReorderPass();
std::unique_ptr<Pass> createMergeFallthroughsPass();
std::unique_ptr<Pass> createInstructionSelectionPass(const target::Target &T);
std::unique_ptr<Pass> createRegisterAssignmentPass();
std::unique_ptr<Pass> createLocalCsePass(const target::Target &T);
std::unique_ptr<Pass> createDeadVariableElimPass();
std::unique_ptr<Pass> createCodeMotionPass();
std::unique_ptr<Pass> createStrengthReductionPass();
std::unique_ptr<Pass> createConstantFoldingPass();

std::unique_ptr<Pass> createRegisterAllocationPass(const target::Target &T);
std::unique_ptr<Pass> createDelaySlotFillingPass(int *NopsOut = nullptr);

/// Retargets branches whose destination block only transfers control
/// further ("branch chaining"), and removes conditional branches to the
/// fall-through block.
bool runBranchChaining(cfg::Function &F);

/// Removes blocks unreachable from the entry.
bool runUnreachableElim(cfg::Function &F);

/// Reorders basic blocks to turn unconditional jumps into fall-throughs
/// where possible (the paper's "reorder basic blocks to minimize jumps").
bool runBlockReorder(cfg::Function &F);

/// Merges a block into its predecessor when control can only flow between
/// them (grows basic blocks; enables local CSE and delay-slot filling).
bool runMergeFallthroughs(cfg::Function &F);

/// Constant folding: evaluates ALU RTLs on constants, simplifies algebraic
/// identities, and folds comparisons of two constants into unconditional
/// control flow ("constant folding at conditional branches", §3.3.1).
bool runConstantFolding(cfg::Function &F);

/// Instruction selection in the VPO sense: combines adjacent RTLs into one
/// RTL whenever the combination is a legal instruction on \p T (folding
/// loads/immediates/address arithmetic into users on the CISC target).
/// The \p AM form serves the liveness query from the manager's cache.
bool runInstructionSelection(cfg::Function &F, const target::Target &T);
bool runInstructionSelection(cfg::Function &F, const target::Target &T,
                             AnalysisManager &AM);

/// Common subexpression elimination with copy/constant propagation over
/// extended basic blocks (a block inherits the value table of a unique
/// predecessor, so replicated code paths simplify, §3.3.2). Needs the
/// target to keep every rewritten RTL legal. The \p AM form serves the
/// predecessor lists from the manager's FlatCfg.
bool runLocalCse(cfg::Function &F, const target::Target &T);
bool runLocalCse(cfg::Function &F, const target::Target &T,
                 AnalysisManager &AM);

/// Deletes assignments to registers that are never subsequently used
/// ("dead variable elimination"). The \p AM form serves the liveness query
/// from the manager's cache.
bool runDeadVariableElim(cfg::Function &F);
bool runDeadVariableElim(cfg::Function &F, AnalysisManager &AM);

/// Loop-invariant code motion into loop preheaders ("code motion"); creates
/// preheader blocks on demand (§3.3.3 discusses their placement after
/// replication). The \p AM form serves loops/dominators/liveness from the
/// manager's cache, committing its own edits between hoists.
bool runCodeMotion(cfg::Function &F);
bool runCodeMotion(cfg::Function &F, AnalysisManager &AM);

/// Strength reduction: multiplications by powers of two become shifts, and
/// multiplications of loop induction variables become running sums. The
/// \p AM form serves loop info from the manager's cache.
bool runStrengthReduction(cfg::Function &F);
bool runStrengthReduction(cfg::Function &F, AnalysisManager &AM);

/// Register assignment (Figure 3): promotes the word-sized scalar locals
/// and parameters whose address is never taken (Function::PromotableLocals)
/// from their frame slots into virtual registers, inserting entry loads
/// for parameters. This is what puts loop counters into registers, as in
/// the paper's Table 1 ("d[1]" holding i).
bool runRegisterAssignment(cfg::Function &F);

/// Graph-coloring register allocation: maps every virtual register onto the
/// target's allocatable registers, spilling to the frame when needed.
/// Returns true on change; afterwards the function contains no virtual
/// registers. The \p AM form serves the liveness builds (one per spill
/// retry) from the manager's cache.
bool runRegisterAllocation(cfg::Function &F, const target::Target &T);
bool runRegisterAllocation(cfg::Function &F, const target::Target &T,
                           AnalysisManager &AM);

/// Fills the architectural delay slot of every transfer with an independent
/// RTL from the same block, or a Nop ("for the SPARC processor, delay slots
/// after transfers of control were filled"). Only meaningful for targets
/// with delay slots. Returns the number of Nops emitted via \p NopsOut.
bool runDelaySlotFilling(cfg::Function &F, int *NopsOut = nullptr);

} // namespace coderep::opt

#endif // CODEREP_OPT_PASS_H
