//===- CfgAnalysis.h - CFG traversals, dominators, loops --------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow analyses over Function: reachability, reverse postorder,
/// dominators, natural loops and reducibility. All results address blocks by
/// positional index and must be recomputed after any structural change.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CFG_CFGANALYSIS_H
#define CODEREP_CFG_CFGANALYSIS_H

#include "cfg/Function.h"

#include <vector>

namespace coderep::cfg {

class FlatCfg;

/// Returns a bit per block: reachable from the entry block.
std::vector<bool> reachableBlocks(const Function &F);

/// Deletes blocks unreachable from the entry. This is the paper's "dead code
/// elimination" invoked after replication to delete blocks that can no
/// longer be reached. Returns the number of blocks removed.
int removeUnreachableBlocks(Function &F);

/// Reverse postorder over reachable blocks (entry first).
std::vector<int> reversePostorder(const Function &F);

/// Immediate-dominator tree, computed with the iterative algorithm of
/// Cooper/Harvey/Kennedy over the reverse postorder.
class Dominators {
public:
  explicit Dominators(const Function &F);

  /// As above, but reuses a prebuilt CSR snapshot of \p F's flow graph
  /// (cfg::AnalysisCache builds the FlatCfg once and feeds it to every
  /// shape analysis). \p Flat must describe \p F's current state.
  Dominators(const Function &F, const FlatCfg &Flat);

  /// True if block \p A dominates block \p B. Unreachable blocks dominate
  /// nothing and are dominated by nothing. O(1): an interval test on the
  /// dominator tree's pre/post numbering.
  bool dominates(int A, int B) const {
    return Pre[A] >= 0 && Pre[B] >= 0 && Pre[A] <= Pre[B] &&
           Post[B] <= Post[A];
  }

  /// Immediate dominator of \p B, or -1 for the entry / unreachable blocks.
  int idom(int B) const { return Idom[B]; }

private:
  std::vector<int> Idom;
  /// Preorder / postorder numbers of each block in the dominator tree
  /// (-1 for unreachable blocks): A dominates B iff B's interval nests in
  /// A's.
  std::vector<int> Pre, Post;
};

/// One natural loop: all blocks that can reach the back edge's source
/// without passing through the header.
struct NaturalLoop {
  int Header = -1;         ///< positional index of the header block
  std::vector<int> Blocks; ///< positional indices, sorted ascending
  bool contains(int Index) const;
};

/// Finds every natural loop (back edges u->h with h dominating u; back edges
/// sharing a header are merged into one loop, as in VPO).
class LoopInfo {
public:
  explicit LoopInfo(const Function &F);

  /// As above, but reuses a prebuilt CSR snapshot and (optionally) a
  /// dominator tree (cfg::AnalysisCache shares one FlatCfg and Dominators
  /// build across the shape analyses). Both must describe \p F's current
  /// state.
  LoopInfo(const Function &F, const FlatCfg &Flat);
  LoopInfo(const Function &F, const FlatCfg &Flat, const Dominators &Dom);

  const std::vector<NaturalLoop> &loops() const { return Loops; }

  /// Returns the loop headed at block \p Index, or nullptr.
  const NaturalLoop *loopWithHeader(int Index) const;

  /// Returns the innermost (smallest) loop containing \p Index, or nullptr.
  const NaturalLoop *innermostLoopContaining(int Index) const;

private:
  std::vector<NaturalLoop> Loops;
};

/// True if the reachable flow graph is reducible: deleting every natural
/// back edge (an edge u->h whose target dominates its source) must leave
/// an acyclic graph. This is equivalent to the graph collapsing to a single
/// node under repeated T1 (self-loop removal) / T2 (unique-predecessor
/// merge) transformations, but runs in near-linear time. JUMPS step 6 rolls
/// a replication back when this fails.
bool isReducible(const Function &F);

/// As above, but reuses a prebuilt CSR snapshot and dominator tree (JUMPS
/// step 6 passes the ones step 5 just built through cfg::AnalysisCache).
/// Both must describe \p F's current state.
bool isReducible(const Function &F, const FlatCfg &Flat,
                 const Dominators &Dom);

} // namespace coderep::cfg

#endif // CODEREP_CFG_CFGANALYSIS_H
