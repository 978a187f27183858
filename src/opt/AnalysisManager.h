//===- AnalysisManager.h - Cached analyses + preserved-analysis sets -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-function analysis registry of the optimization pipeline. The
/// pass scheduler is change-driven; this layer does the same for the
/// *analyses* inside the passes: FlatCfg, dominators, natural loops and
/// liveness are computed lazily, cached, and invalidated by what each pass
/// declares it preserved. (The replication shortest-path matrix is not
/// among them: JUMPS builds one per round, see replicate/ShortestPaths.h.)
///
/// Validity is keyed on cfg::Function::analysisEpoch(), a counter every
/// mutation path bumps (block-list mutators automatically, in-place RTL
/// edits via Function::noteRtlEdit()). The protocol, driven by the
/// pipeline's PassRunner:
///
///  1. record Before = F.analysisEpoch(), run the pass;
///  2. if it changed the function, call commit(Before, Preserved):
///     - the epoch is bumped if the pass only edited in place (so every
///       change is observed),
///     - a cached entry survives iff its kind is in the preserved set and
///       it was computed at or after Before (anything older predates
///       edits the pass did not vouch for),
///     - surviving entries are restamped to the new epoch;
///  3. an unchanged pass commits nothing - every entry stays valid.
///
/// Passes that query analyses *between* their own edits use the same
/// primitive mid-run (noteEdit), so e.g. code motion's loop info survives
/// a chain of in-block hoists. Speculative transformations (the JUMPS
/// step-6 rollback) snapshot the shape cache and restore it - entries and
/// epoch - instead of blanket invalidation.
///
/// The CFG-shape half (FlatCfg/dominators/loops) lives in
/// cfg::AnalysisCache so the replication passes, which sit below the opt
/// library, share the same entries; this class layers the dataflow slot
/// (Liveness), the preserved-analyses commit protocol, unified counters,
/// and trace spans on top.
///
/// A manager is strictly single-threaded state: the parallel driver builds
/// one per function task, and every query asserts it stayed on the thread
/// that built it.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OPT_ANALYSISMANAGER_H
#define CODEREP_OPT_ANALYSISMANAGER_H

#include "cfg/AnalysisCache.h"
#include "obs/Trace.h"
#include "opt/Liveness.h"

#include <cstdint>
#include <memory>
#include <thread>

namespace coderep::opt {

/// Every analysis the manager caches, in dependency order. The first three
/// mirror cfg::AnalysisCache::Kind.
enum class AnalysisID {
  FlatCfg = 0,
  Dominators,
  Loops,
  Liveness,
};
inline constexpr int NumAnalysisIDs = 4;

/// Stable printable name, e.g. "liveness".
const char *analysisName(AnalysisID ID);

/// The set of analyses a pass declares still valid after its changes.
/// Deliberately coarse (a bitmask over AnalysisID) and deliberately
/// conservative in use: a pass claims preservation only with a structural
/// argument, and the cached pipeline is differentially tested against the
/// always-recompute oracle.
class PreservedAnalyses {
public:
  /// Nothing survives: the default for structural passes.
  static PreservedAnalyses none() { return PreservedAnalyses(); }

  /// Everything survives: for passes that report a change which cannot
  /// perturb any cached analysis (none of the current passes qualify).
  static PreservedAnalyses all() {
    PreservedAnalyses P;
    P.Mask = static_cast<uint8_t>((1u << NumAnalysisIDs) - 1);
    return P;
  }

  /// The flow-graph-shape analyses survive, dataflow is dropped: the set
  /// for passes that rewrite or delete plain computations inside blocks
  /// but never touch a transfer, create or remove a block, or retarget an
  /// edge.
  static PreservedAnalyses cfgShape() {
    return none()
        .preserve(AnalysisID::FlatCfg)
        .preserve(AnalysisID::Dominators)
        .preserve(AnalysisID::Loops);
  }

  PreservedAnalyses &preserve(AnalysisID ID) {
    Mask |= bit(ID);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisID ID) {
    Mask &= static_cast<uint8_t>(~bit(ID));
    return *this;
  }
  bool preserved(AnalysisID ID) const { return (Mask & bit(ID)) != 0; }

private:
  static uint8_t bit(AnalysisID ID) {
    return static_cast<uint8_t>(1u << static_cast<int>(ID));
  }
  uint8_t Mask = 0;
};

/// Per-analysis query/invalidation accounting, indexed by AnalysisID.
struct AnalysisCounters {
  int64_t Hits[NumAnalysisIDs] = {};
  int64_t Recomputes[NumAnalysisIDs] = {};
  int64_t Invalidations[NumAnalysisIDs] = {};

  int64_t totalHits() const;
  int64_t totalRecomputes() const;
  int64_t totalInvalidations() const;
  AnalysisCounters &operator+=(const AnalysisCounters &O);
};

class AnalysisManager {
public:
  /// \p CacheEnabled = false degrades every query to a fresh computation
  /// (the always-recompute half of PipelineOptions::Reference). \p Trace,
  /// when given, receives a span per analysis recomputation.
  explicit AnalysisManager(cfg::Function &F, bool CacheEnabled = true,
                           obs::TraceSink *Trace = nullptr);

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  cfg::Function &function() { return Shape.function(); }
  uint64_t epoch() const { return FRef.analysisEpoch(); }

  /// The shared CFG-shape cache, passed into the replication passes so
  /// JUMPS/LOOPS rounds reuse (and refresh) the same dominator/loop
  /// entries as the optimizer's passes.
  cfg::AnalysisCache &shapeCache() { return Shape; }

  /// Lazy cached queries. References are valid until the next query or
  /// mutation; the *Shared variants pin a result across those.
  const cfg::FlatCfg &flatCfg();
  const cfg::Dominators &dominators();
  const cfg::LoopInfo &loops();
  const Liveness &liveness();
  std::shared_ptr<const Liveness> livenessShared();
  std::shared_ptr<const cfg::Dominators> dominatorsShared();
  std::shared_ptr<const cfg::LoopInfo> loopsShared();

  /// The invalidation step after a pass (or one edit burst inside a pass)
  /// changed the function. \p BeforeEpoch is the epoch when the work
  /// started; if the edits were all in-place the epoch has not moved and
  /// is bumped here, so every change is observed. Entries survive per the
  /// protocol described in the file comment.
  void commit(uint64_t BeforeEpoch, const PreservedAnalyses &PA);

  /// Mid-pass form of commit() for an edit burst that just happened:
  /// equivalent to commit(epoch(), PA).
  void noteEdit(const PreservedAnalyses &PA) { commit(epoch(), PA); }

  /// Unified counters over the shape cache and liveness.
  AnalysisCounters counters() const;

private:
  void checkThread() const;

  cfg::Function &FRef;
  cfg::AnalysisCache Shape;
  obs::TraceSink *Trace;
  std::thread::id Owner;

  bool CacheEnabled;
  std::shared_ptr<const Liveness> Live;
  uint64_t LiveStamp = 0;
  int64_t LiveHits = 0;
  int64_t LiveRecomputes = 0;
  int64_t LiveInvalidations = 0;
};

} // namespace coderep::opt

#endif // CODEREP_OPT_ANALYSISMANAGER_H
