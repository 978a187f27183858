//===- AnalysisCache.h - Epoch-cached CFG-shape analyses --------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-function cache of the three flow-graph-shape analyses (FlatCfg,
/// Dominators, LoopInfo), validated by Function::analysisEpoch(): a cached
/// result stamped with the epoch it was computed at serves every query
/// until the function's epoch moves. One FlatCfg build is shared by all
/// three (Dominators reuses the CSR arrays, LoopInfo reuses both), so even
/// a cold query chain does strictly less work than three standalone
/// constructions.
///
/// This is the cfg-layer half of the analysis manager: the replication
/// passes (which the opt library depends on, so they cannot see
/// opt::AnalysisManager) take an AnalysisCache so JUMPS/LOOPS rounds share
/// dominator/loop results with each other and with the optimizer's passes.
/// opt::AnalysisManager wraps this cache and adds the dataflow (Liveness)
/// slot plus the PreservedAnalyses commit protocol.
///
/// Entries are held by shared_ptr: a caller that must keep a result alive
/// across further queries or mutations (e.g. a replication round holding
/// its LoopInfo while attempts recompute post-splice loops) takes the
/// shared handle; the plain reference accessors are for the common
/// query-then-read pattern.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CFG_ANALYSISCACHE_H
#define CODEREP_CFG_ANALYSISCACHE_H

#include "cfg/CfgAnalysis.h"
#include "cfg/FlatCfg.h"
#include "cfg/Function.h"

#include <cstdint>
#include <memory>

namespace coderep::cfg {

class AnalysisCache {
public:
  /// The shape analyses this cache manages, in dependency order.
  enum Kind { FlatCfgKind = 0, DominatorsKind, LoopsKind };
  static constexpr int NumKinds = 3;

  /// \p Enabled = false turns every query into a recompute (the
  /// always-recompute oracle the cached pipeline is differentially tested
  /// against); the commit protocol becomes a no-op beyond epoch
  /// bookkeeping.
  explicit AnalysisCache(Function &F, bool Enabled = true)
      : F(F), Enabled(Enabled) {}

  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  Function &function() { return F; }
  bool enabled() const { return Enabled; }

  /// Lazy accessors: serve the cached result while the function's epoch
  /// still equals the entry's stamp, recompute (and restamp) otherwise.
  /// The returned reference is valid until the next query or mutation;
  /// use the *Shared variants to hold a result across those.
  const FlatCfg &flatCfg() { return *flatCfgShared(); }
  const Dominators &dominators() { return *dominatorsShared(); }
  const LoopInfo &loops() { return *loopsShared(); }

  std::shared_ptr<const FlatCfg> flatCfgShared();
  std::shared_ptr<const Dominators> dominatorsShared();
  std::shared_ptr<const LoopInfo> loopsShared();

  /// True if the next query for \p K would be served from the cache
  /// (observability probe; does not count as a query).
  bool valid(Kind K) const {
    switch (K) {
    case FlatCfgKind:
      return fresh(Flat);
    case DominatorsKind:
      return fresh(Dom);
    case LoopsKind:
      return fresh(Loops);
    }
    return false;
  }

  /// The commit half of the preserved-analyses protocol (see
  /// opt::AnalysisManager::commit, which drives this): restamps to the
  /// current epoch every kept entry whose stamp is at or after
  /// \p BeforeEpoch - i.e. computed no earlier than the state the keeping
  /// pass started from - and drops everything else. Does not touch the
  /// function's epoch; the caller bumps it first.
  void commit(uint64_t BeforeEpoch, bool KeepFlatCfg, bool KeepDominators,
              bool KeepLoops);

  /// Drops every entry. Equivalent to commit(..., false, false, false).
  void invalidateAll() { commit(0, false, false, false); }

  /// Query/invalidation accounting, indexed by Kind. A hit serves a cached
  /// entry; a recompute constructs one (with Enabled = false every query
  /// is a recompute); an invalidation drops a live entry via commit().
  struct Counters {
    int64_t Hits[NumKinds] = {};
    int64_t Recomputes[NumKinds] = {};
    int64_t Invalidations[NumKinds] = {};
  };
  const Counters &counters() const { return Stats; }

private:
  template <typename T> struct Slot {
    std::shared_ptr<const T> Ptr;
    uint64_t Stamp = 0;
  };

  /// True if \p S holds a result valid at the current epoch.
  template <typename T> bool fresh(const Slot<T> &S) const {
    return Enabled && S.Ptr && S.Stamp == F.analysisEpoch();
  }

  template <typename T>
  void keepOrDrop(Slot<T> &S, bool Keep, uint64_t Before, uint64_t Now,
                  Kind K);

  Function &F;
  bool Enabled;
  Slot<FlatCfg> Flat;
  Slot<Dominators> Dom;
  Slot<LoopInfo> Loops;
  Counters Stats;
};

} // namespace coderep::cfg

#endif // CODEREP_CFG_ANALYSISCACHE_H
