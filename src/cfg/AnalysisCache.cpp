//===- AnalysisCache.cpp - Epoch-cached CFG-shape analyses -------------------===//

#include "cfg/AnalysisCache.h"

using namespace coderep;
using namespace coderep::cfg;

std::shared_ptr<const FlatCfg> AnalysisCache::flatCfgShared() {
  if (fresh(Flat)) {
    ++Stats.Hits[FlatCfgKind];
    return Flat.Ptr;
  }
  Flat.Ptr = std::make_shared<const FlatCfg>(F);
  Flat.Stamp = F.analysisEpoch();
  ++Stats.Recomputes[FlatCfgKind];
  return Flat.Ptr;
}

std::shared_ptr<const Dominators> AnalysisCache::dominatorsShared() {
  if (fresh(Dom)) {
    ++Stats.Hits[DominatorsKind];
    return Dom.Ptr;
  }
  std::shared_ptr<const FlatCfg> FlatNow = flatCfgShared();
  Dom.Ptr = std::make_shared<const Dominators>(F, *FlatNow);
  Dom.Stamp = F.analysisEpoch();
  ++Stats.Recomputes[DominatorsKind];
  return Dom.Ptr;
}

std::shared_ptr<const LoopInfo> AnalysisCache::loopsShared() {
  if (fresh(Loops)) {
    ++Stats.Hits[LoopsKind];
    return Loops.Ptr;
  }
  std::shared_ptr<const FlatCfg> FlatNow = flatCfgShared();
  std::shared_ptr<const Dominators> DomNow = dominatorsShared();
  Loops.Ptr = std::make_shared<const LoopInfo>(F, *FlatNow, *DomNow);
  Loops.Stamp = F.analysisEpoch();
  ++Stats.Recomputes[LoopsKind];
  return Loops.Ptr;
}

template <typename T>
void AnalysisCache::keepOrDrop(Slot<T> &S, bool Keep, uint64_t Before,
                               uint64_t Now, Kind K) {
  if (!S.Ptr)
    return;
  // An entry computed at or after Before reflects either the state the
  // keeping pass started from or an intermediate state it declared
  // equivalent for this kind; restamp it to the new epoch. Anything older
  // predates edits the pass did not vouch for: drop it.
  if (Keep && S.Stamp >= Before) {
    S.Stamp = Now;
    return;
  }
  S.Ptr.reset();
  ++Stats.Invalidations[K];
}

void AnalysisCache::commit(uint64_t BeforeEpoch, bool KeepFlatCfg,
                           bool KeepDominators, bool KeepLoops) {
  const uint64_t Now = F.analysisEpoch();
  keepOrDrop(Flat, KeepFlatCfg, BeforeEpoch, Now, FlatCfgKind);
  keepOrDrop(Dom, KeepDominators, BeforeEpoch, Now, DominatorsKind);
  keepOrDrop(Loops, KeepLoops, BeforeEpoch, Now, LoopsKind);
}
