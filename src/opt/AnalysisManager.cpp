//===- AnalysisManager.cpp - Cached analyses + preserved-analysis sets -------===//

#include "opt/AnalysisManager.h"

#include "obs/ScopedTimer.h"
#include "support/Check.h"

using namespace coderep;
using namespace coderep::opt;

const char *opt::analysisName(AnalysisID ID) {
  switch (ID) {
  case AnalysisID::FlatCfg:
    return "flatcfg";
  case AnalysisID::Dominators:
    return "dominators";
  case AnalysisID::Loops:
    return "loops";
  case AnalysisID::Liveness:
    return "liveness";
  }
  CODEREP_UNREACHABLE("bad analysis id");
}

int64_t AnalysisCounters::totalHits() const {
  int64_t T = 0;
  for (int64_t V : Hits)
    T += V;
  return T;
}

int64_t AnalysisCounters::totalRecomputes() const {
  int64_t T = 0;
  for (int64_t V : Recomputes)
    T += V;
  return T;
}

int64_t AnalysisCounters::totalInvalidations() const {
  int64_t T = 0;
  for (int64_t V : Invalidations)
    T += V;
  return T;
}

AnalysisCounters &AnalysisCounters::operator+=(const AnalysisCounters &O) {
  for (int I = 0; I < NumAnalysisIDs; ++I) {
    Hits[I] += O.Hits[I];
    Recomputes[I] += O.Recomputes[I];
    Invalidations[I] += O.Invalidations[I];
  }
  return *this;
}

AnalysisManager::AnalysisManager(cfg::Function &F, bool CacheEnabled,
                                 obs::TraceSink *Trace)
    : FRef(F), Shape(F, CacheEnabled), Trace(Trace),
      Owner(std::this_thread::get_id()), CacheEnabled(CacheEnabled) {}

void AnalysisManager::checkThread() const {
  CODEREP_CHECK(std::this_thread::get_id() == Owner,
                "AnalysisManager used from a thread other than its owner "
                "(per-function managers must not cross ThreadPool workers)");
}

const cfg::FlatCfg &AnalysisManager::flatCfg() {
  checkThread();
  if (!Shape.valid(cfg::AnalysisCache::FlatCfgKind)) {
    obs::ScopedTimer Span(Trace, "analysis: flatcfg");
    return *Shape.flatCfgShared();
  }
  return *Shape.flatCfgShared();
}

const cfg::Dominators &AnalysisManager::dominators() {
  return *dominatorsShared();
}

const cfg::LoopInfo &AnalysisManager::loops() { return *loopsShared(); }

std::shared_ptr<const cfg::Dominators> AnalysisManager::dominatorsShared() {
  checkThread();
  if (!Shape.valid(cfg::AnalysisCache::DominatorsKind)) {
    obs::ScopedTimer Span(Trace, "analysis: dominators");
    return Shape.dominatorsShared();
  }
  return Shape.dominatorsShared();
}

std::shared_ptr<const cfg::LoopInfo> AnalysisManager::loopsShared() {
  checkThread();
  if (!Shape.valid(cfg::AnalysisCache::LoopsKind)) {
    obs::ScopedTimer Span(Trace, "analysis: loops");
    return Shape.loopsShared();
  }
  return Shape.loopsShared();
}

const Liveness &AnalysisManager::liveness() {
  checkThread();
  cfg::Function &F = function();
  if (CacheEnabled && Live && LiveStamp == F.analysisEpoch()) {
    ++LiveHits;
    return *Live;
  }
  obs::ScopedTimer Span(Trace, "analysis: liveness");
  std::shared_ptr<const cfg::FlatCfg> Flat = Shape.flatCfgShared();
  Live = std::make_shared<const Liveness>(F, *Flat);
  LiveStamp = F.analysisEpoch();
  ++LiveRecomputes;
  return *Live;
}

std::shared_ptr<const Liveness> AnalysisManager::livenessShared() {
  liveness();
  return Live;
}

void AnalysisManager::commit(uint64_t BeforeEpoch,
                             const PreservedAnalyses &PA) {
  checkThread();
  cfg::Function &F = function();
  // A pass whose edits were all in place has not moved the epoch; bump it
  // here so the change is observed (and so entries computed before the
  // edits cannot be mistaken for current ones by a later manager).
  if (F.analysisEpoch() == BeforeEpoch)
    F.noteRtlEdit();
  Shape.commit(BeforeEpoch, PA.preserved(AnalysisID::FlatCfg),
               PA.preserved(AnalysisID::Dominators),
               PA.preserved(AnalysisID::Loops));
  const uint64_t Now = F.analysisEpoch();
  if (Live) {
    if (PA.preserved(AnalysisID::Liveness) && LiveStamp >= BeforeEpoch) {
      LiveStamp = Now;
    } else {
      Live.reset();
      ++LiveInvalidations;
    }
  }
}

AnalysisCounters AnalysisManager::counters() const {
  AnalysisCounters C;
  const cfg::AnalysisCache::Counters &S = Shape.counters();
  for (int K = 0; K < cfg::AnalysisCache::NumKinds; ++K) {
    C.Hits[K] = S.Hits[K];
    C.Recomputes[K] = S.Recomputes[K];
    C.Invalidations[K] = S.Invalidations[K];
  }
  const int L = static_cast<int>(AnalysisID::Liveness);
  C.Hits[L] = LiveHits;
  C.Recomputes[L] = LiveRecomputes;
  C.Invalidations[L] = LiveInvalidations;
  return C;
}
