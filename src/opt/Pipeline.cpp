//===- Pipeline.cpp - The Figure-3 optimization ordering ---------------------===//

#include "opt/Pipeline.h"

#include "obs/Journal.h"
#include "obs/ScopedTimer.h"
#include "opt/Pass.h"
#include "support/Check.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <atomic>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;

const char *opt::optLevelName(OptLevel Level) {
  switch (Level) {
  case OptLevel::Simple:
    return "SIMPLE";
  case OptLevel::Loops:
    return "LOOPS";
  case OptLevel::Jumps:
    return "JUMPS";
  }
  CODEREP_UNREACHABLE("bad optimization level");
}

const char *opt::phaseName(Phase P) {
  switch (P) {
  case Phase::BranchChaining:
    return "branch chaining";
  case Phase::UnreachableElim:
    return "unreachable elimination";
  case Phase::BlockReorder:
    return "block reordering";
  case Phase::MergeFallthroughs:
    return "fall-through merging";
  case Phase::Replication:
    return "code replication";
  case Phase::InstructionSelection:
    return "instruction selection";
  case Phase::RegisterAssignment:
    return "register assignment";
  case Phase::LocalCse:
    return "common subexpression elim";
  case Phase::DeadVariableElim:
    return "dead variable elimination";
  case Phase::CodeMotion:
    return "code motion";
  case Phase::StrengthReduction:
    return "strength reduction";
  case Phase::ConstantFolding:
    return "constant folding";
  case Phase::RegisterAllocation:
    return "register allocation";
  case Phase::DelaySlotFilling:
    return "delay-slot filling";
  case Phase::FusedLocalSweep:
    return "fused local sweep";
  }
  CODEREP_UNREACHABLE("bad phase");
}

int64_t PipelineStats::totalMicros() const {
  int64_t Total = 0;
  for (int64_t Us : PhaseMicros)
    Total += Us;
  return Total;
}

PipelineStats &PipelineStats::operator+=(const PipelineStats &Other) {
  Replication += Other.Replication;
  FixpointIterations += Other.FixpointIterations;
  DelaySlotNops += Other.DelaySlotNops;
  FixpointPassesRun += Other.FixpointPassesRun;
  FixpointPassesSkipped += Other.FixpointPassesSkipped;
  QuiescentRounds += Other.QuiescentRounds;
  FunctionCacheHits += Other.FunctionCacheHits;
  FunctionCacheMisses += Other.FunctionCacheMisses;
  Analysis += Other.Analysis;
  for (int I = 0; I < NumPhases; ++I) {
    PhaseMicros[I] += Other.PhaseMicros[I];
    FixpointPhaseMicros[I] += Other.FixpointPhaseMicros[I];
  }
  return *this;
}

namespace {

/// Metric and histogram key strings recorded once per compiled function.
/// Built once per process so the muted always-on configuration pays map
/// lookups on these keys but never rebuilds (and heap-allocates) them on
/// the compile path.
struct TelemetryKeys {
  std::string FnCompileUs = "fn.compile_us";
  std::string PassUs[NumPhases];
  std::string FixpointUs[NumPhases];
  std::string AnalysisHits[NumAnalysisIDs];
  std::string AnalysisRecomputes[NumAnalysisIDs];
  std::string AnalysisInvalidations[NumAnalysisIDs];
  TelemetryKeys() {
    for (int I = 0; I < NumPhases; ++I) {
      PassUs[I] = std::string("pass_us.") + phaseName(static_cast<Phase>(I));
      FixpointUs[I] = std::string("pipeline.fixpoint_us.") +
                      phaseName(static_cast<Phase>(I));
    }
    for (int I = 0; I < NumAnalysisIDs; ++I) {
      const std::string Name = analysisName(static_cast<AnalysisID>(I));
      AnalysisHits[I] = "analysis." + Name + ".hits";
      AnalysisRecomputes[I] = "analysis." + Name + ".recomputes";
      AnalysisInvalidations[I] = "analysis." + Name + ".invalidations";
    }
  }
};

const TelemetryKeys &telemetryKeys() {
  static const TelemetryKeys K;
  return K;
}

/// Runs one pass invocation under a ScopedTimer that charges the elapsed
/// microseconds to the phase's PhaseMicros slot and, when a trace sink is
/// attached, emits a span event named after the phase. With neither stats
/// nor sink the timer does no work (not even a clock read).
///
/// \p PassUs, when given (requires Stats), additionally records each
/// invocation's duration into a per-phase latency histogram. The array is
/// function-local - workers never share one - and optimizeFunction folds
/// it into the sink's registry once at the end, so the hot path stays
/// lock-free and the merged distribution is deterministic (histogram
/// merging is commutative).
class PassRunner {
public:
  PassRunner(PipelineStats *Stats, obs::TraceSink *Sink,
             obs::Histogram *PassUs = nullptr)
      : Stats(Stats), Sink(Sink), PassUs(PassUs) {}

  template <typename Fn> bool operator()(Phase P, Fn &&Pass) {
    int64_t *Accum = Stats ? &Stats->PhaseMicros[static_cast<int>(P)] : nullptr;
    const int64_t Before = Accum ? *Accum : 0;
    bool Changed;
    {
      // The name string is only materialized when a span will actually be
      // recorded; the muted/stats-only path keeps the clock and nothing
      // else (some phase names exceed SSO and would heap-allocate).
      obs::ScopedTimer Span(
          Sink, Sink ? std::string(phaseName(P)) : std::string(), Accum);
      Changed = Pass();
    }
    if (PassUs && Accum)
      PassUs[static_cast<int>(P)].record(*Accum - Before);
    return Changed;
  }

private:
  PipelineStats *Stats;
  obs::TraceSink *Sink;
  obs::Histogram *PassUs;
};

/// The passes inside the Figure-3 fixpoint loop, in the loop's order.
enum FixpointPass {
  FpLocalCse,
  FpDeadVars,
  FpCodeMotion,
  FpStrengthReduce,
  FpInsnSelect,
  FpBranchChain,
  FpConstFold,
  FpReplicate,
  FpUnreachable,
  FpMergeFall,
};
static_assert(FpMergeFall + 1 == NumFixpointPasses,
              "FixpointPass out of sync with NumFixpointPasses");

constexpr uint16_t fpBit(int P) { return static_cast<uint16_t>(1u << P); }
constexpr uint16_t AllFixpointPasses = fpBit(NumFixpointPasses) - 1;

/// The pass-invalidation matrix: Invalidates[X] is the set of passes whose
/// input a change by X may perturb, i.e. the dirty bits a change by X
/// raises. A pass with a clear dirty bit ran clean earlier and nothing
/// since could have created new work for it, so skipping it is exactly
/// equivalent to running it and watching it report "no change".
///
/// The matrix is deliberately conservative: everything invalidates
/// everything unless there is a structural argument to the contrary, and
/// the scheduled loop is differentially tested against the
/// rerun-everything loop (PipelineOptions::Reference) over the whole
/// benchmark suite and hundreds of random programs. The argued exceptions:
///
///  * Dead variable elimination, strength reduction and instruction
///    selection rewrite or delete plain computations but never touch a
///    transfer, create or remove a block, or retarget an edge (CSE is NOT
///    in this set: its constant propagation folds conditional branches
///    into jumps). They cannot change reachability or the
///    single-pred/single-succ structure, so they never create work for
///    unreachable-block elimination or fall-through merging.
///  * Unreachable-block elimination removes exactly the blocks not
///    reachable from the entry; deleting them cannot make a reachable
///    block unreachable, so the pass is idempotent and never re-dirties
///    itself.
///  * Fall-through merging's single right-to-left sweep reaches its own
///    fixpoint (see runMergeFallthroughs), so it never re-dirties itself
///    either.
constexpr uint16_t StructuralVictims = fpBit(FpUnreachable) | fpBit(FpMergeFall);
constexpr uint16_t Invalidates[NumFixpointPasses] = {
    /*FpLocalCse*/ AllFixpointPasses,
    /*FpDeadVars*/ AllFixpointPasses & ~StructuralVictims,
    /*FpCodeMotion*/ AllFixpointPasses,
    /*FpStrengthReduce*/ AllFixpointPasses & ~StructuralVictims,
    /*FpInsnSelect*/ AllFixpointPasses & ~StructuralVictims,
    /*FpBranchChain*/ AllFixpointPasses,
    /*FpConstFold*/ AllFixpointPasses,
    /*FpReplicate*/ AllFixpointPasses,
    /*FpUnreachable*/ AllFixpointPasses & ~fpBit(FpUnreachable),
    /*FpMergeFall*/ AllFixpointPasses & ~fpBit(FpMergeFall),
};

} // namespace

/// Runs the configured replication algorithm once. Both algorithms borrow
/// the manager's shape cache, so JUMPS and LOOPS rounds share dominator and
/// loop results with each other and with the optimizer's own passes.
static bool runReplication(Function &F, const PipelineOptions &Options,
                           PipelineStats *Stats, AnalysisManager &AM) {
  replicate::ReplicationStats *S =
      Stats ? &Stats->Replication : nullptr;
  switch (Options.Level) {
  case OptLevel::Simple:
    return false;
  case OptLevel::Loops:
    return replicate::runLoops(F, S, Options.Replication.Trace,
                               &AM.shapeCache(),
                               Options.Replication.Validator);
  case OptLevel::Jumps:
    return replicate::runJumps(F, Options.Replication, S, &AM.shapeCache());
  }
  CODEREP_UNREACHABLE("bad optimization level");
}

void opt::optimizeFunction(Function &F, const target::Target &T,
                           const PipelineOptions &OrigOptions,
                           PipelineStats *Stats, obs::JournalRecord *JR) {
  F.verify();

  // Pin the replication growth budget to the pre-optimization size so the
  // repeated replication invocations of the fixpoint loop share one
  // budget instead of compounding it.
  PipelineOptions Options = OrigOptions;
  if (Options.Replication.GrowthBaselineRtls < 0)
    Options.Replication.GrowthBaselineRtls = std::max(F.rtlCount(), 64);

  // One sink serves the whole pipeline: pass spans here, round spans and
  // decision records inside the replication passes. EvSink is the sink
  // for *span* call sites only: null when events are muted, so the muted
  // always-on configuration never pays for span names and args strings
  // (histograms, metrics, decisions and the journal keep the full Sink).
  Options.Replication.Trace = Options.Trace;
  obs::TraceSink *Sink = Options.Trace.Sink;
  obs::TraceSink *EvSink = Options.Trace.eventsActive() ? Sink : nullptr;

  // Journal: fill the caller's record slot, or a local one that gets
  // appended directly when nobody else will (the standalone-call case;
  // optimizeProgram always passes a slot so it can append in function
  // order).
  obs::JournalRecord LocalJR;
  const bool AppendJournalSelf = !JR && Options.Trace.SessionJournal;
  if (AppendJournalSelf)
    JR = &LocalJR;

  // The per-function metrics below are deltas over the stats counters; when
  // the caller wants tracing or a journal but no stats, accumulate into a
  // local copy.
  PipelineStats LocalStats;
  if ((Sink || JR) && !Stats)
    Stats = &LocalStats;
  const replicate::ReplicationStats ReplBefore =
      Stats ? Stats->Replication : replicate::ReplicationStats();
  const int64_t PassesRunBefore = Stats ? Stats->FixpointPassesRun : 0;
  const int64_t PassesSkippedBefore = Stats ? Stats->FixpointPassesSkipped : 0;
  const int QuiescentBefore = Stats ? Stats->QuiescentRounds : 0;
  int64_t PhaseBefore[NumPhases] = {};
  if (JR)
    for (int I = 0; I < NumPhases; ++I)
      PhaseBefore[I] = Stats->PhaseMicros[I];
  std::chrono::steady_clock::time_point FnStart;
  if (Sink || JR)
    FnStart = std::chrono::steady_clock::now();

  obs::ScopedTimer FnSpan(
      EvSink, EvSink ? "optimize " + F.Name : std::string(), nullptr,
      EvSink ? format("\"function\": \"%s\", \"level\": \"%s\"",
                      F.Name.c_str(), optLevelName(Options.Level))
             : std::string());

  // Translation validation: the session snapshots F in its current
  // (post-legalize) state and re-checks it at the verifier's granularity
  // as the passes below report in.
  std::unique_ptr<FunctionVerifier::Session> VS;
  if (Options.Verifier)
    VS = Options.Verifier->makeSession(F);
  // 0 = the pre-loop passes, 1.. = fixpoint rounds, -1 = post-loop.
  int CurRound = 0;

  // The analysis registry for this function: every pass queries its
  // analyses here. The reference pipeline recomputes at every query.
  AnalysisManager AM(F, !Options.Reference, EvSink);

  // The pass instances (stateless apart from configuration).
  std::unique_ptr<Pass> BranchChain = createBranchChainingPass();
  std::unique_ptr<Pass> Unreachable = createUnreachableElimPass();
  std::unique_ptr<Pass> Reorder = createBlockReorderPass();
  std::unique_ptr<Pass> MergeFall = createMergeFallthroughsPass();
  std::unique_ptr<Pass> InsnSel = createInstructionSelectionPass(T);
  std::unique_ptr<Pass> RegAssign = createRegisterAssignmentPass();
  std::unique_ptr<Pass> Cse = createLocalCsePass(T);
  std::unique_ptr<Pass> DeadVars = createDeadVariableElimPass();
  std::unique_ptr<Pass> Motion = createCodeMotionPass();
  std::unique_ptr<Pass> Strength = createStrengthReductionPass();
  std::unique_ptr<Pass> Fold = createConstantFoldingPass();
  std::unique_ptr<Pass> RegAlloc = createRegisterAllocationPass(T);

  // Per-phase pass-latency histograms, function-local (see PassRunner);
  // folded into the sink's registry at the end of this function.
  obs::Histogram PassHist[NumPhases];
  PassRunner run(Stats, EvSink, Sink ? PassHist : nullptr);

  // The mutation-testing self-check: reverse the first conditional branch
  // once, immediately after a constant-folding invocation, so the verify
  // subsystem can prove it detects (and attributes) a real miscompile.
  bool MutationDone = false;
  auto injectMutation = [&]() -> bool {
    if (!Options.MutateForTesting || MutationDone)
      return false;
    for (int B = 0; B < F.size(); ++B)
      for (auto I : F.block(B)->Insns)
        if (I.Op == rtl::Opcode::CondJump) {
          I.Cond = rtl::negate(I.Cond);
          F.noteRtlEdit();
          MutationDone = true;
          return true;
        }
    return false;
  };

  // The commit protocol: record the epoch, run the pass, and on a change
  // let the manager keep exactly the analyses the pass vouched for.
  auto runPass = [&](Phase Ph, Pass &P) {
    return run(Ph, [&] {
      const uint64_t Before = F.analysisEpoch();
      PassResult R = P.run(F, AM);
      if (Ph == Phase::ConstantFolding && injectMutation()) {
        R.Changed = true;
        R.Preserved = PreservedAnalyses::none();
      }
      if (R.Changed)
        AM.commit(Before, R.Preserved);
      if (VS)
        VS->afterPass(Ph, CurRound, F, R.Changed);
      return R.Changed;
    });
  };

  auto replicateOnce = [&] {
    return run(Phase::Replication, [&] {
      const uint64_t Before = F.analysisEpoch();
      bool Changed = runReplication(F, Options, Stats, AM);
      if (Changed)
        AM.commit(Before, PreservedAnalyses::none());
      if (VS)
        VS->afterPass(Phase::Replication, CurRound, F, Changed);
      return Changed;
    });
  };

  // Initial branch optimizations (Figure 3, before the loop).
  runPass(Phase::BranchChaining, *BranchChain);
  runPass(Phase::UnreachableElim, *Unreachable);
  runPass(Phase::BlockReorder, *Reorder);
  runPass(Phase::MergeFallthroughs, *MergeFall);

  // "Code replication is performed at an early stage so that the later
  // optimizations can take advantage of the simplified control flow."
  replicateOnce();
  runPass(Phase::UnreachableElim, *Unreachable);
  runPass(Phase::MergeFallthroughs, *MergeFall);

  runPass(Phase::InstructionSelection, *InsnSel);
  // "register assignment; if (change) instruction selection;"
  if (runPass(Phase::RegisterAssignment, *RegAssign))
    runPass(Phase::InstructionSelection, *InsnSel);

  // The fixpoint loop of Figure 3, one slot per pass in loop order.
  auto runFixpointPass = [&](int P) -> bool {
    switch (P) {
    case FpLocalCse:
      return runPass(Phase::LocalCse, *Cse);
    case FpDeadVars:
      return runPass(Phase::DeadVariableElim, *DeadVars);
    case FpCodeMotion:
      return runPass(Phase::CodeMotion, *Motion);
    case FpStrengthReduce:
      return runPass(Phase::StrengthReduction, *Strength);
    case FpInsnSelect:
      return runPass(Phase::InstructionSelection, *InsnSel);
    case FpBranchChain:
      return runPass(Phase::BranchChaining, *BranchChain);
    case FpConstFold:
      return runPass(Phase::ConstantFolding, *Fold);
    case FpReplicate:
      return replicateOnce();
    case FpUnreachable:
      return runPass(Phase::UnreachableElim, *Unreachable);
    case FpMergeFall:
      return runPass(Phase::MergeFallthroughs, *MergeFall);
    }
    CODEREP_UNREACHABLE("bad fixpoint pass");
  };

  int Iter = 0;
  // Attribute the loop's slice of each phase's time: everything the
  // PhaseMicros slots accrue between here and loop exit happened inside a
  // fixpoint round.
  int64_t LoopBase[NumPhases];
  if (Stats)
    for (int I = 0; I < NumPhases; ++I)
      LoopBase[I] = Stats->PhaseMicros[I];
  // Change-driven scheduling: a pass body runs only while its dirty bit is
  // set; a change raises the dirty bits of every pass it can perturb (see
  // the Invalidates matrix above). Skipping a clean pass is equivalent to
  // running it and seeing "no change", so the function evolves through
  // byte-identical states. The reference pipeline runs every slot and lets
  // any change re-dirty all of them: the paper's "rerun the battery while
  // anything changes". Both execute the same number of rounds (every
  // Invalidates row contains a bit at or below its own slot, so a change
  // always survives to the round end); the entire saving is the per-round
  // skips, and in the final all-clean verification round the scheduler
  // executes only the handful of passes the last change could have
  // perturbed.
  uint16_t Dirty = AllFixpointPasses;
  while (Dirty && Iter++ < Options.MaxFixpointIterations) {
    obs::ScopedTimer IterSpan(
        EvSink, "fixpoint round", nullptr,
        EvSink ? format("\"function\": \"%s\", \"round\": %d",
                        F.Name.c_str(), Iter)
               : std::string());
    CurRound = Iter;
    for (int P = 0; P < NumFixpointPasses; ++P) {
      if (!Options.Reference && !(Dirty & fpBit(P))) {
        if (Stats)
          ++Stats->FixpointPassesSkipped;
        continue;
      }
      Dirty = static_cast<uint16_t>(Dirty & ~fpBit(P));
      if (Stats)
        ++Stats->FixpointPassesRun;
      if (runFixpointPass(P))
        Dirty |= Options.Reference ? AllFixpointPasses : Invalidates[P];
    }
    F.verify();
    if (VS)
      VS->endRound(Iter, F);
  }
  // An empty dirty set means the loop converged: its last round ran only
  // the still-dirty passes and all of them came back clean (the cap-exit
  // case leaves bits set and counts no quiescent round).
  if (!Dirty && Stats)
    ++Stats->QuiescentRounds;
  if (Stats) {
    Stats->FixpointIterations += Iter;
    for (int I = 0; I < NumPhases; ++I)
      Stats->FixpointPhaseMicros[I] += Stats->PhaseMicros[I] - LoopBase[I];
  }

  CurRound = -1;
  runPass(Phase::RegisterAllocation, *RegAlloc);
  runPass(Phase::BranchChaining, *BranchChain);
  runPass(Phase::UnreachableElim, *Unreachable);
  runPass(Phase::BlockReorder, *Reorder);
  runPass(Phase::MergeFallthroughs, *MergeFall);

  if (T.hasDelaySlots()) {
    int Nops = 0;
    std::unique_ptr<Pass> DelaySlots = createDelaySlotFillingPass(&Nops);
    runPass(Phase::DelaySlotFilling, *DelaySlots);
    if (Stats)
      Stats->DelaySlotNops += Nops;
  }
  F.verify();
  if (VS)
    VS->endFunction(F);

  if (Stats)
    Stats->Analysis += AM.counters();

  int64_t FnUs = 0;
  if (Sink || JR)
    FnUs = std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - FnStart)
               .count();

  if (Sink) {
    const TelemetryKeys &K = telemetryKeys();
    obs::HistogramRegistry &H = Sink->histograms();
    H.record(K.FnCompileUs, FnUs);
    for (int I = 0; I < NumPhases; ++I)
      if (PassHist[I].count())
        H.merge(K.PassUs[I], PassHist[I]);
  }

  if (JR) {
    JR->Fn = F.Name;
    JR->Cache = Options.FunctionCache ? "miss" : "off";
    JR->Verify = !Options.Verifier ? "off"
                 : Options.Verifier->functionVerifiedClean(F.Name) ? "pass"
                                                                   : "fail";
    // Every phase appears (even at 0 us) so record keys are stable for the
    // golden test; only the timing values vary run to run.
    JR->PhaseUs.reserve(NumPhases + 1);
    JR->Counters.reserve(15);
    JR->PhaseUs.emplace_back("total", FnUs);
    for (int I = 0; I < NumPhases; ++I)
      JR->PhaseUs.emplace_back(phaseName(static_cast<Phase>(I)),
                               Stats->PhaseMicros[I] - PhaseBefore[I]);
    const replicate::ReplicationStats &R = Stats->Replication;
    const AnalysisCounters A = AM.counters();
    int64_t AnalysisHits = 0, AnalysisRecomputes = 0, AnalysisInvalidations = 0;
    for (int I = 0; I < NumAnalysisIDs; ++I) {
      AnalysisHits += A.Hits[I];
      AnalysisRecomputes += A.Recomputes[I];
      AnalysisInvalidations += A.Invalidations[I];
    }
    auto C = [&](const char *Name, int64_t Value) {
      JR->Counters.emplace_back(Name, Value);
    };
    C("repl.jumps_replaced", R.JumpsReplaced - ReplBefore.JumpsReplaced);
    C("repl.rolled_back_irreducible",
      R.RolledBackIrreducible - ReplBefore.RolledBackIrreducible);
    C("repl.skipped_length_cap",
      R.SkippedLengthCap - ReplBefore.SkippedLengthCap);
    C("repl.skipped_growth_budget",
      R.SkippedGrowthBudget - ReplBefore.SkippedGrowthBudget);
    C("repl.skipped_no_candidate",
      R.SkippedNoCandidate - ReplBefore.SkippedNoCandidate);
    C("repl.loops_completed", R.LoopsCompleted - ReplBefore.LoopsCompleted);
    C("repl.step5_retargets", R.Step5Retargets - ReplBefore.Step5Retargets);
    C("repl.stub_jumps_added", R.StubJumpsAdded - ReplBefore.StubJumpsAdded);
    C("fixpoint.rounds", Iter);
    C("fixpoint.passes_run", Stats->FixpointPassesRun - PassesRunBefore);
    C("fixpoint.passes_skipped",
      Stats->FixpointPassesSkipped - PassesSkippedBefore);
    C("analysis.hits", AnalysisHits);
    C("analysis.recomputes", AnalysisRecomputes);
    C("analysis.invalidations", AnalysisInvalidations);
    C("rtls_out", F.rtlCount());
    if (AppendJournalSelf)
      Options.Trace.SessionJournal->append(std::move(*JR));
  }

  if (Sink) {
    const replicate::ReplicationStats &R = Stats->Replication;
    const TelemetryKeys &K = telemetryKeys();
    obs::MetricsRegistry &M = Sink->metrics();
    if (EvSink) {
      // Per-function-name breakdown metrics are timeline/debugging data
      // like decision records: they obey the events switch. The muted
      // always-on configuration keeps the aggregates below, and the
      // journal already carries the same per-function deltas.
      M.add("fn." + F.Name + ".jumps_replaced",
            R.JumpsReplaced - ReplBefore.JumpsReplaced);
      M.add("fn." + F.Name + ".rollbacks_irreducible",
            R.RolledBackIrreducible - ReplBefore.RolledBackIrreducible);
      M.add("fn." + F.Name + ".fixpoint_rounds", Iter);
      M.set("fn." + F.Name + ".rtls_out", F.rtlCount());
      M.add("fn." + F.Name + ".fixpoint_passes_run",
            Stats->FixpointPassesRun - PassesRunBefore);
      M.add("fn." + F.Name + ".fixpoint_passes_skipped",
            Stats->FixpointPassesSkipped - PassesSkippedBefore);
    }
    M.add("pipeline.fixpoint_passes_run",
          Stats->FixpointPassesRun - PassesRunBefore);
    M.add("pipeline.fixpoint_passes_skipped",
          Stats->FixpointPassesSkipped - PassesSkippedBefore);
    M.add("pipeline.quiescent_rounds",
          Stats->QuiescentRounds - QuiescentBefore);
    for (int I = 0; I < NumPhases; ++I)
      if (Stats->FixpointPhaseMicros[I])
        M.add(K.FixpointUs[I], Stats->FixpointPhaseMicros[I]);
    const AnalysisCounters A = AM.counters();
    for (int I = 0; I < NumAnalysisIDs; ++I) {
      M.add(K.AnalysisHits[I], A.Hits[I]);
      M.add(K.AnalysisRecomputes[I], A.Recomputes[I]);
      M.add(K.AnalysisInvalidations[I], A.Invalidations[I]);
    }
  }
}

void opt::optimizeProgram(Program &P, const target::Target &T,
                          const PipelineOptions &Options,
                          PipelineStats *Stats) {
  const size_t N = P.Functions.size();
  FunctionOptimizationCache *Cache = Options.FunctionCache;
  obs::Journal *SessionJournal = Options.Trace.SessionJournal;
  if (Options.Verifier)
    Options.Verifier->beginProgram(P);

  // Journal slots filled by the workers, appended below in function order
  // so the journal is deterministic at any job count.
  std::vector<obs::JournalRecord> Records(SessionJournal ? N : 0);

  // Optimizes one function into private stats: cache consult first, the
  // full pipeline on a miss. Locals keep the aggregation race-free under
  // the fan-out below and give the cache an exact per-function delta.
  auto optimizeOne = [&](size_t I, Function &F, PipelineStats &Local) {
    obs::JournalRecord *JR = SessionJournal ? &Records[I] : nullptr;
    if (!Cache) {
      optimizeFunction(F, T, Options, &Local, JR);
      return;
    }
    const std::string Key = Cache->keyFor(F, T, Options);
    bool Hit;
    if (obs::TraceSink *Sink = Options.Trace.Sink) {
      // Lookup latency distribution: histogram recording is commutative,
      // so concurrent workers cannot perturb the exported quantiles.
      const auto T0 = std::chrono::steady_clock::now();
      Hit = Cache->lookup(Key, F, &Local);
      Sink->histograms().record(
          "cache.lookup_us",
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
    } else {
      Hit = Cache->lookup(Key, F, &Local);
    }
    if (Hit) {
      ++Local.FunctionCacheHits;
      if (JR) {
        JR->Fn = F.Name;
        JR->Cache = "hit";
        JR->Verify = "off"; // a hit skips the pipeline, so nothing ran
        JR->Counters.emplace_back("rtls_out", F.rtlCount());
      }
      return;
    }
    optimizeFunction(F, T, Options, &Local, JR);
    ++Local.FunctionCacheMisses;
    Cache->store(Key, F, Local);
    if (Options.Verifier && Options.Verifier->functionVerifiedClean(F.Name))
      Cache->noteVerified(Key);
  };

  unsigned Jobs = Options.Jobs == 0 ? std::thread::hardware_concurrency()
                                    : static_cast<unsigned>(Options.Jobs);
  if (Jobs < 1)
    Jobs = 1;
  if (Jobs > N)
    Jobs = static_cast<unsigned>(N);

  std::vector<PipelineStats> Locals(N);
  if (Jobs <= 1) {
    for (size_t I = 0; I < N; ++I)
      optimizeOne(I, *P.Functions[I], Locals[I]);
  } else {
    // Functions are independent, so fan them out; every worker writes only
    // its own function and stats slot. Reduction below runs in function
    // order, so program bytes AND aggregated stats are identical to the
    // serial driver at any worker count.
    ThreadPool Pool(Jobs);
    std::atomic<unsigned> NextWorker{0};
    obs::TraceSink *Sink = Options.Trace.Sink;
    Pool.parallelFor(N, [&](size_t I) {
      if (Sink) {
        // Name each recording worker's track once, in first-use order, so
        // Chrome-trace exports show the parallel optimization schedule.
        thread_local const obs::TraceSink *NamedFor = nullptr;
        if (NamedFor != Sink) {
          NamedFor = Sink;
          Sink->nameCurrentThread(
              format("opt worker %u", NextWorker.fetch_add(1)));
        }
      }
      optimizeOne(I, *P.Functions[I], Locals[I]);
    });
  }

  int64_t CacheHits = 0, CacheMisses = 0;
  for (const PipelineStats &L : Locals) {
    CacheHits += L.FunctionCacheHits;
    CacheMisses += L.FunctionCacheMisses;
    if (Stats)
      *Stats += L;
  }
  if (SessionJournal)
    for (obs::JournalRecord &R : Records)
      SessionJournal->append(std::move(R));
  if (obs::TraceSink *Sink = Options.Trace.Sink; Sink && Cache) {
    Sink->metrics().add("pipeline_cache.hits", CacheHits);
    Sink->metrics().add("pipeline_cache.misses", CacheMisses);
  }
}
