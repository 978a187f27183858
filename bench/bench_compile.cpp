//===- bench_compile.cpp - Compiler-throughput benchmark ----------------------===//
//
// Measures compile wall-clock over the whole Table-3 suite and emits
// BENCH_compile.json. The headline comparison is at the JUMPS level:
//
//  * baseline  - the paper-literal pipeline (PipelineOptions::Reference):
//    the step-1 shortest-path matrix recomputed eagerly with the dense
//    Warshall/Floyd recurrence at the start of every replication round,
//    the Figure-3 fixpoint loop rerunning the whole pass battery every
//    round, and every analysis recomputed at each query, which is how the
//    paper describes the algorithm and how this repository originally
//    implemented it;
//  * optimized - the default configuration: lazy per-source Dijkstra rows
//    backed by an arena (one matrix per round), the invalidation-matrix
//    pass scheduler that skips passes no prior change could have
//    perturbed, and the epoch-stamped analysis manager.
//
// Both configurations produce identical code (the tests assert bit-equal
// cost matrices and the differential suite compiles both ways), so the
// ratio is pure compile-throughput. Each compile is repeated and the
// fastest repetition kept, which filters scheduler noise.
//
// --jobs=N fans the (target, program) measurement tasks over a thread
// pool (default: every core); each individual compile stays serial so its
// timing remains meaningful, and results are reduced in task order so the
// report is deterministic at any N. --pipeline-cache[=DIR] appends a
// cold-vs-warm sweep demonstrating the content-addressed function cache.
//
// Every run also appends one JSON line (git SHA, date, jobs, totals) to
// BENCH_history.jsonl (--history=FILE to relocate, --no-history to skip),
// giving the regression trail run_benches.sh diffs against.
//
// The run closes with an oracle-overhead pair: one plain JUMPS sweep and
// one with the final-state execution oracle (--verify=final) attached, so
// the history records what translation validation costs on top of a
// compile (verify_off_total_us vs verify_final_total_us).
//
// Finally, a compile-server sweep replays the suite twice over the codrepd
// socket protocol (an in-process daemon on a temp socket by default;
// --server-socket=PATH to target an externally started codrepd, which is
// what run_benches.sh does) and records client-observed request latency
// (server_p50_us/server_p99_us), the shared function-cache hit rate
// (server_hit_rate), and the machine-normalized tail ratio p99/p50
// (server_tail_ratio) that bench_report gates.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "cache/PipelineCli.h"
#include "obs/Journal.h"
#include "obs/ScopedTimer.h"
#include "obs/ObsCli.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/Format.h"
#include "support/ThreadPool.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <unistd.h>
#include <cstdio>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace coderep;
using namespace coderep::bench;

namespace {

struct ConfigTotals {
  int64_t TotalUs = 0;
  int64_t ReplicationUs = 0;
  int64_t AnalysisHits = 0;
  int64_t AnalysisRecomputes = 0;
  int64_t LivenessRecomputes = 0;
  int64_t FixpointUs[opt::NumPhases] = {};
  int64_t PhaseUs[opt::NumPhases] = {};
  int64_t ArenaInsns = 0;
  int64_t ArenaPoolBytes = 0;
  int64_t ArenaPeakRefs = 0;
};

/// Result of the fastest of several repeated compiles.
struct OneCompile {
  int64_t Us = 0;
  int64_t ReplicationUs = 0;
  int64_t AnalysisHits = 0;
  int64_t AnalysisRecomputes = 0;
  int64_t LivenessRecomputes = 0;
  /// Per-phase microseconds accrued inside the fixpoint loop (fastest rep).
  int64_t FixpointUs[opt::NumPhases] = {};
  /// Per-phase microseconds over the whole pipeline (fastest rep).
  int64_t PhaseUs[opt::NumPhases] = {};
  /// RTL arena footprint of the compiled program (live insns, label-pool
  /// bytes, peak refs ever allocated), summed over functions.
  int64_t ArenaInsns = 0;
  int64_t ArenaPoolBytes = 0;
  int64_t ArenaPeakRefs = 0;
};

const char *targetName(target::TargetKind TK) {
  return TK == target::TargetKind::M68 ? "m68" : "sparc";
}

/// Compiles \p BP \p Reps times, keeping the fastest wall-clock; phase
/// counters are taken from the fastest repetition too. \p Trace, when
/// non-null, spans every repetition (and is threaded into the compile),
/// which of course perturbs the timings - trace a bench run to see where
/// its time goes, not to report numbers.
OneCompile timedCompile(const BenchProgram &BP, target::TargetKind TK,
                        opt::OptLevel Level,
                        const opt::PipelineOptions *Override, int Reps,
                        obs::TraceSink *Trace, const char *Config) {
  opt::PipelineOptions TracedOpts;
  if (Override)
    TracedOpts = *Override;
  if (Trace)
    TracedOpts.Trace.Sink = Trace;
  const opt::PipelineOptions *EffOverride =
      (Override || Trace) ? &TracedOpts : nullptr;

  OneCompile Best;
  for (int R = 0; R < Reps; ++R) {
    obs::ScopedTimer Span(Trace, Trace ? format("compile %s/%s %s",
                                                BP.Name.c_str(),
                                                targetName(TK), Config)
                                       : std::string());
    auto Start = std::chrono::steady_clock::now();
    driver::Compilation C = driver::compile(BP.Source, TK, Level, EffOverride);
    auto End = std::chrono::steady_clock::now();
    if (!C.ok()) {
      std::fprintf(stderr, "compile error in %s: %s\n", BP.Name.c_str(),
                   C.Error.c_str());
      std::exit(1);
    }
    int64_t Us =
        std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
            .count();
    if (R == 0 || Us < Best.Us) {
      Best.Us = Us;
      Best.ReplicationUs =
          C.Pipeline.PhaseMicros[static_cast<int>(opt::Phase::Replication)];
      Best.AnalysisHits = C.Pipeline.Analysis.totalHits();
      Best.AnalysisRecomputes = C.Pipeline.Analysis.totalRecomputes();
      Best.LivenessRecomputes =
          C.Pipeline.Analysis
              .Recomputes[static_cast<int>(opt::AnalysisID::Liveness)];
      for (int P = 0; P < opt::NumPhases; ++P) {
        Best.FixpointUs[P] = C.Pipeline.FixpointPhaseMicros[P];
        Best.PhaseUs[P] = C.Pipeline.PhaseMicros[P];
      }
      Best.ArenaInsns = Best.ArenaPoolBytes = Best.ArenaPeakRefs = 0;
      for (const auto &Fn : C.Prog->Functions) {
        Best.ArenaInsns += Fn->arena().liveInsns();
        Best.ArenaPoolBytes += static_cast<int64_t>(Fn->arena().poolBytes());
        Best.ArenaPeakRefs += Fn->arena().peakRefs();
      }
    }
  }
  return Best;
}

/// All four configurations measured for one (program, target) pair.
struct TaskResult {
  OneCompile Baseline, Optimized, Simple, Loops;
};

/// Fails the run when an "optimized" compile is slower than the
/// paper-literal baseline on the same program beyond measurement noise.
/// Every layered speedup (caching, scheduling, arena) is supposed to be
/// monotone per program, not just in aggregate; a real inversion is a bug
/// (an earlier BENCH_compile.json shipped one for sort/m68). The 25%
/// tolerance absorbs timer jitter on sub-millisecond compiles.
bool checkNoRegression(const char *Prog, const char *Target,
                       const OneCompile &B, const OneCompile &O) {
  if (O.Us <= B.Us + B.Us / 4)
    return true;
  std::fprintf(stderr,
               "REGRESSION: %s/%s optimized %lld us exceeds baseline %lld "
               "us by more than 25%%\n",
               Prog, Target, static_cast<long long>(O.Us),
               static_cast<long long>(B.Us));
  return false;
}

/// Best-effort "git rev-parse --short HEAD"; "unknown" outside a checkout.
std::string gitSha() {
  std::string Sha = "unknown";
  if (std::FILE *P = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char Buf[64] = {};
    if (std::fgets(Buf, sizeof(Buf), P)) {
      Sha.assign(Buf);
      while (!Sha.empty() && (Sha.back() == '\n' || Sha.back() == '\r'))
        Sha.pop_back();
      if (Sha.empty())
        Sha = "unknown";
    }
    pclose(P);
  }
  return Sha;
}

std::string isoUtcNow() {
  std::time_t Now = std::time(nullptr);
  std::tm Tm = {};
  gmtime_r(&Now, &Tm);
  char Buf[32];
  std::strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%SZ", &Tm);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  obs::ObsCli Obs("bench_compile");
  cache::PipelineCli Pipe;
  std::string OutPath = "BENCH_compile.json";
  std::string HistoryPath = "BENCH_history.jsonl";
  std::string ServerSocket; // external codrepd; empty = in-process daemon
  bool WriteHistory = true;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--history=", 0) == 0)
      HistoryPath = Arg.substr(10);
    else if (Arg.rfind("--server-socket=", 0) == 0)
      ServerSocket = Arg.substr(16);
    else if (Arg == "--no-history")
      WriteHistory = false;
    else if (Obs.consume(Arg) || Pipe.consume(Arg))
      ; // handled
    else
      OutPath = Arg;
  }
  obs::TraceSink *Trace = Obs.sink();
  const int Reps = 3;

  // The baseline is the paper-literal reference pipeline. The optimized
  // config is everything this repo layers on top (lazy shortest-path rows,
  // change-driven pass scheduling, cached analyses); both produce
  // byte-identical output, so the ratio is pure compile-time.
  opt::PipelineOptions Baseline;
  Baseline.Reference = true;

  // One task per (target, program): four timed configurations each. Tasks
  // fan out over the pool; each compile inside a task stays serial so the
  // per-compile numbers remain meaningful.
  std::vector<std::pair<target::TargetKind, const BenchProgram *>> Tasks;
  for (target::TargetKind TK :
       {target::TargetKind::Sparc, target::TargetKind::M68})
    for (const BenchProgram &BP : suite())
      Tasks.emplace_back(TK, &BP);

  unsigned Jobs = Pipe.jobs() == 0 ? std::thread::hardware_concurrency()
                                   : static_cast<unsigned>(Pipe.jobs());
  if (Jobs < 1)
    Jobs = 1;
  if (Jobs > Tasks.size())
    Jobs = static_cast<unsigned>(Tasks.size());

  std::vector<TaskResult> Results(Tasks.size());
  auto runTask = [&](size_t I) {
    const auto &[TK, BP] = Tasks[I];
    TaskResult &R = Results[I];
    R.Baseline = timedCompile(*BP, TK, opt::OptLevel::Jumps, &Baseline, Reps,
                              Trace, "jumps-baseline");
    R.Optimized = timedCompile(*BP, TK, opt::OptLevel::Jumps, nullptr, Reps,
                               Trace, "jumps-optimized");
    R.Simple = timedCompile(*BP, TK, opt::OptLevel::Simple, nullptr, Reps,
                            Trace, "simple");
    R.Loops = timedCompile(*BP, TK, opt::OptLevel::Loops, nullptr, Reps,
                           Trace, "loops");
  };

  auto SweepStart = std::chrono::steady_clock::now();
  if (Jobs <= 1) {
    for (size_t I = 0; I < Tasks.size(); ++I)
      runTask(I);
  } else {
    ThreadPool Pool(Jobs);
    std::atomic<unsigned> NextWorker{0};
    Pool.parallelFor(Tasks.size(), [&](size_t I) {
      if (Trace) {
        thread_local const obs::TraceSink *NamedFor = nullptr;
        if (NamedFor != Trace) {
          NamedFor = Trace;
          Trace->nameCurrentThread(
              format("bench worker %u", NextWorker.fetch_add(1)));
        }
      }
      runTask(I);
    });
  }
  int64_t EndToEndUs = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - SweepStart)
                           .count();

  // Deterministic reduce, in task order.
  ConfigTotals BaselineTotals, OptimizedTotals;
  int64_t SimpleUs = 0, LoopsUs = 0;
  bool AllMonotone = true;
  std::string ProgramsJson;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const auto &[TK, BP] = Tasks[I];
    const OneCompile &B = Results[I].Baseline;
    const OneCompile &O = Results[I].Optimized;

    BaselineTotals.TotalUs += B.Us;
    BaselineTotals.ReplicationUs += B.ReplicationUs;
    BaselineTotals.AnalysisHits += B.AnalysisHits;
    BaselineTotals.AnalysisRecomputes += B.AnalysisRecomputes;
    BaselineTotals.LivenessRecomputes += B.LivenessRecomputes;
    OptimizedTotals.TotalUs += O.Us;
    OptimizedTotals.ReplicationUs += O.ReplicationUs;
    OptimizedTotals.AnalysisHits += O.AnalysisHits;
    OptimizedTotals.AnalysisRecomputes += O.AnalysisRecomputes;
    OptimizedTotals.LivenessRecomputes += O.LivenessRecomputes;
    SimpleUs += Results[I].Simple.Us;
    LoopsUs += Results[I].Loops.Us;
    for (int P = 0; P < opt::NumPhases; ++P) {
      OptimizedTotals.FixpointUs[P] += O.FixpointUs[P];
      OptimizedTotals.PhaseUs[P] += O.PhaseUs[P];
    }
    OptimizedTotals.ArenaInsns += O.ArenaInsns;
    OptimizedTotals.ArenaPoolBytes += O.ArenaPoolBytes;
    OptimizedTotals.ArenaPeakRefs += O.ArenaPeakRefs;
    AllMonotone &= checkNoRegression(BP->Name.c_str(), targetName(TK), B, O);

    char Row[512];
    std::snprintf(
        Row, sizeof(Row),
        "    {\"program\": \"%s\", \"target\": \"%s\", "
        "\"jumps_baseline_us\": %lld, \"jumps_optimized_us\": %lld, "
        "\"replication_baseline_us\": %lld, "
        "\"replication_optimized_us\": %lld}",
        BP->Name.c_str(), targetName(TK), static_cast<long long>(B.Us),
        static_cast<long long>(O.Us), static_cast<long long>(B.ReplicationUs),
        static_cast<long long>(O.ReplicationUs));
    if (!ProgramsJson.empty())
      ProgramsJson += ",\n";
    ProgramsJson += Row;

    std::printf("%-10s %-5s jumps: baseline %8lld us, optimized %8lld us "
                "(%.2fx)\n",
                BP->Name.c_str(), targetName(TK),
                static_cast<long long>(B.Us), static_cast<long long>(O.Us),
                O.Us > 0 ? static_cast<double>(B.Us) / O.Us : 0.0);
  }

  double Speedup =
      OptimizedTotals.TotalUs > 0
          ? static_cast<double>(BaselineTotals.TotalUs) /
                static_cast<double>(OptimizedTotals.TotalUs)
          : 0.0;

  // Optional demonstration of the content-addressed function cache: one
  // cold JUMPS sweep populating it, one warm sweep served from it.
  int64_t CacheColdUs = -1, CacheWarmUs = -1;
  opt::PipelineOptions CacheProbe;
  Pipe.apply(CacheProbe); // materializes the cache when one was requested
  if (cache::PipelineCache *FnCache = Pipe.cache()) {
    auto sweep = [&] {
      auto Start = std::chrono::steady_clock::now();
      for (const auto &[TK, BP] : Tasks) {
        opt::PipelineOptions CacheOpts;
        CacheOpts.FunctionCache = FnCache;
        driver::Compilation C =
            driver::compile(BP->Source, TK, opt::OptLevel::Jumps, &CacheOpts);
        if (!C.ok())
          std::exit(1);
      }
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - Start)
          .count();
    };
    CacheColdUs = sweep();
    CacheWarmUs = sweep();
    std::printf("\npipeline cache: cold sweep %lld us, warm sweep %lld us "
                "(%.2fx), %lld hits / %lld misses, %lld disk hits\n",
                static_cast<long long>(CacheColdUs),
                static_cast<long long>(CacheWarmUs),
                CacheWarmUs > 0
                    ? static_cast<double>(CacheColdUs) / CacheWarmUs
                    : 0.0,
                static_cast<long long>(FnCache->hits()),
                static_cast<long long>(FnCache->misses()),
                static_cast<long long>(FnCache->diskHits()));
  }

  // Oracle overhead: what translation validation costs on top of a plain
  // compile. Two more serial JUMPS sweeps over the same tasks -- one with
  // no verifier, one with the final-state execution oracle attached the
  // way --verify=final attaches it -- so the delta is the oracle's
  // snapshot + differential-execution work and nothing else.
  verify::OracleOptions OracleOpts;
  OracleOpts.Gran = verify::Granularity::Final;
  verify::Oracle FinalOracle(OracleOpts);
  auto verifySweep = [&](opt::FunctionVerifier *V) {
    auto Start = std::chrono::steady_clock::now();
    for (const auto &[TK, BP] : Tasks) {
      opt::PipelineOptions VerifyOpts;
      VerifyOpts.Verifier = V;
      driver::Compilation C =
          driver::compile(BP->Source, TK, opt::OptLevel::Jumps, &VerifyOpts);
      if (!C.ok())
        std::exit(1);
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  int64_t VerifyOffUs = verifySweep(nullptr);
  int64_t VerifyFinalUs = verifySweep(&FinalOracle);
  verify::OracleCounters VerifyCounters = FinalOracle.counters();
  double VerifyOverhead =
      VerifyOffUs > 0 ? static_cast<double>(VerifyFinalUs) / VerifyOffUs : 0.0;
  std::printf("\noracle overhead: verify=off sweep %lld us, verify=final "
              "sweep %lld us (%.2fx, %lld checks, %lld mismatches)\n",
              static_cast<long long>(VerifyOffUs),
              static_cast<long long>(VerifyFinalUs), VerifyOverhead,
              static_cast<long long>(VerifyCounters.Checks),
              static_cast<long long>(VerifyCounters.Mismatches));
  if (VerifyCounters.Mismatches > 0)
    std::fprintf(stderr, "warning: the final-state oracle reported %lld "
                         "mismatches during the overhead sweep\n",
                 static_cast<long long>(VerifyCounters.Mismatches));

  // Telemetry overhead: what histogram + journal recording costs on top
  // of a plain compile, in the always-on configuration the 2% budget is
  // about -- a TraceSink and Journal attached but span/instant events
  // muted (setEventsEnabled(false)). Whole-sweep A/B timing is too noisy
  // for a single-digit-percent effect (the JUMPS sweep runs in tens of
  // ms, and adjacent sweeps drift by more than the budget), so the
  // measurement alternates per TASK: each program compiles bare then
  // instrumented back to back, ObsReps times, and each side keeps its
  // per-task fastest before summing. Clock ramps hit both sides of a
  // pair equally, and min-of-reps strips scheduler hiccups. The sink and
  // journal persist across all instrumented compiles (a long-lived
  // session), so the journal holds ObsReps records per function and the
  // histogram quantiles pool every rep of the same distribution.
  const int ObsReps = std::max(Reps, 9);
  auto ObsSink = std::make_unique<obs::TraceSink>();
  ObsSink->setEventsEnabled(false);
  auto ObsJournal = std::make_unique<obs::Journal>("bench_compile");
  auto obsCompileOne = [&](const BenchProgram *BP, target::TargetKind TK,
                           obs::TraceSink *Sink, obs::Journal *J) {
    auto Start = std::chrono::steady_clock::now();
    opt::PipelineOptions ObsOpts;
    ObsOpts.Trace.Sink = Sink;
    ObsOpts.Trace.SessionJournal = J;
    driver::Compilation C =
        driver::compile(BP->Source, TK, opt::OptLevel::Jumps, &ObsOpts);
    if (!C.ok())
      std::exit(1);
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  int64_t ObsOffUs = 0;
  int64_t ObsOnUs = 0;
  for (const auto &[TK, BP] : Tasks) {
    int64_t BestOff = std::numeric_limits<int64_t>::max();
    int64_t BestOn = std::numeric_limits<int64_t>::max();
    for (int R = 0; R < ObsReps; ++R) {
      // Alternating which side goes first cancels monotone clock ramps: a
      // fixed order would systematically charge the ramp to one side.
      if (R % 2 == 0) {
        BestOff = std::min(BestOff, obsCompileOne(BP, TK, nullptr, nullptr));
        BestOn = std::min(
            BestOn, obsCompileOne(BP, TK, ObsSink.get(), ObsJournal.get()));
      } else {
        BestOn = std::min(
            BestOn, obsCompileOne(BP, TK, ObsSink.get(), ObsJournal.get()));
        BestOff = std::min(BestOff, obsCompileOne(BP, TK, nullptr, nullptr));
      }
    }
    ObsOffUs += BestOff;
    ObsOnUs += BestOn;
  }
  double ObsOverhead =
      ObsOffUs > 0 ? static_cast<double>(ObsOnUs) / ObsOffUs : 0.0;
  int64_t FnP50 = 0, FnP90 = 0, FnP99 = 0;
  obs::Histogram FnHist = ObsSink->histograms().get("fn.compile_us");
  if (FnHist.count() > 0) {
    FnP50 = FnHist.quantile(0.50);
    FnP90 = FnHist.quantile(0.90);
    FnP99 = FnHist.quantile(0.99);
  }
  std::printf("\ntelemetry overhead: bare sweep %lld us, histogram+journal "
              "sweep %lld us (%.3fx, %zu journal records over %d reps, "
              "fn.compile_us p50/p90/p99 = %lld/%lld/%lld us)\n",
              static_cast<long long>(ObsOffUs),
              static_cast<long long>(ObsOnUs), ObsOverhead,
              ObsJournal->size() / static_cast<size_t>(ObsReps), ObsReps,
              static_cast<long long>(FnP50), static_cast<long long>(FnP90),
              static_cast<long long>(FnP99));
  if (ObsOverhead > 1.02)
    std::fprintf(stderr, "warning: telemetry recording overhead %.3fx "
                         "exceeds the 2%% budget\n",
                 ObsOverhead);

  // Compile-server sweep: the suite replayed twice through the codrepd
  // socket protocol with four client connections. The second round hits
  // the shared function cache warm, so the hit rate is structurally >0.
  // Against an external daemon (--server-socket=) the cache may span
  // bench runs; in-process, a fresh in-memory cache is used.
  int64_t ServerP50Us = -1, ServerP99Us = -1, ServerRequests = 0;
  double ServerHitRate = 0.0, ServerTailRatio = 0.0;
  {
    std::string Socket = ServerSocket;
    std::unique_ptr<cache::PipelineCache> OwnCache;
    std::unique_ptr<server::CompileServer> OwnServer;
    bool ServerUp = !Socket.empty();
    if (Socket.empty()) {
      Socket = format("/tmp/coderep-bench-%d.sock",
                      static_cast<int>(::getpid()));
      OwnCache = std::make_unique<cache::PipelineCache>();
      server::ServerOptions SO;
      SO.SocketPath = Socket;
      SO.Jobs = static_cast<int>(Jobs);
      SO.Cache = OwnCache.get();
      SO.Base.FunctionCache = OwnCache.get();
      OwnServer = std::make_unique<server::CompileServer>(std::move(SO));
      std::string Err;
      ServerUp = OwnServer->start(Err);
      if (!ServerUp)
        std::fprintf(stderr, "warning: server sweep skipped: %s\n",
                     Err.c_str());
    }
    if (ServerUp) {
      const int Rounds = 2, ClientJobs = 4;
      const int TotalReqs = Rounds * static_cast<int>(Tasks.size());
      std::atomic<int> Next{0};
      std::atomic<int64_t> SrvHits{0}, SrvMisses{0}, SrvErrors{0};
      std::vector<obs::Histogram> Latencies(ClientJobs);
      std::vector<std::thread> Clients;
      for (int W = 0; W < ClientJobs; ++W)
        Clients.emplace_back([&, W] {
          server::Client Conn;
          std::string Err;
          if (!Conn.connect(Socket, Err)) {
            SrvErrors.fetch_add(1);
            return;
          }
          for (int I = Next.fetch_add(1); I < TotalReqs;
               I = Next.fetch_add(1)) {
            const auto &[TK, BP] = Tasks[static_cast<size_t>(I) %
                                         Tasks.size()];
            server::CompileRequest Req;
            Req.Name = BP->Name;
            Req.Source = BP->Source;
            Req.Target = TK;
            server::CompileResponse Resp;
            auto Start = std::chrono::steady_clock::now();
            if (!Conn.roundtrip(Req, Resp, Err) || !Resp.Ok) {
              SrvErrors.fetch_add(1);
              if (!Conn.connected())
                return;
              continue;
            }
            Latencies[static_cast<size_t>(W)].record(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count());
            SrvHits.fetch_add(Resp.FnCacheHits);
            SrvMisses.fetch_add(Resp.FnCacheMisses);
          }
        });
      for (std::thread &T : Clients)
        T.join();
      if (OwnServer) {
        OwnServer->requestStop();
        OwnServer->wait();
      }
      obs::Histogram Latency;
      for (const obs::Histogram &H : Latencies)
        Latency.merge(H);
      ServerRequests = Latency.count();
      if (ServerRequests > 0 && SrvErrors.load() == 0) {
        ServerP50Us = Latency.quantile(0.5);
        ServerP99Us = Latency.quantile(0.99);
        ServerTailRatio =
            ServerP50Us > 0 ? static_cast<double>(ServerP99Us) / ServerP50Us
                            : 0.0;
        int64_t SrvTotal = SrvHits.load() + SrvMisses.load();
        ServerHitRate = SrvTotal > 0 ? static_cast<double>(SrvHits.load()) /
                                           static_cast<double>(SrvTotal)
                                     : 0.0;
        std::printf("\ncompile server (%s): %lld requests, p50 %lld us, "
                    "p99 %lld us (tail %.2fx), fn-cache hit rate %.1f%%\n",
                    ServerSocket.empty() ? "in-process" : "external",
                    static_cast<long long>(ServerRequests),
                    static_cast<long long>(ServerP50Us),
                    static_cast<long long>(ServerP99Us), ServerTailRatio,
                    100.0 * ServerHitRate);
      } else {
        std::fprintf(stderr,
                     "warning: server sweep incomplete (%lld errors, %lld "
                     "responses); omitting server metrics\n",
                     static_cast<long long>(SrvErrors.load()),
                     static_cast<long long>(ServerRequests));
        ServerP50Us = ServerP99Us = -1;
      }
    }
  }

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"suite\": \"Table 3 programs, both targets\",\n");
  std::fprintf(F, "  \"repetitions\": %d,\n", Reps);
  std::fprintf(F, "  \"jobs\": %u,\n", Jobs);
  std::fprintf(F, "  \"end_to_end_us\": %lld,\n",
               static_cast<long long>(EndToEndUs));
  std::fprintf(F, "  \"baseline\": \"paper-literal: dense Floyd-Warshall "
                  "shortest paths recomputed every replication round, "
                  "rerun-everything fixpoint loop, every analysis "
                  "recomputed per query\",\n");
  std::fprintf(F, "  \"optimized\": \"lazy per-source Dijkstra rows, "
                  "change-driven pass scheduling, epoch-stamped analysis "
                  "manager\",\n");
  std::fprintf(F, "  \"jumps_total_baseline_us\": %lld,\n",
               static_cast<long long>(BaselineTotals.TotalUs));
  std::fprintf(F, "  \"jumps_total_optimized_us\": %lld,\n",
               static_cast<long long>(OptimizedTotals.TotalUs));
  std::fprintf(F, "  \"jumps_speedup\": %.3f,\n", Speedup);
  std::fprintf(F, "  \"replication_phase_baseline_us\": %lld,\n",
               static_cast<long long>(BaselineTotals.ReplicationUs));
  std::fprintf(F, "  \"replication_phase_optimized_us\": %lld,\n",
               static_cast<long long>(OptimizedTotals.ReplicationUs));
  std::fprintf(F, "  \"analysis_cache_hits\": %lld,\n",
               static_cast<long long>(OptimizedTotals.AnalysisHits));
  std::fprintf(F, "  \"analysis_recomputes_baseline\": %lld,\n",
               static_cast<long long>(BaselineTotals.AnalysisRecomputes));
  std::fprintf(F, "  \"analysis_recomputes_optimized\": %lld,\n",
               static_cast<long long>(OptimizedTotals.AnalysisRecomputes));
  std::fprintf(F, "  \"liveness_recomputes_baseline\": %lld,\n",
               static_cast<long long>(BaselineTotals.LivenessRecomputes));
  std::fprintf(F, "  \"liveness_recomputes_optimized\": %lld,\n",
               static_cast<long long>(OptimizedTotals.LivenessRecomputes));
  std::fprintf(F, "  \"simple_total_us\": %lld,\n",
               static_cast<long long>(SimpleUs));
  std::fprintf(F, "  \"loops_total_us\": %lld,\n",
               static_cast<long long>(LoopsUs));
  if (CacheColdUs >= 0) {
    std::fprintf(F, "  \"pipeline_cache_cold_us\": %lld,\n",
                 static_cast<long long>(CacheColdUs));
    std::fprintf(F, "  \"pipeline_cache_warm_us\": %lld,\n",
                 static_cast<long long>(CacheWarmUs));
  }
  std::fprintf(F, "  \"verify_off_total_us\": %lld,\n",
               static_cast<long long>(VerifyOffUs));
  std::fprintf(F, "  \"verify_final_total_us\": %lld,\n",
               static_cast<long long>(VerifyFinalUs));
  std::fprintf(F, "  \"verify_final_overhead\": %.3f,\n", VerifyOverhead);
  std::fprintf(F, "  \"verify_checks\": %lld,\n",
               static_cast<long long>(VerifyCounters.Checks));
  std::fprintf(F, "  \"verify_mismatches\": %lld,\n",
               static_cast<long long>(VerifyCounters.Mismatches));
  std::fprintf(F, "  \"obs_off_total_us\": %lld,\n",
               static_cast<long long>(ObsOffUs));
  std::fprintf(F, "  \"obs_on_total_us\": %lld,\n",
               static_cast<long long>(ObsOnUs));
  std::fprintf(F, "  \"obs_overhead\": %.3f,\n", ObsOverhead);
  std::fprintf(F, "  \"fn_compile_p50_us\": %lld,\n",
               static_cast<long long>(FnP50));
  std::fprintf(F, "  \"fn_compile_p90_us\": %lld,\n",
               static_cast<long long>(FnP90));
  std::fprintf(F, "  \"fn_compile_p99_us\": %lld,\n",
               static_cast<long long>(FnP99));
  if (ServerP50Us >= 0) {
    std::fprintf(F, "  \"server_requests\": %lld,\n",
                 static_cast<long long>(ServerRequests));
    std::fprintf(F, "  \"server_p50_us\": %lld,\n",
                 static_cast<long long>(ServerP50Us));
    std::fprintf(F, "  \"server_p99_us\": %lld,\n",
                 static_cast<long long>(ServerP99Us));
    std::fprintf(F, "  \"server_tail_ratio\": %.3f,\n", ServerTailRatio);
    std::fprintf(F, "  \"server_hit_rate\": %.3f,\n", ServerHitRate);
  }
  {
    std::string Fx;
    for (int P = 0; P < opt::NumPhases; ++P) {
      if (!OptimizedTotals.FixpointUs[P])
        continue;
      char Item[96];
      std::snprintf(Item, sizeof(Item), "\"%s\": %lld",
                    opt::phaseName(static_cast<opt::Phase>(P)),
                    static_cast<long long>(OptimizedTotals.FixpointUs[P]));
      if (!Fx.empty())
        Fx += ", ";
      Fx += Item;
    }
    std::fprintf(F, "  \"fixpoint_us_optimized\": {%s},\n", Fx.c_str());
  }
  std::fprintf(F, "  \"arena_insns\": %lld,\n",
               static_cast<long long>(OptimizedTotals.ArenaInsns));
  std::fprintf(F, "  \"arena_pool_bytes\": %lld,\n",
               static_cast<long long>(OptimizedTotals.ArenaPoolBytes));
  std::fprintf(F, "  \"arena_peak_refs\": %lld,\n",
               static_cast<long long>(OptimizedTotals.ArenaPeakRefs));
  std::fprintf(F, "  \"programs\": [\n%s\n  ]\n", ProgramsJson.c_str());
  std::fprintf(F, "}\n");
  std::fclose(F);

  // One history line per run: the regression trail run_benches.sh diffs.
  if (WriteHistory) {
    // Server metrics only exist when the sweep completed; bench_report
    // skips absent metrics, so omission is safe.
    std::string ServerJson;
    if (ServerP50Us >= 0) {
      char SJ[256];
      std::snprintf(SJ, sizeof(SJ),
                    ", \"server_requests\": %lld, \"server_p50_us\": %lld, "
                    "\"server_p99_us\": %lld, \"server_tail_ratio\": %.3f, "
                    "\"server_hit_rate\": %.3f",
                    static_cast<long long>(ServerRequests),
                    static_cast<long long>(ServerP50Us),
                    static_cast<long long>(ServerP99Us), ServerTailRatio,
                    ServerHitRate);
      ServerJson = SJ;
    }
    if (std::FILE *H = std::fopen(HistoryPath.c_str(), "a")) {
      std::fprintf(
          H,
          "{\"date\": \"%s\", \"git_sha\": \"%s\", \"jobs\": %u, "
          "\"repetitions\": %d, \"end_to_end_us\": %lld, "
          "\"jumps_total_baseline_us\": %lld, "
          "\"jumps_total_optimized_us\": %lld, \"jumps_speedup\": %.3f, "
          "\"simple_total_us\": %lld, \"loops_total_us\": %lld, "
          "\"analysis_cache_hits\": %lld, "
          "\"analysis_recomputes_baseline\": %lld, "
          "\"analysis_recomputes_optimized\": %lld, "
          "\"liveness_recomputes_baseline\": %lld, "
          "\"liveness_recomputes_optimized\": %lld, "
          "\"verify_off_total_us\": %lld, "
          "\"verify_final_total_us\": %lld, "
          "\"verify_final_overhead\": %.3f, "
          "\"obs_off_total_us\": %lld, \"obs_on_total_us\": %lld, "
          "\"obs_overhead\": %.3f, "
          "\"fn_compile_p50_us\": %lld, \"fn_compile_p90_us\": %lld, "
          "\"fn_compile_p99_us\": %lld, "
          "\"arena_insns\": %lld, \"arena_pool_bytes\": %lld, "
          "\"arena_peak_refs\": %lld%s}\n",
          isoUtcNow().c_str(), gitSha().c_str(), Jobs, Reps,
          static_cast<long long>(EndToEndUs),
          static_cast<long long>(BaselineTotals.TotalUs),
          static_cast<long long>(OptimizedTotals.TotalUs), Speedup,
          static_cast<long long>(SimpleUs), static_cast<long long>(LoopsUs),
          static_cast<long long>(OptimizedTotals.AnalysisHits),
          static_cast<long long>(BaselineTotals.AnalysisRecomputes),
          static_cast<long long>(OptimizedTotals.AnalysisRecomputes),
          static_cast<long long>(BaselineTotals.LivenessRecomputes),
          static_cast<long long>(OptimizedTotals.LivenessRecomputes),
          static_cast<long long>(VerifyOffUs),
          static_cast<long long>(VerifyFinalUs), VerifyOverhead,
          static_cast<long long>(ObsOffUs), static_cast<long long>(ObsOnUs),
          ObsOverhead, static_cast<long long>(FnP50),
          static_cast<long long>(FnP90), static_cast<long long>(FnP99),
          static_cast<long long>(OptimizedTotals.ArenaInsns),
          static_cast<long long>(OptimizedTotals.ArenaPoolBytes),
          static_cast<long long>(OptimizedTotals.ArenaPeakRefs),
          ServerJson.c_str());
      std::fclose(H);
      std::printf("appended run record to %s\n", HistoryPath.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot append to %s\n",
                   HistoryPath.c_str());
    }
  }

  std::printf("\nanalysis cache: %lld hits, %lld recomputes (baseline "
              "recomputes %lld); liveness recomputes %lld -> %lld\n",
              static_cast<long long>(OptimizedTotals.AnalysisHits),
              static_cast<long long>(OptimizedTotals.AnalysisRecomputes),
              static_cast<long long>(BaselineTotals.AnalysisRecomputes),
              static_cast<long long>(BaselineTotals.LivenessRecomputes),
              static_cast<long long>(OptimizedTotals.LivenessRecomputes));
  {
    int64_t FxTotal = 0;
    for (int P = 0; P < opt::NumPhases; ++P)
      FxTotal += OptimizedTotals.FixpointUs[P];
    std::printf("\nfixpoint loop (optimized): %lld us total;", 
                static_cast<long long>(FxTotal));
    for (int P = 0; P < opt::NumPhases; ++P)
      if (OptimizedTotals.FixpointUs[P])
        std::printf(" %s %lld", opt::phaseName(static_cast<opt::Phase>(P)),
                    static_cast<long long>(OptimizedTotals.FixpointUs[P]));
    std::printf("\n");
    int64_t PhTotal = 0;
    for (int P = 0; P < opt::NumPhases; ++P)
      PhTotal += OptimizedTotals.PhaseUs[P];
    std::printf("phase totals (optimized): %lld us;",
                static_cast<long long>(PhTotal));
    for (int P = 0; P < opt::NumPhases; ++P)
      if (OptimizedTotals.PhaseUs[P])
        std::printf(" %s %lld", opt::phaseName(static_cast<opt::Phase>(P)),
                    static_cast<long long>(OptimizedTotals.PhaseUs[P]));
    std::printf("\n");
    std::printf("arena (optimized): %lld live insns, %lld pool bytes, "
                "%lld peak refs\n",
                static_cast<long long>(OptimizedTotals.ArenaInsns),
                static_cast<long long>(OptimizedTotals.ArenaPoolBytes),
                static_cast<long long>(OptimizedTotals.ArenaPeakRefs));
  }
  std::printf("\ntotal JUMPS compile: baseline %lld us, optimized %lld us, "
              "speedup %.2fx (end-to-end %lld us with %u jobs)\n",
              static_cast<long long>(BaselineTotals.TotalUs),
              static_cast<long long>(OptimizedTotals.TotalUs), Speedup,
              static_cast<long long>(EndToEndUs), Jobs);
  std::printf("wrote %s\n", OutPath.c_str());
  if (Speedup < 2.0) {
    std::fprintf(stderr,
                 "warning: speedup %.2fx below the 2x acceptance target\n",
                 Speedup);
  }
  if (!AllMonotone) {
    std::fprintf(stderr, "error: per-program regression check failed\n");
    return 1;
  }
  return Obs.finish() ? 0 : 1;
}
