//===- Workloads.cpp - The perfbench workloads -----------------------------===//

#include "Workloads.h"

#include "Daemon.h"
#include "DeepNest.h"
#include "Suite.h"

#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "frontend/CodeGen.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Socket.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "verify/Oracle.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

using namespace coderep;
using namespace perfbench;

namespace {

/// serve: client threads in the bench process (codrepd runs --jobs=2), and
/// one edited request after every EditEvery - 1 suite requests.
constexpr int ServeClients = 2;
constexpr int EditEvery = 8;

/// Ops each reported percentile needs: at least 10 samples beyond p90,
/// beyond p50, and (serve's traced run) beyond p99.
constexpr size_t MinOpsP90 = 100;
constexpr size_t MinOpsP50 = 20;
constexpr size_t MinOpsP99 = 1000;

/// serve runs at least this many passes (4 edits each), so the daemon's
/// 1024-entry in-memory function cache is full and its peak RSS is read
/// on the plateau, not on the fill ramp.
constexpr size_t MinServePasses = 320;

/// In-process workloads take a reference timing between ops once this
/// much op time has passed since the last one.
constexpr double SegmentSeconds = 0.1;

/// One distinct input: a program, its target, its run input and the
/// output it must print.
struct Item {
  std::string Name;
  std::string Source;
  target::TargetKind TK = target::TargetKind::M68;
  std::string Input;
  std::string Expected;
  uint64_t Hash = 0;   ///< checked RTL text of the warm pass
  std::string Rtl;     ///< serve: the one-shot driver::compile reference
  std::vector<size_t> FnBodies; ///< serve: offsets just past each body '{'
};

/// One timed op.
struct OpRec {
  double Ms = 0; ///< raw latency
  size_t Segment = 0; ///< the reference-bracketed segment it ran in
  bool Traced = false;
  bool Ok = true;
  // serve only
  bool Hit = false;
  double QueueMs = 0, CompileMs = 0, RoundtripMs = 0;
  int FnHits = 0, FnMisses = 0;
};

/// An edited serve request, checked after the timed passes.
struct EditRec {
  size_t Item = 0;
  size_t Fn = 0;
  int64_t K = 0;
  uint64_t Hash = 0;
  bool Ok = false;
};

/// Per-op sums over the traced in-process ops.
struct LayerAcc {
  opt::PipelineStats Pipeline;
  int64_t VerifyChecks = 0;
  std::vector<double> PlainMs; ///< verify: the same ops without the oracle
};

const char *targetName(target::TargetKind TK) {
  return TK == target::TargetKind::M68 ? "m68" : "sparc";
}

/// Offsets just past the opening brace of every function body in a MiniC
/// source: a top-level '{' that follows a ')'. Comments and literals are
/// skipped so braces inside them do not count.
std::vector<size_t> functionBodies(const std::string &S) {
  std::vector<size_t> Out;
  int Depth = 0;
  char LastSignificant = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    char Ch = S[I];
    if (Ch == '/' && I + 1 < S.size() && S[I + 1] == '*') {
      size_t End = S.find("*/", I + 2);
      I = End == std::string::npos ? S.size() : End + 1;
      continue;
    }
    if (Ch == '/' && I + 1 < S.size() && S[I + 1] == '/') {
      size_t End = S.find('\n', I);
      I = End == std::string::npos ? S.size() : End;
      continue;
    }
    if (Ch == '"' || Ch == '\'') {
      for (++I; I < S.size() && S[I] != Ch; ++I)
        if (S[I] == '\\')
          ++I;
      LastSignificant = Ch;
      continue;
    }
    if (Ch == '{') {
      if (Depth == 0 && LastSignificant == ')')
        Out.push_back(I + 1);
      ++Depth;
    } else if (Ch == '}') {
      --Depth;
    }
    if (!std::isspace(static_cast<unsigned char>(Ch)))
      LastSignificant = Ch;
  }
  return Out;
}

/// The seeded edit of an edit-recompile loop: one new initialized local at
/// the top of function \p Fn, so only that function's cache key changes.
std::string editSource(const Item &It, size_t Fn, int64_t K) {
  std::string S = It.Source;
  S.insert(It.FnBodies[Fn],
           "\n  int perfbench_edit = " + std::to_string(K) + ";");
  return S;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// What wc must print for \p Input, counted independently of the compiler.
std::string wcOf(const std::string &Input) {
  int Lines = 0, Words = 0;
  bool InWord = false;
  for (char Ch : Input) {
    if (Ch == '\n')
      ++Lines;
    if (Ch == ' ' || Ch == '\n' || Ch == '\t')
      InWord = false;
    else if (!InWord) {
      InWord = true;
      ++Words;
    }
  }
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%7d %7d %7d\n", Lines, Words,
                static_cast<int>(Input.size()));
  return Buf;
}

class Bench {
public:
  explicit Bench(const Config &C)
      : C(C), Serve(C.Workload == "serve"), Verify(C.Workload == "verify") {}
  ~Bench() { cleanupDaemon(); }

  Result run();

private:
  // Set-up.
  bool setupOnce(int Rep);
  bool makeItems();
  void checkPass();
  bool bootDaemon(int Rep);
  void cleanupDaemon();
  bool stopDaemon();
  /// One timing of the single-thread kernel, or (\p Hops) of serve's hop
  /// reference on one chain per client.
  double refOnce(bool Hops);
  /// Set-up time is normalized stretch by stretch, as the ops are: at a
  /// lap, once SegmentSeconds have passed (or at the \p Last one), the
  /// stretch since the previous lap is scaled by the mean of the kernel
  /// timings right before and right after it.
  void setupLap(bool Last = false);

  // Timed passes.
  void localPass(bool Traced);
  bool localOp(const Item &It, bool Traced, OpRec &Rec);
  void servePass(bool Traced);
  void checkEdits();
  bool enough() const;
  /// Ops in one pass: the op list, and serve's edited requests.
  size_t passOps() const {
    return Serve ? Items.size() + Items.size() / (EditEvery - 1)
                 : Items.size();
  }
  void endSegment(bool Traced);

  void report();
  void reportLayers(double Scale, double RawTput);
  void failOp(const std::string &Why) {
    ++R.Failed;
    R.fail(Why);
  }

  const Config &C;
  const bool Serve, Verify;
  Result R;

  std::vector<Item> Items;
  std::vector<size_t> Order; ///< the op list of one pass
  int64_t CodeRtls = 0, CodeJumps = 0, ExecRtls = 0, ExecJumps = 0;
  double EaseMs = 0;
  int64_t EaseRuns = 0;

  std::vector<double> SetupRaw, SetupNorm, RefMs;
  double SetupStart = 0, SetupRefBefore = 0, SetupRawS = 0, SetupNormS = 0;
  std::vector<OpRec> Ops;
  /// A stretch of timed ops between two reference timings: its wall time
  /// and the mean of those two timings, which normalizes its ops.
  struct Segment {
    double Wall = 0;
    double RefMs = 0;
    bool Traced = false;
  };
  std::vector<Segment> Segments;
  int Passes = 0;
  /// R0 of the timed passes' reference: serve's requests hop between
  /// threads and take the hop reference, the other workloads' ops do not.
  double R0 = RefKernel::NominalMs;
  double SegStart = 0, RefBefore = 0;
  size_t SegFirstOp = 0;
  double RssMb = 0;

  // Traced-run state.
  std::vector<SpanLog> Logs; ///< one per client thread
  LayerAcc Layers;
  int64_t OpSeq = 0;

  // serve state.
  std::unique_ptr<Daemon> D;
  std::string Socket;
  server::Client Clients[ServeClients];
  server::Fd Raw[ServeClients];
  std::vector<EditRec> Edits;
  std::vector<std::pair<size_t, size_t>> EditCycle; ///< (item, function)
  int64_t EditsIssued = 0;
  std::vector<double> IdleCpuMs;
  std::atomic<int64_t> Responses{0}; ///< counts for CorruptResponseEvery
};

double Bench::refOnce(bool Hops) {
  double Ms = Hops ? RefKernel::hopsMs(ServeClients) : RefKernel::runMs();
  if (Ms >= 0)
    return Ms;
  R.fail("reference kernel checksum mismatch");
  return Hops ? RefKernel::HopsNominalMs : RefKernel::NominalMs;
}

void Bench::setupLap(bool Last) {
  double Wall = now() - SetupStart;
  if (!Last && Wall < SegmentSeconds)
    return;
  double After = refOnce(false);
  SetupRawS += Wall;
  SetupNormS += Wall * RefKernel::NominalMs / ((SetupRefBefore + After) / 2);
  SetupRefBefore = After;
  SetupStart = now();
}

bool Bench::makeItems() {
  Items.clear();
  if (C.Workload == "deep-nest") {
    for (NestProgram &P : deepNestSet(C.Seed))
      for (target::TargetKind TK :
           {target::TargetKind::M68, target::TargetKind::Sparc})
        Items.push_back({P.Name + "/" + targetName(TK), P.Source, TK, P.Input,
                         P.Expected, 0, {}, {}});
  } else {
    std::map<std::string, std::string> Expected;
    for (const bench::BenchProgram &BP : bench::suite()) {
      std::string &Out = Expected[BP.Name];
      if (!readFile(C.ExpectedDir + "/" + BP.Name + ".out", Out)) {
        R.fail("missing expected output for " + BP.Name + " in " +
               C.ExpectedDir);
        return false;
      }
    }
    // The committed outputs must agree with facts pinned independently
    // of the compiler (the same ones BenchmarkProgramsTest checks).
    if (Expected["queens"] != "92 solutions\n" ||
        Expected["sieve"] != "1027 primes\n" ||
        Expected["wc"] != wcOf(bench::program("wc").Input)) {
      R.fail("committed expected outputs disagree with independent facts");
      return false;
    }
    for (const bench::BenchProgram &BP : bench::suite())
      for (target::TargetKind TK :
           {target::TargetKind::M68, target::TargetKind::Sparc})
        Items.push_back({BP.Name + "/" + targetName(TK), BP.Source, TK,
                         BP.Input, Expected[BP.Name], 0, {}, {}});
  }
  for (Item &It : Items) {
    if (!C.WrongExpected.empty() && It.Name.rfind(C.WrongExpected, 0) == 0)
      It.Expected += "?";
    if (Serve)
      It.FnBodies = functionBodies(It.Source);
  }
  Order.resize(Items.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng Rand(C.Seed);
  for (size_t I = Order.size() - 1; I > 0; --I)
    std::swap(Order[I], Order[Rand.below(I + 1)]);
  EditCycle.clear();
  for (size_t I = 0; I < Items.size(); ++I)
    for (size_t Fn = 0; Fn < Items[I].FnBodies.size(); ++Fn)
      EditCycle.push_back({I, Fn});
  for (size_t I = EditCycle.size(); I > 1; --I)
    std::swap(EditCycle[I - 1], EditCycle[Rand.below(I)]);
  return true;
}

/// The untimed warm pass: compiles every distinct input the way the
/// workload's op does (serve: one-shot driver::compile, the reference the
/// daemon's bytes are compared with), runs the result under ease on the
/// program's input, checks the output, and records the checked RTL hash
/// and the paper-fidelity counts.
void Bench::checkPass() {
  CodeRtls = CodeJumps = ExecRtls = ExecJumps = 0;
  EaseMs = 0;
  EaseRuns = 0;
  for (Item &It : Items) {
    ++R.Attempted;
    opt::PipelineOptions Opts;
    verify::Oracle Oracle;
    if (Verify)
      Opts.Verifier = &Oracle;
    driver::Compilation Comp =
        driver::compile(It.Source, It.TK, opt::OptLevel::Jumps, &Opts);
    if (!Comp.ok() || (Verify && !Oracle.ok())) {
      failOp(It.Name + ": compile failed: " + Comp.Error);
      continue;
    }
    std::string Rtl = cfg::toString(*Comp.Prog);
    It.Hash = fnv1a(Rtl);
    if (Serve)
      It.Rtl = std::move(Rtl);
    ease::RunOptions RO;
    RO.Input = It.Input;
    double T0 = now();
    ease::RunResult Run = ease::run(*Comp.Prog, RO);
    EaseMs += (now() - T0) * 1000.0;
    ++EaseRuns;
    if (!Run.ok() || Run.Output != It.Expected) {
      failOp(It.Name + ": wrong program output under ease");
      continue;
    }
    CodeRtls += Comp.Static.Instructions;
    CodeJumps += Comp.Static.UncondJumps;
    ExecRtls += static_cast<int64_t>(Run.Stats.Executed);
    ExecJumps += static_cast<int64_t>(Run.Stats.UncondJumps);
    setupLap();
  }
}

bool Bench::bootDaemon(int Rep) {
  std::string Tag = std::to_string(getpid()) + "-" + std::to_string(Rep);
  Socket = C.WorkDir + "/serve-" + Tag + ".sock";
  std::filesystem::remove(Socket);
  D = std::make_unique<Daemon>();
  std::string Err;
  if (!D->start(C.Codrepd,
                // The daemon's shared function cache stays in memory: the
                // on-disk store's write latency follows the host's disk
                // load, and on a shared 4-core VM it moved serve's p90 by
                // 15-25% between runs (in memory: 2%).
                {"--socket=" + Socket, "--jobs=2", "--pipeline-cache"},
                30.0, Err)) {
    R.fail(Err);
    return false;
  }
  for (int T = 0; T < ServeClients; ++T) {
    if (!Clients[T].connect(Socket, Err)) {
      R.fail("connect: " + Err);
      return false;
    }
    if (C.Trace) {
      Raw[T] = server::connectUnix(Socket, Err);
      if (!Raw[T].valid()) {
        R.fail("connect: " + Err);
        return false;
      }
    }
  }
  return true;
}

bool Bench::stopDaemon() {
  for (int T = 0; T < ServeClients; ++T) {
    Clients[T].close();
    Raw[T].reset();
  }
  std::string Err;
  bool Ok = D->stop(30.0, Err);
  if (!Ok)
    R.fail("codrepd drain: " + Err);
  cleanupDaemon();
  return Ok;
}

void Bench::cleanupDaemon() {
  D.reset(); // kills and reaps a daemon that was not stopped
  std::error_code EC;
  if (!Socket.empty())
    std::filesystem::remove(Socket, EC);
}

bool Bench::setupOnce(int Rep) {
  if (!makeItems())
    return false;
  setupLap();
  checkPass();
  if (!Serve)
    return true;
  if (!bootDaemon(Rep))
    return false;
  setupLap();
  // Cache warm: every suite request once, byte-compared with the one-shot
  // compile.
  for (size_t I : Order) {
    const Item &It = Items[I];
    server::CompileRequest Req;
    Req.Name = It.Name;
    Req.Source = It.Source;
    Req.Target = It.TK;
    Req.Level = opt::OptLevel::Jumps;
    server::CompileResponse Resp;
    std::string Err;
    ++R.Attempted;
    if (!Clients[0].roundtrip(Req, Resp, Err) || !Resp.Ok ||
        Resp.Rtl != It.Rtl)
      failOp(It.Name + ": warm response differs from one-shot compile " +
             Err + Resp.Error);
    setupLap();
  }
  return true;
}

bool Bench::localOp(const Item &It, bool Traced, OpRec &Rec) {
  opt::PipelineOptions Opts;
  Opts.Level = opt::OptLevel::Jumps;
  Rec.Traced = Traced;
  if (!Traced) {
    double T0 = now();
    verify::Oracle Oracle;
    if (Verify)
      Opts.Verifier = &Oracle;
    driver::Compilation Comp =
        driver::compile(It.Source, It.TK, opt::OptLevel::Jumps, &Opts);
    std::string Rtl = Comp.ok() ? cfg::toString(*Comp.Prog) : std::string();
    Rec.Ms = (now() - T0) * 1000.0;
    return Comp.ok() && (!Verify || Oracle.ok()) && fnv1a(Rtl) == It.Hash;
  }

  // The traced op calls the layers driver::compile calls, in its order,
  // each inside a span.
  SpanLog &Log = Logs[0];
  int64_t Op = OpSeq++;
  int Root = Log.open("op", -1, Op);
  verify::Oracle Oracle;
  if (Verify)
    Opts.Verifier = &Oracle;
  cfg::Program P;
  std::string Err, Rtl;
  bool Ok;
  {
    ScopedSpan S(Log, "frontend", Root, Op);
    Ok = frontend::compileToRtl(It.Source, P, Err);
  }
  std::unique_ptr<target::Target> T;
  if (Ok) {
    ScopedSpan S(Log, "target", Root, Op);
    T = target::createTarget(It.TK);
    for (auto &F : P.Functions) {
      T->legalizeFunction(*F);
      F->verify();
    }
  }
  opt::PipelineStats Stats;
  if (Ok) {
    ScopedSpan S(Log, "opt", Root, Op);
    opt::optimizeProgram(P, *T, Opts, &Stats);
  }
  if (Ok) {
    driver::staticStats(P); // driver::compile's last step; residual time
    ScopedSpan S(Log, "cfg.print", Root, Op);
    Rtl = cfg::toString(P);
  }
  Log.close(Root);
  const Span &Sp = Log.spans()[static_cast<size_t>(Root)];
  Rec.Ms = (Sp.End - Sp.Start) * 1000.0;
  Layers.Pipeline += Stats;
  if (Verify) {
    Layers.VerifyChecks += Oracle.counters().Checks;
    // The oracle's cost is this op minus the same compile without it.
    double T0 = now();
    driver::Compilation Plain =
        driver::compile(It.Source, It.TK, opt::OptLevel::Jumps);
    if (Plain.ok())
      cfg::toString(*Plain.Prog);
    Layers.PlainMs.push_back((now() - T0) * 1000.0);
  }
  return Ok && (!Verify || Oracle.ok()) && fnv1a(Rtl) == It.Hash;
}

void Bench::localPass(bool Traced) {
  for (size_t I : Order) {
    OpRec Rec;
    ++R.Attempted;
    Rec.Ok = localOp(Items[I], Traced, Rec);
    if (!Rec.Ok)
      failOp(Items[I].Name + ": output differs from the checked output");
    Ops.push_back(Rec);
    if (now() - SegStart >= SegmentSeconds)
      endSegment(Traced);
  }
}

void Bench::servePass(bool Traced) {
  // This pass's request list: the suite op list with one seeded edit
  // after every EditEvery - 1 requests.
  struct Req {
    size_t Item;
    bool Edited;
    size_t Fn;
    int64_t K;
  };
  std::vector<Req> List;
  for (size_t I : Order) {
    List.push_back({I, false, 0, 0});
    if (List.size() % EditEvery == EditEvery - 1) {
      // Edits walk a seeded cycle over every (program, function) pair, so
      // each run edits nearly the same multiset of functions whatever the
      // seed; K is unique within the run, so every edit misses.
      int64_t K = EditsIssued++;
      auto [It, Fn] = EditCycle[static_cast<size_t>(K) % EditCycle.size()];
      List.push_back({It, true, Fn, K});
    }
  }

  std::vector<OpRec> Recs[ServeClients];
  std::vector<EditRec> NewEdits[ServeClients];
  std::vector<std::string> Errors[ServeClients];
  std::atomic<size_t> Next{0};
  auto Work = [&](int T) {
    for (size_t I; (I = Next++) < List.size();) {
      const Req &Q = List[I];
      const Item &It = Items[Q.Item];
      server::CompileRequest CR;
      CR.Name = It.Name;
      CR.Source = Q.Edited ? editSource(It, Q.Fn, Q.K) : It.Source;
      CR.Target = It.TK;
      CR.Level = opt::OptLevel::Jumps;
      server::CompileResponse Resp;
      std::string Err;
      OpRec Rec;
      Rec.Traced = Traced;
      bool Io;
      if (!Traced) {
        double T0 = now();
        Io = Clients[T].roundtrip(CR, Resp, Err);
        Rec.Ms = (now() - T0) * 1000.0;
      } else {
        SpanLog &Log = Logs[static_cast<size_t>(T)];
        int64_t Op = static_cast<int64_t>(I) + OpSeq;
        int Root = Log.open("request", -1, Op);
        std::string Payload, Reply;
        {
          ScopedSpan S(Log, "server.encode", Root, Op);
          Payload = server::encodeRequest(CR);
        }
        int Trip = Log.open("server.roundtrip", Root, Op);
        Io = server::sendFrame(Raw[T].get(), Payload) &&
             server::recvFrame(Raw[T].get(), Reply);
        Log.close(Trip);
        const Span &TripSpan = Log.spans()[static_cast<size_t>(Trip)];
        Rec.RoundtripMs = (TripSpan.End - TripSpan.Start) * 1000.0;
        {
          ScopedSpan S(Log, "server.decode", Root, Op);
          Io = Io && server::decodeResponse(Reply, Resp, Err);
        }
        Log.close(Root);
        const Span &Sp = Log.spans()[static_cast<size_t>(Root)];
        Rec.Ms = (Sp.End - Sp.Start) * 1000.0;
      }
      if (C.CorruptResponseEvery > 0 &&
          ++Responses % C.CorruptResponseEvery == 0 && !Resp.Rtl.empty())
        Resp.Rtl[Resp.Rtl.size() / 2] ^= 1;
      Rec.Hit = Resp.FnCacheMisses == 0;
      Rec.QueueMs = static_cast<double>(Resp.QueueUs) / 1000.0;
      Rec.CompileMs = static_cast<double>(Resp.CompileUs) / 1000.0;
      Rec.FnHits = Resp.FnCacheHits;
      Rec.FnMisses = Resp.FnCacheMisses;
      Rec.Ok = Io && Resp.Ok;
      if (Q.Edited)
        NewEdits[T].push_back({Q.Item, Q.Fn, Q.K, fnv1a(Resp.Rtl), Rec.Ok});
      else
        Rec.Ok = Rec.Ok && fnv1a(Resp.Rtl) == It.Hash;
      if (!Rec.Ok)
        Errors[T].push_back(It.Name + ": bad response " + Err + Resp.Error);
      Recs[T].push_back(Rec);
    }
  };
  {
    std::vector<std::jthread> Threads;
    for (int T = 0; T < ServeClients; ++T)
      Threads.emplace_back(Work, T);
  }
  OpSeq += static_cast<int64_t>(List.size());
  for (int T = 0; T < ServeClients; ++T) {
    R.Attempted += static_cast<int64_t>(Recs[T].size());
    Ops.insert(Ops.end(), Recs[T].begin(), Recs[T].end());
    Edits.insert(Edits.end(), NewEdits[T].begin(), NewEdits[T].end());
    for (const std::string &E : Errors[T])
      failOp(E);
  }
}

/// Compares every edited response with a one-shot driver::compile of the
/// same edited source, after the daemon has drained.
void Bench::checkEdits() {
  std::vector<char> Bad(Edits.size(), 0);
  {
    ThreadPool Pool(3);
    Pool.parallelFor(Edits.size(), [&](size_t I) {
      const EditRec &E = Edits[I];
      const Item &It = Items[E.Item];
      driver::Compilation Comp = driver::compile(editSource(It, E.Fn, E.K),
                                                 It.TK, opt::OptLevel::Jumps);
      Bad[I] = !E.Ok || !Comp.ok() ||
               fnv1a(cfg::toString(*Comp.Prog)) != E.Hash;
    });
  }
  for (size_t I = 0; I < Edits.size(); ++I)
    if (Bad[I])
      failOp(Items[Edits[I].Item].Name + ": edited response differs from "
                                         "one-shot compile");
}

void Bench::endSegment(bool Traced) {
  if (SegFirstOp == Ops.size())
    return;
  double Wall = now() - SegStart;
  double Cpu0 = Serve ? cpuMs(D->pid()) : 0;
  double After = refOnce(Serve);
  if (Serve)
    IdleCpuMs.push_back(cpuMs(D->pid()) - Cpu0);
  RefMs.push_back(After);
  Segments.push_back({Wall, (RefBefore + After) / 2, Traced});
  for (size_t I = SegFirstOp; I < Ops.size(); ++I)
    Ops[I].Segment = Segments.size() - 1;
  RefBefore = After;
  SegFirstOp = Ops.size();
  SegStart = now();
}

bool Bench::enough() const {
  size_t Untraced = 0, Traced = 0, Misses = 0;
  for (const OpRec &Op : Ops) {
    (Op.Traced ? Traced : Untraced) += 1;
    Misses += !Op.Traced && !Op.Hit;
  }
  if (Untraced < MinOpsP90)
    return false;
  if (C.Trace && Traced < MinOpsP50)
    return false;
  if (Serve && (Misses < MinOpsP50 || static_cast<size_t>(Passes) < MinServePasses))
    return false;
  if (Serve && C.Trace && Untraced < MinOpsP99)
    return false;
  return true;
}

Result Bench::run() {
  std::error_code EC;
  std::filesystem::create_directories(C.WorkDir, EC);
  Logs.resize(ServeClients);

  // Set up several times; each set-up is normalized stretch by stretch
  // (setupLap), and the reference timings are not part of its time.
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    SetupRefBefore = refOnce(false);
    SetupRawS = SetupNormS = 0;
    SetupStart = now();
    bool Ok = setupOnce(Rep);
    setupLap(true);
    SetupRaw.push_back(SetupRawS);
    SetupNorm.push_back(SetupNormS);
    if (!Ok) {
      // Nothing can be measured: every op of the run fails (a daemon that
      // does not boot must not hang the run).
      R.Attempted += static_cast<int64_t>(passOps());
      R.Failed = R.Attempted;
      R.fail("set-up failed");
      cleanupDaemon();
      report();
      return R;
    }
    if (Serve && Rep + 1 < SetupReps && !stopDaemon()) {
      report();
      return R;
    }
  }

  // The reference runs when no request is in flight. serve takes the hop
  // reference, one chain per client, between passes: its requests wait on
  // thread wake-ups, which slow down on a busy host far more than a
  // kernel that never sleeps shows. The in-process workloads take the
  // single-thread kernel between passes and also between ops once
  // SegmentSeconds have passed, because a verify pass lasts longer than
  // the machine's speed holds still.
  R0 = Serve ? RefKernel::HopsNominalMs : RefKernel::NominalMs;
  double Start = now();
  RefBefore = refOnce(Serve);
  RefMs.push_back(RefBefore);
  SegStart = now();
  SegFirstOp = Ops.size();
  for (;; ++Passes) {
    // The traced run alternates untraced and traced passes, so both see
    // the same machine; the end-to-end numbers come from untraced passes.
    bool Traced = C.Trace && Passes % 2 == 1;
    if (Serve)
      servePass(Traced);
    else
      localPass(Traced);
    endSegment(Traced);
    double Elapsed = now() - Start;
    if (Elapsed >= C.Seconds && enough())
      break;
    if (Elapsed >= 3 * C.Seconds + 30) {
      R.fail("too few samples for the reported percentiles");
      break;
    }
  }
  ++Passes;

  if (Serve) {
    RssMb = peakRssMb(D->pid());
    stopDaemon();
    checkEdits();
  } else {
    RssMb = peakRssMb();
  }
  if (C.Trace) {
    for (size_t T = 0; T < Logs.size(); ++T)
      if (!Logs[T].spans().empty() &&
          !Logs[T].write(C.WorkDir + "/spans-" + C.Workload + "-" +
                         std::to_string(T) + ".jsonl"))
        R.fail("cannot write the span log");
  }
  report();
  return R;
}

void Bench::report() {
  double RefMed = RefMs.empty() ? R0 : median(RefMs);
  double Scale = R0 / RefMed; // run-wide: multiplies times, divides rates
  // End-to-end timings are normalized segment by segment.
  std::vector<double> Lat, NormLat;
  size_t Traced = 0;
  for (const OpRec &Op : Ops) {
    if (Op.Traced) {
      ++Traced;
      continue;
    }
    Lat.push_back(Op.Ms);
    NormLat.push_back(Op.Ms * R0 / Segments[Op.Segment].RefMs);
  }
  double SetupMed = SetupRaw.empty() ? 0 : median(SetupRaw);
  double Wall = 0, NormWall = 0;
  for (const Segment &S : Segments)
    if (!S.Traced) {
      Wall += S.Wall;
      NormWall += S.Wall * R0 / S.RefMs;
    }
  double N = static_cast<double>(Lat.size());
  double RawTput = Wall > 0 ? N / Wall : 0;
  // Op latency percentiles use a kernel two passes wide (Measure.h): a
  // pass holds each op of the list once, so the estimate averages the
  // samples of the few ops around the percentile's rank, not the extreme
  // samples at the edge of one op's group. verify's p50 falls in such a
  // gap, between a ~22 ms and a ~60 ms op.
  size_t Width = 2 * passOps();
  double RawP50 = quantile(Lat, 0.5, Width);
  double RawP90 = quantile(Lat, 0.9, Width);

  std::fprintf(stderr,
               "perfbench: %s seed=%llu passes=%d ops=%zu (+%zu traced) "
               "attempted=%lld failed=%lld R=%.3fms R0=%.1fms raw: %.2f "
               "ops/s p50 %.3fms p90 %.3fms setup %.3fs\n",
               C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
               Passes, Lat.size(), Traced,
               static_cast<long long>(R.Attempted),
               static_cast<long long>(R.Failed), RefMed, R0, RawTput, RawP50,
               RawP90, SetupMed);
  // Machine-readable raw values for perfbench/steadiness.py.
  std::fprintf(stderr,
               "perfbench-raw: {\"throughput_ops_s\": %.10g, "
               "\"latency_p50_ms\": %.10g, \"latency_p90_ms\": %.10g, "
               "\"setup_s\": %.10g, \"ref_ms\": %.10g}\n",
               RawTput, RawP50, RawP90, SetupMed, RefMed);
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "perfbench: error: %s\n", E.c_str());

  if (C.Trace) {
    reportLayers(Scale, RawTput);
    return;
  }
  R.add("throughput_ops_s", NormWall > 0 ? N / NormWall : 0, "1/s");
  R.add("latency_p50_ms", quantile(NormLat, 0.5, Width), "ms");
  R.add("latency_p90_ms", quantile(NormLat, 0.9, Width), "ms");
  R.add("setup_s", SetupNorm.empty() ? 0 : median(SetupNorm), "s");
  R.add("peak_rss_mb", RssMb, "MB");
  R.add("code_rtls", static_cast<double>(CodeRtls), "count");
  R.add("code_jumps", static_cast<double>(CodeJumps), "count");
  R.add("exec_rtls", static_cast<double>(ExecRtls), "count");
  R.add("exec_jumps", static_cast<double>(ExecJumps), "count");
}

void Bench::reportLayers(double Scale, double RawTput) {
  // Per-op means of every span's self time, by span name. The root spans
  // ("op", "request") keep only what no layer span covers: the residual.
  std::map<std::string, double> SelfMs;
  double OpMs = 0;
  size_t NOps = 0;
  for (const SpanLog &Log : Logs) {
    std::vector<double> Self = Log.selfMs();
    for (size_t I = 0; I < Self.size(); ++I) {
      const Span &S = Log.spans()[I];
      SelfMs[S.Parent < 0 ? "residual" : S.Name] += Self[I];
      if (S.Parent < 0) {
        OpMs += (S.End - S.Start) * 1000.0;
        ++NOps;
      }
    }
  }
  double PerOp = NOps ? 1.0 / static_cast<double>(NOps) : 0;
  auto layerMs = [&](const char *Name) {
    auto It = SelfMs.find(Name);
    return It == SelfMs.end() ? 0 : It->second * PerOp * Scale;
  };
  auto perOp = [&](double Total) { return Total * PerOp; };
  const opt::PipelineStats &P = Layers.Pipeline;
  auto phaseMs = [&](opt::Phase Ph) {
    return perOp(static_cast<double>(P.PhaseMicros[static_cast<int>(Ph)]) /
                 1000.0) *
           Scale;
  };

  // serve: the daemon-side split of each traced request.
  std::vector<double> Queue, Compile, HitCompile, Transport, UntracedLat;
  std::vector<double> HitLat, MissLat;
  double TracedLatSum = 0, UntracedLatSum = 0;
  size_t NTraced = 0, NUntraced = 0;
  int64_t FnHits = 0, FnMisses = 0;
  for (const OpRec &Op : Ops) {
    if (Op.Traced) {
      TracedLatSum += Op.Ms;
      ++NTraced;
      if (Serve) {
        Queue.push_back(Op.QueueMs);
        Compile.push_back(Op.CompileMs);
        // The round trip minus what the daemon spent queued and compiling:
        // framing, socket, response printing and encoding.
        Transport.push_back(Op.RoundtripMs - Op.QueueMs - Op.CompileMs);
        if (Op.Hit)
          HitCompile.push_back(Op.CompileMs);
        FnHits += Op.FnHits;
        FnMisses += Op.FnMisses;
      }
    } else {
      UntracedLatSum += Op.Ms;
      ++NUntraced;
      UntracedLat.push_back(Op.Ms);
      (Op.Hit ? HitLat : MissLat).push_back(Op.Ms);
    }
  }
  double Clients = Serve ? ServeClients : 1;
  double UntracedOps =
      UntracedLatSum > 0 ? Clients * 1000.0 * static_cast<double>(NUntraced) /
                               UntracedLatSum
                         : 0;
  double TracedOps = TracedLatSum > 0 ? Clients * 1000.0 *
                                            static_cast<double>(NTraced) /
                                            TracedLatSum
                                      : 0;
  double PerTraced = NTraced ? 1.0 / static_cast<double>(NTraced) : 0;

  R.add("frontend.ms", layerMs("frontend"), "ms");
  R.add("target.legalize_ms", layerMs("target"), "ms");
  R.add("opt.ms", layerMs("opt"), "ms");
  R.add("opt.fused_local_sweep_ms", phaseMs(opt::Phase::FusedLocalSweep), "ms");
  R.add("opt.code_motion_ms", phaseMs(opt::Phase::CodeMotion), "ms");
  R.add("opt.instruction_selection_ms",
        phaseMs(opt::Phase::InstructionSelection), "ms");
  R.add("opt.register_allocation_ms", phaseMs(opt::Phase::RegisterAllocation),
        "ms");
  R.add("opt.strength_reduction_ms", phaseMs(opt::Phase::StrengthReduction),
        "ms");
  R.add("opt.fixpoint_rounds", perOp(P.FixpointIterations), "count");
  R.add("opt.passes_run", perOp(static_cast<double>(P.FixpointPassesRun)),
        "count");
  R.add("opt.passes_skipped",
        perOp(static_cast<double>(P.FixpointPassesSkipped)), "count");
  R.add("opt.analysis_recomputes",
        perOp(static_cast<double>(P.Analysis.totalRecomputes())), "count");
  R.add("replicate.ms", phaseMs(opt::Phase::Replication), "ms");
  R.add("replicate.jumps_replaced", perOp(P.Replication.JumpsReplaced),
        "count");
  R.add("replicate.rolled_back", perOp(P.Replication.RolledBackIrreducible),
        "count");
  R.add("replicate.skipped_growth_budget",
        perOp(P.Replication.SkippedGrowthBudget), "count");
  R.add("cfg.print_ms", layerMs("cfg.print"), "ms");
  R.add("cache.hit_rate",
        FnHits + FnMisses ? static_cast<double>(FnHits) /
                                static_cast<double>(FnHits + FnMisses)
                          : 0,
        "ratio");
  R.add("cache.fn_lookups", static_cast<double>(FnHits + FnMisses) * PerTraced,
        "count");
  R.add("cache.fn_misses", static_cast<double>(FnMisses) * PerTraced, "count");
  R.add("server.hit_compile_ms_p50", quantile(HitCompile, 0.5) * Scale, "ms");
  R.add("server.queue_ms_p50", quantile(Queue, 0.5) * Scale, "ms");
  R.add("server.compile_ms_p50", quantile(Compile, 0.5) * Scale, "ms");
  R.add("server.transport_ms_p50", quantile(Transport, 0.5) * Scale, "ms");
  R.add("server.roundtrip_ms", layerMs("server.roundtrip"), "ms");
  R.add("server.encode_us", layerMs("server.encode") * 1000.0, "us");
  R.add("server.decode_us", layerMs("server.decode") * 1000.0, "us");
  R.add("server.latency_p99_ms",
        Serve ? quantile(UntracedLat, 0.99) * Scale : 0, "ms");
  R.add("server.idle_cpu_ms", mean(IdleCpuMs), "ms");
  R.add("hit_latency_p50_ms", Serve ? quantile(HitLat, 0.5) * Scale : 0,
        "ms");
  R.add("miss_latency_p50_ms", Serve ? quantile(MissLat, 0.5) * Scale : 0,
        "ms");
  R.add("ease.ms_per_run",
        EaseRuns ? EaseMs / static_cast<double>(EaseRuns) * Scale : 0, "ms");
  R.add("ease.mrtls_per_s",
        EaseMs > 0 ? static_cast<double>(ExecRtls) / (EaseMs / 1000.0) /
                         1e6 / Scale
                   : 0,
        "MRTL/s");
  R.add("verify.oracle_ms",
        Verify ? (TracedLatSum * PerTraced - mean(Layers.PlainMs)) * Scale : 0,
        "ms");
  R.add("verify.checks",
        static_cast<double>(Layers.VerifyChecks) * PerTraced, "count");
  R.add("obs.trace_overhead", UntracedOps > 0 ? TracedOps / UntracedOps : 0,
        "ratio");
  R.add("obs.untraced_ops_s", UntracedOps / Scale, "1/s");
  R.add("bench.ref_ms", R0 / Scale, "ms");
  R.add("bench.ref0_ms", R0, "ms");
  R.add("raw.throughput_ops_s", RawTput, "1/s");
  R.add("raw.latency_p50_ms", quantile(UntracedLat, 0.5, 2 * passOps()),
        "ms");
  R.add("residual_ms", layerMs("residual"), "ms");
  R.add("op.ms", OpMs * PerOp * Scale, "ms");
}

} // namespace

bool perfbench::knownWorkload(const std::string &Name) {
  return Name == "suite" || Name == "deep-nest" || Name == "serve" ||
         Name == "verify";
}

Result perfbench::runWorkload(const Config &C) {
  Bench B(C);
  return B.run();
}
