//===- Server.cpp - Multi-tenant compile-request daemon core --------------===//

#include "server/Server.h"

#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"

#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace coderep;
using namespace coderep::server;

namespace {

int64_t usBetween(std::chrono::steady_clock::time_point A,
                  std::chrono::steady_clock::time_point B) {
  return std::chrono::duration_cast<std::chrono::microseconds>(B - A).count();
}

} // namespace

/// One accepted client: the socket and its blocking reader thread. Reader
/// and Done are touched only by the accept thread (spawn, reap, join) and
/// the reader itself (Done), so no lock guards them; the Conns vector that
/// owns these objects is guarded by ConnMu.
struct CompileServer::Connection {
  Fd Sock;
  std::thread Reader;
  std::atomic<bool> Done{false};
};

CompileServer::CompileServer(ServerOptions OptionsIn)
    : Options(std::move(OptionsIn)) {
  // Per-request compiles must not fan out again: the pool is the
  // concurrency, a nested pool per request would oversubscribe it.
  Options.Base.Jobs = 1;
}

CompileServer::~CompileServer() {
  requestStop();
  wait();
}

bool CompileServer::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  ListenFd = listenUnix(Options.SocketPath, Err);
  if (!ListenFd.valid())
    return false;

  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Err = "pipe: failed to create stop pipe";
    ListenFd.reset();
    return false;
  }
  WakeRead.reset(Pipe[0]);
  WakeWrite.reset(Pipe[1]);
  // The stop pipe must never block requestStop (it can run in a signal
  // handler); one pending byte is enough to wake the accept thread.
  ::fcntl(WakeWrite.get(), F_SETFL, O_NONBLOCK);

  unsigned Jobs = Options.Jobs <= 0 ? 0 : static_cast<unsigned>(Options.Jobs);
  Pool = std::make_unique<ThreadPool>(Jobs);
  AcceptThread = std::thread([this] { acceptLoop(); });
  Started = true;
  return true;
}

void CompileServer::requestStop() {
  if (Stopping.exchange(true))
    return;
  if (WakeWrite.valid()) {
    char Byte = 1;
    // Best-effort wake; the accept thread also rechecks Stopping.
    [[maybe_unused]] ssize_t N = ::write(WakeWrite.get(), &Byte, 1);
  }
}

void CompileServer::wait() {
  if (!Started || Drained)
    return;
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Every reader joined inside acceptLoop, and a reader only exits after
  // its in-flight compile wrote its response, so the pool is idle here.
  Pool.reset();
  if (Options.Sink) {
    obs::MetricsRegistry &M = Options.Sink->metrics();
    std::lock_guard<std::mutex> Lock(StatsMu);
    M.set("server.requests", Stats.RequestsServed);
    M.set("server.request_errors", Stats.RequestErrors);
    M.set("server.protocol_errors", Stats.ProtocolErrors);
    M.set("server.connections", Stats.ConnectionsAccepted);
    M.set("server.fn_cache_hits", Stats.FnCacheHits);
    M.set("server.fn_cache_misses", Stats.FnCacheMisses);
  }
  Drained = true;
}

void CompileServer::acceptLoop() {
  while (!Stopping.load(std::memory_order_acquire)) {
    pollfd Fds[2] = {{ListenFd.get(), POLLIN, 0}, {WakeRead.get(), POLLIN, 0}};
    int N = ::poll(Fds, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[1].revents != 0)
      break; // the stop byte
    if (Fds[0].revents == 0)
      continue;
    Fd Conn = acceptUnix(ListenFd.get());
    if (!Conn.valid())
      continue;
    auto C = std::make_unique<Connection>();
    C->Sock = std::move(Conn);
    Connection *Raw = C.get();
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      // Reap finished connections so a long-lived daemon's registry does
      // not grow with every client that ever connected. Spawn, reap and
      // join all happen on this thread, so Reader needs no lock.
      for (size_t I = 0; I < Conns.size();) {
        if (Conns[I]->Done.load(std::memory_order_acquire)) {
          if (Conns[I]->Reader.joinable())
            Conns[I]->Reader.join();
          Conns.erase(Conns.begin() + static_cast<long>(I));
        } else {
          ++I;
        }
      }
      Conns.push_back(std::move(C));
    }
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.ConnectionsAccepted;
    }
    Raw->Reader = std::thread([this, Raw] { readerLoop(Raw); });
  }

  // Graceful drain: stop accepting, wake every idle reader with EOF
  // (SHUT_RD lets a response in flight still flush), then join them. A
  // reader mid-compile finishes and writes its response before seeing
  // the EOF on its next read.
  ListenFd.reset();
  std::vector<std::unique_ptr<Connection>> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    ToJoin.swap(Conns);
  }
  for (auto &C : ToJoin)
    shutdownRead(C->Sock.get());
  for (auto &C : ToJoin)
    if (C->Reader.joinable())
      C->Reader.join();
}

void CompileServer::readerLoop(Connection *Conn) {
  std::string Payload;
  while (recvFrame(Conn->Sock.get(), Payload)) {
    auto FrameIn = std::chrono::steady_clock::now();
    CompileRequest Req;
    CompileResponse Resp;
    std::string DecodeErr;
    if (!decodeRequest(Payload, Req, DecodeErr)) {
      Resp.Ok = false;
      Resp.Error = "protocol error: " + DecodeErr;
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.ProtocolErrors;
    } else {
      Resp = handle(Req);
    }
    std::string Frame = encodeResponse(Resp);
    // Count the request before its reply leaves: a client that holds the
    // reply must find it in stats().
    noteServed(Req, Resp,
               usBetween(FrameIn, std::chrono::steady_clock::now()));
    if (!sendFrame(Conn->Sock.get(), Frame))
      break; // peer gone; the request still ran, drop the response
  }
  Conn->Done.store(true, std::memory_order_release);
}

CompileResponse CompileServer::handle(const CompileRequest &Req) {
  auto Enqueued = std::chrono::steady_clock::now();
  std::future<CompileResponse> Fut = Pool->submit([this, &Req, Enqueued] {
    auto Start = std::chrono::steady_clock::now();
    CompileResponse R;
    R.QueueUs = usBetween(Enqueued, Start);
    opt::PipelineOptions Opts = Req.pipelineOptions(Options.Base);
    Opts.FunctionCache = Options.Cache;
    Opts.Trace.Sink = Options.Sink;
    // The server journals per request (noteServed), not per function;
    // threading the session journal into the pipeline would interleave
    // nondeterministic per-function records from concurrent tenants.
    Opts.Trace.SessionJournal = nullptr;
    driver::Compilation C =
        driver::compile(Req.Source, Req.Target, Req.Level, &Opts);
    R.CompileUs = usBetween(Start, std::chrono::steady_clock::now());
    if (!C.ok()) {
      R.Error = C.Error;
      return R;
    }
    R.Ok = true;
    R.Rtl = cfg::toString(*C.Prog);
    R.FnCacheHits = C.Pipeline.FunctionCacheHits;
    R.FnCacheMisses = C.Pipeline.FunctionCacheMisses;
    return R;
  });
  return Fut.get();
}

CompileResponse CompileServer::serveLocal(const CompileRequest &Req) {
  CompileResponse Resp = handle(Req);
  noteServed(Req, Resp, Resp.QueueUs + Resp.CompileUs);
  return Resp;
}

void CompileServer::noteServed(const CompileRequest &Req,
                               const CompileResponse &Resp,
                               int64_t RequestUs) {
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.RequestsServed;
    if (!Resp.Ok)
      ++Stats.RequestErrors;
    Stats.FnCacheHits += Resp.FnCacheHits;
    Stats.FnCacheMisses += Resp.FnCacheMisses;
    Stats.RequestUs.record(RequestUs);
    Stats.QueueUs.record(Resp.QueueUs);
  }
  if (Options.Sink) {
    Options.Sink->histograms().record("server.request_us", RequestUs);
    Options.Sink->histograms().record("server.queue_us", Resp.QueueUs);
  }
  if (Options.SessionJournal) {
    obs::JournalRecord JR;
    JR.Fn = Req.Name.empty() ? "request" : Req.Name;
    if (!Options.Cache)
      JR.Cache = "off";
    else if (Resp.FnCacheMisses == 0 && Resp.FnCacheHits > 0)
      JR.Cache = "hit";
    else
      JR.Cache = "miss";
    JR.Verify = "off";
    JR.Counters.emplace_back("server.request_us", RequestUs);
    JR.Counters.emplace_back("server.queue_us", Resp.QueueUs);
    JR.Counters.emplace_back("server.compile_us", Resp.CompileUs);
    JR.Counters.emplace_back("server.fn_cache_hits", Resp.FnCacheHits);
    JR.Counters.emplace_back("server.fn_cache_misses", Resp.FnCacheMisses);
    JR.Counters.emplace_back("server.ok", Resp.Ok ? 1 : 0);
    Options.SessionJournal->append(std::move(JR));
  }
}

ServerStats CompileServer::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  return Stats;
}
