//===- Server.h - Multi-tenant compile-request daemon core ------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived compile service behind examples/codrepd: accepts framed
/// CompileRequests over a Unix-domain socket, queues them onto the shared
/// support/ThreadPool, and serves every client from one content-addressed
/// cache::PipelineCache - the "millions of users" architecture step where
/// the function cache, histograms and journal built by earlier PRs become
/// shared infrastructure instead of per-process state.
///
/// Concurrency model: one blocking reader thread per connection (pure
/// I/O), compiles executed on the ThreadPool (Options.Jobs workers), at
/// most one in-flight request per connection (clients pipeline
/// request/response in lockstep, so responses never reorder within a
/// connection). Cross-request batching is the pool's queue: under load,
/// requests from every tenant interleave onto the same workers and the
/// same cache, which is what makes warm traffic cheap.
///
/// Telemetry: per-request "server.request_us" (frame-in to encoded reply)
/// and "server.queue_us" (enqueue to worker pickup) histograms - recorded
/// internally for stats() and mirrored into the attached TraceSink - plus
/// one journal record per served request when a Journal is attached. A
/// request is counted before its reply is written.
///
/// Drain semantics (SIGTERM/SIGINT -> requestStop): the listener closes
/// (no new tenants), every connection's read side is shut down (idle
/// readers wake with EOF; a reader mid-request finishes its compile and
/// writes the response first - pending writes still flush after SHUT_RD),
/// reader threads are joined, and wait() returns so the daemon can flush
/// telemetry and exit. requestStop is async-signal-safe: it only writes a
/// byte to a self-pipe; the accept thread does the actual teardown.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SERVER_SERVER_H
#define CODEREP_SERVER_SERVER_H

#include "cache/CompileCache.h"
#include "obs/Histogram.h"
#include "obs/Journal.h"
#include "obs/Trace.h"
#include "server/Protocol.h"
#include "server/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coderep::server {

/// Configuration of one CompileServer instance.
struct ServerOptions {
  std::string SocketPath; ///< Unix-domain rendezvous path (required)

  /// ThreadPool width for compile execution: 0 = hardware concurrency.
  int Jobs = 0;

  /// Base pipeline options every request starts from. The request's
  /// semantic fields (level, replication tunables) overwrite their slots;
  /// the base carries the server-side knobs (scheduling, analysis cache).
  /// Base.Jobs is forced to 1 per request: concurrency comes from serving
  /// many requests, not from splitting one.
  opt::PipelineOptions Base;

  /// The shared function cache every tenant hits. Not owned; required for
  /// a useful server but may be null (every request then recompiles).
  cache::PipelineCache *Cache = nullptr;

  /// Optional observability: histograms/metrics mirror into the sink,
  /// and one record per served request appends to the journal.
  obs::TraceSink *Sink = nullptr;
  obs::Journal *SessionJournal = nullptr;
};

/// A snapshot of the server's serving counters.
struct ServerStats {
  int64_t RequestsServed = 0;  ///< responses produced (ok or error),
                               ///< counted before the frame is written
  int64_t RequestErrors = 0;   ///< responses with status error
  int64_t ProtocolErrors = 0;  ///< frames that failed to decode
  int64_t ConnectionsAccepted = 0;
  int64_t FnCacheHits = 0;     ///< summed over served requests
  int64_t FnCacheMisses = 0;
  obs::Histogram RequestUs;    ///< frame-in to encoded reply, per request
  obs::Histogram QueueUs;      ///< enqueue to worker pickup, per request

  double hitRate() const {
    int64_t Total = FnCacheHits + FnCacheMisses;
    return Total > 0 ? static_cast<double>(FnCacheHits) / Total : 0.0;
  }
};

/// The daemon core. Lifecycle: construct -> start() -> (traffic) ->
/// requestStop() from any thread or signal handler -> wait() -> destroy.
class CompileServer {
public:
  explicit CompileServer(ServerOptions Options);
  ~CompileServer();

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Binds the socket, spawns the pool and the accept thread. Returns
  /// false and sets \p Err when the socket cannot be created.
  bool start(std::string &Err);

  /// Initiates graceful drain. Async-signal-safe (writes one byte to a
  /// self-pipe); may be called multiple times.
  void requestStop();

  /// Blocks until the server has fully drained: listener closed, every
  /// reader joined, every in-flight compile finished and its response
  /// written. Publishes final metrics into the sink. Idempotent.
  void wait();

  /// True between a successful start() and the end of wait().
  bool running() const { return Started && !Drained; }

  /// Counter snapshot; callable at any time, including during traffic.
  ServerStats stats() const;

  /// The answer the server would give for \p Req right now - the same
  /// code path a socket request takes minus the socket. Exposed so tests
  /// and in-process benches can assert byte-identity without a client.
  CompileResponse serveLocal(const CompileRequest &Req);

private:
  struct Connection;

  void acceptLoop();
  void readerLoop(Connection *Conn);
  CompileResponse handle(const CompileRequest &Req);
  void noteServed(const CompileRequest &Req, const CompileResponse &Resp,
                  int64_t RequestUs);

  ServerOptions Options;
  Fd ListenFd;
  Fd WakeRead, WakeWrite; ///< self-pipe: requestStop -> accept thread
  std::unique_ptr<ThreadPool> Pool;
  std::thread AcceptThread;

  std::mutex ConnMu;
  std::vector<std::unique_ptr<Connection>> Conns;

  std::atomic<bool> Stopping{false};
  bool Started = false;
  bool Drained = false;

  mutable std::mutex StatsMu;
  ServerStats Stats;
};

} // namespace coderep::server

#endif // CODEREP_SERVER_SERVER_H
