//===- Daemon.h - codrepd subprocess lifecycle for perfbench -----*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts the real codrepd binary as a child process, waits for its
/// "serving on" line on a pipe (no sleeps, no socket polling), and stops
/// it with SIGTERM, requiring the graceful drain to exit 0. A daemon still
/// running when its Daemon object dies is killed and reaped, and one whose
/// bench process dies first gets SIGKILL from the kernel.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns \p Exe with \p Args and blocks until it reports readiness,
  /// exits, or \p TimeoutSec passes. Returns false and sets \p Err unless
  /// the daemon is ready.
  bool start(const std::string &Exe, const std::vector<std::string> &Args,
             double TimeoutSec, std::string &Err);

  /// SIGTERM, read the drain summary to EOF, reap. Returns false and sets
  /// \p Err unless the daemon exited 0 within \p TimeoutSec.
  bool stop(double TimeoutSec, std::string &Err);

  pid_t pid() const { return Pid; }

  /// Everything the daemon printed so far.
  const std::string &log() const { return Log; }

private:
  /// Reads the pipe until \p Needle appears, EOF, or \p Deadline.
  /// Returns true when \p Needle was seen (empty: when EOF was reached).
  bool readUntil(const std::string &Needle, double Deadline);
  void kill();

  pid_t Pid = -1;
  int Pipe = -1;
  std::string Log;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
