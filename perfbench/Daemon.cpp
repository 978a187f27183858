//===- Daemon.cpp - codrepd subprocess lifecycle for perfbench -------------===//

#include "Daemon.h"

#include "Measure.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

Daemon::~Daemon() { kill(); }

bool Daemon::start(const std::string &Exe,
                   const std::vector<std::string> &Args, double TimeoutSec,
                   std::string &Err) {
  int Fds[2];
  if (pipe2(Fds, O_CLOEXEC) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Exe.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Parent = getpid();
  Pid = fork();
  if (Pid == 0) {
    // Only async-signal-safe calls until exec. codrepd announces readiness
    // (and its drain summary) on stderr; the pipe carries both of its
    // output streams. The daemon dies with the bench, even on a crash.
    dup2(Fds[1], 1);
    dup2(Fds[1], 2);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(127);
    execv(Exe.c_str(), Argv.data());
    _exit(127);
  }
  int ForkErr = errno;
  close(Fds[1]);
  Pipe = Fds[0];
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(ForkErr);
    return false;
  }
  if (!readUntil("serving on", now() + TimeoutSec)) {
    Err = "codrepd did not become ready: " + Log;
    kill();
    return false;
  }
  return true;
}

bool Daemon::readUntil(const std::string &Needle, double Deadline) {
  char Buf[4096];
  while (Needle.empty() || Log.find(Needle) == std::string::npos) {
    double Left = Deadline - now();
    if (Left <= 0)
      return false;
    pollfd P{Pipe, POLLIN, 0};
    int N = poll(&P, 1, static_cast<int>(Left * 1000) + 1);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    ssize_t Got = read(Pipe, Buf, sizeof Buf);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      return Needle.empty();
    Log.append(Buf, static_cast<size_t>(Got));
  }
  return true;
}

bool Daemon::stop(double TimeoutSec, std::string &Err) {
  if (Pid <= 0) {
    Err = "codrepd is not running";
    return false;
  }
  ::kill(Pid, SIGTERM);
  if (!readUntil("", now() + TimeoutSec)) {
    Err = "codrepd did not drain within the timeout";
    kill();
    return false;
  }
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  Pid = -1;
  close(Pipe);
  Pipe = -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Err = "codrepd drain exited with status " + std::to_string(Status) +
          ": " + Log;
    return false;
  }
  return true;
}

void Daemon::kill() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    Pid = -1;
  }
  if (Pipe >= 0) {
    close(Pipe);
    Pipe = -1;
  }
}
