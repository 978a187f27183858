//===- Measure.cpp - Timing, statistics and reporting for perfbench --------===//

#include "Measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

double perfbench::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz), valid for X < (A + 1) / (A + B + 2).
double betaFraction(double A, double B, double X) {
  constexpr double Tiny = 1e-300;
  auto guard = [](double V) { return std::fabs(V) < Tiny ? Tiny : V; };
  double C = 1, D = 1 / guard(1 - (A + B) * X / (A + 1)), H = D;
  for (int M = 1; M <= 1000; ++M) {
    double M2 = 2.0 * M;
    double Num = M * (B - M) * X / ((A - 1 + M2) * (A + M2));
    D = 1 / guard(1 + Num * D);
    C = guard(1 + Num / C);
    H *= D * C;
    Num = -(A + M) * (A + B + M) * X / ((A + M2) * (A + 1 + M2));
    D = 1 / guard(1 + Num * D);
    C = guard(1 + Num / C);
    double Step = D * C;
    H *= Step;
    if (std::fabs(Step - 1) < 1e-14)
      break;
  }
  return H;
}

/// Regularized incomplete beta function I_X(A, B).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log1p(-X);
  if (X < (A + 1) / (A + B + 2))
    return std::exp(LogFront) * betaFraction(A, B, X) / A;
  return 1 - std::exp(LogFront) * betaFraction(B, A, 1 - X) / B;
}

} // namespace

double perfbench::quantile(std::vector<double> V, double Q, size_t Width) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N == 1)
    return V[0];
  // Harrell-Davis: order statistic I gets the Beta((W+1)Q, (W+1)(1-Q))
  // mass of ((I-1)/N, I/N], W = N unless a fixed Width is given. Only
  // ranks within 12 standard deviations of Q carry weight worth summing.
  double W = static_cast<double>(Width ? Width : N);
  double A = (W + 1) * Q;
  double B = (W + 1) * (1 - Q);
  double Sd = std::sqrt(Q * (1 - Q) / (W + 2));
  double Fn = static_cast<double>(N);
  size_t Lo = static_cast<size_t>(std::max(0.0, std::floor((Q - 12 * Sd) * Fn)));
  size_t Hi = std::min(N, static_cast<size_t>(std::ceil((Q + 12 * Sd) * Fn)));
  double Prev = incompleteBeta(A, B, static_cast<double>(Lo) / Fn);
  double Sum = Prev * V[Lo > 0 ? Lo - 1 : 0];
  for (size_t I = Lo + 1; I <= Hi; ++I) {
    double Cur = incompleteBeta(A, B, static_cast<double>(I) / Fn);
    Sum += (Cur - Prev) * V[I - 1];
    Prev = Cur;
  }
  return Sum + (1 - Prev) * V[std::min(Hi, N - 1)];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + static_cast<long>(Mid), V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  return (*std::max_element(V.begin(), V.begin() + static_cast<long>(Mid)) +
          Hi) /
         2;
}

double perfbench::mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

uint64_t perfbench::fnv1a(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

double perfbench::peakRssMb(pid_t Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return -1;
}

double perfbench::cpuMs(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat;
  std::getline(In, Stat);
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return -1;
  const char *P = Stat.c_str() + Close + 2;
  unsigned long long Utime = 0, Stime = 0;
  if (std::sscanf(P, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &Utime, &Stime) != 2)
    return -1;
  return 1000.0 * static_cast<double>(Utime + Stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

const uint64_t RefKernel::ExpectedChecksum = 0x40316c0f1f96f583ULL;
const uint64_t RefKernel::HopsChecksum = 0xe637d409da9df957ULL;

namespace {

/// One kernel run on the calling thread; true when its checksum matches.
bool kernelOnce() {
  constexpr size_t N = 128 * 1024;
  constexpr size_t Formatted = 20000;
  static std::vector<uint32_t> Data(N);
  uint64_t X = 0x2545f4914f6cdd1dULL;
  for (uint32_t &V : Data) {
    X ^= X >> 12;
    X ^= X << 25;
    X ^= X >> 27;
    V = static_cast<uint32_t>((X * 0x2545f4914f6cdd1dULL) >> 32);
  }
  std::sort(Data.begin(), Data.end());
  uint64_t H = 0xcbf29ce484222325ULL;
  char Buf[16];
  for (size_t I = 0; I < Formatted; ++I) {
    int Len = std::snprintf(Buf, sizeof Buf, "%u", Data[I * (N / Formatted)]);
    for (int J = 0; J < Len; ++J) {
      H ^= static_cast<unsigned char>(Buf[J]);
      H *= 0x100000001b3ULL;
    }
  }
  return H == RefKernel::ExpectedChecksum;
}

/// One unit of the hop reference: a seeded fill and sort of 8Ki u32 and
/// 625 of them formatted into the running FNV-1a hash \p H.
void hopUnit(std::vector<uint32_t> &Data, int Unit, uint64_t &H) {
  uint64_t X = 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(Unit);
  for (uint32_t &V : Data) {
    X ^= X >> 12;
    X ^= X << 25;
    X ^= X >> 27;
    V = static_cast<uint32_t>((X * 0x2545f4914f6cdd1dULL) >> 32);
  }
  std::sort(Data.begin(), Data.end());
  char Buf[16];
  constexpr size_t Formatted = 625;
  for (size_t I = 0; I < Formatted; ++I) {
    int Len = std::snprintf(Buf, sizeof Buf, "%u",
                            Data[I * (Data.size() / Formatted)]);
    for (int J = 0; J < Len; ++J) {
      H ^= static_cast<unsigned char>(Buf[J]);
      H *= 0x100000001b3ULL;
    }
  }
}

/// One hop chain: a client, a reader and a worker thread, as in codrepd.
/// Returns its run time in milliseconds, or -1 on a failure.
double hopChain() {
  int Sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Sv) != 0)
    return -1;
  std::mutex M;
  std::condition_variable Cv;
  int Posted = 0, Done = 0; // units handed to / finished by the worker
  bool Quit = false;
  uint64_t H = 0xcbf29ce484222325ULL;
  std::jthread Worker([&] {
    std::vector<uint32_t> Data(8 * 1024);
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      Cv.wait(L, [&] { return Quit || Posted > Done; });
      if (Posted == Done)
        return;
      L.unlock();
      hopUnit(Data, Done, H);
      L.lock();
      ++Done;
      Cv.notify_all();
    }
  });
  std::jthread Reader([&] {
    char B;
    for (int U = 0; read(Sv[1], &B, 1) == 1; ++U) {
      std::unique_lock<std::mutex> L(M);
      ++Posted;
      Cv.notify_all();
      Cv.wait(L, [&] { return Done == U + 1; });
      L.unlock();
      if (write(Sv[1], &B, 1) != 1)
        break;
    }
    std::lock_guard<std::mutex> L(M);
    Quit = true;
    Cv.notify_all();
  });
  double Start = now();
  bool Ok = true;
  for (int U = 0; U < RefKernel::HopUnits && Ok; ++U) {
    char B = 'r';
    Ok = write(Sv[0], &B, 1) == 1 && read(Sv[0], &B, 1) == 1;
  }
  double Ms = (now() - Start) * 1000.0;
  shutdown(Sv[0], SHUT_WR); // the reader sees EOF and stops the worker
  Reader.join();
  Worker.join();
  close(Sv[0]);
  close(Sv[1]);
  return Ok && H == RefKernel::HopsChecksum ? Ms : -1;
}

} // namespace

double RefKernel::runMs() {
  double Start = now();
  bool Ok = kernelOnce();
  double Ms = (now() - Start) * 1000.0;
  return Ok ? Ms : -1;
}

int SpanLog::open(const char *Name, int Parent, int64_t Op) {
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Op = Op;
  S.Start = now();
  Spans.push_back(S);
  return static_cast<int>(Spans.size()) - 1;
}

void SpanLog::close(int Id) { Spans[static_cast<size_t>(Id)].End = now(); }

std::vector<double> SpanLog::selfMs() const {
  // Children are recorded after their parent, and the spans of one op
  // nest without overlap on one thread, except the client threads of the
  // serve workload, whose ops are separate roots. Collect each span's
  // child intervals, then subtract their union from its duration.
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[static_cast<size_t>(S.Parent)].push_back({S.Start, S.End});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, Spans[I].Start);
      Hi = std::min(Hi, Spans[I].End);
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        Covered += CurHi > CurLo ? CurHi - CurLo : 0;
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    Covered += CurHi > CurLo ? CurHi - CurLo : 0;
    Self[I] = (Spans[I].End - Spans[I].Start - Covered) * 1000.0;
  }
  return Self;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Base = Spans.empty() ? 0 : Spans.front().Start;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"op\":%lld}\n",
                 I, S.Name, (S.Start - Base) * 1e6, (S.End - Base) * 1e6,
                 S.Parent, static_cast<long long>(S.Op));
  }
  return std::fclose(F) == 0;
}

void Result::fail(const std::string &Why) {
  Correct = false;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

std::string Result::json() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::snprintf(Buf, sizeof Buf, "%.10g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double RefKernel::hopsMs(int Rings) {
  std::vector<double> Ms(static_cast<size_t>(std::max(1, Rings)), -1);
  {
    std::vector<std::jthread> Peers;
    for (size_t T = 1; T < Ms.size(); ++T)
      Peers.emplace_back([&Ms, T] { Ms[T] = hopChain(); });
    Ms[0] = hopChain();
  }
  if (std::find(Ms.begin(), Ms.end(), -1.0) != Ms.end())
    return -1;
  return mean(Ms);
}
