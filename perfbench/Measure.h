//===- Measure.h - Timing, statistics and reporting for perfbench -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement core shared by every perfbench workload: a steady
/// clock, quantiles, the FNV-1a output hash, /proc readers for peak RSS
/// and CPU time, the fixed reference kernel every timing is normalized
/// by, the in-memory span log of the traced run, and the result record
/// printed as the benchmark's last stdout line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now();

/// The Harrell-Davis estimate of quantile \p Q of \p V (0 when empty): a
/// Beta-weighted mean of the order statistics around rank Q*N. A fixed op
/// list puts the plain order statistic on the boundary between two ops'
/// latency groups, where it is the extreme sample of one of them; the
/// weighted mean is not. Takes a copy: callers keep their sample order.
///
/// With \p Width > 0 the weights are those Harrell-Davis gives a sample of
/// Width values, spread over V's ranks: a kernel of fixed width in rank,
/// however many samples V has. Plain Harrell-Davis narrows as samples
/// accumulate, so where a quantile falls in the gap between two ops'
/// latency groups it still reads the extreme samples of those two ops.
double quantile(std::vector<double> V, double Q, size_t Width = 0);

/// The middle value of \p V (mean of the two middle values for an even
/// count); 0 when empty. For small sets such as repeated set-ups.
double median(std::vector<double> V);

double mean(const std::vector<double> &V);

/// FNV-1a 64 over \p Bytes: the identity every timed output is checked by.
uint64_t fnv1a(std::string_view Bytes);

/// VmHWM of process \p Pid in MiB (0 = this process); -1 if unreadable.
double peakRssMb(pid_t Pid = 0);

/// User + system CPU time of process \p Pid in milliseconds; -1 if
/// unreadable.
double cpuMs(pid_t Pid);

/// The fixed reference kernel. Every timing metric is rescaled to a
/// nominal machine speed as raw * R0 / R, where R is the median of the
/// run's reference timings: the kernel calls no coderep code, so a shift
/// in R is the machine's speed, not the program's.
///
/// One run fills 128Ki u32 from a fixed xorshift seed, sorts them, and
/// formats 20000 of them as decimal text folded into FNV-1a; the result
/// must equal ExpectedChecksum, so the compiler cannot drop the work.
struct RefKernel {
  /// Nominal reference time R0 in milliseconds (a round figure near the
  /// median on the machine the bounds in BENCHMARK.json were measured on;
  /// see README.md).
  static constexpr double NominalMs = 15.0;
  static const uint64_t ExpectedChecksum;

  /// Runs the kernel once; returns its run time in milliseconds, or -1
  /// when the checksum does not match.
  static double runMs();

  /// The reference of a workload whose ops hop between threads (serve):
  /// the same kind of work cut into HopUnits units, each handed along the
  /// hops a codrepd request takes - a socket write to a reader thread, a
  /// condition-variable hand-off to a worker that does the unit, and back
  /// the same way. A host that is slow to wake idle cores slows these
  /// hops, which a kernel that never sleeps does not show.
  static constexpr int HopUnits = 32;
  static constexpr double HopsNominalMs = 25.0; ///< R0 of hopsMs
  static const uint64_t HopsChecksum;

  /// Runs \p Rings such hop chains at the same time; returns the mean of
  /// their run times in milliseconds, or -1 when a checksum does not match
  /// or a socket fails.
  static double hopsMs(int Rings);
};

/// One traced layer call: a closed interval on the steady clock, its
/// parent span (-1 for an op root) and the op it belongs to.
struct Span {
  const char *Name = "";
  double Start = 0, End = 0;
  int Parent = -1;
  int64_t Op = 0;
};

/// The traced run's spans, kept in memory and written out at the end.
class SpanLog {
public:
  /// Opens a span that starts now; returns its index.
  int open(const char *Name, int Parent, int64_t Op);
  /// Closes span \p Id now.
  void close(int Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span in milliseconds: its duration minus the part
  /// of that interval its children cover.
  std::vector<double> selfMs() const;

  /// Writes one JSON object per span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, int Parent, int64_t Op)
      : Log(Log), Id(Log.open(Name, Parent, Op)) {}
  ~ScopedSpan() { Log.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int Id;
};

/// One named metric with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one benchmark invocation reports.
struct Result {
  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Errors; ///< first failures, for stderr

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records a failed check; keeps the first few messages.
  void fail(const std::string &Why);

  /// The single-line JSON object the benchmark contract asks for.
  std::string json() const;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
