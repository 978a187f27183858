//===- Profiler.h - Self-profiler over the ScopedTimer span stack *- C++ -*===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A zero-new-instrumentation self-profiler: the compiler is already
/// covered in nested ScopedTimer spans (driver phases, per-pass runs,
/// per-function optimization, oracle checks), and those land in the
/// TraceSink as well-nested begin/end pairs per thread. This class
/// reconstructs the span tree from a sink snapshot and exports it as
///
///  * collapsed stacks (Brendan Gregg's FlameGraph input: one
///    "track;frame;frame <self_us>" line per distinct stack, sorted), and
///  * speedscope JSON ("evented" format, one profile per thread track,
///    loadable at https://www.speedscope.app or `npx speedscope`),
///
/// turning "the replication phase is ~22 ms" (ROADMAP raw-speed item)
/// into an attributable flame graph. Exact span durations, not samples:
/// self time is a span's duration minus its direct children's durations.
///
/// Robust to truncation by construction: spans left open (a crash-flushed
/// trace, see TraceSink::installCrashFlush) are closed at the trace's
/// last timestamp, and a stray end is dropped - both exports stay
/// well-formed on any event prefix.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OBS_PROFILER_H
#define CODEREP_OBS_PROFILER_H

#include "obs/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace coderep::obs {

class Profiler {
public:
  /// Snapshots \p Sink's events and thread names; later sink activity
  /// does not affect this profiler.
  explicit Profiler(const TraceSink &Sink);

  /// FlameGraph collapsed-stack text: one "track;a;b <self_us>" line per
  /// closed span's stack (0 when it has no self time), aggregated per
  /// distinct stack and sorted
  /// lexicographically (deterministic for a deterministic span tree).
  std::string collapsedStacks() const;

  /// Speedscope file-format JSON, "evented" profiles in microseconds,
  /// one per thread track, frames deduplicated in the shared table.
  std::string speedscopeJson() const;

private:
  /// One open or close edge of a reconstructed span.
  struct Op {
    bool Open = false;
    std::string Name;
    int64_t TimeUs = 0;
  };

  /// One thread's track: its display name and a *balanced, well-nested*
  /// open/close sequence (strays dropped, dangling opens closed at the
  /// track end) - the normal form both exports walk.
  struct Track {
    std::string Name;
    std::vector<Op> Ops;
  };

  std::vector<Track> Tracks; ///< indexed by dense tid
};

} // namespace coderep::obs

#endif // CODEREP_OBS_PROFILER_H
