//===- PipelineCli.h - Shared --jobs/--pipeline-cache handling --*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The throughput counterpart of obs::ObsCli: every example and bench
/// binary exposes the same pipeline-speed flags, and this header is the
/// one place that parses them and owns the resulting cache:
///
///   --jobs=N              optimize N functions concurrently
///                         (N=0 or bare --jobs = hardware concurrency;
///                         binaries default to hardware concurrency, the
///                         library's PipelineOptions default stays serial)
///   --pipeline-cache=DIR  persist optimized function bodies under DIR and
///                         serve identical compiles from it; "" (empty DIR)
///                         selects a process-local in-memory cache
///   --cache-budget=BYTES  bound the on-disk store: past the budget, entry
///                         files are evicted oldest-mtime-first (K/M/G
///                         suffixes accepted; 0 = unbounded, the default)
///
/// A malformed value (--jobs=abc, --jobs=-3, --cache-budget=64X, a budget
/// whose suffix overflows) prints a message naming the flag and exits 2,
/// like --verify= does, instead of silently compiling with a different
/// configuration.
///
/// Usage mirrors ObsCli: call consume() on each argv entry (true = it was
/// one of these flags), then apply() on the PipelineOptions the binary is
/// about to compile with. Output is byte-identical at any flag value - the
/// flags only change how fast it is produced. (The paper-literal reference
/// pipeline, PipelineOptions::Reference, has no flag: it is an oracle for
/// tests and the bench_compile baseline, which set the field directly.)
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CACHE_PIPELINECLI_H
#define CODEREP_CACHE_PIPELINECLI_H

#include "cache/CompileCache.h"
#include "opt/Pipeline.h"
#include "support/Format.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

namespace coderep::cache {

/// Owns the parsed flag state and (when requested) the PipelineCache for
/// one binary.
class PipelineCli {
public:
  /// Returns true when \p Arg was one of the pipeline-speed flags.
  bool consume(const std::string &Arg) {
    if (Arg.rfind("--jobs=", 0) == 0) {
      Jobs = static_cast<int>(parseDecimalFlag("--jobs", Arg.substr(7), 0,
                                               INT_MAX));
      return true;
    }
    if (Arg == "--jobs") { // bare form: use every core
      Jobs = 0;
      return true;
    }
    if (Arg.rfind("--pipeline-cache=", 0) == 0) {
      CacheDir = Arg.substr(17);
      WantCache = true;
      return true;
    }
    if (Arg == "--pipeline-cache") { // bare form: in-memory only
      CacheDir.clear();
      WantCache = true;
      return true;
    }
    if (Arg.rfind("--cache-budget=", 0) == 0) {
      if (!parseBytes(Arg.c_str() + 15, Budget))
        fail(Arg);
      return true;
    }
    return false;
  }

  /// Installs the parsed state into \p Options (creating the cache on
  /// first use so repeated apply() calls share one store).
  void apply(opt::PipelineOptions &Options) {
    Options.Jobs = Jobs;
    if (WantCache && !Cache)
      Cache = std::make_unique<PipelineCache>(CacheDir, /*MaxEntries=*/1024,
                                              Budget);
    Options.FunctionCache = Cache.get();
  }

  /// Parallelism degree: 0 = hardware concurrency (the binaries' default),
  /// 1 = serial, N = exactly N workers.
  int jobs() const { return Jobs; }

  /// The cache, when one was requested (for counter reporting); else null.
  PipelineCache *cache() { return Cache.get(); }

  /// One usage line describing the flags, for --help texts.
  static const char *usage() {
    return "[--jobs=N] [--pipeline-cache[=DIR]] [--cache-budget=BYTES]";
  }

private:
  [[noreturn]] static void fail(const std::string &Arg) {
    std::fprintf(stderr, "bad %s value: %s\n",
                 Arg.substr(0, Arg.find('=')).c_str(),
                 Arg.c_str() + Arg.find('=') + 1);
    std::exit(2);
  }

  /// "4096", "64K", "8M", "1G" (case-insensitive suffix) -> bytes; false
  /// on a bad number, an unknown suffix or an overflowing shift.
  static bool parseBytes(const char *S, int64_t &Out) {
    std::string Digits(S);
    int Shift = 0;
    if (!Digits.empty()) {
      switch (Digits.back()) {
      case 'k': case 'K': Shift = 10; break;
      case 'm': case 'M': Shift = 20; break;
      case 'g': case 'G': Shift = 30; break;
      default: break;
      }
      if (Shift)
        Digits.pop_back();
    }
    uint64_t V = 0;
    const uint64_t Max = static_cast<uint64_t>(INT64_MAX) >> Shift;
    if (!parseDecimal(Digits.c_str(), V) || V > Max)
      return false;
    Out = static_cast<int64_t>(V) << Shift;
    return true;
  }

  int Jobs = 0; ///< 0 = hardware concurrency
  bool WantCache = false;
  int64_t Budget = 0; ///< on-disk size bound; 0 = unbounded
  std::string CacheDir;
  std::unique_ptr<PipelineCache> Cache;
};

} // namespace coderep::cache

#endif // CODEREP_CACHE_PIPELINECLI_H
