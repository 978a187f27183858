//===- cache_study.cpp - Instruction-cache effects of replication ----------------===//
//
// Demonstrates the paper's Section 5.3 methodology on one program: a
// direct-mapped instruction cache sweep (256 bytes to 16 Kb) fed by the
// interpreter's fetch stream, at all three optimization levels. Shows the
// crossover the paper reports: replication hurts tiny caches (capacity
// misses from the larger code) but lowers total fetch cost once the code
// fits.
//
// Build and run:  ./build/examples/cache_study
//
// The usual observability and pipeline-speed flags apply (--trace-out=,
// --metrics-out=, --jobs=, --pipeline-cache=, ...): the trace shows each
// "analysis: <name>" recompute span inside the three compiles, and the
// metrics include the per-analysis hit/recompute counters.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cache/PipelineCli.h"
#include "obs/ObsCli.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

int main(int Argc, char **Argv) {
  obs::ObsCli Obs("cache_study");
  cache::PipelineCli Pipe;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (!Obs.consume(Arg) && !Pipe.consume(Arg)) {
      std::fprintf(stderr, "usage: cache_study %s %s\n",
                   cache::PipelineCli::usage(), obs::ObsCli::usage());
      return 1;
    }
  }
  opt::PipelineOptions Opts;
  Pipe.apply(Opts);

  const BenchProgram &BP = program("quicksort");

  std::vector<cache::CacheConfig> Configs;
  for (uint32_t Size = 256; Size <= 16384; Size *= 2) {
    cache::CacheConfig C;
    C.SizeBytes = Size;
    C.ContextSwitches = true;
    Configs.push_back(C);
  }

  std::printf("Instruction-cache study: %s (%s)\n\n", BP.Name.c_str(),
              BP.Description.c_str());
  TextTable Table;
  {
    std::vector<std::string> Header = {"level", "code bytes"};
    for (const cache::CacheConfig &C : Configs)
      Header.push_back(format("%uB miss%%/cost", C.SizeBytes));
    Table.addRow(Header);
    Table.addSeparator();
  }

  std::vector<uint64_t> SimpleCost;
  for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Loops,
                              opt::OptLevel::Jumps}) {
    MeasuredRun R = measure(BP, target::TargetKind::Sparc, Level, Configs,
                            &Opts, Obs.sink());
    std::vector<std::string> Row = {opt::optLevelName(Level),
                                    format("%d", R.Static.Instructions * 4)};
    for (size_t I = 0; I < Configs.size(); ++I) {
      const cache::CacheStats &CS = R.Caches[I];
      std::string Cell =
          format("%.2f%%", 100.0 * CS.missRatio());
      if (Level == opt::OptLevel::Simple) {
        SimpleCost.push_back(CS.FetchCost);
        Cell += " (base)";
      } else {
        Cell += format(" (%s)",
                       percentChange(static_cast<double>(CS.FetchCost),
                                     static_cast<double>(SimpleCost[I]))
                           .c_str());
      }
      Row.push_back(Cell);
    }
    Table.addRow(Row);
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("cells: miss ratio (fetch-cost change vs SIMPLE)\n");
  return Obs.finish() ? 0 : 1;
}
