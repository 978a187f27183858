//===- DeepNestTest.cpp - Depth scaling of the optimizer --------------------===//
//
// A 1600-deep if/else nest, compiled for M68 at SIMPLE and at JUMPS, must
// run correctly and stay within a memory bound that only a near-linear
// compiler meets. JUMPS once answered every dominance query with an
// idom-chain walk (31 s for this depth on a 4-core x86 VM), and local CSE
// copied its value table into every block of the nest's
// single-predecessor chains (over 1 GB). The ctest registration adds a
// 20 s timeout for the time side.
//
//===----------------------------------------------------------------------===//

#include "NestProgram.h"
#include "driver/Compiler.h"
#include "ease/Interp.h"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/resource.h>

using namespace coderep;

// Sanitizers inflate peak RSS with shadow memory and quarantine, so the
// memory bound only holds for a plain build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CODEREP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CODEREP_SANITIZED 1
#endif
#endif

namespace {

constexpr int Depth = 1600;
constexpr long MaxRssMb = 256;

/// Runs \p Body on a thread with a 512 MB stack. The front end parses
/// recursively, a few frames per nesting level, and an ASan build's frames
/// overflow the default 8 MB stack at this depth. (Bounding the parser's
/// depth is its own open item; this test measures the optimizer.)
template <class Fn> void onLargeStack(Fn Body) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, size_t(512) << 20), 0);
  pthread_t Thread;
  auto Run = [](void *Arg) -> void * {
    (*static_cast<Fn *>(Arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&Thread, &Attr, Run, &Body), 0);
  pthread_join(Thread, nullptr);
  pthread_attr_destroy(&Attr);
}

void compileAndCheck(opt::OptLevel Level) {
  nest::NestProgram P = nest::makeNestProgram(Depth);
  onLargeStack([&] {
    driver::Compilation C =
        driver::compile(P.Source, target::TargetKind::M68, Level);
    ASSERT_TRUE(C.ok()) << C.Error;
    ease::RunOptions RO;
    RO.Input = P.Input;
    ease::RunResult R = ease::run(*C.Prog, RO);
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, P.Expected);
  });
#ifndef CODEREP_SANITIZED
  struct rusage Usage;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &Usage), 0);
  EXPECT_LT(Usage.ru_maxrss / 1024, MaxRssMb)
      << "peak RSS " << Usage.ru_maxrss / 1024 << " MB at depth " << Depth;
#endif
}

TEST(DeepNest, SimpleM68Depth1600) { compileAndCheck(opt::OptLevel::Simple); }

TEST(DeepNest, JumpsM68Depth1600) { compileAndCheck(opt::OptLevel::Jumps); }

} // namespace
