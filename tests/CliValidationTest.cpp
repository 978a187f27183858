//===- CliValidationTest.cpp - Malformed flag values are rejected --------===//
//
// The shared flag packs (cache::PipelineCli, verify::VerifyCli) turn a
// malformed value into exit status 2 with a message naming the flag,
// instead of silently compiling with a different configuration: read
// leniently, --verify-inputs=0 would make every oracle check vacuously
// clean, --cache-budget=64X would be a 64-byte budget that evicts
// everything, and --jobs=abc would mean "every core".
//
//===----------------------------------------------------------------------===//

#include "cache/PipelineCli.h"
#include "verify/VerifyCli.h"

#include <gtest/gtest.h>

#include <string>

using namespace coderep;

namespace {

void consumePipeline(const char *Arg) {
  cache::PipelineCli Cli;
  Cli.consume(Arg);
  std::exit(0);
}

void consumeVerify(const char *Arg) {
  verify::VerifyCli Cli;
  Cli.consume(Arg);
  std::exit(0);
}

TEST(PipelineCliFlags, AcceptsWellFormedValues) {
  cache::PipelineCli Cli;
  EXPECT_TRUE(Cli.consume("--jobs=0"));
  EXPECT_EQ(Cli.jobs(), 0);
  EXPECT_TRUE(Cli.consume("--jobs=3"));
  EXPECT_EQ(Cli.jobs(), 3);
  EXPECT_TRUE(Cli.consume("--jobs"));
  EXPECT_EQ(Cli.jobs(), 0);
  for (const char *Budget : {"--cache-budget=0", "--cache-budget=4096",
                             "--cache-budget=64K", "--cache-budget=8m",
                             "--cache-budget=1G"})
    EXPECT_TRUE(Cli.consume(Budget)) << Budget;
  EXPECT_FALSE(Cli.consume("--no-such-flag"));
}

TEST(PipelineCliFlagsDeathTest, RejectsMalformedValues) {
  for (const char *Arg : {"--jobs=abc", "--jobs=-3", "--jobs=", "--jobs=2x",
                          "--jobs=99999999999"})
    EXPECT_EXIT(consumePipeline(Arg), ::testing::ExitedWithCode(2),
                "bad --jobs value")
        << Arg;
  for (const char *Arg :
       {"--cache-budget=64X", "--cache-budget=abc", "--cache-budget=-5",
        "--cache-budget=", "--cache-budget=K",
        "--cache-budget=99999999999999G"})
    EXPECT_EXIT(consumePipeline(Arg), ::testing::ExitedWithCode(2),
                "bad --cache-budget value")
        << Arg;
}

TEST(VerifyCliFlags, AcceptsWellFormedValues) {
  verify::VerifyCli Cli;
  EXPECT_TRUE(Cli.consume("--verify-inputs=1"));
  EXPECT_EQ(Cli.options().Inputs, 1);
  EXPECT_TRUE(Cli.consume("--verify-inputs=16"));
  EXPECT_EQ(Cli.options().Inputs, 16);
  EXPECT_TRUE(Cli.consume("--verify-seed=0"));
  EXPECT_EQ(Cli.options().Seed, 0u);
  EXPECT_TRUE(Cli.consume("--verify-seed=18446744073709551615"));
  EXPECT_EQ(Cli.options().Seed, UINT64_MAX);
}

TEST(VerifyCliFlagsDeathTest, RejectsVacuousOrMalformedValues) {
  for (const char *Arg : {"--verify-inputs=0", "--verify-inputs=-2",
                          "--verify-inputs=abc", "--verify-inputs=",
                          "--verify-inputs=4x"})
    EXPECT_EXIT(consumeVerify(Arg), ::testing::ExitedWithCode(2),
                "bad --verify-inputs value")
        << Arg;
  for (const char *Arg :
       {"--verify-seed=abc", "--verify-seed=", "--verify-seed=-1",
        "--verify-seed=12z", "--verify-seed=99999999999999999999999"})
    EXPECT_EXIT(consumeVerify(Arg), ::testing::ExitedWithCode(2),
                "bad --verify-seed value")
        << Arg;
  EXPECT_EXIT(consumeVerify("--verify=sometimes"),
              ::testing::ExitedWithCode(2), "bad --verify value");
}

} // namespace
