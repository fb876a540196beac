// The benchmark's inputs and its traced replay are functions of the seed:
// one seed gives the same operation sequence and the same deterministic
// counts on every run, and another seed gives other inputs.
#include <gtest/gtest.h>

#include <string>
#include <unistd.h>

#include "perfbench/src/bench.h"
#include "perfbench/src/gen.h"

namespace perfbench {
namespace {

std::vector<std::string> Stream(uint64_t seed, size_t n) {
  std::vector<std::string> out;
  LogShape shape;
  for (size_t k = 0; k < n; ++k) out.push_back(StreamQuery(seed, shape, k).text);
  for (const Query& q : QueryPool(seed, shape, "h", 6)) out.push_back(q.text);
  for (uint64_t b = 0; b < 4; ++b) out.push_back(BatchText(seed, shape, b));
  WriterScript script(seed);
  for (int i = 0; i < 30; ++i) {
    WriteOp op = script.Next(5);
    out.push_back((op.retract ? "-" : "+") + std::to_string(op.batch));
  }
  return out;
}

TEST(Inputs, SameSeedSameInputs) { EXPECT_EQ(Stream(7, 12), Stream(7, 12)); }

TEST(Inputs, OtherSeedOtherInputs) {
  std::vector<std::string> a = Stream(7, 12), b = Stream(8, 12);
  ASSERT_EQ(a.size(), b.size());
  size_t differing = 0;
  for (size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
  // Every program and batch is drawn from the seed; only the writer's
  // append/retract pattern is shared.
  EXPECT_GE(differing, 12u + 6u + 4u);
}

TEST(Inputs, StreamProgramsAreFresh) {
  LogShape shape;
  EXPECT_NE(StreamQuery(3, shape, 0).output, StreamQuery(3, shape, 1).output);
}

BenchOptions Traced(const std::string& workload, uint64_t seed) {
  BenchOptions o;
  o.workload = workload;
  o.seed = seed;
  o.trace = true;
  o.seconds = 120;  // bounded by max_ops, not by time
  o.max_ops = 24;
  o.work_dir = testing::TempDir() + "perfbench_test_" + std::to_string(getpid());
  return o;
}

class Replay : public testing::TestWithParam<std::string> {};

TEST_P(Replay, SameSeedSameSequenceAndCounts) {
  Outcome a = RunWorkload(Traced(GetParam(), 11));
  Outcome b = RunWorkload(Traced(GetParam(), 11));
  ASSERT_TRUE(a.started) << a.error;
  ASSERT_TRUE(b.started) << b.error;
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(a.sequence_hash, b.sequence_hash);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.counts.at("replay.ops"), 24);
}

TEST_P(Replay, OtherSeedOtherSequence) {
  Outcome a = RunWorkload(Traced(GetParam(), 11));
  Outcome b = RunWorkload(Traced(GetParam(), 12));
  ASSERT_TRUE(a.started && b.started);
  EXPECT_NE(a.sequence_hash, b.sequence_hash);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Replay,
                         testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
