// Tests of the benchmark's own statistics (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Percentile, NearestRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i); // unsorted input
  const Percentile p50 = percentile(v, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p90 = percentile(v, 0.9);
  EXPECT_EQ(p90.value, 90);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(percentile(v, 1.0).value, 100);
  EXPECT_EQ(percentile(v, 1.0).beyond, 0u);
}

TEST(Percentile, SmallAndOddSets) {
  EXPECT_EQ(percentile({7}, 0.5).value, 7);
  EXPECT_EQ(percentile({7}, 0.9).beyond, 0u);
  EXPECT_EQ(percentile({3, 1, 2}, 0.5).value, 2);
  // 10 samples: rank ceil(9) = 9 -> the 9th smallest, one sample beyond.
  const Percentile p = percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9);
  EXPECT_EQ(p.value, 9);
  EXPECT_EQ(p.beyond, 1u);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1}, 1.5), std::invalid_argument);
}

TEST(Percentile, MedianOfGroupMediansIgnoresTheGapBetweenGroups) {
  // Two configurations, one slow sample moved across: the pooled median
  // jumps from one group to the other, the median of medians does not.
  std::vector<double> fast = {1.0, 1.1, 1.2}, slow = {2.0, 2.1, 2.2};
  EXPECT_EQ(median_of_medians({fast, slow}), (1.1 + 2.1) / 2);
  std::vector<double> pooled = fast;
  pooled.insert(pooled.end(), slow.begin(), slow.end());
  EXPECT_EQ(median(pooled), 1.2);
  fast.push_back(2.05); // an outlier of the fast configuration
  EXPECT_EQ(median_of_medians({fast, slow}), (1.1 + 2.1) / 2);
  EXPECT_EQ(median_of_medians({{3.0}, {}, {1.0}, {2.0}}), 2.0);
  EXPECT_THROW(median_of_medians({{}, {}}), std::invalid_argument);
}

TEST(SpanLog, SelfTimeIsSpanMinusChildren) {
  SpanLog log;
  const int64_t op = log.add("op", 0, 10, -1, 1);
  log.add("api.session", 0, 2, op, 1);
  const int64_t run = log.add("sim.run", 2, 9, op, 1);
  log.add("cycle", 3, 4, run, 1);
  const std::vector<double> self = log.self_times();
  EXPECT_DOUBLE_EQ(self[0], 1.0); // 10 - (2 + 7)
  EXPECT_DOUBLE_EQ(self[1], 2.0); // leaf: its whole duration
  EXPECT_DOUBLE_EQ(self[2], 6.0); // 7 - 1
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_EQ(log.self_times("op"), std::vector<double>{1.0});
  EXPECT_EQ(log.durations("sim.run"), std::vector<double>{7.0});
}

TEST(SpanLog, OverlappingAndOverhangingChildrenCountOnce) {
  SpanLog log;
  const int64_t root = log.add("op", 10, 20, -1, 7);
  log.add("a", 8, 14, root, 7);  // clipped to [10, 14]
  log.add("b", 12, 16, root, 7); // overlaps a: union [10, 16]
  log.add("c", 18, 25, root, 7); // clipped to [18, 20]
  EXPECT_DOUBLE_EQ(log.self_times()[0], 2.0); // 10 - (6 + 2)
}

TEST(SpanLog, SpansOfOtherOperationsAreIndependent) {
  SpanLog log;
  const int64_t a = log.add("op", 0, 5, -1, 1);
  const int64_t b = log.add("op", 5, 9, -1, 2);
  log.add("ksimd.accept", 0, 1, a, 1);
  log.add("ksimd.accept", 5, 8, b, 2);
  EXPECT_EQ(log.self_times("op"), (std::vector<double>{4.0, 1.0}));
  EXPECT_EQ(log.spans()[3].op, 2u);
}

TEST(Tally, FailuresAreCountedAgainstAttempts) {
  Tally t;
  t.ok();
  t.fail("rejected: queue_full");
  t.ok();
  t.fail("cycles 10 != reference 11");
  EXPECT_EQ(t.attempted(), 4u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_EQ(t.completed(), 2u);
  EXPECT_EQ(t.first_failure(), "rejected: queue_full");

  Tally other;
  other.fail("exception");
  t.merge(other);
  EXPECT_EQ(t.attempted(), 5u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_EQ(t.first_failure(), "rejected: queue_full");
}

} // namespace
} // namespace perfbench
