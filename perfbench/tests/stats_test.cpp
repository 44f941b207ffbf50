// Percentile and self-time arithmetic of the benchmark (src/stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Span span(std::int64_t start, std::int64_t end,
          std::uint32_t parent = Span::kNoParent) {
  return Span{"s", start, end, parent, 1};
}

TEST(Quantile, MatchesClosestRankInterpolation) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 4.6);  // rank 3.6 between 4 and 5
}

TEST(Quantile, MedianOfEvenCountAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Quantile, P99OfAHundredAndOneValues) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99);
  EXPECT_DOUBLE_EQ(quantile(v, 0.995), 99.5);
}

TEST(InterquartileMean, DropsTheOuterQuartersAndAveragesTheRest) {
  // n = 8: the lowest two and highest two go, (3 + 4 + 5 + 6) / 4 remains
  EXPECT_DOUBLE_EQ(interquartile_mean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5);
  // n = 5: one off each end, so a lone outlier does not count
  EXPECT_DOUBLE_EQ(interquartile_mean({10, 11, 12, 13, 1000}), 12);
}

TEST(InterquartileMean, FewValuesAreAllAveraged) {
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 2, 6}), 3);
  EXPECT_DOUBLE_EQ(interquartile_mean({7}), 7);
  EXPECT_DOUBLE_EQ(interquartile_mean({}), 0);
}

TEST(InterquartileMean, FollowsTheShareOfSlowSamples) {
  // two host speeds, 100 and 140: the median jumps from one to the other
  // as the slow share passes a half; the interquartile mean moves by steps
  EXPECT_DOUBLE_EQ(median({100, 100, 100, 140, 140}), 100);
  EXPECT_DOUBLE_EQ(median({100, 100, 140, 140, 140}), 140);
  EXPECT_NEAR(interquartile_mean({100, 100, 100, 140, 140}), 113.333, 1e-3);
  EXPECT_NEAR(interquartile_mean({100, 100, 140, 140, 140}), 126.667, 1e-3);
}

TEST(SelfTime, LeafSpanKeepsItsWholeDuration) {
  EXPECT_EQ(self_times({span(10, 25)}), (std::vector<std::int64_t>{15}));
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  // parent [0,100) with children [10,20) and [50,80)
  const auto self =
      self_times({span(0, 100), span(10, 20, 0), span(50, 80, 0)});
  EXPECT_EQ(self, (std::vector<std::int64_t>{60, 10, 30}));
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // children [10,40) and [30,60) overlap on [30,40): they cover 50, not 60
  const auto self =
      self_times({span(0, 100), span(10, 40, 0), span(30, 60, 0)});
  EXPECT_EQ(self[0], 50);
}

TEST(SelfTime, NestedAndTouchingChildren) {
  // [20,30) inside [10,50); [50,70) touches it: union [10,70) = 60
  const auto self = self_times(
      {span(0, 100), span(10, 50, 0), span(20, 30, 0), span(50, 70, 0)});
  EXPECT_EQ(self[0], 40);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // a child sticking out on both sides covers only the parent's interval
  const auto self = self_times({span(10, 20), span(0, 15, 0), span(18, 40, 0)});
  EXPECT_EQ(self[0], 3);  // [15,18) uncovered
}

TEST(SelfTime, GrandchildrenDoNotReachTheGrandparent) {
  // root [0,100) -> child [0,60) -> grandchild [0,60): root self is 40,
  // child self 0, grandchild self 60
  const auto self =
      self_times({span(0, 100), span(0, 60, 0), span(0, 60, 1)});
  EXPECT_EQ(self, (std::vector<std::int64_t>{40, 0, 60}));
}

TEST(SelfTime, FullyCoveredParentHasZeroSelfTime) {
  const auto self = self_times({span(0, 10), span(0, 6, 0), span(4, 10, 0)});
  EXPECT_EQ(self[0], 0);
}

}  // namespace
}  // namespace perfbench
