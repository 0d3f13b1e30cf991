#include "util/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dasched {
namespace {

TEST(DurationHistogram, EmptyHistogramHasZeroCdf) {
  DurationHistogram h;
  EXPECT_EQ(h.count(), 0);
  for (double v : h.cdf()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(DurationHistogram, PaperEdgesMatchFigure12) {
  const auto edges = DurationHistogram::paper_edges_msec();
  ASSERT_EQ(edges.size(), 12u);
  EXPECT_DOUBLE_EQ(edges.front(), 5.0);
  EXPECT_DOUBLE_EQ(edges.back(), 50'000.0);
}

TEST(DurationHistogram, SamplesLandInCorrectBuckets) {
  DurationHistogram h({10.0, 100.0});
  h.add_msec(5.0);    // <= 10
  h.add_msec(10.0);   // <= 10 (edge-inclusive)
  h.add_msec(50.0);   // <= 100
  h.add_msec(500.0);  // overflow
  ASSERT_EQ(h.count(), 4);
  const auto& counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
}

TEST(DurationHistogram, CdfIsMonotoneNondecreasingAndEndsAtOne) {
  DurationHistogram h;
  for (int i = 1; i <= 1'000; ++i) h.add(msec(static_cast<double>(i) * 7.3));
  const auto cdf = h.cdf();
  double prev = 0.0;
  for (double v : cdf) {
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST(DurationHistogram, MergeAddsCountsForIdenticalEdges) {
  DurationHistogram a;
  DurationHistogram b;
  a.add(msec(1.0));
  b.add(msec(1.0));
  b.add(msec(20'000.0));
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_NEAR(a.cdf()[0], 2.0 / 3.0, 1e-12);  // the 5 ms edge
}

TEST(DurationHistogram, MeanTracksTotal) {
  DurationHistogram h;
  h.add(msec(10.0));
  h.add(msec(30.0));
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.total_msec(), 40.0);
}

TEST(DurationHistogram, ClearResets) {
  DurationHistogram h;
  h.add(msec(10.0));
  h.clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.total_msec(), 0.0);
}

TEST(DurationHistogram, FromPartsRejectsBadEdges) {
  const auto parts = [](std::vector<double> edges) {
    std::vector<std::int64_t> counts(edges.size() + 1, 0);
    return DurationHistogram::from_parts(std::move(edges), std::move(counts),
                                         0, 0.0);
  };
  EXPECT_NO_THROW(parts({}));
  EXPECT_NO_THROW(parts({-1.0, 0.0, 5.0}));
  EXPECT_THROW(parts({5.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(parts({5.0, 5.0}), std::invalid_argument);
  EXPECT_THROW(parts({std::nan("")}), std::invalid_argument);
  EXPECT_THROW(parts({1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(DurationHistogram::from_parts({1.0}, {0}, 0, 0.0),
               std::invalid_argument);
}

TEST(SummaryStats, TracksMoments) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, EmptyIsSafe) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

}  // namespace
}  // namespace dasched
