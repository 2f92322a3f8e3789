// TCM construction and the accuracy metrics of Section II.B.2.
#include <gtest/gtest.h>

#include "profiling/accuracy.hpp"
#include "profiling/tcm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

IntervalRecord rec(ThreadId t, IntervalId i, std::vector<OalEntry> entries) {
  IntervalRecord r;
  r.thread = t;
  r.interval = i;
  r.entries = std::move(entries);
  return r;
}

TEST(TcmBuilder, EmptyRecordsGiveZeroMatrix) {
  const SquareMatrix tcm = tcm_of({}, 4);
  EXPECT_DOUBLE_EQ(tcm.total(), 0.0);
  EXPECT_EQ(tcm.size(), 4u);
}

TEST(TcmBuilder, SharedObjectCreatesSymmetricCell) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(1, 0, {{7, 0, 100, 1}}));
  const SquareMatrix tcm = tcm_of(rs, 2);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(tcm.at(1, 0), 100.0);
}

TEST(TcmBuilder, UnsharedObjectContributesNothing) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{1, 0, 100, 1}}));
  rs.push_back(rec(1, 0, {{2, 0, 100, 1}}));
  const SquareMatrix tcm = tcm_of(rs, 2);
  EXPECT_DOUBLE_EQ(tcm.total(), 0.0);
}

TEST(TcmBuilder, ThreeWaySharingHitsAllPairs) {
  std::vector<IntervalRecord> rs;
  for (ThreadId t = 0; t < 3; ++t) rs.push_back(rec(t, 0, {{7, 0, 50, 1}}));
  const SquareMatrix tcm = tcm_of(rs, 3);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(tcm.at(0, 2), 50.0);
  EXPECT_DOUBLE_EQ(tcm.at(1, 2), 50.0);
}

TEST(TcmBuilder, PairTakesMinBytes) {
  // Amortized array logging can differ across threads after a rate change;
  // the shared volume is the smaller of the two observations.
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(1, 0, {{7, 0, 60, 1}}));
  const SquareMatrix tcm = tcm_of(rs, 2);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 60.0);
}

TEST(TcmBuilder, RepeatedIntervalsDoNotDoubleCount) {
  // The same object logged by the same thread across many intervals counts
  // once per window (max, not sum): the TCM estimates the sharing *volume*.
  std::vector<IntervalRecord> rs;
  for (IntervalId i = 0; i < 5; ++i) {
    rs.push_back(rec(0, i, {{7, 0, 100, 1}}));
    rs.push_back(rec(1, i, {{7, 0, 100, 1}}));
  }
  const SquareMatrix tcm = tcm_of(rs, 2);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 100.0);
}

TEST(TcmBuilder, WeightedAppliesGapScaling) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 10, 31}}));
  rs.push_back(rec(1, 0, {{7, 0, 10, 31}}));
  EXPECT_DOUBLE_EQ(tcm_of(rs, 2, true).at(0, 1), 310.0);
  EXPECT_DOUBLE_EQ(tcm_of(rs, 2, false).at(0, 1), 10.0);
}

TEST(TcmBuilder, ReorganizeGroupsByObject) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{1, 0, 10, 1}, {2, 0, 20, 1}}));
  rs.push_back(rec(1, 0, {{1, 0, 10, 1}}));
  const ReaderArena arena = csr_of(rs, false);
  ASSERT_EQ(arena.object_count(), 2u);
  EXPECT_EQ(arena.readers_of(arena.objects[0] == 1 ? 0 : 1).size(), 2u);
}

TEST(TcmBuilder, ThreadsOutOfRangeIgnored) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(9, 0, {{7, 0, 100, 1}}));  // beyond the 2-thread matrix
  const SquareMatrix tcm = tcm_of(rs, 2);
  EXPECT_DOUBLE_EQ(tcm.total(), 0.0);
}

// --- accuracy metrics ---------------------------------------------------------

TEST(Accuracy, IdenticalMatricesHaveZeroError) {
  SquareMatrix a(3);
  a.at(0, 1) = 5.0;
  a.at(1, 0) = 5.0;
  EXPECT_DOUBLE_EQ(euclidean_error(a, a), 0.0);
  EXPECT_DOUBLE_EQ(absolute_error(a, a), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_from_error(0.0), 1.0);
}

TEST(Accuracy, ZeroEstimateAgainstNonZeroTruthIsFullError) {
  SquareMatrix a(2), b(2);
  b.at(0, 1) = 10.0;
  EXPECT_DOUBLE_EQ(absolute_error(a, b), 1.0);
  EXPECT_DOUBLE_EQ(euclidean_error(a, b), 1.0);
}

TEST(Accuracy, BothZeroIsZeroError) {
  SquareMatrix a(2), b(2);
  EXPECT_DOUBLE_EQ(absolute_error(a, b), 0.0);
  EXPECT_DOUBLE_EQ(euclidean_error(a, b), 0.0);
}

TEST(Accuracy, AbsoluteErrorMatchesHandComputation) {
  SquareMatrix a(2), b(2);
  a.at(0, 1) = 8.0;
  b.at(0, 1) = 10.0;
  a.at(1, 0) = 8.0;
  b.at(1, 0) = 10.0;
  // |8-10|*2 / (10*2) = 0.2
  EXPECT_DOUBLE_EQ(absolute_error(a, b), 0.2);
  EXPECT_NEAR(euclidean_error(a, b), 0.2, 1e-12);
}

TEST(Accuracy, EuclideanEmphasizesLargeDeviations) {
  // One big miss vs many small misses of equal ABS total: EUC punishes the
  // big one more (the paper found ABS more stable for rate decisions).
  SquareMatrix truth(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) truth.at(i, j) = 100.0;
    }
  }
  SquareMatrix one_big = truth;
  one_big.at(0, 1) -= 60.0;
  SquareMatrix spread = truth;
  for (std::size_t j = 1; j < 4; ++j) spread.at(0, j) -= 20.0;
  EXPECT_NEAR(absolute_error(one_big, truth) * 3.0,
              absolute_error(spread, truth) * 3.0, 1e-9);
  EXPECT_GT(euclidean_error(one_big, truth), euclidean_error(spread, truth));
}

TEST(Accuracy, ClampsToUnitInterval) {
  EXPECT_DOUBLE_EQ(accuracy_from_error(2.0), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_from_error(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(accuracy_from_error(0.03), 0.97);
}

TEST(Accuracy, ScaleInvarianceOfRelativeMetrics) {
  SquareMatrix a(2), b(2);
  a.at(0, 1) = 9.0;
  b.at(0, 1) = 10.0;
  SquareMatrix a2 = a, b2 = b;
  a2.scale(1000.0);
  b2.scale(1000.0);
  EXPECT_NEAR(absolute_error(a, b), absolute_error(a2, b2), 1e-12);
  EXPECT_NEAR(euclidean_error(a, b), euclidean_error(a2, b2), 1e-12);
}

}  // namespace
}  // namespace djvm
