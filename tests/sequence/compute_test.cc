#include "sequence/compute.h"

#include <gtest/gtest.h>

#include <random>
#include <tuple>

namespace rfv {
namespace {

std::vector<SeqValue> RandomData(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-9, 9);
  std::vector<SeqValue> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

/// The query-range values [1, n] of the complete sequence.
std::vector<SeqValue> Body(const std::vector<SeqValue>& x,
                           const WindowSpec& spec, SeqAggFn fn) {
  return BuildCompleteSequence(x, spec, fn).BodyValues();
}

TEST(ComputeTest, CumulativeBasics) {
  EXPECT_EQ(Body({1, 2, 3, -4}, WindowSpec::Cumulative(), SeqAggFn::kSum),
            std::vector<SeqValue>({1, 3, 6, 2}));
  EXPECT_TRUE(Body({}, WindowSpec::Cumulative(), SeqAggFn::kSum).empty());
}

TEST(ComputeTest, NaiveKnownValues) {
  // Paper Fig. 2 query: centered window of size 3 over 1..5.
  const std::vector<SeqValue> out =
      ComputeSlidingNaive({1, 2, 3, 4, 5}, WindowSpec::SlidingUnchecked(1, 1));
  EXPECT_EQ(out, std::vector<SeqValue>({3, 6, 9, 12, 9}));
}

TEST(ComputeTest, PipelinedKnownValues) {
  const std::vector<SeqValue> out = Body(
      {1, 2, 3, 4, 5}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  EXPECT_EQ(out, std::vector<SeqValue>({3, 6, 9, 12, 9}));
}

TEST(ComputeTest, EmptyInput) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(1, 1);
  EXPECT_TRUE(ComputeSlidingNaive({}, spec).empty());
  EXPECT_TRUE(Body({}, spec, SeqAggFn::kSum).empty());
  EXPECT_TRUE(Body({}, spec, SeqAggFn::kMin).empty());
}

TEST(ComputeTest, MinMaxKnownValues) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(1, 1);
  EXPECT_EQ(Body({3, 1, 4, 1, 5}, spec, SeqAggFn::kMin),
            std::vector<SeqValue>({1, 1, 1, 1, 1}));
  EXPECT_EQ(Body({3, 1, 4, 1, 5}, spec, SeqAggFn::kMax),
            std::vector<SeqValue>({3, 4, 4, 5, 5}));
}

TEST(ComputeTest, MinMaxClipsAtBoundaries) {
  // Boundary windows must NOT see zero padding (all-positive data would
  // otherwise yield a spurious 0 minimum at the edges).
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 2);
  EXPECT_EQ(Body({5, 6, 7, 8}, spec, SeqAggFn::kMin),
            std::vector<SeqValue>({5, 5, 5, 6}));
  // The header/trailer windows are clipped the same way.
  const Sequence seq = BuildCompleteSequence({5, 6, 7, 8}, spec,
                                             SeqAggFn::kMin);
  EXPECT_EQ(seq.first_pos(), -1);
  EXPECT_EQ(seq.at(-1), 5);
  EXPECT_EQ(seq.at(6), 8);
}

TEST(ComputeTest, SlidingMinMaxReadsASliceInPlace) {
  // x_3..x_9 of a longer sequence: the sweep over positions [5, 7]
  // needs only the clipped windows [3, 9] and matches the values the
  // complete sequence holds there.
  const std::vector<SeqValue> x = {4, 9, 2, 7, 7, 1, 8, 3, 6, 5};
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 2);
  const std::vector<SeqValue> slice(x.begin() + 2, x.begin() + 9);
  for (const bool is_min : {true, false}) {
    const Sequence seq = BuildCompleteSequence(
        x, spec, is_min ? SeqAggFn::kMin : SeqAggFn::kMax);
    EXPECT_EQ(SlidingMinMax(slice, /*x_first=*/3, /*n=*/10, spec, is_min, 5,
                            7),
              std::vector<SeqValue>({seq.at(5), seq.at(6), seq.at(7)}));
  }
}

TEST(ComputeTest, CompleteSequenceHeaderTrailerExtent) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 1);
  const Sequence seq =
      BuildCompleteSequence({1, 2, 3, 4, 5}, spec, SeqAggFn::kSum);
  EXPECT_EQ(seq.first_pos(), 0);   // -h+1
  EXPECT_EQ(seq.last_pos(), 7);    // n+l
  EXPECT_TRUE(seq.IsComplete());
  // Header value x̃_0 sums positions [-2, 1] ∩ [1,5] = {1}.
  EXPECT_EQ(seq.at(0), 1);
  // Trailer value x̃_7 sums positions [5, 8] ∩ [1,5] = {5}.
  EXPECT_EQ(seq.at(7), 5);
  // Body value x̃_3 = x1+x2+x3+x4.
  EXPECT_EQ(seq.at(3), 10);
}

TEST(ComputeTest, CompleteCumulativeStoresBody) {
  const Sequence seq = BuildCompleteSequence({1, 2, 3}, WindowSpec::Cumulative(),
                                             SeqAggFn::kSum);
  EXPECT_EQ(seq.first_pos(), 1);
  EXPECT_EQ(seq.last_pos(), 3);
  EXPECT_EQ(seq.at(3), 6);
  EXPECT_TRUE(seq.IsComplete());
}

TEST(ComputeTest, CompleteCumulativeRunningMinMax) {
  const Sequence running_min = BuildCompleteSequence(
      {3, 1, 2}, WindowSpec::Cumulative(), SeqAggFn::kMin);
  EXPECT_EQ(running_min.at(1), 3);
  EXPECT_EQ(running_min.at(2), 1);
  EXPECT_EQ(running_min.at(3), 1);
}

TEST(ComputeTest, CompleteSequenceEmptyData) {
  const Sequence seq = BuildCompleteSequence(
      {}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  EXPECT_EQ(seq.n(), 0);
  EXPECT_EQ(seq.at(1), 0);
}

// Property sweep: the pipelined complete-sequence body equals the naive
// form, and the MIN/MAX deque matches a brute-force scan, across window
// shapes.
class ComputeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ComputeSweep, AllStrategiesAgree) {
  const auto& [l, h, n] = GetParam();
  if (l + h == 0) GTEST_SKIP();
  const WindowSpec spec = WindowSpec::SlidingUnchecked(l, h);
  const std::vector<SeqValue> x = RandomData(n, 1000 + n * 31 + l * 7 + h);

  const std::vector<SeqValue> naive = ComputeSlidingNaive(x, spec);
  EXPECT_EQ(Body(x, spec, SeqAggFn::kSum), naive);

  for (const bool is_min : {true, false}) {
    const std::vector<SeqValue> fast =
        Body(x, spec, is_min ? SeqAggFn::kMin : SeqAggFn::kMax);
    ASSERT_EQ(fast.size(), x.size());
    for (int k = 1; k <= n; ++k) {
      SeqValue extreme = is_min ? 1e300 : -1e300;
      for (int i = std::max(1, k - l); i <= std::min(n, k + h); ++i) {
        extreme = is_min ? std::min(extreme, x[i - 1])
                         : std::max(extreme, x[i - 1]);
      }
      EXPECT_EQ(fast[k - 1], extreme) << "k=" << k << " min=" << is_min;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowShapes, ComputeSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 5), ::testing::Values(0, 1, 3),
                       ::testing::Values(1, 2, 7, 40)));

TEST(ComputeTest, WindowLargerThanData) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(10, 10);
  const std::vector<SeqValue> x = {1, 2, 3};
  const std::vector<SeqValue> out = ComputeSlidingNaive(x, spec);
  EXPECT_EQ(out, std::vector<SeqValue>({6, 6, 6}));
  EXPECT_EQ(Body(x, spec, SeqAggFn::kSum), out);
}

}  // namespace
}  // namespace rfv
