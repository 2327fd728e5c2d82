#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "sequence/compute.h"
#include "sequence/derive_cumulative.h"
#include "sequence/maxoa.h"
#include "sequence/minoa.h"

namespace rfv {
namespace {

std::vector<SeqValue> RandomData(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-9, 9);
  std::vector<SeqValue> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

// --- cumulative derivations (§3.1) ------------------------------------------

TEST(DeriveCumulativeTest, RawReconstruction) {
  const std::vector<SeqValue> x = {4, -2, 7, 0, 3};
  const Sequence cum =
      BuildCompleteSequence(x, WindowSpec::Cumulative(), SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> raw = RawFromCumulative(cum);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, x);
}

TEST(DeriveCumulativeTest, SlidingFromCumulativeKnownValues) {
  const std::vector<SeqValue> x = {1, 2, 3, 4, 5};
  const Sequence cum =
      BuildCompleteSequence(x, WindowSpec::Cumulative(), SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> y =
      SlidingFromCumulative(cum, WindowSpec::SlidingUnchecked(1, 1));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, std::vector<SeqValue>({3, 6, 9, 12, 9}));
}

TEST(DeriveCumulativeTest, RejectsNonCumulative) {
  const Sequence sliding = BuildCompleteSequence(
      {1, 2, 3}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  EXPECT_EQ(RawFromCumulative(sliding).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeriveCumulativeTest, RejectsRunningMinMax) {
  const Sequence running_min = BuildCompleteSequence(
      {3, 1, 2}, WindowSpec::Cumulative(), SeqAggFn::kMin);
  EXPECT_EQ(RawFromCumulative(running_min).status().code(),
            StatusCode::kInvalidArgument);
}

// --- raw reconstruction from sliding views (§3.2) ---------------------------

TEST(RawFromSlidingTest, PaperSectionThreeTwo) {
  const std::vector<SeqValue> x = {5, -1, 2, 8, -3, 0, 4};
  const Sequence view = BuildCompleteSequence(
      x, WindowSpec::SlidingUnchecked(2, 1), SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> explicit_form = RawFromSliding(view);
  ASSERT_TRUE(explicit_form.ok());
  EXPECT_EQ(*explicit_form, x);
  const Result<std::vector<SeqValue>> linear = RawFromSlidingLinear(view);
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(*linear, x);
}

TEST(RawFromSlidingTest, RequiresCompleteness) {
  // Strip the header: reconstruction must be refused.
  const WindowSpec spec = WindowSpec::SlidingUnchecked(1, 1);
  Sequence incomplete(spec, SeqAggFn::kSum, 3, 1, {3, 6, 5});
  EXPECT_EQ(RawFromSliding(incomplete).status().code(),
            StatusCode::kNotDerivable);
}

TEST(RawFromSlidingTest, RequiresSum) {
  const Sequence min_view = BuildCompleteSequence(
      {1, 2, 3}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kMin);
  EXPECT_EQ(RawFromSliding(min_view).status().code(),
            StatusCode::kNotDerivable);
}

TEST(CumulativeFromSlidingTest, MatchesDirectCumulative) {
  const std::vector<SeqValue> x = RandomData(33, 5);
  const Sequence view = BuildCompleteSequence(
      x, WindowSpec::SlidingUnchecked(3, 2), SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> cum = CumulativeFromSliding(view);
  ASSERT_TRUE(cum.ok());
  EXPECT_EQ(*cum, BuildCompleteSequence(x, WindowSpec::Cumulative(),
                                        SeqAggFn::kSum)
                      .BodyValues());
}

// --- MaxOA (§4) --------------------------------------------------------------

TEST(MaxoaTest, PlanComputesPaperFactors) {
  // Paper §4.1 running example: x̃ = (2,1), ỹ = (3,1).
  const Result<MaxoaParams> params = PlanMaxoa(
      WindowSpec::SlidingUnchecked(2, 1), WindowSpec::SlidingUnchecked(3, 1));
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->delta_l, 1);
  EXPECT_EQ(params->delta_h, 0);
  EXPECT_EQ(params->delta_p, 3);  // Δp = 1 + l_x + h_x − Δl = 1+2+1-1
}

TEST(MaxoaTest, PreconditionShrinkRejected) {
  EXPECT_EQ(PlanMaxoa(WindowSpec::SlidingUnchecked(2, 1),
                      WindowSpec::SlidingUnchecked(1, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

TEST(MaxoaTest, PreconditionTooWideRejected) {
  // Δl must be <= l_x + h_x − 1 = 2; l_y = 6 gives Δl = 4.
  EXPECT_EQ(PlanMaxoa(WindowSpec::SlidingUnchecked(2, 1),
                      WindowSpec::SlidingUnchecked(6, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

TEST(MaxoaTest, CumulativeWindowsRejected) {
  EXPECT_EQ(PlanMaxoa(WindowSpec::Cumulative(),
                      WindowSpec::SlidingUnchecked(1, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

TEST(MaxoaTest, IncompleteViewRejected) {
  const WindowSpec vspec = WindowSpec::SlidingUnchecked(2, 1);
  Sequence incomplete(vspec, SeqAggFn::kSum, 4, 1, {1, 2, 3, 4});
  EXPECT_EQ(DeriveMaxoaExplicit(incomplete,
                                WindowSpec::SlidingUnchecked(3, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

TEST(MaxoaTest, MinViewRoutedToMinMaxDerivation) {
  const Sequence min_view = BuildCompleteSequence(
      {1, 2, 3}, WindowSpec::SlidingUnchecked(2, 1), SeqAggFn::kMin);
  EXPECT_EQ(DeriveMaxoaExplicit(min_view, WindowSpec::SlidingUnchecked(3, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
  EXPECT_TRUE(
      DeriveMaxoaMinMax(min_view, WindowSpec::SlidingUnchecked(3, 1)).ok());
}

TEST(MaxoaMinMaxTest, GapRejected) {
  const Sequence min_view = BuildCompleteSequence(
      RandomData(20, 3), WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kMin);
  // Δl = 2 > h_x = 1: the covering windows would leave a gap / read
  // past the header.
  EXPECT_EQ(DeriveMaxoaMinMax(min_view, WindowSpec::SlidingUnchecked(3, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

// --- MinOA (§5) --------------------------------------------------------------

TEST(MinoaTest, PaperExperimentPair) {
  // Table 2 scenario: x̃ = (2,1), ỹ = (3,1).
  const std::vector<SeqValue> x = RandomData(50, 11);
  const WindowSpec vspec = WindowSpec::SlidingUnchecked(2, 1);
  const WindowSpec qspec = WindowSpec::SlidingUnchecked(3, 1);
  const Sequence view = BuildCompleteSequence(x, vspec, SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> y = DeriveMinoa(view, qspec);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, ComputeSlidingNaive(x, qspec));
}

TEST(MinoaTest, NarrowingQueryAllowed) {
  // MinOA has no window-size precondition: derive (1,0) from (2,2).
  const std::vector<SeqValue> x = RandomData(30, 13);
  const Sequence view = BuildCompleteSequence(
      x, WindowSpec::SlidingUnchecked(2, 2), SeqAggFn::kSum);
  const WindowSpec qspec = WindowSpec::SlidingUnchecked(1, 0);
  const Result<std::vector<SeqValue>> y = DeriveMinoa(view, qspec);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, ComputeSlidingNaive(x, qspec));
}

TEST(MinoaTest, MinMaxViewsRejected) {
  const Sequence min_view = BuildCompleteSequence(
      {1, 2, 3}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kMin);
  EXPECT_EQ(DeriveMinoa(min_view, WindowSpec::SlidingUnchecked(2, 1))
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

// --- exhaustive sweep: every derivable (view, query) pair -------------------

class DeriveSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DeriveSweep, AllAlgorithmsMatchBruteForce) {
  const auto& [lx, hx, n] = GetParam();
  if (lx + hx == 0) GTEST_SKIP();
  const WindowSpec vspec = WindowSpec::SlidingUnchecked(lx, hx);
  const std::vector<SeqValue> x = RandomData(n, 211 + n + lx * 5 + hx);
  const Sequence view = BuildCompleteSequence(x, vspec, SeqAggFn::kSum);
  const Sequence min_view = BuildCompleteSequence(x, vspec, SeqAggFn::kMin);
  const Sequence max_view = BuildCompleteSequence(x, vspec, SeqAggFn::kMax);

  // Raw reconstruction and cumulative chain are always derivable.
  ASSERT_TRUE(RawFromSliding(view).ok());
  EXPECT_EQ(*RawFromSliding(view), x);
  EXPECT_EQ(*RawFromSlidingLinear(view), x);
  EXPECT_EQ(*CumulativeFromSliding(view),
            BuildCompleteSequence(x, WindowSpec::Cumulative(), SeqAggFn::kSum)
                .BodyValues());

  for (int ly = 0; ly <= 7; ++ly) {
    for (int hy = 0; hy <= 7; ++hy) {
      if (ly + hy == 0) continue;
      const WindowSpec qspec = WindowSpec::SlidingUnchecked(ly, hy);
      const std::vector<SeqValue> expected = ComputeSlidingNaive(x, qspec);

      const Result<std::vector<SeqValue>> minoa = DeriveMinoa(view, qspec);
      ASSERT_TRUE(minoa.ok()) << qspec.ToString();
      EXPECT_EQ(*minoa, expected) << "MinOA " << qspec.ToString();

      if (PlanMaxoa(vspec, qspec).ok()) {
        EXPECT_EQ(*DeriveMaxoaRecursive(view, qspec), expected)
            << "MaxOA-rec " << qspec.ToString();
        EXPECT_EQ(*DeriveMaxoaExplicit(view, qspec), expected)
            << "MaxOA-exp " << qspec.ToString();
      }

      const Result<std::vector<SeqValue>> min_cover =
          DeriveMaxoaMinMax(min_view, qspec);
      if (min_cover.ok()) {
        EXPECT_EQ(*min_cover,
                  BuildCompleteSequence(x, qspec, SeqAggFn::kMin).BodyValues())
            << "MIN cover " << qspec.ToString();
      }
      const Result<std::vector<SeqValue>> max_cover =
          DeriveMaxoaMinMax(max_view, qspec);
      if (max_cover.ok()) {
        EXPECT_EQ(*max_cover,
                  BuildCompleteSequence(x, qspec, SeqAggFn::kMax).BodyValues())
            << "MAX cover " << qspec.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewShapes, DeriveSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 5, 23)));

TEST(DeriveSweepExtra, CoincidentClassMinoaCase) {
  // (Δl + Δh) ≡ 0 (mod w_x): the chains cancel to a bounded sum.
  const WindowSpec vspec = WindowSpec::SlidingUnchecked(1, 1);  // w = 3
  const WindowSpec qspec = WindowSpec::SlidingUnchecked(3, 2);  // Δl+Δh=3
  const std::vector<SeqValue> x = RandomData(40, 77);
  const Sequence view = BuildCompleteSequence(x, vspec, SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> y = DeriveMinoa(view, qspec);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, ComputeSlidingNaive(x, qspec));
}

}  // namespace
}  // namespace rfv
