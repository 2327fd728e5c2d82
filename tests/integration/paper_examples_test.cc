// Worked examples from the paper, verified number by number.

#include <gtest/gtest.h>

#include "sequence/compute.h"
#include "sequence/maxoa.h"
#include "sequence/minoa.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

// --- paper Fig. 6: derivation of ỹ=(3,1) from x̃=(2,1) ----------------------

TEST(PaperFig6Test, DerivationTableHolds) {
  // The figure's identities, e.g. ỹ4 = x̃4 + x̃0 and
  // ỹ9 = x̃9 + x̃5 − x̃4 + x̃1 − x̃0, must hold for arbitrary raw data.
  const int n = 12;
  std::vector<SeqValue> x(n);
  for (int i = 0; i < n; ++i) x[i] = (i * 17 + 3) % 23 - 11;
  const Sequence xs = BuildCompleteSequence(
      x, WindowSpec::SlidingUnchecked(2, 1), SeqAggFn::kSum);
  const std::vector<SeqValue> y =
      ComputeSlidingNaive(x, WindowSpec::SlidingUnchecked(3, 1));

  const auto xt = [&](int64_t k) { return xs.at(k); };
  // ỹ1..ỹ3 coincide with x̃1..x̃3 plus the header contribution; per the
  // figure: y1 = x̃1, y2 = x̃2, y3 = x̃3 only when x0-era header values
  // fold in — the figure states ỹk in terms of x̃ with header access:
  EXPECT_EQ(y[3], xt(4) + xt(0));                      // ỹ4 = x̃4 + x̃0
  EXPECT_EQ(y[4], xt(5) + xt(1) - xt(0));              // ỹ5
  EXPECT_EQ(y[5], xt(6) + xt(2) - xt(1));              // ỹ6
  EXPECT_EQ(y[6], xt(7) + xt(3) - xt(2));              // ỹ7
  // ỹ8's chain reaches the header: x̃_{8-2·4} = x̃0 (the scanned paper's
  // figure truncates this term; the explicit-form theorem requires it).
  EXPECT_EQ(y[7], xt(8) + xt(4) - xt(3) + xt(0));      // ỹ8
  EXPECT_EQ(y[8], xt(9) + xt(5) - xt(4) + xt(1) - xt(0));   // ỹ9
  EXPECT_EQ(y[9], xt(10) + xt(6) - xt(5) + xt(2) - xt(1));  // ỹ10
}

TEST(PaperFig6Test, FirstThreePositions) {
  // With all-positive data, ỹ1..ỹ3 differ from x̃1..x̃3 exactly by the
  // larger window's extra raw terms, which the header values absorb:
  // the MaxOA formula ỹk = x̃k + x̃_{k-1} − z̃k must reproduce them.
  std::vector<SeqValue> x = {1, 2, 3, 4, 5, 6, 7, 8};
  const Sequence xs = BuildCompleteSequence(
      x, WindowSpec::SlidingUnchecked(2, 1), SeqAggFn::kSum);
  const Result<std::vector<SeqValue>> y =
      DeriveMaxoaExplicit(xs, WindowSpec::SlidingUnchecked(3, 1));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, ComputeSlidingNaive(x, WindowSpec::SlidingUnchecked(3, 1)));
}

// --- paper Fig. 7: complete sequence extent ---------------------------------

TEST(PaperFig7Test, HeaderAndTrailerExtent) {
  // x̃ = (2,1): header positions −h+1..0 = {0}, trailer n+1..n+2.
  const std::vector<SeqValue> x = {1, 1, 1, 1, 1};
  const Sequence xs = BuildCompleteSequence(
      x, WindowSpec::SlidingUnchecked(2, 1), SeqAggFn::kSum);
  EXPECT_EQ(xs.first_pos(), 0);
  EXPECT_EQ(xs.last_pos(), 7);
  // x̃0 covers {1} (window [-2,1] clipped by zero padding): value 1.
  EXPECT_EQ(xs.at(0), 1);
  // Trailer x̃6 covers {4,5}: value 2; x̃7 covers {5}: value 1.
  EXPECT_EQ(xs.at(6), 2);
  EXPECT_EQ(xs.at(7), 1);
}

// --- paper §2.2 relationship x̃k + x_{k−l−1} = x̃_{k−1} + x_{k+h} -----------

TEST(PaperSection22Test, NeighborRelationship) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(3, 2);
  std::vector<SeqValue> x(20);
  for (int i = 0; i < 20; ++i) x[i] = (i * 7) % 13;
  const auto raw = [&](int64_t i) {
    return (i >= 1 && i <= 20) ? x[static_cast<size_t>(i - 1)] : 0.0;
  };
  const std::vector<SeqValue> seq =
      BuildCompleteSequence(x, spec, SeqAggFn::kSum).BodyValues();
  for (int64_t k = 2; k <= 20; ++k) {
    EXPECT_EQ(seq[k - 1] + raw(k - spec.l() - 1),
              seq[k - 2] + raw(k + spec.h()))
        << "k=" << k;
  }
}

// --- paper §3.1 formulas -----------------------------------------------------

TEST(PaperSection31Test, RawAndSlidingFromCumulative) {
  Database db;
  testutil::CreateSeqTable(db, 25);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW c AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  // x_k = c_k − c_{k−1} via SQL over the view.
  const ResultSet diff = MustExecute(
      db,
      "SELECT s1.pos AS pos, SUM(CASE WHEN s1.pos = s2.pos THEN s2.val "
      "ELSE (-1) * s2.val END) AS val FROM c s1, c s2 WHERE s2.pos IN "
      "(s1.pos - 1, s1.pos) GROUP BY s1.pos ORDER BY 1");
  db.options().enable_view_rewrite = false;
  const ResultSet raw =
      MustExecute(db, "SELECT pos, val FROM seq ORDER BY pos");
  ASSERT_EQ(diff.NumRows(), raw.NumRows());
  for (size_t i = 0; i < raw.NumRows(); ++i) {
    EXPECT_DOUBLE_EQ(diff.at(i, 1).ToDouble(), raw.at(i, 1).ToDouble());
  }
}

// --- paper Table 1 query shape ----------------------------------------------

TEST(PaperTable1Test, QueryShapeBothMethods) {
  Database db;
  testutil::CreateSeqTable(db, 100);
  // "reporting functionality": the paper's exact query.
  const ResultSet native = MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  // "self join method": the paper's Fig. 2 simulation.
  const ResultSet self_join = MustExecute(
      db,
      "SELECT s1.pos AS pos, SUM(s2.val) AS val FROM seq s1, seq s2 WHERE "
      "s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1) GROUP BY s1.pos ORDER BY "
      "s1.pos");
  EXPECT_TRUE(testutil::RowsEqual(native, self_join));
}

// --- paper §7 conclusion: MaxOA covers MIN/MAX, MinOA does not ---------------

TEST(PaperSection7Test, AggregateCoverage) {
  const std::vector<SeqValue> x = {3, 1, 4, 1, 5, 9, 2, 6};
  const WindowSpec vspec = WindowSpec::SlidingUnchecked(2, 1);
  const WindowSpec qspec = WindowSpec::SlidingUnchecked(3, 1);
  const Sequence min_view = BuildCompleteSequence(x, vspec, SeqAggFn::kMin);
  EXPECT_TRUE(DeriveMaxoaMinMax(min_view, qspec).ok());
  EXPECT_FALSE(DeriveMinoa(min_view, qspec).ok());
}

}  // namespace
}  // namespace rfv
