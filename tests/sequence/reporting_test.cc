#include "sequence/reporting.h"

#include <gtest/gtest.h>

#include <random>

#include "sequence/compute.h"

namespace rfv {
namespace {

// --- position function (§6) --------------------------------------------------

TEST(PositionSpaceTest, SingleColumnIsIdentity) {
  const PositionSpace space({5});
  for (int64_t k = 1; k <= 5; ++k) {
    EXPECT_EQ(space.pos({k}).value(), k);
  }
}

TEST(PositionSpaceTest, TwoColumnLexicographic) {
  const PositionSpace space({3, 4});
  EXPECT_EQ(space.total(), 12);
  EXPECT_EQ(space.pos({1, 1}).value(), 1);
  EXPECT_EQ(space.pos({1, 4}).value(), 4);
  EXPECT_EQ(space.pos({2, 1}).value(), 5);
  EXPECT_EQ(space.pos({3, 4}).value(), 12);
}

TEST(PositionSpaceTest, PaperSectionSixExample) {
  // §6.1 example: three-column address (2,4,2); with c = (3,4,2)-ish
  // domains the lemma's bound arithmetic uses pos((2,4)+1, 1) etc. Use
  // domains (3, 4, 2).
  const PositionSpace space({3, 4, 2});
  // pos(2,3,1): the address one block before (2,4,*).
  EXPECT_EQ(space.pos({2, 3, 1}).value(),
            (2 - 1) * 8 + (3 - 1) * 2 + 1);
  // pos(3,1,1): the first address after prefix (2,4).
  EXPECT_EQ(space.pos({3, 1, 1}).value(), 2 * 8 + 1);
}

TEST(PositionSpaceTest, CoordsRoundTrip) {
  const PositionSpace space({2, 3, 2});
  for (int64_t k = 1; k <= space.total(); ++k) {
    const Result<std::vector<int64_t>> coords = space.coords(k);
    ASSERT_TRUE(coords.ok());
    EXPECT_EQ(space.pos(*coords).value(), k);
  }
}

TEST(PositionSpaceTest, DomainValidation) {
  const PositionSpace space({3, 4});
  EXPECT_EQ(space.pos({0, 1}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(space.pos({1, 5}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(space.pos({1}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(space.coords(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(space.coords(13).status().code(), StatusCode::kInvalidArgument);
}

// --- ordering reduction (§6.1) ------------------------------------------------

/// The cumulative SUM sequence over `raw`, positions 1..n.
std::vector<SeqValue> Cumulative(const std::vector<SeqValue>& raw) {
  return BuildCompleteSequence(raw, WindowSpec::Cumulative(), SeqAggFn::kSum)
      .BodyValues();
}

TEST(OrderingReductionTest, CumulativeCollapse) {
  // Fine ordering (month, day) with 3 months × 4 days; reduce to months.
  const PositionSpace space({3, 4});
  std::vector<SeqValue> raw(12);
  for (int i = 0; i < 12; ++i) raw[i] = i + 1;
  const Result<std::vector<SeqValue>> coarse =
      OrderingReductionCumulative(space, Cumulative(raw), 1);
  ASSERT_TRUE(coarse.ok());
  // Monthly cumulative = fine cumulative at each month's last day.
  EXPECT_EQ(*coarse, std::vector<SeqValue>({10, 36, 78}));
}

TEST(OrderingReductionTest, BlockTotals) {
  const PositionSpace space({3, 4});
  std::vector<SeqValue> raw(12, 1);
  const Result<std::vector<SeqValue>> totals =
      OrderingReductionBlockTotals(space, Cumulative(raw), 1);
  ASSERT_TRUE(totals.ok());
  EXPECT_EQ(*totals, std::vector<SeqValue>({4, 4, 4}));
}

TEST(OrderingReductionTest, MultiColumnDrop) {
  // (year, month, day) → drop 2 columns → yearly values.
  const PositionSpace space({2, 3, 2});
  std::vector<SeqValue> raw(12);
  for (int i = 0; i < 12; ++i) raw[i] = 1;
  const Result<std::vector<SeqValue>> coarse =
      OrderingReductionCumulative(space, Cumulative(raw), 2);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(*coarse, std::vector<SeqValue>({6, 12}));
}

TEST(OrderingReductionTest, InvalidArguments) {
  const PositionSpace space({3, 4});
  const std::vector<SeqValue> fine(12, 0);
  EXPECT_EQ(OrderingReductionCumulative(space, fine, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(OrderingReductionCumulative(space, fine, 2).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<SeqValue> wrong_size(7, 0);
  EXPECT_EQ(OrderingReductionCumulative(space, wrong_size, 1).status().code(),
            StatusCode::kInvalidArgument);
}

// --- partitioning reduction (§6.2) ---------------------------------------------

PartitionedSequence MakeMonthly(const WindowSpec& spec, SeqAggFn fn) {
  // Partition key = (region, month); two regions × two months.
  PartitionedSequence seq(spec, fn);
  EXPECT_TRUE(seq.AddPartition({1, 1}, {1, 2, 3}).ok());
  EXPECT_TRUE(seq.AddPartition({1, 2}, {4, 5}).ok());
  EXPECT_TRUE(seq.AddPartition({2, 1}, {10, 20}).ok());
  EXPECT_TRUE(seq.AddPartition({2, 2}, {30}).ok());
  return seq;
}

TEST(PartitioningReductionTest, MergesPartitionsByPrefix) {
  const PartitionedSequence monthly =
      MakeMonthly(WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  ASSERT_TRUE(monthly.IsComplete());
  const Result<PartitionedSequence> regional = monthly.ReducePartitioning(1);
  ASSERT_TRUE(regional.ok());
  ASSERT_EQ(regional->num_partitions(), 2u);
  // Region 1 raw data = concat({1,2,3}, {4,5}).
  EXPECT_EQ(regional->partition(0).raw,
            std::vector<SeqValue>({1, 2, 3, 4, 5}));
  EXPECT_EQ(regional->partition(1).raw, std::vector<SeqValue>({10, 20, 30}));
  // And the merged sequence equals a fresh computation on the merged raw.
  const Sequence fresh = BuildCompleteSequence(
      {1, 2, 3, 4, 5}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  EXPECT_EQ(regional->partition(0).sequence.BodyValues(), fresh.BodyValues());
}

TEST(PartitioningReductionTest, DropAllPartitionColumns) {
  const PartitionedSequence monthly =
      MakeMonthly(WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  const Result<PartitionedSequence> total = monthly.ReducePartitioning(2);
  ASSERT_TRUE(total.ok());
  ASSERT_EQ(total->num_partitions(), 1u);
  EXPECT_EQ(total->partition(0).raw.size(), 8u);
}

TEST(PartitioningReductionTest, CumulativePartitions) {
  PartitionedSequence monthly(WindowSpec::Cumulative(), SeqAggFn::kSum);
  ASSERT_TRUE(monthly.AddPartition({1}, {1, 2, 3}).ok());
  ASSERT_TRUE(monthly.AddPartition({2}, {4, 5}).ok());
  const Result<PartitionedSequence> total = monthly.ReducePartitioning(1);
  ASSERT_TRUE(total.ok());
  ASSERT_EQ(total->num_partitions(), 1u);
  // Total cumulative over the concatenation (the paper's intro:
  // cum_sum_total derivable from cum_sum_month).
  EXPECT_EQ(total->partition(0).sequence.BodyValues(),
            std::vector<SeqValue>({1, 3, 6, 10, 15}));
}

TEST(PartitioningReductionTest, MinMaxRejected) {
  const PartitionedSequence monthly =
      MakeMonthly(WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kMin);
  EXPECT_EQ(monthly.ReducePartitioning(1).status().code(),
            StatusCode::kNotDerivable);
}

TEST(PartitioningReductionTest, KeysMustBeSorted) {
  PartitionedSequence seq(WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  ASSERT_TRUE(seq.AddPartition({2}, {1}).ok());
  EXPECT_EQ(seq.AddPartition({1}, {1}).code(), StatusCode::kInvalidArgument);
}

TEST(PartitioningReductionTest, InvalidDropCount) {
  const PartitionedSequence monthly =
      MakeMonthly(WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kSum);
  EXPECT_EQ(monthly.ReducePartitioning(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monthly.ReducePartitioning(3).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rfv
