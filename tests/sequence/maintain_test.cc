#include "sequence/maintain.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <tuple>

#include "db/database.h"
#include "sequence/compute.h"
#include "view/maintenance.h"

namespace rfv {
namespace {

std::vector<SeqValue> RandomData(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-9, 9);
  std::vector<SeqValue> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

// ---- the slice rules on their own ----------------------------------------

/// Runs one rule on a full copy of x and its complete sequence, the way
/// the storage layer runs it on the slices it reads.
std::vector<SeqValue> RunRule(const std::vector<SeqValue>& x,
                              const WindowSpec& spec, SeqAggFn fn,
                              const SliceChange& change) {
  const Sequence seq = BuildCompleteSequence(x, spec, fn);
  const int64_t n = static_cast<int64_t>(x.size());
  const int64_t reach = RawReach(spec);
  RawSlice raw{n, std::max<int64_t>(change.k - reach, 1), {}};
  for (int64_t p = raw.first; p <= std::min(change.k + reach, n); ++p) {
    raw.values.push_back(x[static_cast<size_t>(p - 1)]);
  }
  const SeqRange range = AffectedRange(spec, change, n);
  std::vector<SeqValue> old_seq;
  for (int64_t i = range.first; i <= range.last; ++i) {
    old_seq.push_back(seq.at(i));
  }
  return MaintainSlice(spec, fn, change, raw, old_seq);
}

TEST(MaintainSliceTest, SumUpdateAddsTheDeltaOnWPositions) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 1);  // w = 4
  std::vector<SeqValue> x = RandomData(30, 7);
  const SliceChange change{SeqChange::kUpdate, 15, 99};
  const std::vector<SeqValue> fresh =
      RunRule(x, spec, SeqAggFn::kSum, change);
  ASSERT_EQ(fresh.size(), 4u);  // the paper's locality claim
  x[14] = 99;
  const Sequence want = BuildCompleteSequence(x, spec, SeqAggFn::kSum);
  for (int64_t i = 14; i <= 17; ++i) EXPECT_EQ(fresh[i - 14], want.at(i));
}

TEST(MaintainSliceTest, InsertAndDeleteRangesAndReach) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(3, 2);
  EXPECT_EQ(RawReach(spec), 5);
  EXPECT_EQ(RawReach(WindowSpec::Cumulative()), 0);
  const SeqRange ins =
      AffectedRange(spec, SliceChange{SeqChange::kInsert, 10, 1}, 20);
  EXPECT_EQ(ins.first, 8);
  EXPECT_EQ(ins.last, 13);
  const SeqRange del =
      AffectedRange(spec, SliceChange{SeqChange::kDelete, 10, 0}, 20);
  EXPECT_EQ(del.size(), 5);
  const SeqRange cum = AffectedRange(WindowSpec::Cumulative(),
                                     SliceChange{SeqChange::kUpdate, 4, 0}, 9);
  EXPECT_EQ(cum.first, 4);
  EXPECT_EQ(cum.last, 9);
}

TEST(MaintainSliceTest, OnlyCumulativeSumUpdateHasACumulativeRule) {
  const WindowSpec cum = WindowSpec::Cumulative();
  EXPECT_TRUE(HasSliceRule(cum, SeqAggFn::kSum, SeqChange::kUpdate));
  EXPECT_FALSE(HasSliceRule(cum, SeqAggFn::kSum, SeqChange::kInsert));
  EXPECT_FALSE(HasSliceRule(cum, SeqAggFn::kMin, SeqChange::kUpdate));
  const WindowSpec sliding = WindowSpec::SlidingUnchecked(1, 1);
  for (SeqChange kind :
       {SeqChange::kUpdate, SeqChange::kInsert, SeqChange::kDelete}) {
    EXPECT_TRUE(HasSliceRule(sliding, SeqAggFn::kMax, kind));
  }
}

TEST(MaintainSliceTest, MinUpdateRetiringTheExtremeRescansTheWindows) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(1, 1);
  std::vector<SeqValue> x = {5, 1, 5, 5, 5};
  // Raising the minimum at position 2 is not the footnote's improving
  // case: every window that held it must find its new minimum.
  const std::vector<SeqValue> fresh =
      RunRule(x, spec, SeqAggFn::kMin, SliceChange{SeqChange::kUpdate, 2, 7});
  EXPECT_EQ(fresh, std::vector<SeqValue>({5, 5, 5}));
}

// ---- the rules end to end, through PropagateBase* -------------------------

/// A Database holding seq(pos, val) = x and one sequence view over it,
/// kept next to an in-memory model of x.
class ViewModel {
 public:
  ViewModel(const std::vector<SeqValue>& x, const WindowSpec& spec,
            SeqAggFn fn, bool indexed = true)
      : x_(x), spec_(spec), fn_(fn) {
    Table* table = *db_.catalog()->CreateTable(
        "seq", Schema({ColumnDef("pos", DataType::kInt64),
                       ColumnDef("val", DataType::kDouble)}));
    std::vector<Row> rows;
    for (size_t i = 0; i < x.size(); ++i) {
      rows.push_back(Row({Value::Int(static_cast<int64_t>(i) + 1),
                          Value::Double(x[i])}));
    }
    EXPECT_TRUE(table->InsertBatch(std::move(rows)).ok());
    if (indexed) {
      EXPECT_TRUE(table->CreateIndex("seq_pk", "pos").ok());
    }
    SequenceViewDef def;
    def.view_name = "v";
    def.base_table = "seq";
    def.value_column = "val";
    def.order_column = "pos";
    def.fn = fn;
    def.window = spec;
    def.indexed = indexed;
    EXPECT_TRUE(db_.view_manager()->CreateSequenceView(def).ok());
  }

  Result<size_t> Update(int64_t k, SeqValue v) {
    x_[static_cast<size_t>(k - 1)] = v;
    return PropagateBaseUpdate(db_.view_manager(), "seq", k, v);
  }
  Result<size_t> Insert(int64_t k, SeqValue v) {
    x_.insert(x_.begin() + (k - 1), v);
    return PropagateBaseInsert(db_.view_manager(), "seq", k, v);
  }
  Result<size_t> Delete(int64_t k) {
    x_.erase(x_.begin() + (k - 1));
    return PropagateBaseDelete(db_.view_manager(), "seq", k);
  }

  const std::vector<SeqValue>& x() const { return x_; }
  int64_t view_n() { return db_.view_manager()->FindView("v")->n; }

  /// The view content equals the complete sequence recomputed from the
  /// model: the same positions and exactly the same values.
  ::testing::AssertionResult Fresh() {
    const Sequence want = BuildCompleteSequence(x_, spec_, fn_);
    std::map<int64_t, SeqValue> got;
    for (const Row& row : (*db_.catalog()->GetTable("v"))->rows()) {
      if (!got.emplace(row[0].AsInt(), row[1].ToDouble()).second) {
        return ::testing::AssertionFailure()
               << "duplicate position " << row[0].AsInt();
      }
    }
    if (view_n() != want.n()) {
      return ::testing::AssertionFailure()
             << "view n " << view_n() << ", want " << want.n();
    }
    if (static_cast<int64_t>(got.size()) !=
        want.last_pos() - want.first_pos() + 1) {
      return ::testing::AssertionFailure()
             << got.size() << " rows, want " << want.ToString();
    }
    for (int64_t k = want.first_pos(); k <= want.last_pos(); ++k) {
      const auto it = got.find(k);
      if (it == got.end() || it->second != want.at(k)) {
        return ::testing::AssertionFailure()
               << "position " << k << " differs; want " << want.ToString();
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  Database db_;
  std::vector<SeqValue> x_;
  WindowSpec spec_;
  SeqAggFn fn_;
};

TEST(MaintainTest, UpdateTouchesExactlyWPositions) {
  ViewModel m(RandomData(30, 7), WindowSpec::SlidingUnchecked(2, 1),
              SeqAggFn::kSum);
  const Result<size_t> touched = m.Update(15, 99);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  EXPECT_EQ(*touched, 4u);  // the paper's locality claim: w positions
  EXPECT_TRUE(m.Fresh());
}

TEST(MaintainTest, UpdateAtBoundaryTouchesHeader) {
  // Updating position 1 affects sequence positions [1-2, 1+1] = [-1, 2],
  // which includes header positions.
  ViewModel m(RandomData(10, 8), WindowSpec::SlidingUnchecked(1, 2),
              SeqAggFn::kSum);
  ASSERT_TRUE(m.Update(1, 42).ok());
  EXPECT_TRUE(m.Fresh());
}

TEST(MaintainTest, InsertShiftsAndGrowsWritingWRows) {
  ViewModel m({1, 2, 3, 4}, WindowSpec::SlidingUnchecked(1, 1),
              SeqAggFn::kSum);
  const Result<size_t> touched = m.Insert(2, 100);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  EXPECT_EQ(*touched, 3u);  // w-1 rewritten + 1 added
  EXPECT_EQ(m.x(), std::vector<SeqValue>({1, 100, 2, 3, 4}));
  EXPECT_EQ(m.view_n(), 5);
  EXPECT_TRUE(m.Fresh());
}

TEST(MaintainTest, InsertAppendAtEnd) {
  ViewModel m({1, 2, 3}, WindowSpec::SlidingUnchecked(2, 2), SeqAggFn::kMax);
  ASSERT_TRUE(m.Insert(4, 7).ok());
  EXPECT_TRUE(m.Fresh());
}

TEST(MaintainTest, DeleteShiftsAndShrinksWritingWRows) {
  ViewModel m({1, 2, 3, 4}, WindowSpec::SlidingUnchecked(1, 1),
              SeqAggFn::kSum);
  const Result<size_t> touched = m.Delete(2);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  EXPECT_EQ(*touched, 3u);  // w-1 rewritten + 1 removed
  EXPECT_EQ(m.view_n(), 3);
  EXPECT_TRUE(m.Fresh());
}

TEST(MaintainTest, DeleteLastElementThenInsertIntoEmpty) {
  ViewModel m({5}, WindowSpec::SlidingUnchecked(1, 1), SeqAggFn::kMin);
  ASSERT_TRUE(m.Delete(1).ok());
  EXPECT_EQ(m.view_n(), 0);
  EXPECT_TRUE(m.Fresh());  // an empty sequence stores nothing
  ASSERT_TRUE(m.Insert(1, 3).ok());
  EXPECT_TRUE(m.Fresh());
}

TEST(MaintainTest, CumulativeUpdatePropagatesDelta) {
  ViewModel m({1, 2, 3, 4}, WindowSpec::Cumulative(), SeqAggFn::kSum);
  const Result<size_t> touched = m.Update(2, 10);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(*touched, 3u);  // positions 2..4
  EXPECT_TRUE(m.Fresh());
}

// Randomized property sweep: mixed update/insert/delete streams through
// PropagateBase* must leave the view identical to a fresh recomputation,
// for SUM, MIN and MAX and across window shapes, with and without pos
// indexes on the base and the view.
class MaintainSweep
    : public ::testing::TestWithParam<std::tuple<int, int, SeqAggFn>> {};

TEST_P(MaintainSweep, RandomOperationStreamMatchesRecompute) {
  const auto& [l, h, fn] = GetParam();
  if (l + h == 0) GTEST_SKIP();
  const WindowSpec spec = WindowSpec::SlidingUnchecked(l, h);
  for (const bool indexed : {true, false}) {
    std::mt19937 rng(91 + l * 13 + h * 7 + static_cast<int>(fn));
    std::uniform_int_distribution<int> value(-9, 9);
    ViewModel m(RandomData(25, 17), spec, fn, indexed);
    for (int step = 0; step < 60; ++step) {
      const int n = static_cast<int>(m.x().size());
      const int op = n == 0 ? 1 : static_cast<int>(rng() % 3);
      Status status;
      if (op == 0) {
        status = m.Update(1 + static_cast<int>(rng() % n), value(rng)).status();
      } else if (op == 1) {
        status = m.Insert(1 + static_cast<int>(rng() % (n + 1)), value(rng))
                     .status();
      } else {
        status = m.Delete(1 + static_cast<int>(rng() % n)).status();
      }
      ASSERT_TRUE(status.ok()) << status.ToString();
      ASSERT_TRUE(m.Fresh()) << "step " << step << " op " << op
                             << " n=" << m.x().size()
                             << " indexed=" << indexed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MaintainSweep,
    ::testing::Combine(::testing::Values(0, 1, 3), ::testing::Values(0, 1, 2),
                       ::testing::Values(SeqAggFn::kSum, SeqAggFn::kMin,
                                         SeqAggFn::kMax)));

}  // namespace
}  // namespace rfv
