#include <gtest/gtest.h>

#include "exec/operators.h"
#include "expr/builder.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;
using testutil::RowsEqual;

// --- position-join predicate analysis --------------------------------------

// TryExtractBandJoin is the one analysis both position joins consume;
// these run it the way the index nested-loop join does (indexed keys
// only).
class BandExtractionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "matseq", Schema({ColumnDef("pos", DataType::kInt64),
                          ColumnDef("val", DataType::kDouble)}));
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(
          table_->Insert(Row({Value::Int(i), Value::Double(i)})).ok());
    }
    ASSERT_TRUE(table_->CreateIndex("pk", "pos").ok());
  }

  std::optional<BandJoinSpec> Extract(const Expr& cond) {
    return TryExtractBandJoin(cond, kLeftWidth, table_.get(),
                              /*require_index=*/true);
  }

  // Joined schema: left = (pos, val) columns 0-1, right = columns 2-3.
  static constexpr size_t kLeftWidth = 2;
  static constexpr size_t kRightPos = 2;

  std::unique_ptr<Table> table_;
};

/// Asserts the spec is exact, keys on the right `pos`, and has `bands`
/// point bands and no residual.
void ExpectExactPoints(const std::optional<BandJoinSpec>& spec,
                       size_t bands) {
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->right_column, 0u);
  ASSERT_EQ(spec->bands.size(), bands);
  for (const BandSpec& b : spec->bands) {
    EXPECT_TRUE(b.is_point);
    EXPECT_EQ(b.modulus, 0);
  }
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, EqualityPoint) {
  // right.pos = left.pos + 1: the lone point BuildJoin sends to the index.
  const ExprPtr cond =
      eb::Eq(eb::Col(kRightPos, DataType::kInt64),
             eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const auto spec = Extract(*cond);
  ExpectExactPoints(spec, 1);
  EXPECT_TRUE(spec.has_value() && spec->IsLonePoint());
}

TEST_F(BandExtractionTest, ReversedEquality) {
  const ExprPtr cond = eb::Eq(eb::Col(0, DataType::kInt64),
                              eb::Col(kRightPos, DataType::kInt64));
  const auto spec = Extract(*cond);
  ExpectExactPoints(spec, 1);
  EXPECT_TRUE(spec.has_value() && spec->IsLonePoint());
}

TEST_F(BandExtractionTest, InWithRightColumnNeedle) {
  // right.pos IN (left.pos - 1, left.pos)
  std::vector<ExprPtr> candidates;
  candidates.push_back(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Col(0, DataType::kInt64));
  const ExprPtr cond =
      eb::In(eb::Col(kRightPos, DataType::kInt64), std::move(candidates));
  const auto spec = Extract(*cond);
  ExpectExactPoints(spec, 2);
  EXPECT_TRUE(spec.has_value() && !spec->IsLonePoint());
}

TEST_F(BandExtractionTest, InvertedInPaperFig2Shape) {
  // left.pos IN (right.pos - 1, right.pos, right.pos + 1)
  std::vector<ExprPtr> candidates;
  candidates.push_back(
      eb::Sub(eb::Col(kRightPos, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Col(kRightPos, DataType::kInt64));
  candidates.push_back(
      eb::Add(eb::Col(kRightPos, DataType::kInt64), eb::Int(1)));
  const ExprPtr cond =
      eb::In(eb::Col(0, DataType::kInt64), std::move(candidates));
  ExpectExactPoints(Extract(*cond), 3);
}

TEST_F(BandExtractionTest, BetweenRange) {
  const ExprPtr cond = eb::Between(
      eb::Col(kRightPos, DataType::kInt64),
      eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(2)),
      eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  const BandSpec& band = spec->bands[0];
  EXPECT_NE(band.lo, nullptr);
  EXPECT_NE(band.hi, nullptr);
  EXPECT_FALSE(band.is_point || band.lo_strict || band.hi_strict);
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, StrictBoundIsExactStrictBand) {
  // right.pos < left.pos: an exact upper bound tightened at runtime,
  // with nothing left to re-check.
  const ExprPtr cond = eb::Lt(eb::Col(kRightPos, DataType::kInt64),
                              eb::Col(0, DataType::kInt64));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  const BandSpec& band = spec->bands[0];
  EXPECT_EQ(band.lo, nullptr);
  ASSERT_NE(band.hi, nullptr);
  EXPECT_TRUE(band.hi_strict);
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);

  // The left row pos = 5 resolves the band to keys (-inf, 4].
  ResolvedBand resolved;
  ASSERT_TRUE(ResolveBand(band, Row({Value::Int(5), Value::Double(0)}),
                          &resolved)
                  .ok());
  EXPECT_FALSE(resolved.empty);
  EXPECT_EQ(resolved.hi, 4);
}

TEST_F(BandExtractionTest, RangeConjunctsFoldIntoOneBand) {
  // right.pos >= left.pos - 3 AND right.pos <= left.pos
  const ExprPtr cond = eb::And(
      eb::Ge(eb::Col(kRightPos, DataType::kInt64),
             eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(3))),
      eb::Le(eb::Col(kRightPos, DataType::kInt64),
             eb::Col(0, DataType::kInt64)));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  EXPECT_NE(spec->bands[0].lo, nullptr);
  EXPECT_NE(spec->bands[0].hi, nullptr);
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, DisjunctionIsOneStrideBandPerBranch) {
  // The MaxOA Fig. 10 shape: (r < l AND MOD..) OR (r < l - 4 AND MOD..).
  const auto mod_eq = [&](int64_t shift) {
    return eb::Eq(
        eb::Mod(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(shift)),
                eb::Int(4)),
        eb::Mod(eb::Col(kRightPos, DataType::kInt64), eb::Int(4)));
  };
  ExprPtr branch1 = eb::And(eb::Gt(eb::Col(0, DataType::kInt64),
                                   eb::Col(kRightPos, DataType::kInt64)),
                            mod_eq(0));
  ExprPtr branch2 = eb::And(
      eb::Gt(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(4)),
             eb::Col(kRightPos, DataType::kInt64)),
      mod_eq(1));
  const ExprPtr cond = eb::Or(std::move(branch1), std::move(branch2));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 2u);
  for (const BandSpec& band : spec->bands) {
    EXPECT_EQ(band.modulus, 4);
    EXPECT_NE(band.anchor, nullptr);
    EXPECT_EQ(band.lo, nullptr);
    ASSERT_NE(band.hi, nullptr);
    EXPECT_TRUE(band.hi_strict);
  }
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, SecondBandSourceStaysInResidual) {
  // right.pos IN (left.pos - 1, left.pos + 1) AND right.pos >= left.pos:
  // the IN list's points are the bands, the range a residual check.
  std::vector<ExprPtr> candidates;
  candidates.push_back(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const ExprPtr cond = eb::And(
      eb::In(eb::Col(kRightPos, DataType::kInt64), std::move(candidates)),
      eb::Ge(eb::Col(kRightPos, DataType::kInt64),
             eb::Col(0, DataType::kInt64)));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->bands.size(), 2u);
  EXPECT_FALSE(spec->approximate);
  ASSERT_NE(spec->residual, nullptr);
  EXPECT_EQ(spec->residual->kind, ExprKind::kBinary);
  EXPECT_EQ(spec->residual->binary_op, BinaryOp::kGe);
}

TEST_F(BandExtractionTest, InListInsideDisjunctionIsPointBands) {
  // (right.pos IN (left.pos - 1, left.pos + 2)) OR right.pos = left.pos - 5
  std::vector<ExprPtr> candidates;
  candidates.push_back(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Add(eb::Col(0, DataType::kInt64), eb::Int(2)));
  const ExprPtr cond = eb::Or(
      eb::In(eb::Col(kRightPos, DataType::kInt64), std::move(candidates)),
      eb::Eq(eb::Col(kRightPos, DataType::kInt64),
             eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(5))));
  ExpectExactPoints(Extract(*cond), 3);
}

TEST_F(BandExtractionTest, NoIndexNoProbe) {
  Table no_index("t", Schema({ColumnDef("pos", DataType::kInt64)}));
  const ExprPtr cond =
      eb::Eq(eb::Col(1, DataType::kInt64), eb::Col(0, DataType::kInt64));
  EXPECT_FALSE(TryExtractBandJoin(*cond, 1, &no_index, /*require_index=*/true)
                   .has_value());
  // The merge band join takes any INTEGER key.
  EXPECT_TRUE(TryExtractBandJoin(*cond, 1, &no_index).has_value());
}

TEST_F(BandExtractionTest, UnusableConditionNoProbe) {
  // MOD(right.pos, 4) = 2 — no usable pattern on the raw column.
  const ExprPtr cond = eb::Eq(
      eb::Mod(eb::Col(kRightPos, DataType::kInt64), eb::Int(4)), eb::Int(2));
  EXPECT_FALSE(Extract(*cond).has_value());
}

// --- end-to-end equivalence: band == index == nested loop -----------------

struct JoinCase {
  const char* name;
  const char* sql;
};

/// The MaxOA Fig. 10 shape: two strided bands, OR-ed.
constexpr const char* kDisjunctiveModSql =
    "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE "
    "((s1.pos > s2.pos) AND (MOD(s1.pos, 4) = MOD(s2.pos, 4))) "
    "OR ((s1.pos - 4 > s2.pos) AND (MOD(s1.pos - 1, 4) = "
    "MOD(s2.pos, 4))) GROUP BY s1.pos ORDER BY 1";

/// A position-join predicate with the join operator each plan leg runs.
struct PositionJoinCase {
  const char* name;
  const char* sql;
  const char* default_join;  ///< all strategies enabled
  const char* index_join;    ///< merge band join disabled
};

/// Name of the one join operator in a result's plan ("" when none).
std::string JoinOperator(const ResultSet& rs) {
  std::string found;
  for (const OperatorMetricsEntry& e : rs.metrics()) {
    const std::string& name = e.name;
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, "join") == 0) {
      EXPECT_TRUE(found.empty()) << "two joins: " << found << ", " << name;
      found = name;
    }
  }
  return found;
}

class JoinEquivalenceTest
    : public ::testing::TestWithParam<PositionJoinCase> {};

TEST_P(JoinEquivalenceTest, BandIndexAndNestedLoopAgree) {
  const PositionJoinCase& c = GetParam();
  Database db;
  CreateSeqTable(db, 60);
  const ResultSet by_default = MustExecute(db, c.sql);
  EXPECT_EQ(JoinOperator(by_default), c.default_join);

  db.options().exec.enable_merge_band_join = false;
  const ResultSet by_index = MustExecute(db, c.sql);
  EXPECT_EQ(JoinOperator(by_index), c.index_join);

  db.options().exec.enable_index_nested_loop_join = false;
  db.options().exec.enable_hash_join = false;
  const ResultSet by_nested_loop = MustExecute(db, c.sql);
  EXPECT_EQ(JoinOperator(by_nested_loop), "nested_loop_join");

  EXPECT_TRUE(RowsEqual(by_default, by_nested_loop)) << c.name;
  EXPECT_TRUE(RowsEqual(by_index, by_nested_loop)) << c.name;
}

// Predicates that mix two band sources, or nest an IN list in an OR:
// band, index and nested-loop plans agree, and the index join still
// takes them with the band join off.
TEST(MixedBandSourcesTest, BandIndexAndNestedLoopAgree) {
  Database db;
  CreateSeqTable(db, 60);
  const char* const queries[] = {
      "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos IN (s1.pos - "
      "1, s1.pos + 1) AND s2.pos >= s1.pos ORDER BY 1, 2",
      "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE (s2.pos IN (s1.pos - "
      "1, s1.pos + 2)) OR s2.pos = s1.pos - 5 ORDER BY 1, 2",
      "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos < s1.pos AND "
      "(s2.pos = s1.pos - 3 OR s2.pos = s1.pos - 4) ORDER BY 1, 2",
  };
  const ExecOptions defaults = db.options().exec;
  for (const char* sql : queries) {
    db.options().exec = defaults;
    const ResultSet by_default = MustExecute(db, sql);
    EXPECT_EQ(JoinOperator(by_default), "merge_band_join") << sql;
    db.options().exec.enable_merge_band_join = false;
    const ResultSet by_index = MustExecute(db, sql);
    EXPECT_EQ(JoinOperator(by_index), "index_nested_loop_join") << sql;
    db.options().exec.enable_index_nested_loop_join = false;
    db.options().exec.enable_hash_join = false;
    const ResultSet by_nested_loop = MustExecute(db, sql);
    EXPECT_TRUE(RowsEqual(by_default, by_nested_loop)) << sql;
    EXPECT_TRUE(RowsEqual(by_index, by_nested_loop)) << sql;
  }
}

// Hash join must agree with nested loops on every equi-join shape,
// including duplicates, NULL keys and left outer joins.
class EquiJoinEquivalenceTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(EquiJoinEquivalenceTest, AllEquiStrategiesAgree) {
  Database db;
  MustExecute(db, "CREATE TABLE l (k INTEGER, v DOUBLE)");
  MustExecute(db, "CREATE TABLE r (k INTEGER, w DOUBLE)");
  MustExecute(db,
              "INSERT INTO l VALUES (1, 10), (2, 20), (2, 21), (3, 30), "
              "(NULL, 40), (7, 70)");
  MustExecute(db,
              "INSERT INTO r VALUES (2, 200), (2, 201), (3, 300), "
              "(NULL, 400), (9, 900)");
  const std::string sql = GetParam().sql;

  const ResultSet hash = MustExecute(db, sql);

  db.options().exec.enable_hash_join = false;
  db.options().exec.enable_index_nested_loop_join = false;
  const ResultSet nlj = MustExecute(db, sql);

  EXPECT_TRUE(RowsEqual(hash, nlj)) << GetParam().name << " (hash vs nlj)";
}

INSTANTIATE_TEST_SUITE_P(
    EquiShapes, EquiJoinEquivalenceTest,
    ::testing::Values(
        JoinCase{"inner_with_duplicates",
                 "SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k ORDER BY "
                 "1, 2, 3"},
        JoinCase{"left_outer_null_padding",
                 "SELECT l.k, l.v, r.w FROM l LEFT OUTER JOIN r ON l.k = "
                 "r.k ORDER BY 2, 3"},
        JoinCase{"residual_condition",
                 "SELECT l.k, r.w FROM l JOIN r ON l.k = r.k AND l.v + r.w "
                 "> 220 ORDER BY 1, 2"},
        JoinCase{"computed_keys",
                 "SELECT l.k, r.k FROM l JOIN r ON l.k + 1 = r.k - 1 ORDER "
                 "BY 1, 2"},
        JoinCase{"aggregate_above",
                 "SELECT l.k, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY "
                 "l.k ORDER BY 1"}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.name;
    });

constexpr const char* kBand = "merge_band_join";
constexpr const char* kIndex = "index_nested_loop_join";
// The pushed-down `s2.val > 0` leaves a filter, not a bare scan, on the
// right: neither position join applies.
constexpr const char* kHash = "hash_join";

INSTANTIATE_TEST_SUITE_P(
    Predicates, JoinEquivalenceTest,
    ::testing::Values(
        PositionJoinCase{"equality",
                         "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE "
                         "s1.pos = s2.pos ORDER BY 1, 2",
                         kIndex, kIndex},
        PositionJoinCase{"shifted_equality",
                         "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE "
                         "s2.pos = s1.pos + 3 ORDER BY 1, 2",
                         kIndex, kIndex},
        PositionJoinCase{"in_right_needle",
                         "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE "
                         "s2.pos IN (s1.pos - 1, s1.pos) ORDER BY 1, 2",
                         kBand, kIndex},
        PositionJoinCase{"in_inverted_fig2",
                         "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE "
                         "s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1) ORDER BY "
                         "1, 2",
                         kBand, kIndex},
        PositionJoinCase{"between",
                         "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE "
                         "s2.pos BETWEEN s1.pos - 2 AND s1.pos + 2 ORDER BY "
                         "1, 2",
                         kBand, kIndex},
        PositionJoinCase{"strict_range",
                         "SELECT s1.pos, COUNT(*) FROM seq s1, seq s2 WHERE "
                         "s2.pos < s1.pos GROUP BY s1.pos ORDER BY 1",
                         kBand, kIndex},
        PositionJoinCase{"two_sided_range",
                         "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 "
                         "WHERE s2.pos >= s1.pos - 3 AND s2.pos <= s1.pos "
                         "GROUP BY s1.pos ORDER BY 1",
                         kBand, kIndex},
        PositionJoinCase{"disjunctive_mod", kDisjunctiveModSql, kBand, kIndex},
        PositionJoinCase{"left_outer",
                         "SELECT s1.pos, s2.pos FROM seq s1 LEFT OUTER JOIN "
                         "seq s2 ON s2.pos = s1.pos - 50 ORDER BY 1, 2",
                         kIndex, kIndex},
        PositionJoinCase{"residual_filter",
                         "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE "
                         "s2.pos = s1.pos + 1 AND s2.val > 0 ORDER BY 1, 2",
                         kHash, kHash}),
    [](const ::testing::TestParamInfo<PositionJoinCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace rfv
