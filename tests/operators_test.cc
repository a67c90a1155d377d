// Tests for the scan/filter and hash-join operators.

#include "runtime/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Decimal128;
using columnar::Schema;
using columnar::Table;

std::shared_ptr<Table> FactTable() {
  Schema schema;
  schema.AddField({"fk", DataType::kInt32, false});
  schema.AddField({"v", DataType::kFloat64, false});
  schema.AddField({"tag", DataType::kString, false});
  schema.AddField({"nullable", DataType::kInt64, true});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < 1000; ++i) {
    t->column(0).AppendInt32(i % 10);
    t->column(1).AppendDouble(i * 0.5);
    t->column(2).AppendString(i % 3 == 0 ? "hot" : "cold");
    if (i % 7 == 0) t->column(3).AppendNull();
    else t->column(3).AppendInt64(i);
  }
  return t;
}

TEST(FilterScanTest, NoPredicatesSelectsEverything) {
  auto t = FactTable();
  auto sel = FilterScan(*t, {}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 1000u);
  EXPECT_EQ((*sel)[0], 0u);
  EXPECT_EQ((*sel)[999], 999u);
}

TEST(FilterScanTest, NumericOperators) {
  auto t = FactTable();
  struct Case {
    CmpOp op;
    double lo, hi;
    size_t expected;
  };
  // v = i * 0.5, i in [0, 1000)
  const Case cases[] = {
      {CmpOp::kLt, 5.0, 0, 10},        // i < 10
      {CmpOp::kLe, 5.0, 0, 11},        // i <= 10
      {CmpOp::kGt, 498.5, 0, 2},       // i > 997
      {CmpOp::kGe, 498.5, 0, 3},       // i >= 997
      {CmpOp::kEq, 100.0, 0, 1},       // i == 200
      {CmpOp::kNe, 100.0, 0, 999},
      {CmpOp::kBetween, 10.0, 12.0, 5},  // i in [20, 24]
  };
  for (const Case& c : cases) {
    Predicate p;
    p.column = 1;
    p.op = c.op;
    p.lo = c.lo;
    p.hi = c.hi;
    auto sel = FilterScan(*t, {p}, nullptr);
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(sel->size(), c.expected) << "op " << static_cast<int>(c.op);
  }
}

TEST(FilterScanTest, StringEquality) {
  auto t = FactTable();
  Predicate p;
  p.column = 2;
  p.op = CmpOp::kEq;
  p.str = "hot";
  auto sel = FilterScan(*t, {p}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 334u);  // ceil(1000/3)
}

TEST(FilterScanTest, NullsNeverQualify) {
  auto t = FactTable();
  Predicate p;
  p.column = 3;
  p.op = CmpOp::kGe;
  p.lo = -1e18;
  auto sel = FilterScan(*t, {p}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 1000u - 143u);  // 143 nulls (i % 7 == 0)
}

TEST(FilterScanTest, ConjunctionAndParallelStability) {
  auto t = FactTable();
  Predicate a;
  a.column = 0;
  a.op = CmpOp::kEq;
  a.lo = 3;
  Predicate b;
  b.column = 2;
  b.op = CmpOp::kEq;
  b.str = "hot";
  ThreadPool pool(3);
  auto sel = FilterScan(*t, {a, b}, &pool);
  ASSERT_TRUE(sel.ok());
  auto serial = FilterScan(*t, {a, b}, nullptr);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*sel, *serial);  // ascending row ids either way
  for (uint32_t row : *sel) {
    EXPECT_EQ(t->column(0).int32_data()[row], 3);
    EXPECT_EQ(t->column(2).string_data()[row], "hot");
  }
}

TEST(FilterScanTest, BadColumnRejected) {
  auto t = FactTable();
  Predicate p;
  p.column = 42;
  EXPECT_FALSE(FilterScan(*t, {p}, nullptr).ok());
}

// ---------------------------------------------------------------------------
// Differential tests of the batch kernel (SelectRows / FilterScan) against
// the per-row RowMatchesPredicates, over seeded random tables spanning
// more than two 65536-row morsels.

constexpr uint64_t kDiffRows = 150001;
constexpr double kTwo53 = 9007199254740992.0;  // 2^53

// One column per (type, nullable) pair, in this order:
// int32, date, int64, float64, decimal128, string; column 2*t is
// non-null, 2*t + 1 has ~15% NULLs. int64 values include +-(2^53 + 1)
// and +-2^53, which round to the same double; float64 values include
// NaN and +-inf.
const DataType kDiffTypes[] = {DataType::kInt32,   DataType::kDate,
                               DataType::kInt64,   DataType::kFloat64,
                               DataType::kDecimal128, DataType::kString};

void AppendRandom(columnar::Column* col, Rng* rng) {
  switch (col->type()) {
    case DataType::kInt32:
    case DataType::kDate:
      col->AppendInt32(static_cast<int32_t>(rng->Range(-20, 20)));
      break;
    case DataType::kInt64: {
      const int64_t big = (int64_t{1} << 53) + 1;
      const int64_t specials[] = {big, -big, big - 1, -(big - 1)};
      if (rng->Below(4) == 0) {
        col->AppendInt64(specials[rng->Below(4)]);
      } else {
        col->AppendInt64(rng->Range(-20, 20));
      }
      break;
    }
    case DataType::kFloat64: {
      const double specials[] = {std::nan(""), INFINITY, -INFINITY};
      if (rng->Below(8) == 0) {
        col->AppendDouble(specials[rng->Below(3)]);
      } else {
        col->AppendDouble(static_cast<double>(rng->Range(-40, 40)) / 2.0);
      }
      break;
    }
    case DataType::kDecimal128:
      col->AppendDecimal(Decimal128(rng->Range(-20, 20)));
      break;
    case DataType::kString:
      col->AppendString(std::string(1, static_cast<char>('a' + rng->Below(6))));
      break;
  }
}

std::shared_ptr<Table> DiffTable(uint64_t rows, uint64_t seed) {
  Schema schema;
  for (DataType type : kDiffTypes) {
    const std::string name = columnar::DataTypeName(type);
    schema.AddField({name, type, false});
    schema.AddField({name + "_null", type, true});
  }
  auto t = std::make_shared<Table>(schema);
  Rng rng(seed);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      if (c % 2 == 1 && rng.Below(100) < 15) {
        t->column(c).AppendNull();
      } else {
        AppendRandom(&t->column(c), &rng);
      }
    }
  }
  return t;
}

// Bounds for numeric predicates: exact hits, fractions, the 2^53 rounding
// boundary, and the non-finite values.
const double kBounds[] = {0.0,     -3.0,    7.5,      20.0,    -kTwo53,
                          kTwo53,  kTwo53 + 2, INFINITY, -INFINITY,
                          std::nan("")};

Predicate RandomPredicate(const Table& t, int column, Rng* rng) {
  Predicate p;
  p.column = column;
  p.op = static_cast<CmpOp>(rng->Below(7));
  p.lo = kBounds[rng->Below(std::size(kBounds))];
  p.hi = kBounds[rng->Below(std::size(kBounds))];
  if (t.column(static_cast<size_t>(column)).type() == DataType::kString) {
    p.str = std::string(1, static_cast<char>('a' + rng->Below(6)));
  }
  return p;
}

std::vector<uint32_t> ReferenceSelection(
    const Table& t, const std::vector<Predicate>& predicates,
    const std::vector<uint32_t>* input = nullptr) {
  std::vector<uint32_t> out;
  const uint64_t n = input != nullptr ? input->size() : t.num_rows();
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t row =
        input != nullptr ? (*input)[i] : static_cast<uint32_t>(i);
    if (RowMatchesPredicates(t, predicates, row)) out.push_back(row);
  }
  return out;
}

std::string Describe(const Table& t, const std::vector<Predicate>& preds) {
  std::string s;
  for (const Predicate& p : preds) {
    s += t.schema().field(static_cast<size_t>(p.column)).name + " op" +
         std::to_string(static_cast<int>(p.op)) + " [" +
         std::to_string(p.lo) + ", " + std::to_string(p.hi) + "] '" + p.str +
         "'; ";
  }
  return s;
}

// FilterScan with a pool and serially must both equal the per-row
// reference.
void ExpectMatchesReference(const Table& t,
                            const std::vector<Predicate>& preds,
                            ThreadPool* pool) {
  const std::vector<uint32_t> expected = ReferenceSelection(t, preds);
  auto pooled = FilterScan(t, preds, pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(*pooled, expected) << Describe(t, preds);
  auto serial = FilterScan(t, preds, nullptr);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*serial, expected) << Describe(t, preds);
}

TEST(SelectRowsTest, EveryTypeAndOperatorMatchesPerRowReference) {
  auto t = DiffTable(kDiffRows, 11);
  ThreadPool pool(3);
  Rng rng(5);
  for (int c = 0; c < static_cast<int>(t->num_columns()); ++c) {
    for (int op = 0; op < 7; ++op) {
      for (int rep = 0; rep < 2; ++rep) {
        Predicate p = RandomPredicate(*t, c, &rng);
        p.op = static_cast<CmpOp>(op);
        // Always one in-domain bound so selections are non-trivial.
        if (rep == 0) {
          p.lo = -3.0;
          p.hi = 7.5;
        }
        ExpectMatchesReference(*t, {p}, &pool);
      }
    }
  }
}

TEST(SelectRowsTest, Int64RoundingAndNonFiniteBounds) {
  auto t = DiffTable(kDiffRows, 12);
  ThreadPool pool(3);
  for (int c : {4, 5, 6, 7}) {  // int64, int64_null, float64, float64_null
    for (int op = 0; op < 7; ++op) {
      for (double lo : kBounds) {
        Predicate p;
        p.column = c;
        p.op = static_cast<CmpOp>(op);
        p.lo = lo;
        p.hi = kTwo53;
        ExpectMatchesReference(*t, {p}, &pool);
      }
    }
  }
  // 2^53 + 1 widens to 2^53 exactly as Column::GetDouble does, so an
  // equality bound of 2^53 selects it.
  Predicate eq;
  eq.column = 4;
  eq.op = CmpOp::kEq;
  eq.lo = kTwo53;
  auto sel = FilterScan(*t, {eq}, &pool);
  ASSERT_TRUE(sel.ok());
  ASSERT_FALSE(sel->empty());
  const int64_t two53 = int64_t{1} << 53;
  bool saw_plus_one = false;
  for (uint32_t row : *sel) {
    const int64_t v = t->column(4).int64_data()[row];
    EXPECT_TRUE(v == two53 || v == two53 + 1) << v;
    saw_plus_one |= v == two53 + 1;
  }
  EXPECT_TRUE(saw_plus_one);
}

TEST(SelectRowsTest, ConjunctionsOfOneToThreePredicates) {
  auto t = DiffTable(kDiffRows, 13);
  ThreadPool pool(3);
  Rng rng(17);
  const int ncols = static_cast<int>(t->num_columns());
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + static_cast<int>(rng.Below(3));
    std::vector<Predicate> preds;
    for (int i = 0; i < k; ++i) {
      preds.push_back(
          RandomPredicate(*t, static_cast<int>(rng.Below(ncols)), &rng));
      if (rng.Below(2) == 0) {  // keep selections from collapsing to zero
        preds.back().op = CmpOp::kBetween;
        preds.back().lo = -15;
        preds.back().hi = 15;
      }
    }
    ExpectMatchesReference(*t, preds, &pool);
  }
  // Two predicates on the same column: a range built from two halves.
  for (int c = 0; c < ncols; ++c) {
    Predicate ge;
    ge.column = c;
    ge.op = CmpOp::kGe;
    ge.lo = -5;
    ge.str = "b";
    Predicate lt;
    lt.column = c;
    lt.op = CmpOp::kLt;
    lt.lo = 6;
    lt.str = "e";
    ExpectMatchesReference(*t, {ge, lt}, &pool);
    ExpectMatchesReference(*t, {ge, lt, ge}, &pool);
  }
}

TEST(SelectRowsTest, FirstPredicatePassingNoRowAndEmptyTable) {
  auto t = DiffTable(kDiffRows, 14);
  ThreadPool pool(3);
  Predicate none;
  none.column = 0;
  none.op = CmpOp::kGt;
  none.lo = 1000;
  Predicate any;
  any.column = 6;
  any.op = CmpOp::kNe;
  any.lo = 1;
  ExpectMatchesReference(*t, {none, any}, &pool);
  auto sel = FilterScan(*t, {none, any}, &pool);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->empty());

  auto empty = DiffTable(0, 1);
  for (int c = 0; c < static_cast<int>(empty->num_columns()); ++c) {
    Predicate p;
    p.column = c;
    p.op = CmpOp::kGe;
    p.lo = 0;
    ExpectMatchesReference(*empty, {p}, &pool);
  }
  ExpectMatchesReference(*empty, {}, &pool);
}

TEST(SelectRowsTest, InputSelectionInPlaceAndNoPredicates) {
  auto t = DiffTable(kDiffRows, 15);
  std::vector<uint32_t> strided;
  for (uint32_t row = 3; row < kDiffRows; row += 7) strided.push_back(row);
  Predicate a;
  a.column = 1;  // int32_null
  a.op = CmpOp::kBetween;
  a.lo = -10;
  a.hi = 10;
  Predicate b;
  b.column = 11;  // string_null
  b.op = CmpOp::kNe;
  b.str = "c";
  for (const std::vector<Predicate>& preds :
       {std::vector<Predicate>{}, std::vector<Predicate>{a},
        std::vector<Predicate>{a, b}}) {
    const std::vector<uint32_t> expected =
        ReferenceSelection(*t, preds, &strided);
    // A slice of the selection into a separate buffer ...
    const MorselRange all{0, strided.size()};
    std::vector<uint32_t> out(strided.size());
    out.resize(SelectRows(*t, preds, all, strided.data(), out.data()));
    EXPECT_EQ(out, expected) << Describe(*t, preds);
    // ... and in place, over a range that does not start at zero.
    std::vector<uint32_t> buf = strided;
    const MorselRange tail{100, strided.size()};
    const uint64_t n =
        SelectRows(*t, preds, tail, buf.data(), buf.data() + tail.begin);
    const std::vector<uint32_t> tail_in(strided.begin() + 100, strided.end());
    EXPECT_EQ(std::vector<uint32_t>(buf.begin() + 100, buf.begin() + 100 + n),
              ReferenceSelection(*t, preds, &tail_in));
  }
}

std::shared_ptr<Table> DimTable(int rows) {
  Schema schema;
  schema.AddField({"pk", DataType::kInt32, false});
  schema.AddField({"attr", DataType::kInt32, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendInt32(i);
    t->column(1).AppendInt32(i % 2);
  }
  return t;
}

TEST(HashJoinTest, MatchesAllFactRowsWithMatchingKeys) {
  auto fact = FactTable();     // fk in [0, 10)
  auto dim = DimTable(10);
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, *dim, spec, nullptr, nullptr, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1000u);
  for (size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ(fact->column(0).int32_data()[r->fact_rows[i]],
              dim->column(0).int32_data()[r->dim_rows[i]]);
  }
}

TEST(HashJoinTest, DimSelectionActsAsSemiJoinFilter) {
  auto fact = FactTable();
  auto dim = DimTable(10);
  // Only dim rows with attr == 0 (even pks).
  Predicate p;
  p.column = 1;
  p.op = CmpOp::kEq;
  p.lo = 0;
  auto dim_sel = FilterScan(*dim, {p}, nullptr);
  ASSERT_TRUE(dim_sel.ok());
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, *dim, spec, nullptr, nullptr, &dim_sel.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 500u);  // half the fk values survive
  for (uint32_t row : r->fact_rows) {
    EXPECT_EQ(fact->column(0).int32_data()[row] % 2, 0);
  }
}

TEST(HashJoinTest, FactSelectionRespected) {
  auto fact = FactTable();
  auto dim = DimTable(5);  // pks 0..4: fk 5..9 dangle
  std::vector<uint32_t> fact_sel = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, *dim, spec, nullptr, &fact_sel, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);  // fks 0..4 match
}

TEST(HashJoinTest, DuplicateBuildKeyRejected) {
  auto fact = FactTable();
  Schema schema;
  schema.AddField({"pk", DataType::kInt32, false});
  Table dim(schema);
  dim.column(0).AppendInt32(1);
  dim.column(0).AppendInt32(1);
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, dim, spec, nullptr, nullptr, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Per-row reference join through std::unordered_map, in fact-row order.
JoinResult ReferenceJoin(const Table& fact, const Table& dim,
                         const JoinSpec& spec,
                         const std::vector<uint32_t>* fact_sel,
                         const std::vector<uint32_t>* dim_sel) {
  const columnar::Column& fk = fact.column(spec.fact_fk_column);
  const columnar::Column& pk = dim.column(spec.dim_pk_column);
  std::unordered_map<int64_t, uint32_t> build;
  const uint64_t nd = dim_sel ? dim_sel->size() : dim.num_rows();
  for (uint64_t i = 0; i < nd; ++i) {
    const uint32_t row = dim_sel ? (*dim_sel)[i] : static_cast<uint32_t>(i);
    if (!pk.IsNull(row)) build.emplace(pk.GetInt64(row), row);
  }
  JoinResult out;
  const uint64_t nf = fact_sel ? fact_sel->size() : fact.num_rows();
  for (uint64_t i = 0; i < nf; ++i) {
    const uint32_t row = fact_sel ? (*fact_sel)[i] : static_cast<uint32_t>(i);
    if (fk.IsNull(row)) continue;
    auto it = build.find(fk.GetInt64(row));
    if (it == build.end()) continue;
    out.fact_rows.push_back(row);
    out.dim_rows.push_back(it->second);
  }
  return out;
}

// Fact: int32 fk, nullable int32 fk, int64 fk, nullable int64 fk, all in
// [0, 1200) so keys past the dimension's 1000 rows dangle; then a filter
// column. Dim: shuffled int32 pk, int64 pk, attr.
std::shared_ptr<Table> JoinFact(uint64_t rows) {
  Schema schema;
  schema.AddField({"fk32", DataType::kInt32, false});
  schema.AddField({"fk32_null", DataType::kInt32, true});
  schema.AddField({"fk64", DataType::kInt64, false});
  schema.AddField({"fk64_null", DataType::kInt64, true});
  schema.AddField({"sel", DataType::kInt32, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(21);
  for (uint64_t r = 0; r < rows; ++r) {
    t->column(0).AppendInt32(static_cast<int32_t>(rng.Below(1200)));
    if (rng.Below(10) == 0) t->column(1).AppendNull();
    else t->column(1).AppendInt32(static_cast<int32_t>(rng.Below(1200)));
    t->column(2).AppendInt64(rng.Range(0, 1199));
    if (rng.Below(10) == 0) t->column(3).AppendNull();
    else t->column(3).AppendInt64(rng.Range(0, 1199));
    t->column(4).AppendInt32(static_cast<int32_t>(rng.Below(100)));
  }
  return t;
}

std::shared_ptr<Table> JoinDim(int rows) {
  Schema schema;
  schema.AddField({"pk32", DataType::kInt32, false});
  schema.AddField({"pk64", DataType::kInt64, false});
  schema.AddField({"attr", DataType::kInt32, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < rows; ++i) {
    const int key = (i * 7919) % rows;  // a permutation of [0, rows)
    t->column(0).AppendInt32(key);
    t->column(1).AppendInt64(key);
    t->column(2).AppendInt32(i % 3);
  }
  return t;
}

void ExpectSameJoin(const JoinResult& got, const JoinResult& want) {
  ASSERT_EQ(got.fact_rows.size(), want.fact_rows.size());
  ASSERT_EQ(got.dim_rows.size(), want.dim_rows.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.fact_rows[i], want.fact_rows[i]) << "pair " << i;
    ASSERT_EQ(got.dim_rows[i], want.dim_rows[i]) << "pair " << i;
  }
}

TEST(HashJoinTest, TypedProbeMatchesReferenceOverMorselsAndSelections) {
  auto fact = JoinFact(kDiffRows);
  auto dim = JoinDim(1000);
  ThreadPool pool(3);
  Predicate sel_p;
  sel_p.column = 4;
  sel_p.op = CmpOp::kLt;
  sel_p.lo = 90;
  auto fact_sel = FilterScan(*fact, {sel_p}, &pool);
  ASSERT_TRUE(fact_sel.ok());
  ASSERT_GT(fact_sel->size(), 2 * 65536u);  // a multi-morsel selection
  Predicate attr_p;
  attr_p.column = 2;
  attr_p.op = CmpOp::kNe;
  attr_p.lo = 1;
  auto dim_sel = FilterScan(*dim, {attr_p}, nullptr);
  ASSERT_TRUE(dim_sel.ok());

  const std::vector<uint32_t>* fact_sels[] = {nullptr, &fact_sel.value()};
  const std::vector<uint32_t>* dim_sels[] = {nullptr, &dim_sel.value()};
  // int32, nullable int32, int64 and nullable int64 FKs, against int32
  // and int64 PKs.
  for (int fk = 0; fk < 4; ++fk) {
    for (int pk = 0; pk < 2; ++pk) {
      const JoinSpec spec{fk, pk};
      for (const auto* fs : fact_sels) {
        for (const auto* ds : dim_sels) {
          SCOPED_TRACE("fk " + std::to_string(fk) + " pk " +
                       std::to_string(pk) + " fact_sel " +
                       std::to_string(fs != nullptr) + " dim_sel " +
                       std::to_string(ds != nullptr));
          const JoinResult want = ReferenceJoin(*fact, *dim, spec, fs, ds);
          ASSERT_FALSE(want.fact_rows.empty());
          for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
            auto got = HashJoin(*fact, *dim, spec, p, fs, ds);
            ASSERT_TRUE(got.ok());
            ExpectSameJoin(*got, want);
          }
        }
      }
    }
  }
}

TEST(HashJoinTest, BadColumnsRejected) {
  auto fact = FactTable();
  auto dim = DimTable(5);
  EXPECT_FALSE(HashJoin(*fact, *dim, JoinSpec{-1, 0}, nullptr, nullptr,
                        nullptr)
                   .ok());
  EXPECT_FALSE(HashJoin(*fact, *dim, JoinSpec{0, 9}, nullptr, nullptr,
                        nullptr)
                   .ok());
}

}  // namespace
}  // namespace blusim::runtime
