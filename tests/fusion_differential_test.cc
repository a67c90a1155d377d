// Differential tests for data-path fusion: every query must produce the
// same result with fusion enabled (deferred scan + fused staging + fused
// kernels) and disabled (FilterScan + SoA staging + classic kernels), on
// adversarial inputs -- zero-selectivity predicates, all-NULL payload
// columns, high-duplicate keys, multi-column keys and wide keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/explain.h"
#include "groupby/gpu_groupby.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"
#include "runtime/operators.h"

namespace blusim {
namespace {

using columnar::DataType;
using columnar::Decimal128;
using columnar::Schema;
using columnar::Table;
using core::EngineConfig;
using core::QuerySpec;
using runtime::AggFn;
using runtime::CmpOp;
using runtime::GroupByPlan;
using runtime::GroupBySpec;
using runtime::Predicate;

// Columns: k (int32 key), k2 (int32 key), wk/wk2 (int64 wide-key pair),
// v (nullable int64), f (nullable float64; `nan_frac` of its non-null
// values are NaN, +inf or -inf), dec (decimal), sel (0..99).
std::shared_ptr<Table> MakeFact(uint64_t rows, uint64_t groups, uint64_t seed,
                                double null_frac = 0.2,
                                bool all_null_v = false,
                                double nan_frac = 0.0) {
  Schema schema;
  schema.AddField({"k", DataType::kInt32, false});
  schema.AddField({"k2", DataType::kInt32, false});
  schema.AddField({"wk", DataType::kInt64, false});
  schema.AddField({"wk2", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, true});
  schema.AddField({"f", DataType::kFloat64, true});
  schema.AddField({"dec", DataType::kDecimal128, false});
  schema.AddField({"sel", DataType::kInt32, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt32(static_cast<int32_t>(rng.Below(groups)));
    t->column(1).AppendInt32(static_cast<int32_t>(rng.Below(5)));
    t->column(2).AppendInt64(static_cast<int64_t>(rng.Below(groups)));
    t->column(3).AppendInt64(static_cast<int64_t>(rng.Below(7)));
    if (all_null_v || rng.NextDouble() < null_frac) {
      t->column(4).AppendNull();
    } else {
      t->column(4).AppendInt64(rng.Range(-100, 100));
    }
    if (rng.NextDouble() < null_frac) {
      t->column(5).AppendNull();
    } else if (nan_frac > 0 && rng.NextDouble() < nan_frac) {
      const double specials[] = {std::nan(""), INFINITY, -INFINITY};
      t->column(5).AppendDouble(specials[rng.Below(3)]);
    } else {
      t->column(5).AppendDouble(static_cast<double>(rng.Below(1000)) / 4.0);
    }
    t->column(6).AppendDecimal(Decimal128(rng.Range(-9, 9)));
    t->column(7).AppendInt32(static_cast<int32_t>(rng.Below(100)));
  }
  return t;
}

// Thresholds lowered so these laptop-sized tables route to the device.
EngineConfig FusionConfig(bool fusion) {
  EngineConfig c;
  c.cpu_threads = 2;
  c.device_workers = 2;
  c.device_spec = c.device_spec.WithMemory(64ULL << 20);
  c.pinned_pool_bytes = 64ULL << 20;
  c.thresholds.t1_min_rows = 1000;
  c.thresholds.t2_min_groups = 2;
  c.enable_fusion = fusion;
  return c;
}

Predicate SelBelow(double hi) {
  Predicate p;
  p.column = 7;  // sel
  p.op = CmpOp::kLt;
  p.lo = hi;
  return p;
}

GroupBySpec SumCountSpec(std::vector<int> keys) {
  GroupBySpec g;
  g.key_columns = std::move(keys);
  g.aggregates = {{AggFn::kSum, 4, "sum_v"},
                  {AggFn::kCount, 4, "n_v"},
                  {AggFn::kSum, 5, "sum_f"},
                  {AggFn::kCount, -1, "n"}};
  return g;
}

// Row-by-row comparison after sorting on the non-float cells; float sums
// compare with tolerance (atomic-add order legitimately differs).
void ExpectSameResults(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  auto row_key = [](const Table& t, size_t r) {
    std::string s;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const columnar::Column& col = t.column(c);
      switch (col.type()) {
        case DataType::kFloat64:
          break;  // excluded from the key
        case DataType::kString:
          s += col.string_data()[r];
          break;
        case DataType::kDecimal128:
          s += col.decimal_data()[r].ToString();
          break;
        default:
          s += std::to_string(col.GetInt64(r));
          break;
      }
      s += "|";
    }
    return s;
  };
  auto order = [&](const Table& t) {
    std::vector<size_t> idx(t.num_rows());
    for (size_t r = 0; r < idx.size(); ++r) idx[r] = r;
    std::sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
      return row_key(t, x) < row_key(t, y);
    });
    return idx;
  };
  const std::vector<size_t> ia = order(a);
  const std::vector<size_t> ib = order(b);
  for (size_t r = 0; r < ia.size(); ++r) {
    ASSERT_EQ(row_key(a, ia[r]), row_key(b, ib[r])) << "row " << r;
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (a.column(c).type() == DataType::kFloat64) {
        const double va = a.column(c).float64_data()[ia[r]];
        const double vb = b.column(c).float64_data()[ib[r]];
        const double tol =
            1e-9 * std::max({std::fabs(va), std::fabs(vb), 1.0});
        EXPECT_NEAR(va, vb, tol) << "row " << r << " col " << c;
      }
    }
  }
}

class FusionDifferentialTest : public ::testing::Test {
 protected:
  void RunBoth(const std::shared_ptr<Table>& fact, const QuerySpec& query,
               core::QueryResult* fused_result = nullptr) {
    core::Engine fused_engine(FusionConfig(true));
    core::Engine plain_engine(FusionConfig(false));
    ASSERT_TRUE(fused_engine.RegisterTable("sales", fact).ok());
    ASSERT_TRUE(plain_engine.RegisterTable("sales", fact).ok());
    auto fr = fused_engine.Execute(query);
    ASSERT_TRUE(fr.ok()) << fr.status().ToString();
    auto pr = plain_engine.Execute(query);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    ExpectSameResults(*fr->table, *pr->table);
    if (fused_result != nullptr) *fused_result = std::move(fr).value();
  }
};

TEST_F(FusionDifferentialTest, FiftyPercentSelectivityFusedRunMatches) {
  auto fact = MakeFact(50000, 64, 1);
  QuerySpec q;
  q.name = "fusion-50pct";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(50)};
  q.groupby = SumCountSpec({0});

  core::Engine fused_engine(FusionConfig(true));
  core::Engine plain_engine(FusionConfig(false));
  ASSERT_TRUE(fused_engine.RegisterTable("sales", fact).ok());
  ASSERT_TRUE(plain_engine.RegisterTable("sales", fact).ok());
  auto fr = fused_engine.Execute(q);
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  auto pr = plain_engine.Execute(q);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  ExpectSameResults(*fr->table, *pr->table);

  // The fused engine must actually have taken the fused device path.
  ASSERT_TRUE(fr->profile.gpu_used);
  const std::string* fusion = fr->profile.trace.FindAnnotation("fusion");
  ASSERT_NE(fusion, nullptr);
  EXPECT_EQ(*fusion, "on");
  const std::string* kernel = fr->profile.trace.FindAnnotation("kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_NE(kernel->find("_fused"), std::string::npos) << *kernel;

  // Bytes-moved accounting: counters registered, per-phase bytes recorded,
  // fusion avoided staged bytes at 50% selectivity.
  auto& metrics = fused_engine.metrics();
  EXPECT_GT(metrics
                .GetCounter("blusim_bytes_h2d_total", {{"op", "groupby"}})
                ->Value(),
            0u);
  EXPECT_GT(metrics
                .GetCounter("blusim_bytes_d2h_total", {{"op", "groupby"}})
                ->Value(),
            0u);
  EXPECT_GT(metrics
                .GetCounter("blusim_bytes_staged_avoided_total",
                            {{"op", "groupby"}})
                ->Value(),
            0u);
  uint64_t phase_bytes = 0;
  for (const auto& phase : fr->profile.phases) {
    phase_bytes += phase.bytes_moved;
  }
  EXPECT_GT(phase_bytes, 0u);
  // ExplainAnalyze renders the per-node bytes column.
  const std::string out = core::ExplainAnalyze(q, *fact, fr->profile);
  EXPECT_NE(out.find("bytes"), std::string::npos) << out;

  // The unfused engine on the same query must not report fusion.
  if (pr->profile.gpu_used) {
    const std::string* off = pr->profile.trace.FindAnnotation("fusion");
    ASSERT_NE(off, nullptr);
    EXPECT_EQ(*off, "off");
  }
}

TEST_F(FusionDifferentialTest, ZeroSelectivityPredicate) {
  auto fact = MakeFact(20000, 32, 2);
  QuerySpec q;
  q.name = "fusion-empty";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(-1)};  // no row can pass
  q.groupby = SumCountSpec({0});
  core::QueryResult fr;
  RunBoth(fact, q, &fr);
  EXPECT_EQ(fr.table->num_rows(), 0u);
}

TEST_F(FusionDifferentialTest, AllNullPayloadColumn) {
  auto fact = MakeFact(30000, 16, 3, /*null_frac=*/0.2, /*all_null_v=*/true);
  QuerySpec q;
  q.name = "fusion-allnull";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(60)};
  q.groupby = SumCountSpec({0});
  RunBoth(fact, q);
}

TEST_F(FusionDifferentialTest, HighDuplicateKeys) {
  // Two groups over 40k rows: maximum atomic contention on the device.
  auto fact = MakeFact(40000, 2, 4);
  QuerySpec q;
  q.name = "fusion-hotkeys";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(50)};
  q.groupby = SumCountSpec({0});
  RunBoth(fact, q);
}

TEST_F(FusionDifferentialTest, MultiColumnNarrowKey) {
  auto fact = MakeFact(30000, 100, 5);
  QuerySpec q;
  q.name = "fusion-multikey";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(75)};
  q.groupby = SumCountSpec({0, 1});  // two int32 keys: 64-bit packed key
  RunBoth(fact, q);
}

TEST_F(FusionDifferentialTest, WideKeyFallsBackAndMatches) {
  auto fact = MakeFact(30000, 50, 6);
  QuerySpec q;
  q.name = "fusion-widekey";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(50)};
  q.groupby = SumCountSpec({2, 3});  // two int64 keys: wide, unfusable
  core::QueryResult fr;
  RunBoth(fact, q, &fr);
  // Wide keys have no fused layout: if the run reached the device it must
  // have materialized the scan and staged SoA.
  const std::string* fusion = fr.profile.trace.FindAnnotation("fusion");
  if (fusion != nullptr) {
    EXPECT_EQ(*fusion, "off");
  }
}

TEST_F(FusionDifferentialTest, DecimalLockTypedPayload) {
  auto fact = MakeFact(25000, 40, 7);
  QuerySpec q;
  q.name = "fusion-decimal";
  q.fact_table = "sales";
  q.fact_filters = {SelBelow(50)};
  q.groupby = GroupBySpec{};
  q.groupby->key_columns = {0};
  q.groupby->aggregates = {{AggFn::kSum, 6, "sum_dec"},
                           {AggFn::kCount, -1, "n"}};
  RunBoth(fact, q);
}

TEST_F(FusionDifferentialTest, UnfilteredQueryStillFuses) {
  auto fact = MakeFact(30000, 64, 8);
  QuerySpec q;
  q.name = "fusion-nofilter";
  q.fact_table = "sales";
  q.groupby = SumCountSpec({0});
  RunBoth(fact, q);
}

// Direct-level differential: fused staging with a stage filter against the
// CPU chain over a FilterScan selection -- no engine routing involved.
TEST_F(FusionDifferentialTest, DirectFusedStageFilterMatchesCpuChain) {
  auto fact = MakeFact(20000, 48, 9);
  GroupBySpec spec = SumCountSpec({0});
  auto plan = GroupByPlan::Make(*fact, spec);
  ASSERT_TRUE(plan.ok());
  std::vector<Predicate> filter = {SelBelow(30)};
  plan->set_stage_filter(filter);

  gpusim::DeviceSpec dspec;
  gpusim::HostSpec hspec;
  gpusim::SimDevice device(0, dspec, hspec, 2);
  gpusim::PinnedHostPool pinned(64ULL << 20);
  runtime::ThreadPool pool(4);
  groupby::GpuModerator moderator;

  groupby::GpuGroupByStats stats;
  auto gpu = groupby::GpuGroupBy::Execute(plan.value(), &device, &pinned,
                                          &pool, &moderator, nullptr, {},
                                          &stats);
  ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
  ASSERT_TRUE(stats.fused);
  EXPECT_EQ(stats.rows_scanned, fact->num_rows());
  EXPECT_LT(stats.rows_staged, stats.rows_scanned);
  EXPECT_GT(stats.bytes_avoided, 0u);

  auto selection = runtime::FilterScan(*fact, filter, &pool);
  ASSERT_TRUE(selection.ok());
  GroupByPlan cpu_plan = std::move(plan).value();
  cpu_plan.set_stage_filter({});
  auto cpu = runtime::CpuGroupBy::Execute(cpu_plan, &pool,
                                          &selection.value());
  ASSERT_TRUE(cpu.ok());
  ExpectSameResults(*gpu->table, *cpu->table);
}

// Fused stage filter on a nullable int64 column and a NaN/inf-bearing
// float64 column, against the CPU chain over a per-row reference
// selection. NaN and +-inf pass `f != 100` and fail `f < 150` exactly as
// the per-row comparison decides; NULLs pass neither.
TEST_F(FusionDifferentialTest, DirectFusedFilterOnNullableAndNanColumns) {
  auto fact = MakeFact(150001, 48, 10, /*null_frac=*/0.2,
                       /*all_null_v=*/false, /*nan_frac=*/0.1);
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 4, "sum_v"},
                     {AggFn::kCount, 4, "n_v"},
                     {AggFn::kCount, 5, "n_f"},
                     {AggFn::kCount, -1, "n"}};
  Predicate v_ge;
  v_ge.column = 4;
  v_ge.op = CmpOp::kGe;
  v_ge.lo = -50;
  Predicate f_ne;
  f_ne.column = 5;
  f_ne.op = CmpOp::kNe;
  f_ne.lo = 100.0;
  Predicate f_lt;
  f_lt.column = 5;
  f_lt.op = CmpOp::kLt;
  f_lt.lo = 150.0;

  runtime::ThreadPool pool(4);
  for (const std::vector<Predicate>& filter :
       {std::vector<Predicate>{v_ge, f_ne},
        std::vector<Predicate>{f_ne, v_ge, f_lt}}) {
    auto plan = GroupByPlan::Make(*fact, spec);
    ASSERT_TRUE(plan.ok());
    plan->set_stage_filter(filter);

    gpusim::DeviceSpec dspec;
    gpusim::HostSpec hspec;
    gpusim::SimDevice device(0, dspec, hspec, 2);
    gpusim::PinnedHostPool pinned(64ULL << 20);
    groupby::GpuModerator moderator;
    groupby::GpuGroupByStats stats;
    auto gpu = groupby::GpuGroupBy::Execute(plan.value(), &device, &pinned,
                                            &pool, &moderator, nullptr, {},
                                            &stats);
    ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
    ASSERT_TRUE(stats.fused);

    std::vector<uint32_t> selection;
    for (uint32_t row = 0; row < fact->num_rows(); ++row) {
      if (runtime::RowMatchesPredicates(*fact, filter, row)) {
        selection.push_back(row);
      }
    }
    EXPECT_EQ(stats.rows_staged, selection.size());
    GroupByPlan cpu_plan = std::move(plan).value();
    cpu_plan.set_stage_filter({});
    auto cpu = runtime::CpuGroupBy::Execute(cpu_plan, &pool, &selection);
    ASSERT_TRUE(cpu.ok());
    ExpectSameResults(*gpu->table, *cpu->table);
  }
}

}  // namespace
}  // namespace blusim
