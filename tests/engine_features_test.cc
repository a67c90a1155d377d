// Tests for engine-level features not covered by the workload e2e suite:
// projection, limit, order-by semantics, error handling, monitoring, and
// MaterializeRows.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gpusim/perf_monitor.h"

namespace blusim::core {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;

std::shared_ptr<Table> MakeSales(int rows) {
  Schema schema;
  schema.AddField({"region", DataType::kInt32, false});
  schema.AddField({"amount", DataType::kFloat64, false});
  schema.AddField({"qty", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendInt32(i % 16);
    t->column(1).AppendDouble((i * 37 % 1000) * 0.25);
    t->column(2).AppendInt64(i % 5);
  }
  return t;
}

EngineConfig SmallConfig() {
  EngineConfig config;
  config.cpu_threads = 2;
  config.device_spec = config.device_spec.WithMemory(32ULL << 20);
  config.thresholds.t1_min_rows = 1u << 30;  // keep everything on CPU here
  return config;
}

class EngineFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(SmallConfig());
    ASSERT_TRUE(engine_->RegisterTable("sales", MakeSales(10000)).ok());
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineFeaturesTest, DuplicateRegistrationRejected) {
  EXPECT_EQ(engine_->RegisterTable("sales", MakeSales(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineFeaturesTest, UnknownTableIsNotFound) {
  QuerySpec q;
  q.fact_table = "nope";
  EXPECT_EQ(engine_->Execute(q).status().code(), StatusCode::kNotFound);
}

TEST_F(EngineFeaturesTest, ProjectionSelectsColumns) {
  QuerySpec q;
  q.fact_table = "sales";
  q.projection = {2, 0};
  q.limit = 10;
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->num_columns(), 2u);
  EXPECT_EQ(r->table->schema().field(0).name, "qty");
  EXPECT_EQ(r->table->schema().field(1).name, "region");
  EXPECT_EQ(r->table->num_rows(), 10u);
}

TEST_F(EngineFeaturesTest, LimitTruncatesAfterSort) {
  QuerySpec q;
  q.fact_table = "sales";
  q.projection = {1};
  q.order_by = {{0, false}};  // amount desc
  q.limit = 5;
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table->num_rows(), 5u);
  const auto& amounts = r->table->column(0).float64_data();
  for (size_t i = 1; i < amounts.size(); ++i) {
    EXPECT_GE(amounts[i - 1], amounts[i]);
  }
  // The global maximum must be first.
  EXPECT_DOUBLE_EQ(amounts[0], 999 * 0.25);
}

TEST_F(EngineFeaturesTest, GroupByResultOrderedByAggregate) {
  QuerySpec q;
  q.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{runtime::AggFn::kSum, 2, "units"}};
  q.groupby = g;
  q.order_by = {{1, false}};  // by units desc
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->num_rows(), 16u);
  const auto& units = r->table->column(1).int64_data();
  for (size_t i = 1; i < units.size(); ++i) {
    EXPECT_GE(units[i - 1], units[i]);
  }
}

// `limited` must be the first rows of `full`, column by column.
void ExpectHeadOf(const Table& full, const Table& limited) {
  ASSERT_EQ(full.num_columns(), limited.num_columns());
  ASSERT_LE(limited.num_rows(), full.num_rows());
  for (size_t c = 0; c < full.num_columns(); ++c) {
    const columnar::Column& a = full.column(c);
    const columnar::Column& b = limited.column(c);
    for (size_t r = 0; r < limited.num_rows(); ++r) {
      switch (full.schema().field(c).type) {
        case DataType::kInt32:
          EXPECT_EQ(a.int32_data()[r], b.int32_data()[r]) << c << "," << r;
          break;
        case DataType::kInt64:
          EXPECT_EQ(a.int64_data()[r], b.int64_data()[r]) << c << "," << r;
          break;
        case DataType::kFloat64:
          EXPECT_EQ(a.float64_data()[r], b.float64_data()[r])
              << c << "," << r;
          break;
        default:
          FAIL() << "unexpected column type";
      }
    }
  }
}

// The LIMIT is applied to the sort permutation before materialization; the
// simulated clock must still charge the sort of every row.
void ExpectLimitKeepsProfile(const QueryResult& full,
                             const QueryResult& limited) {
  EXPECT_EQ(full.profile.total_elapsed, limited.profile.total_elapsed);
  ASSERT_EQ(full.profile.phases.size(), limited.profile.phases.size());
  for (size_t i = 0; i < full.profile.phases.size(); ++i) {
    const PhaseRecord& a = full.profile.phases[i];
    const PhaseRecord& b = limited.profile.phases[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.cpu_work, b.cpu_work) << a.label;
    EXPECT_EQ(a.elapsed, b.elapsed) << a.label;
    EXPECT_EQ(a.device_time, b.device_time) << a.label;
  }
}

TEST_F(EngineFeaturesTest, LimitBelowGroupBySortKeepsHeadAndProfile) {
  QuerySpec q;
  q.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0, 2};  // 80 groups
  g.aggregates = {{runtime::AggFn::kSum, 1, "revenue"},
                  {runtime::AggFn::kCount, -1, "n"}};
  q.groupby = g;
  q.order_by = {{2, false}, {0, true}, {1, true}};
  auto full = engine_->Execute(q);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->table->num_rows(), 80u);
  q.limit = 7;
  auto limited = engine_->Execute(q);
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->table->num_rows(), 7u);
  EXPECT_EQ(limited->profile.result_rows, 7u);
  ExpectHeadOf(*full->table, *limited->table);
  ExpectLimitKeepsProfile(*full, *limited);
  bool saw_sort = false;
  for (const PhaseRecord& p : limited->profile.phases) {
    saw_sort = saw_sort || p.label == "sort-result";
  }
  EXPECT_TRUE(saw_sort);
}

TEST_F(EngineFeaturesTest, LimitBelowFactSortKeepsHeadAndProfile) {
  QuerySpec q;
  q.fact_table = "sales";
  q.projection = {1, 0, 2};
  q.order_by = {{0, false}, {1, true}};  // amount desc, region asc
  auto full = engine_->Execute(q);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->table->num_rows(), 10000u);
  q.limit = 9;
  auto limited = engine_->Execute(q);
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->table->num_rows(), 9u);
  EXPECT_EQ(limited->profile.result_rows, 9u);
  ExpectHeadOf(*full->table, *limited->table);
  ExpectLimitKeepsProfile(*full, *limited);
  bool saw_keygen = false;
  for (const PhaseRecord& p : limited->profile.phases) {
    saw_keygen = saw_keygen || p.label == "sort-keygen";
  }
  EXPECT_TRUE(saw_keygen);
}

TEST_F(EngineFeaturesTest, ProfilePhasesAndElapsedConsistent) {
  QuerySpec q;
  q.fact_table = "sales";
  runtime::GroupBySpec g;
  g.key_columns = {0};
  g.aggregates = {{runtime::AggFn::kCount, -1, "n"}};
  q.groupby = g;
  auto r = engine_->Execute(q);
  ASSERT_TRUE(r.ok());
  SimTime total = 0;
  for (const auto& phase : r->profile.phases) {
    total += phase.IdleElapsed(
        engine_->cost_model().HostParallelFactor(phase.dop));
  }
  EXPECT_EQ(total, r->profile.total_elapsed);
  EXPECT_EQ(r->profile.result_rows, 16u);
}

TEST_F(EngineFeaturesTest, StartupRegistrationCostScalesWithPool) {
  EngineConfig small = SmallConfig();
  small.pinned_pool_bytes = 16ULL << 20;
  EngineConfig big = SmallConfig();
  big.pinned_pool_bytes = 256ULL << 20;
  Engine e1(small), e2(big);
  EXPECT_LT(e1.startup_registration_time(),
            e2.startup_registration_time());
  // GPU-off engines have no devices, hence no registration cost.
  EngineConfig off = SmallConfig();
  off.gpu_enabled = false;
  Engine e3(off);
  EXPECT_EQ(e3.startup_registration_time(), 0);
}

TEST(MaterializeRowsTest, ReordersAndProjects) {
  auto t = MakeSales(10);
  std::vector<uint32_t> rows = {5, 1, 8};
  auto out = MaterializeRows(*t, rows, {0});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 3u);
  EXPECT_EQ((*out)->column(0).int32_data()[0], 5);
  EXPECT_EQ((*out)->column(0).int32_data()[1], 1);
  EXPECT_EQ((*out)->column(0).int32_data()[2], 8);
  EXPECT_FALSE(MaterializeRows(*t, rows, {99}).ok());
}

TEST(PerfMonitorTest, AggregatesEventsAndKernels) {
  gpusim::PerfMonitor mon;
  mon.Record(gpusim::GpuEvent::kTransferToDevice, 100, 4096);
  mon.Record(gpusim::GpuEvent::kTransferFromDevice, 50, 2048);
  mon.RecordKernel("groupby_regular", 500);
  mon.RecordKernel("groupby_regular", 300);
  mon.RecordKernel("radix_sort", 200);
  mon.SampleMemory(10, 1 << 20);
  mon.SampleMemory(20, 2 << 20);

  EXPECT_EQ(mon.total_transfer_time(), 150);
  EXPECT_EQ(mon.total_kernel_time(), 1000);
  auto stats = mon.kernel_stats();
  EXPECT_EQ(stats["groupby_regular"].count, 2u);
  EXPECT_EQ(stats["groupby_regular"].total_time, 800);
  EXPECT_EQ(stats["radix_sort"].count, 1u);
  auto samples = mon.memory_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1].bytes_in_use, 2u << 20);
  const auto transfer =
      mon.stats(gpusim::GpuEvent::kTransferToDevice);
  EXPECT_EQ(transfer.count, 1u);
  EXPECT_EQ(transfer.total_bytes, 4096u);

  mon.Reset();
  EXPECT_EQ(mon.total_kernel_time(), 0);
  EXPECT_TRUE(mon.memory_samples().empty());
}

}  // namespace
}  // namespace blusim::core
