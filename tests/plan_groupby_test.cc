// Tests for the group-by planner: the routing decision is made once, by a
// pure function of the query and the engine's configuration, and the
// executor records exactly the phases and annotations that decision
// implies.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "obs/export_prometheus.h"

namespace blusim::core {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using runtime::AggFn;
using runtime::CmpOp;
using runtime::GroupBySpec;
using runtime::Predicate;

// Columns: k (int32, 64 values), k2 (int32, 5 values), wk/wk2 (int64 pair
// whose packed key is wider than 64 bits), v (int64), sel (0..99).
std::shared_ptr<Table> MakeFact() {
  Schema schema;
  schema.AddField({"k", DataType::kInt32, false});
  schema.AddField({"k2", DataType::kInt32, false});
  schema.AddField({"wk", DataType::kInt64, false});
  schema.AddField({"wk2", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  schema.AddField({"sel", DataType::kInt32, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(17);
  for (int i = 0; i < 40000; ++i) {
    t->column(0).AppendInt32(static_cast<int32_t>(rng.Below(64)));
    t->column(1).AppendInt32(static_cast<int32_t>(rng.Below(5)));
    t->column(2).AppendInt64(static_cast<int64_t>(rng.Below(50)) << 40);
    t->column(3).AppendInt64(static_cast<int64_t>(rng.Below(7)) << 40);
    t->column(4).AppendInt64(rng.Range(-100, 100));
    t->column(5).AppendInt32(static_cast<int32_t>(rng.Below(100)));
  }
  return t;
}

// Thresholds lowered so the 40k-row table routes to the device.
EngineConfig PlannerConfig() {
  EngineConfig c;
  c.cpu_threads = 2;
  c.device_workers = 2;
  c.device_spec = c.device_spec.WithMemory(64ULL << 20);
  c.pinned_pool_bytes = 64ULL << 20;
  c.thresholds.t1_min_rows = 1000;
  c.thresholds.t2_min_groups = 8;
  return c;
}

// A join-free, filtered group-by: the engine defers its fact scan.
QuerySpec JoinFreeQuery(const char* name, std::vector<int> keys) {
  QuerySpec q;
  q.name = name;
  q.fact_table = "sales";
  Predicate p;
  p.column = 5;  // sel
  p.op = CmpOp::kLt;
  p.lo = 50;
  q.fact_filters = {p};
  q.groupby = GroupBySpec{};
  q.groupby->key_columns = std::move(keys);
  q.groupby->aggregates = {{AggFn::kSum, 4, "sum_v"},
                           {AggFn::kCount, -1, "n"}};
  return q;
}

std::vector<std::string> PhaseLabels(const QueryProfile& profile) {
  std::vector<std::string> labels;
  for (const PhaseRecord& phase : profile.phases) {
    labels.push_back(phase.label);
  }
  return labels;
}

using Annotations = std::vector<std::pair<std::string, std::string>>;

class PlanGroupByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterTable("sales", MakeFact()).ok());
  }

  QueryProfile Run(const QuerySpec& query) {
    auto r = engine_.Execute(query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r->profile) : QueryProfile{};
  }

  Engine engine_{PlannerConfig()};
};

TEST_F(PlanGroupByTest, FusedNarrowKeyNeverScansUpFront) {
  const QueryProfile p = Run(JoinFreeQuery("fused", {0}));
  EXPECT_EQ(p.groupby_path, ExecutionPath::kGpu);
  EXPECT_EQ(PhaseLabels(p), (std::vector<std::string>{"groupby-stage",
                                                      "groupby-kernel"}));
  EXPECT_EQ(p.trace.annotations,
            (Annotations{{"kmv_estimate", "64"},
                         {"groupby_path", "GPU"},
                         {"kernel", "groupby_sharedmem_fused"},
                         {"fusion", "on"},
                         {"bytes_h2d", "240528"},
                         {"bytes_d2h", "4096"},
                         {"bytes_staged_avoided", "160352"},
                         {"actual_groups", "64"}}));
}

TEST_F(PlanGroupByTest, WideKeyScansOnceBeforeStagingSoA) {
  const QueryProfile p = Run(JoinFreeQuery("wide", {2, 3}));
  EXPECT_EQ(p.groupby_path, ExecutionPath::kGpu);
  EXPECT_EQ(PhaseLabels(p),
            (std::vector<std::string>{"scan", "groupby-stage",
                                      "groupby-kernel"}));
  EXPECT_EQ(p.trace.annotations,
            (Annotations{{"kmv_estimate", "349"},
                         {"groupby_path", "GPU"},
                         {"kernel", "groupby_regular"},
                         {"fusion", "off"},
                         {"bytes_h2d", "901980"},
                         {"bytes_d2h", "40960"},
                         {"actual_groups", "350"}}));
}

TEST_F(PlanGroupByTest, CpuRoutedDeferredQueryScansOnce) {
  const QueryProfile p = Run(JoinFreeQuery("cpu", {1}));
  EXPECT_EQ(p.groupby_path, ExecutionPath::kCpu);
  EXPECT_EQ(PhaseLabels(p),
            (std::vector<std::string>{"scan", "groupby-cpu"}));
  EXPECT_EQ(p.trace.annotations, (Annotations{{"kmv_estimate", "5"},
                                              {"groupby_path", "CPU"},
                                              {"actual_groups", "5"}}));
}

TEST_F(PlanGroupByTest, PlanningIsPureAndRepeatable) {
  // Warm the metrics registry so planning could only change values, not
  // register instruments.
  Run(JoinFreeQuery("warm", {0}));
  auto fact = engine_.GetTable("sales");
  ASSERT_TRUE(fact.ok());
  auto device_reserved = [&] {
    std::vector<uint64_t> bytes;
    for (gpusim::SimDevice* d : engine_.scheduler().devices()) {
      bytes.push_back(d->memory().reserved());
    }
    return bytes;
  };
  const std::string metrics_before =
      obs::RenderPrometheusText(engine_.metrics());
  const std::vector<uint64_t> reserved_before = device_reserved();
  const uint64_t pinned_before = engine_.pinned_pool().allocated();

  struct Case {
    std::vector<int> keys;
    ExecutionPath path;
    groupby::StageMode mode;
    bool scan_first;
  };
  const Case cases[] = {
      {{0}, ExecutionPath::kGpu, groupby::StageMode::kFusedRecords, false},
      {{2, 3}, ExecutionPath::kGpu, groupby::StageMode::kSoA, true},
      {{1}, ExecutionPath::kCpu, groupby::StageMode::kFusedRecords, true},
  };
  for (const Case& c : cases) {
    const QuerySpec q = JoinFreeQuery("plan", c.keys);
    auto plan = runtime::GroupByPlan::Make(**fact, *q.groupby);
    ASSERT_TRUE(plan.ok());
    const GroupByDecision first = engine_.PlanGroupBy(q, *plan, nullptr);
    const GroupByDecision second = engine_.PlanGroupBy(q, *plan, nullptr);
    EXPECT_TRUE(first == second);
    EXPECT_EQ(first.path, c.path);
    EXPECT_EQ(first.stage_mode, c.mode);
    EXPECT_EQ(first.scan_first, c.scan_first);
    EXPECT_EQ(first.reservation_bytes > 0, c.path == ExecutionPath::kGpu);
  }

  EXPECT_EQ(obs::RenderPrometheusText(engine_.metrics()), metrics_before);
  EXPECT_EQ(device_reserved(), reserved_before);
  EXPECT_EQ(engine_.pinned_pool().allocated(), pinned_before);
}

}  // namespace
}  // namespace blusim::core
