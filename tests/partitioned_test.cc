// Tests for the partitioned multi-device group-by (section 2.2's
// range-partition + merge mechanism, implemented as an extension).

#include "groupby/partitioned.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/engine.h"
#include "groupby/gpu_groupby.h"
#include "groupby/layout.h"
#include "runtime/cpu_groupby.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

std::shared_ptr<Table> MakeTable(uint64_t rows, uint64_t groups) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  schema.AddField({"d", DataType::kFloat64, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(99);
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(groups)));
    t->column(1).AppendInt64(rng.Range(-20, 20));
    t->column(2).AppendDouble(static_cast<double>(rng.Below(100)));
  }
  return t;
}

GroupBySpec Spec() {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, -1, "n"},
                     {AggFn::kMin, 2, "m"},
                     {AggFn::kMax, 2, "x"}};
  return spec;
}

class PartitionedTest : public ::testing::Test {
 protected:
  gpusim::HostSpec host_;
  gpusim::DeviceSpec spec_;
  // Small devices force multiple chunks for a 120k-row input.
  gpusim::SimDevice d0_{0, spec_.WithMemory(4ULL << 20), host_, 2};
  gpusim::SimDevice d1_{1, spec_.WithMemory(4ULL << 20), host_, 2};
  sched::GpuScheduler scheduler_{{&d0_, &d1_}};
  gpusim::PinnedHostPool pinned_{64ULL << 20};
  runtime::ThreadPool pool_{2};
  GpuModerator moderator_;
};

TEST_F(PartitionedTest, MatchesCpuChainAcrossChunks) {
  auto t = MakeTable(120000, 5000);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  std::vector<uint32_t> selection(t->num_rows());
  for (uint32_t i = 0; i < selection.size(); ++i) selection[i] = i;

  PartitionedStats stats;
  // Force a device-only split so every partition goes through a device
  // lane and the multi-device sharding assertion below is deterministic.
  PartitionedOptions popts;
  popts.cpu_split_fraction = 0.0;
  auto out = PartitionedGroupBy::Execute(plan.value(), &scheduler_, &pinned_,
                                         &pool_, &moderator_, selection,
                                         popts, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GE(stats.chunks.size(), 2u) << "input should not fit one chunk";
  EXPECT_GT(stats.merge_time, 0);
  EXPECT_GT(stats.elapsed, 0);
  EXPECT_EQ(stats.cpu_rows, 0u);
  EXPECT_EQ(stats.gpu_rows, selection.size());
  // Both devices participated.
  std::set<int> devices;
  for (const auto& c : stats.chunks) {
    EXPECT_TRUE(c.on_gpu) << "partition " << c.partition;
    devices.insert(c.device_id);
  }
  EXPECT_EQ(devices.size(), 2u);

  auto cpu = runtime::CpuGroupBy::Execute(plan.value(), &pool_, &selection);
  ASSERT_TRUE(cpu.ok());
  ASSERT_EQ(out->num_groups, cpu->num_groups);

  // Compare per-key aggregates.
  auto index = [](const Table& t2) {
    std::map<int64_t, size_t> m;
    for (size_t r = 0; r < t2.num_rows(); ++r) {
      m[t2.column(0).int64_data()[r]] = r;
    }
    return m;
  };
  const auto gi = index(*out->table);
  const auto ci = index(*cpu->table);
  for (const auto& [key, grow] : gi) {
    auto it = ci.find(key);
    ASSERT_NE(it, ci.end());
    EXPECT_EQ(out->table->column(1).int64_data()[grow],
              cpu->table->column(1).int64_data()[it->second]);
    EXPECT_EQ(out->table->column(2).int64_data()[grow],
              cpu->table->column(2).int64_data()[it->second]);
    EXPECT_DOUBLE_EQ(out->table->column(3).float64_data()[grow],
                     cpu->table->column(3).float64_data()[it->second]);
    EXPECT_DOUBLE_EQ(out->table->column(4).float64_data()[grow],
                     cpu->table->column(4).float64_data()[it->second]);
  }
}

TEST_F(PartitionedTest, FailsCleanlyWhenTableExceedsSmallestDevice) {
  auto t = MakeTable(50000, 49000);  // groups ~ rows: giant hash table
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  gpusim::SimDevice tiny(2, spec_.WithMemory(64 << 10), host_, 1);
  sched::GpuScheduler sched({&tiny});
  std::vector<uint32_t> selection(t->num_rows());
  for (uint32_t i = 0; i < selection.size(); ++i) selection[i] = i;
  PartitionedStats stats;
  auto out = PartitionedGroupBy::Execute(plan.value(), &sched, &pinned_,
                                         &pool_, &moderator_, selection, {},
                                         &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsRecoverableOnHost());
}

TEST_F(PartitionedTest, MaxRowsPerChunkScalesWithMemory) {
  auto t = MakeTable(100, 10);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  const uint64_t small =
      PartitionedGroupBy::MaxRowsPerChunk(plan.value(), 1000, 4ULL << 20);
  const uint64_t large =
      PartitionedGroupBy::MaxRowsPerChunk(plan.value(), 1000, 64ULL << 20);
  EXPECT_GT(small, 0u);
  EXPECT_GT(large, small);
  EXPECT_EQ(PartitionedGroupBy::MaxRowsPerChunk(plan.value(), 1u << 24,
                                                1 << 20),
            0u);
}

TEST_F(PartitionedTest, FusedChunksPackMoreRowsThanSoA) {
  auto t = MakeTable(1000, 100);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  const uint64_t mem = 4ULL << 20;
  const uint64_t groups = 1000;

  // Fused records are denser than the SoA arrays: same budget, more rows.
  const uint64_t soa = PartitionedGroupBy::MaxRowsPerChunk(
      plan.value(), groups, mem, StageMode::kSoA);
  const uint64_t fused = PartitionedGroupBy::MaxRowsPerChunk(
      plan.value(), groups, mem, StageMode::kFusedRecords);
  ASSERT_GT(soa, 0u);
  EXPECT_GT(fused, soa);

  // Pin the footprint formula: half the device for the chunk, minus the
  // full-estimate hash table, divided by the per-row staged bytes of the
  // chunk's staging mode.
  const HashTableLayout layout(plan.value());
  const uint64_t budget = mem / 2;
  const uint64_t table_bytes = layout.TableBytes(ChooseCapacity(groups));
  constexpr uint64_t kProbeRows = 4096;
  const uint64_t fused_per_row =
      (GpuGroupBy::DeviceBytesNeeded(plan.value(), StageMode::kFusedRecords,
                                     kProbeRows, 64) -
       layout.TableBytes(64)) /
      kProbeRows;
  EXPECT_EQ(fused, (budget - table_bytes) / fused_per_row);
  const uint64_t soa_per_row =
      (GpuGroupBy::DeviceBytesNeeded(plan.value(), StageMode::kSoA,
                                     kProbeRows, 64) -
       layout.TableBytes(64)) /
      kProbeRows;
  EXPECT_EQ(soa, (budget - table_bytes) / soa_per_row);
}

TEST_F(PartitionedTest, ChunkCountsTrackStageMode) {
  auto t = MakeTable(120000, 5000);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  std::vector<uint32_t> selection(t->num_rows());
  for (uint32_t i = 0; i < selection.size(); ++i) selection[i] = i;

  // Recompute the expected fan-out from the public chunk bound: double
  // the partition count until the average partition fits one chunk.
  auto expected_fanout = [&](StageMode m) {
    uint32_t p = 8;  // max(min fan-out, 4 partitions per device x 2)
    for (;;) {
      const uint64_t mr = PartitionedGroupBy::MaxRowsPerChunk(
          plan.value(), std::max<uint64_t>(1, 5000 / p), 4ULL << 20, m);
      if ((selection.size() + p - 1) / p <= mr || p >= 1024) return p;
      p *= 2;
    }
  };

  for (const bool allow_fusion : {false, true}) {
    PartitionedOptions popts;
    popts.gpu.allow_fusion = allow_fusion;
    popts.gpu.estimated_groups = 5000;
    PartitionedStats stats;
    auto out = PartitionedGroupBy::Execute(plan.value(), &scheduler_,
                                           &pinned_, &pool_, &moderator_,
                                           selection, popts, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(stats.stage_mode,
              allow_fusion ? StageMode::kFusedRecords : StageMode::kSoA);
    EXPECT_EQ(stats.num_partitions, expected_fanout(stats.stage_mode));
    // One stage mode end to end: every device chunk staged in it.
    int gpu_chunks = 0;
    for (const PartitionChunkStats& chunk : stats.chunks) {
      if (!chunk.on_gpu) continue;
      ++gpu_chunks;
      EXPECT_EQ(chunk.gpu.fused,
                stats.stage_mode == StageMode::kFusedRecords);
    }
    EXPECT_GT(gpu_chunks, 0);
  }
}

TEST_F(PartitionedTest, EngineRunsOversizeQueryOnPartitionedPath) {
  // End-to-end: a T3-exceeding query with the extension enabled must use
  // the partitioned path and match the baseline engine's result rows.
  auto t = MakeTable(150000, 2000);
  blusim::core::EngineConfig on;
  on.cpu_threads = 2;
  on.device_spec = on.device_spec.WithMemory(3ULL << 20);
  on.enable_partitioned_gpu = true;
  on.thresholds.t1_min_rows = 1000;
  blusim::core::EngineConfig off = on;
  off.gpu_enabled = false;
  blusim::core::Engine gpu_engine(on), cpu_engine(off);
  ASSERT_TRUE(gpu_engine.RegisterTable("t", t).ok());
  ASSERT_TRUE(cpu_engine.RegisterTable("t", t).ok());

  blusim::core::QuerySpec q;
  q.fact_table = "t";
  q.groupby = Spec();
  auto g = gpu_engine.Execute(q);
  auto c = cpu_engine.Execute(q);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(g->profile.groupby_path, blusim::core::ExecutionPath::kPartitioned);
  EXPECT_TRUE(g->profile.gpu_used);
  EXPECT_EQ(g->table->num_rows(), c->table->num_rows());
  // Multiple partition phases recorded.
  int gpu_phases = 0;
  for (const auto& phase : g->profile.phases) {
    if (phase.kind == blusim::core::PhaseRecord::Kind::kGpu) ++gpu_phases;
  }
  EXPECT_GE(gpu_phases, 2);
}

}  // namespace
}  // namespace blusim::groupby
