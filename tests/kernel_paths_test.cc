// Direct kernel-level tests for paths the moderator rarely selects:
// kernel 2's shared-table spill-to-global branch, every kernel over a
// packed two-column key in both staging layouts, the spread of narrow-key
// home slots, mask initialization across a full table, and multi-morsel
// staging offsets. Plus the workload-level invariant that exactly the 12
// oversized ROLAP queries are excluded from the device.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "groupby/gpu_groupby.h"
#include "groupby/kernels.h"
#include "groupby/staging.h"
#include "harness/runner.h"
#include "runtime/cpu_groupby.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using gpusim::GroupByKernelKind;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

// Per-group {SUM, COUNT(*)} keyed by the group's key column values.
using GroupTotals =
    std::map<std::vector<int64_t>, std::pair<int64_t, int64_t>>;

class KernelPathsTest : public ::testing::Test {
 protected:
  gpusim::HostSpec host_;
  gpusim::DeviceSpec spec_;
  gpusim::SimDevice device_{0, spec_, host_, 2};
  gpusim::PinnedHostPool pinned_{128ULL << 20};
  runtime::ThreadPool pool_{2};

  // Stages `plan` (aggregates: one int64 SUM, then COUNT(*)) in `mode`,
  // runs kernel `kind` directly on a mask-initialized table of `capacity`
  // entries, and scans the table into `out`. Every entry's representative
  // row must pack to the entry's key.
  void RunKernelDirect(const GroupByPlan& plan, GroupByKernelKind kind,
                       StageMode mode, uint64_t capacity, GroupTotals* out) {
    auto staged = StageForDevice(plan, &pinned_, &pool_, nullptr, mode);
    ASSERT_TRUE(staged.ok()) << staged.status().ToString();
    const HashTableLayout layout(plan);
    auto reservation = device_.memory().Reserve(
        staged->pinned_bytes() + layout.TableBytes(capacity));
    ASSERT_TRUE(reservation.ok());
    auto upload = [&](const gpusim::PinnedBuffer& src, uint64_t bytes,
                      gpusim::DeviceBuffer* dst) {
      auto buf = device_.memory().Alloc(reservation.value(), bytes);
      ASSERT_TRUE(buf.ok());
      device_.CopyToDevice(src.data(), &buf.value(), bytes, true);
      *dst = std::move(buf).value();
    };

    GroupByKernelArgs args;
    DeviceInput input;
    FusedDeviceInput fused;
    if (mode == StageMode::kFusedRecords) {
      fused.rows = staged->rows;
      fused.layout = staged->record_layout;
      upload(staged->records, staged->transfer_bytes, &fused.records);
      args.fused = &fused;
    } else {
      input.rows = staged->rows;
      input.wide_key = false;
      upload(staged->keys, staged->keys.size(), &input.keys);
      upload(staged->row_ids, staged->row_ids.size(), &input.row_ids);
      input.slots.resize(plan.slots().size());
      for (size_t s = 0; s < plan.slots().size(); ++s) {
        if (staged->payloads[s].valid()) {
          upload(staged->payloads[s], staged->payloads[s].size(),
                 &input.slots[s].values);
        }
      }
      args.input = &input;
    }
    auto table_buf = device_.memory().Alloc(reservation.value(),
                                            layout.TableBytes(capacity));
    ASSERT_TRUE(table_buf.ok());
    ASSERT_TRUE(InitHashTable(&device_, layout, plan, table_buf->data(),
                              capacity)
                    .ok());

    std::atomic<uint64_t> overflow{0};
    args.plan = &plan;
    args.layout = &layout;
    args.table = table_buf->data();
    args.capacity = capacity;
    args.overflow = &overflow;
    switch (kind) {
      case GroupByKernelKind::kRegular:
        ASSERT_TRUE(RunKernelRegular(&device_, args).ok());
        break;
      case GroupByKernelKind::kSharedMem:
        ASSERT_TRUE(RunKernelSharedMem(&device_, args).ok());
        break;
      case GroupByKernelKind::kRowLock:
        ASSERT_TRUE(RunKernelRowLock(&device_, args).ok());
        break;
    }
    EXPECT_EQ(overflow.load(), 0u);

    const auto& key_columns = plan.spec().key_columns;
    for (uint64_t e = 0; e < capacity; ++e) {
      const char* entry =
          table_buf->data() + e * static_cast<uint64_t>(layout.entry_bytes());
      uint64_t key;
      std::memcpy(&key, entry, 8);
      if (key == kEmptyKey64) continue;
      uint32_t rep;
      std::memcpy(&rep, entry + layout.rep_row_offset(), 4);
      if (mode == StageMode::kFusedRecords) {
        ASSERT_LT(rep, staged->host_row_ids.size());
        rep = staged->host_row_ids[rep];
      }
      ASSERT_EQ(plan.PackKey(rep), key) << "entry " << e;
      std::vector<int64_t> group;
      for (int c : key_columns) {
        group.push_back(
            plan.table().column(static_cast<size_t>(c)).GetInt64(rep));
      }
      int64_t sum, cnt;
      std::memcpy(&sum, entry + layout.slot_offset(0), 8);
      std::memcpy(&cnt, entry + layout.slot_offset(1), 8);
      ASSERT_TRUE(out->emplace(group, std::make_pair(sum, cnt)).second)
          << "group stored twice, entry " << e;
    }
  }

  // Checks device group totals against the CPU chain over the same plan.
  void ExpectMatchesCpu(const GroupByPlan& plan, const GroupTotals& device) {
    auto cpu = runtime::CpuGroupBy::Execute(plan, &pool_);
    ASSERT_TRUE(cpu.ok());
    ASSERT_EQ(device.size(), cpu->num_groups);
    const size_t kcols = plan.spec().key_columns.size();
    const Table& result = *cpu->table;
    for (size_t r = 0; r < result.num_rows(); ++r) {
      std::vector<int64_t> group;
      for (size_t c = 0; c < kcols; ++c) {
        group.push_back(result.column(c).GetInt64(r));
      }
      auto it = device.find(group);
      ASSERT_NE(it, device.end()) << "row " << r;
      EXPECT_EQ(it->second.first, result.column(kcols).GetInt64(r));
      EXPECT_EQ(it->second.second, result.column(kcols + 1).GetInt64(r));
    }
  }
};

TEST_F(KernelPathsTest, Kernel2SpillsToGlobalWhenSharedTableOverflows) {
  // Many more groups than the 48 KB shared table holds: most rows take
  // the spill branch, and the merge still must not double-count.
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(4);
  const uint64_t rows = 60000, groups = 20000;
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(groups)));
    t->column(1).AppendInt64(1);
  }
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}, {AggFn::kCount, -1, "n"}};
  auto plan = GroupByPlan::Make(*t, spec);
  ASSERT_TRUE(plan.ok());

  // Force kernel 2 even though 20000 groups never fit a 48 KB table.
  GroupTotals device;
  RunKernelDirect(plan.value(), GroupByKernelKind::kSharedMem,
                  StageMode::kSoA, ChooseCapacity(groups), &device);
  ExpectMatchesCpu(plan.value(), device);
}

TEST_F(KernelPathsTest, PackedTwoColumnKeyMatchesCpuOnEveryKernel) {
  // Two int32 key columns shaped like a store x promo grouping: PackKey
  // puts the first in the high 32 bits, ~30k groups. Every kernel, in both
  // staging layouts, probes the narrow key through NarrowHomeSlot.
  Schema schema;
  schema.AddField({"store", DataType::kInt32, false});
  schema.AddField({"promo", DataType::kInt32, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(12);
  for (uint64_t i = 0; i < 120000; ++i) {
    t->column(0).AppendInt32(static_cast<int32_t>(rng.Below(100)));
    t->column(1).AppendInt32(static_cast<int32_t>(rng.Below(300)));
    t->column(2).AppendInt64(rng.Range(-50, 50));
  }
  GroupBySpec spec;
  spec.key_columns = {0, 1};
  spec.aggregates = {{AggFn::kSum, 2, "s"}, {AggFn::kCount, -1, "n"}};
  auto plan = GroupByPlan::Make(*t, spec);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->wide_key());

  for (GroupByKernelKind kind :
       {GroupByKernelKind::kRegular, GroupByKernelKind::kSharedMem,
        GroupByKernelKind::kRowLock}) {
    for (StageMode mode : {StageMode::kSoA, StageMode::kFusedRecords}) {
      SCOPED_TRACE(std::string(gpusim::GroupByKernelKindName(kind)) +
                   (mode == StageMode::kSoA ? " soa" : " fused"));
      GroupTotals device;
      RunKernelDirect(plan.value(), kind, mode, ChooseCapacity(30000),
                      &device);
      ExpectMatchesCpu(plan.value(), device);
    }
  }
}

TEST(NarrowHomeSlotTest, SpreadsPackedTwoColumnKeys) {
  // A 100 x 300 grid of (a << 32) | b keys. Masking the raw key would see
  // only b: 300 home slots for 30,000 keys.
  const uint64_t capacity = HashTableCapacity(30000);
  std::vector<uint8_t> home_used(capacity, 0);
  std::vector<uint8_t> occupied(capacity, 0);
  uint64_t distinct_homes = 0, displacement = 0, keys = 0;
  for (uint64_t a = 0; a < 100; ++a) {
    for (uint64_t b = 0; b < 300; ++b) {
      const uint64_t home = NarrowHomeSlot((a << 32) | b, capacity);
      ASSERT_LT(home, capacity);
      if (!home_used[home]) {
        home_used[home] = 1;
        ++distinct_homes;
      }
      // Sequential linear-probe insertion, as the kernels probe.
      uint64_t pos = home;
      while (occupied[pos]) {
        pos = (pos + 1) & (capacity - 1);
        ++displacement;
      }
      occupied[pos] = 1;
      ++keys;
    }
  }
  EXPECT_GE(distinct_homes * 10, keys * 7)
      << distinct_homes << " distinct home slots for " << keys << " keys";
  EXPECT_LE(displacement, 2 * keys)
      << "mean displacement " << static_cast<double>(displacement) / keys;
}

TEST_F(KernelPathsTest, InitHashTableWritesMaskToEveryEntry) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  t.column(0).AppendInt64(1);
  t.column(1).AppendInt64(1);
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kMin, 1, "m"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok());
  const HashTableLayout layout(plan.value());
  const uint64_t capacity = 777;  // deliberately not a power of two
  std::vector<char> table(layout.TableBytes(capacity), 0x5A);
  ASSERT_TRUE(InitHashTable(&device_, layout, plan.value(), table.data(),
                            capacity)
                  .ok());
  const std::vector<char> mask = layout.BuildMask(plan.value());
  for (uint64_t e = 0; e < capacity; ++e) {
    ASSERT_EQ(std::memcmp(table.data() +
                              e * static_cast<uint64_t>(layout.entry_bytes()),
                          mask.data(), mask.size()),
              0)
        << "entry " << e;
  }
}

TEST_F(KernelPathsTest, StagingSpansMultipleMorsels) {
  // > 65536 rows forces several morsels; staged arrays must be seamless.
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  const uint64_t rows = 150000;
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(i % 97));
    t->column(1).AppendInt64(static_cast<int64_t>(i));
  }
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  auto plan = GroupByPlan::Make(*t, spec);
  ASSERT_TRUE(plan.ok());
  auto staged = StageForDevice(plan.value(), &pinned_, &pool_, nullptr);
  ASSERT_TRUE(staged.ok());
  ASSERT_EQ(staged->rows, rows);
  for (uint64_t i = 0; i < rows; i += 9973) {
    EXPECT_EQ(staged->keys.as<uint64_t>()[i], plan->PackKey(i)) << i;
    EXPECT_EQ(staged->row_ids.as<uint32_t>()[i], i) << i;
    EXPECT_EQ(staged->payloads[0].as<int64_t>()[i],
              static_cast<int64_t>(i))
        << i;
  }
  EXPECT_EQ(staged->kmv_estimate, 97u);
}

TEST(RolapExclusionTest, ExactlyTwelveQueriesExceedDeviceMemory) {
  // The paper: "the prototype was only able to run 34 queries of these
  // queries as the memory in the K40 GPU is limited, and 12 of the
  // queries had memory requirements which exceeded the memory available."
  workload::ScaleConfig scale;
  scale.store_sales_rows = 50000;
  scale.customers = scale.store_sales_rows / 12;
  scale.items = scale.store_sales_rows / 60;
  auto db = workload::GenerateDatabase(scale);
  ASSERT_TRUE(db.ok());
  core::EngineConfig config;
  config.cpu_threads = 2;
  // The bench proportioning rule: rows x 96 bytes of device memory.
  config.device_spec =
      config.device_spec.WithMemory(scale.store_sales_rows * 96);
  config.thresholds.t1_min_rows = scale.store_sales_rows * 2 / 5;
  config.sort_min_gpu_rows =
      static_cast<uint32_t>(scale.store_sales_rows / 8);
  auto engine = harness::MakeEngine(*db, config);
  auto rolap = workload::MakeRolapQueries(*db);

  int gpu_in_first_34 = 0, gpu_in_last_12 = 0;
  for (size_t i = 0; i < rolap.size(); ++i) {
    auto r = engine->Execute(rolap[i].spec);
    ASSERT_TRUE(r.ok()) << rolap[i].spec.name;
    if (r->profile.gpu_used) {
      if (i < 34) ++gpu_in_first_34;
      else ++gpu_in_last_12;
    }
  }
  EXPECT_EQ(gpu_in_last_12, 0)
      << "oversized ROLAP queries must never reach the device";
  EXPECT_GE(gpu_in_first_34, 15)
      << "the runnable ROLAP set must actually exercise the device";
}

}  // namespace
}  // namespace blusim::groupby
