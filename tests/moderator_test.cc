// Tests for the GPU moderator's kernel-selection rules (section 4.3).

#include "groupby/moderator.h"

#include <gtest/gtest.h>

#include "columnar/table.h"
#include "groupby/kernels.h"

namespace blusim::groupby {
namespace {

using gpusim::GroupByKernelKind;

class ModeratorTest : public ::testing::Test {
 protected:
  ModeratorTest() {
    columnar::Schema schema;
    schema.AddField({"k", columnar::DataType::kInt64, false});
    schema.AddField({"v", columnar::DataType::kInt64, false});
    table_ = std::make_unique<columnar::Table>(schema);
    table_->column(0).AppendInt64(1);
    table_->column(1).AppendInt64(1);
    runtime::GroupBySpec spec;
    spec.key_columns = {0};
    spec.aggregates = {{runtime::AggFn::kSum, 1, "s"}};
    auto plan = runtime::GroupByPlan::Make(*table_, spec);
    plan_ = std::make_unique<runtime::GroupByPlan>(std::move(plan).value());
    layout_ = std::make_unique<HashTableLayout>(*plan_);
  }

  QueryMetadata Meta(uint64_t rows, uint64_t groups, int aggs) {
    QueryMetadata m;
    m.rows = rows;
    m.estimated_groups = groups;
    m.num_aggregates = aggs;
    return m;
  }

  static constexpr uint64_t kSharedMem = 48 << 10;

  std::unique_ptr<columnar::Table> table_;
  std::unique_ptr<runtime::GroupByPlan> plan_;
  std::unique_ptr<HashTableLayout> layout_;
};

TEST_F(ModeratorTest, RegularQueriesGetKernel1) {
  GpuModerator mod;
  EXPECT_EQ(mod.ChooseKernel(Meta(4000000, 50000, 3), *layout_, kSharedMem),
            GroupByKernelKind::kRegular);
}

TEST_F(ModeratorTest, FewGroupsGetKernel2) {
  // The paper's example: grouping employees by birth month (12 groups).
  GpuModerator mod;
  EXPECT_EQ(mod.ChooseKernel(Meta(4000000, 12, 3), *layout_, kSharedMem),
            GroupByKernelKind::kSharedMem);

  // Kernel 2 takes groups up to shared capacity x shared_table_max_fill,
  // inclusive; one group more goes to the global table.
  const uint64_t limit = static_cast<uint64_t>(
      static_cast<double>(SharedTableCapacity(*layout_, kSharedMem)) *
      mod.options().shared_table_max_fill);
  ASSERT_GT(limit, 0u);
  EXPECT_EQ(mod.ChooseKernel(Meta(4000000, limit, 3), *layout_, kSharedMem),
            GroupByKernelKind::kSharedMem);
  EXPECT_EQ(
      mod.ChooseKernel(Meta(4000000, limit + 1, 3), *layout_, kSharedMem),
      GroupByKernelKind::kRegular);
}

TEST_F(ModeratorTest, ManyAggregatesGetKernel3) {
  // "more than 5" aggregation functions (section 4.3.3).
  GpuModerator mod;
  EXPECT_EQ(mod.ChooseKernel(Meta(4000000, 50000, 6), *layout_, kSharedMem),
            GroupByKernelKind::kRowLock);
  EXPECT_EQ(mod.ChooseKernel(Meta(4000000, 50000, 5), *layout_, kSharedMem),
            GroupByKernelKind::kRegular);
}

TEST_F(ModeratorTest, LowContentionGetsKernel3) {
  GpuModerator mod;
  EXPECT_EQ(mod.ChooseKernel(Meta(1000000, 800000, 3), *layout_, kSharedMem),
            GroupByKernelKind::kRowLock);
  // Kernel 3 needs rows/groups strictly below 4.0: exactly 4.0 stays on
  // kernel 1, just under it moves.
  EXPECT_EQ(mod.ChooseKernel(Meta(400000, 100000, 3), *layout_, kSharedMem),
            GroupByKernelKind::kRegular);
  EXPECT_EQ(mod.ChooseKernel(Meta(399999, 100000, 3), *layout_, kSharedMem),
            GroupByKernelKind::kRowLock);
}

TEST_F(ModeratorTest, WideKeysNeverGetKernel2) {
  GpuModerator mod;
  for (uint64_t groups : {2ULL, 12ULL, 1000ULL}) {
    QueryMetadata m = Meta(4000000, groups, 3);
    m.wide_key = true;
    EXPECT_EQ(mod.ChooseKernel(m, *layout_, kSharedMem),
              GroupByKernelKind::kRegular)
        << groups << " groups";
  }
}

TEST_F(ModeratorTest, LockTypedPayloadPrefersRowLock) {
  GpuModerator mod;
  QueryMetadata m = Meta(4000000, 50000, 3);
  m.lock_typed_payload = true;
  EXPECT_EQ(mod.ChooseKernel(m, *layout_, kSharedMem),
            GroupByKernelKind::kRowLock);
}

TEST_F(ModeratorTest, CandidatesAlwaysContainRegular) {
  // Kernel 1 is the fallback: when the shared table cannot hold the groups
  // (too many of them, or no shared memory at all) and no kernel-3 rule
  // fires, the pick is the regular kernel.
  GpuModerator mod;
  for (uint64_t groups : {2ULL, 1000ULL, 100000ULL}) {
    EXPECT_EQ(mod.ChooseKernel(Meta(2000000, groups, 3), *layout_,
                               /*usable_shared_mem=*/0),
              GroupByKernelKind::kRegular)
        << groups << " groups";
  }
  EXPECT_EQ(mod.ChooseKernel(Meta(2000000, 100000, 3), *layout_, kSharedMem),
            GroupByKernelKind::kRegular);
}

TEST(SharedTableCapacityTest, FitsBudget) {
  columnar::Schema schema;
  schema.AddField({"k", columnar::DataType::kInt64, false});
  schema.AddField({"v", columnar::DataType::kInt64, false});
  columnar::Table t(schema);
  t.column(0).AppendInt64(1);
  t.column(1).AppendInt64(1);
  runtime::GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{runtime::AggFn::kSum, 1, "s"}};
  auto plan = runtime::GroupByPlan::Make(t, spec);
  HashTableLayout layout(plan.value());
  const uint64_t cap = SharedTableCapacity(layout, 48 << 10);
  EXPECT_GT(cap, 0u);
  EXPECT_LE(cap * static_cast<uint64_t>(layout.entry_bytes()),
            static_cast<uint64_t>(48 << 10));
  // Doubling would not fit.
  EXPECT_GT(cap * 2 * static_cast<uint64_t>(layout.entry_bytes()),
            static_cast<uint64_t>(48 << 10));
  EXPECT_EQ(SharedTableCapacity(layout, 0), 0u);
}

}  // namespace
}  // namespace blusim::groupby
