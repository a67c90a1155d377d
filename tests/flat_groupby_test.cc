// Tests for the flat open-addressing CPU aggregation path: FlatAggTable
// mechanics (probe collisions, grow-and-rehash), FlatMap64 (join build
// side), and CpuGroupBy's partitioned merge under adversarial keys whose
// hashes collide across merge shards and across flat-table probes, and
// the near-unique path on inputs that mix near-unique and repeating
// morsels. All group-by results are differential-checked against in-test
// references (std::unordered_map / std::map, serial).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "columnar/table.h"
#include "common/bit_util.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "runtime/cpu_groupby.h"
#include "runtime/evaluators.h"
#include "runtime/flat_table.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;

// Inverse of Mix64 (fmix64): lets tests construct keys with chosen hash
// values, e.g. hashes identical in the partition bits (top) and the probe
// bits (bottom) at the same time.
uint64_t UnMix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0x9cb4b2f8129337dbULL;  // modular inverse of 0xc4ceb9fe1a85ec53
  h ^= h >> 33;
  h *= 0x4f74430c22a54005ULL;  // modular inverse of 0xff51afd7ed558ccd
  h ^= h >> 33;
  return h;
}

TEST(UnMix64Test, InvertsMix64) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t h = rng.Next();
    EXPECT_EQ(Mix64(UnMix64(h)), h);
    EXPECT_EQ(UnMix64(Mix64(h)), h);
  }
}

TEST(HashPartitionTest, UsesTopBitsAndCoversRange) {
  EXPECT_EQ(HashPartition(~0ULL, 1), 0u);
  EXPECT_EQ(HashPartition(~0ULL, 8), 7u);
  EXPECT_EQ(HashPartition(0, 8), 0u);
  // Only the top 3 bits matter for 8 partitions.
  EXPECT_EQ(HashPartition(0x1FFFFFFFFFFFFFFFULL, 8), 0u);
  EXPECT_EQ(HashPartition(0x2000000000000000ULL, 8), 1u);
}

TEST(HashTableCapacityTest, PowerOfTwoWithHeadroom) {
  EXPECT_EQ(HashTableCapacity(0), 64u);
  EXPECT_EQ(HashTableCapacity(100), 256u);
  for (uint64_t g : {1ULL, 63ULL, 1000ULL, 1000000ULL}) {
    const uint64_t cap = HashTableCapacity(g);
    EXPECT_EQ(cap & (cap - 1), 0u);
    EXPECT_GE(cap, g + g / 2);
  }
}

// Minimal plan: one int64 key, SUM(v) + COUNT(*).
struct PlanFixture {
  PlanFixture() {
    Schema schema;
    schema.AddField({"k", DataType::kInt64, false});
    schema.AddField({"v", DataType::kInt64, false});
    table = std::make_unique<Table>(schema);
    table->column(0).AppendInt64(0);
    table->column(1).AppendInt64(0);
    GroupBySpec spec;
    spec.key_columns = {0};
    spec.aggregates = {{AggFn::kSum, 1, "s"}, {AggFn::kCount, -1, "n"}};
    auto p = GroupByPlan::Make(*table, spec);
    BLUSIM_CHECK(p.ok());
    plan = std::make_unique<GroupByPlan>(std::move(p).value());
  }
  std::unique_ptr<Table> table;
  std::unique_ptr<GroupByPlan> plan;
};

TEST(FlatAggTableTest, ProbeCollisionsKeepKeysDistinct) {
  PlanFixture fx;
  // Sized for 0 groups (capacity 64); every key gets the SAME hash, so all
  // inserts fight over one probe chain and key comparison must resolve
  // them.
  FlatAggTable<uint64_t> t(fx.plan.get(), 0);
  constexpr uint64_t kHash = 0xDEADBEEFCAFEF00DULL;
  std::map<uint64_t, int64_t> ref;
  for (uint64_t k = 0; k < 300; ++k) {
    const uint32_t g = t.FindOrInsert(k, kHash, static_cast<uint32_t>(k));
    t.group_accs(g)[0].i64 += static_cast<int64_t>(k * 7);
    ref[k] += static_cast<int64_t>(k * 7);
  }
  // Second pass must find the same groups, not insert new ones.
  for (uint64_t k = 0; k < 300; ++k) {
    const uint32_t g = t.FindOrInsert(k, kHash, 0);
    t.group_accs(g)[0].i64 += 1;
    ref[k] += 1;
  }
  ASSERT_EQ(t.num_groups(), 300u);
  EXPECT_GE(t.rehash_count(), 1u);  // capacity 64 -> forced growth
  for (uint32_t g = 0; g < t.num_groups(); ++g) {
    EXPECT_EQ(t.group_accs(g)[0].i64, ref[t.group_key(g)]);
    EXPECT_EQ(t.group_hash(g), kHash);
  }
}

TEST(FlatAggTableTest, GrowAndRehashPreservesAccumulators) {
  PlanFixture fx;
  FlatAggTable<uint64_t> t(fx.plan.get(), 4);  // deliberately undersized
  constexpr uint64_t kGroups = 50000;
  for (uint64_t k = 0; k < kGroups; ++k) {
    const uint32_t g = t.FindOrInsert(k, Mix64(k), static_cast<uint32_t>(k));
    t.group_accs(g)[0].i64 += static_cast<int64_t>(k);
    t.group_accs(g)[1].i64 += 1;
  }
  ASSERT_EQ(t.num_groups(), kGroups);
  EXPECT_GE(t.rehash_count(), 8u);  // 64 -> 128 -> ... well past 16384
  ASSERT_TRUE(IsPow2(t.capacity()));
  for (uint64_t k = 0; k < kGroups; k += 997) {
    const uint32_t g = t.FindOrInsert(k, Mix64(k), 0);
    EXPECT_EQ(t.group_key(g), k);
    EXPECT_EQ(t.group_accs(g)[0].i64, static_cast<int64_t>(k));
    EXPECT_EQ(t.group_accs(g)[1].i64, 1);
    EXPECT_EQ(t.group_rep_row(g), static_cast<uint32_t>(k));
  }
}

TEST(FlatMap64Test, InsertFindDuplicatesAndGrowth) {
  FlatMap64 m(0);
  Rng rng(42);
  std::map<int64_t, uint32_t> ref;
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.Next() % 30000);
    const bool inserted = m.Insert(k, static_cast<uint32_t>(i));
    const bool ref_inserted = ref.emplace(k, static_cast<uint32_t>(i)).second;
    EXPECT_EQ(inserted, ref_inserted);
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const uint32_t* got = m.Find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(m.Find(-12345), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end CpuGroupBy differential tests against the previous
// implementation's algorithm: per-morsel std::unordered_map + serial merge.

struct RefEntry {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
};

// The pre-flat-table CPU algorithm, reduced to the shapes these tests use
// (int64 key; SUM/COUNT/MIN/MAX over int64). Kept as the differential
// reference for the new merge.
std::unordered_map<int64_t, RefEntry> ReferenceGroupBy(const Table& t) {
  std::unordered_map<int64_t, RefEntry> ref;
  const auto& keys = t.column(0).int64_data();
  const auto& vals = t.column(1).int64_data();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    RefEntry& e = ref[keys[i]];
    e.sum += vals[i];
    ++e.count;
    e.min = std::min(e.min, vals[i]);
    e.max = std::max(e.max, vals[i]);
  }
  return ref;
}

void RunDifferential(const Table& t, ThreadPool* pool,
                     CpuGroupByStats* stats) {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, -1, "n"},
                     {AggFn::kMin, 1, "mn"},
                     {AggFn::kMax, 1, "mx"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = CpuGroupBy::Execute(plan.value(), pool, nullptr, stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const auto ref = ReferenceGroupBy(t);
  ASSERT_EQ(out->num_groups, ref.size());
  const Table& res = *out->table;
  for (size_t r = 0; r < res.num_rows(); ++r) {
    const int64_t key = res.column(0).int64_data()[r];
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "unexpected group key " << key;
    EXPECT_EQ(res.column(1).int64_data()[r], it->second.sum);
    EXPECT_EQ(res.column(2).int64_data()[r], it->second.count);
    EXPECT_EQ(res.column(3).int64_data()[r], it->second.min);
    EXPECT_EQ(res.column(4).int64_data()[r], it->second.max);
  }
}

// Keys engineered so every group's hash agrees in BOTH the top 6 bits
// (one merge shard gets everything, kMaxMergeShards = 64) and the low 20
// bits (every probe starts at the same slot until growth spreads them).
TEST(CpuGroupByAdversarialTest, CrossPartitionAndProbeCollisions) {
  constexpr uint64_t kGroups = 512;
  constexpr uint64_t kRowsPerGroup = 400;  // 204800 rows -> 4 morsels
  std::vector<int64_t> keys(kGroups);
  for (uint64_t i = 0; i < kGroups; ++i) {
    const uint64_t hash =
        (0x2AULL << 58) | (i << 20) | 0xFFFFFULL;  // same top 6 + low 20 bits
    keys[i] = static_cast<int64_t>(UnMix64(hash));
  }

  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(7);
  for (uint64_t r = 0; r < kGroups * kRowsPerGroup; ++r) {
    t.column(0).AppendInt64(keys[rng.Below(kGroups)]);
    t.column(1).AppendInt64(rng.Range(-1000, 1000));
  }

  ThreadPool pool(4);
  CpuGroupByStats stats;
  RunDifferential(t, &pool, &stats);
  // The merge must actually have been partitioned (no global mutex path).
  EXPECT_GT(stats.merge_shards, 1u);
  EXPECT_GE(stats.partial_groups, kGroups);
}

// groups ~= rows: every local table's KMV-based sizing is stressed and the
// shard merge tables must grow-and-rehash their way up.
TEST(CpuGroupByAdversarialTest, HighCardinalityForcesGrowth) {
  constexpr uint64_t kRows = 200000;  // 4 morsels
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  for (uint64_t r = 0; r < kRows; ++r) {
    // Distinct key per row, scrambled so packed keys are not sequential.
    t.column(0).AppendInt64(static_cast<int64_t>(UnMix64(r * 2 + 1)));
    t.column(1).AppendInt64(static_cast<int64_t>(r % 97));
  }

  ThreadPool pool(4);
  CpuGroupByStats stats;
  RunDifferential(t, &pool, &stats);
  EXPECT_EQ(stats.partial_groups, kRows);  // every morsel fully distinct
  // Every morsel is near-unique, so no row was pre-aggregated locally.
  EXPECT_EQ(stats.unaggregated_rows, kRows);
  EXPECT_EQ(stats.local_rehashes, 0u);
  EXPECT_GT(stats.merge_shards, 1u);
}

// Serial (no pool) and parallel runs must agree exactly for integer
// aggregates regardless of merge order.
TEST(CpuGroupByAdversarialTest, SerialAndParallelAgree) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(31337);
  for (uint64_t r = 0; r < 150000; ++r) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(5000)));
    t.column(1).AppendInt64(rng.Range(-50, 50));
  }
  CpuGroupByStats serial_stats;
  RunDifferential(t, nullptr, &serial_stats);
  EXPECT_EQ(serial_stats.merge_shards, 1u);
  EXPECT_EQ(serial_stats.unaggregated_rows, 0u);
  ThreadPool pool(4);
  CpuGroupByStats parallel_stats;
  RunDifferential(t, &pool, &parallel_stats);
  EXPECT_GT(parallel_stats.merge_shards, 1u);
  // 5000 keys repeat within every morsel: all of them pre-aggregate.
  EXPECT_EQ(parallel_stats.unaggregated_rows, 0u);
}

// ---------------------------------------------------------------------------
// Mixed morsels: even morsels are near-unique (their rows skip the local
// table and are aggregated once, in the merge), odd ones repeat a few keys
// and pre-aggregate. Groups span both kinds, so the merge sees a group's raw
// rows and its pre-aggregated entries in the same shard.

constexpr uint64_t kMixedRows = 4 * CpuGroupBy::kMorselRows + 1000;
constexpr uint64_t kHotKeys = 300;

// Key id of row r: even morsels draw one row in eight from the hot keys and
// give the rest the morsel-relative row (so a "unique" key recurs once per
// even morsel); odd morsels draw hot keys or random "unique" ones.
std::vector<uint64_t> MixedKeyIds() {
  std::vector<uint64_t> ids(kMixedRows);
  Rng rng(2024);
  for (uint64_t r = 0; r < kMixedRows; ++r) {
    const uint64_t m = r / CpuGroupBy::kMorselRows;
    const uint64_t local = r % CpuGroupBy::kMorselRows;
    if (m % 2 == 0) {
      ids[r] = r % 8 == 0 ? (r / 8) % kHotKeys : kHotKeys + local;
    } else {
      ids[r] = rng.Below(2) == 0
                   ? rng.Below(kHotKeys)
                   : kHotKeys + rng.Below(CpuGroupBy::kMorselRows);
    }
  }
  return ids;
}

// Key columns (one int64 packed key, or three columns forming a wide key)
// followed by a nullable int64 `v` and a nullable decimal `d`.
Table MakeMixedTable(const std::vector<uint64_t>& ids, bool wide) {
  Schema schema;
  schema.AddField({"k0", DataType::kInt64, false});
  if (wide) {
    schema.AddField({"k1", DataType::kInt64, false});
    schema.AddField({"k2", DataType::kInt32, false});
  }
  schema.AddField({"v", DataType::kInt64, true});
  schema.AddField({"d", DataType::kDecimal128, true});
  Table t(schema);
  const size_t v_col = wide ? 3 : 1;
  for (uint64_t r = 0; r < ids.size(); ++r) {
    const auto id = static_cast<int64_t>(ids[r]);
    t.column(0).AppendInt64(id * 1000003 - 77);
    if (wide) {
      t.column(1).AppendInt64(-id * 31);
      t.column(2).AppendInt32(static_cast<int32_t>(id % 1000));
    }
    if (r % 11 == 0) {
      t.column(v_col).AppendNull();
    } else {
      t.column(v_col).AppendInt64(static_cast<int64_t>(r * 37 % 2001) - 1000);
    }
    if (r % 13 == 0) {
      t.column(v_col + 1).AppendNull();
    } else {
      t.column(v_col + 1).AppendDecimal(columnar::Decimal128(
          (static_cast<int64_t>(r % 100003) - 50000) * 1000000007LL));
    }
  }
  return t;
}

struct MixedRefGroup {
  uint32_t first_row = 0;
  std::vector<AccValue> accs;
};

void CheckMixedMorsels(bool wide) {
  const std::vector<uint64_t> ids = MixedKeyIds();
  const Table t = MakeMixedTable(ids, wide);
  const int v = wide ? 3 : 1;
  const int d = v + 1;
  GroupBySpec spec;
  spec.key_columns = wide ? std::vector<int>{0, 1, 2} : std::vector<int>{0};
  spec.aggregates = {{AggFn::kSum, v, "sv"},   {AggFn::kMin, v, "mnv"},
                     {AggFn::kMax, v, "mxv"},  {AggFn::kSum, d, "sd"},
                     {AggFn::kMin, d, "mnd"},  {AggFn::kMax, d, "mxd"},
                     {AggFn::kCount, -1, "n"}, {AggFn::kCount, v, "nv"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->wide_key(), wide);
  const auto& slots = plan->slots();
  ASSERT_EQ(slots.size(), spec.aggregates.size());

  // Reference: std::map by key id, first occurrence as representative,
  // aggregates applied row by row from each slot's identity.
  std::map<uint64_t, MixedRefGroup> ref;
  const auto& vi = t.column(static_cast<size_t>(v));
  const auto& dc = t.column(static_cast<size_t>(d));
  for (uint64_t r = 0; r < ids.size(); ++r) {
    auto [it, fresh] = ref.try_emplace(ids[r]);
    MixedRefGroup& g = it->second;
    if (fresh) {
      g.first_row = static_cast<uint32_t>(r);
      g.accs.resize(slots.size());
      for (size_t s = 0; s < slots.size(); ++s) InitAcc(slots[s], &g.accs[s]);
    }
    if (!vi.IsNull(r)) {
      const int64_t x = vi.int64_data()[r];
      g.accs[0].i64 += x;
      g.accs[1].i64 = std::min(g.accs[1].i64, x);
      g.accs[2].i64 = std::max(g.accs[2].i64, x);
      ++g.accs[7].i64;
    }
    if (!dc.IsNull(r)) {
      const columnar::Decimal128& x = dc.decimal_data()[r];
      g.accs[3].dec += x;
      g.accs[4].dec = std::min(g.accs[4].dec, x);
      g.accs[5].dec = std::max(g.accs[5].dec, x);
    }
    ++g.accs[6].i64;
  }

  auto check = [&](ThreadPool* pool, CpuGroupByStats* stats) {
    auto out = CpuGroupBy::ExecuteToFlat(plan.value(), pool, nullptr, stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->num_groups, ref.size());
    ASSERT_EQ(out->rep_rows.size(), ref.size());
    std::vector<bool> seen(kHotKeys + CpuGroupBy::kMorselRows, false);
    for (uint64_t g = 0; g < out->num_groups; ++g) {
      const uint32_t rep = out->rep_rows[g];
      ASSERT_LT(rep, ids.size());
      const auto it = ref.find(ids[rep]);
      ASSERT_NE(it, ref.end());
      EXPECT_FALSE(seen[ids[rep]]) << "group emitted twice: " << ids[rep];
      seen[ids[rep]] = true;
      EXPECT_EQ(rep, it->second.first_row) << "key " << ids[rep];
      const AccValue* got = &out->accs[g * slots.size()];
      for (size_t s = 0; s < slots.size(); ++s) {
        const AccValue& want = it->second.accs[s];
        if (slots[s].acc_type == DataType::kDecimal128) {
          EXPECT_EQ(got[s].dec, want.dec) << ids[rep] << " slot " << s;
        } else {
          EXPECT_EQ(got[s].i64, want.i64) << ids[rep] << " slot " << s;
        }
      }
    }
  };

  ThreadPool pool(4);
  CpuGroupByStats stats;
  check(&pool, &stats);
  EXPECT_GT(stats.merge_shards, 1u);
  // Morsels 0, 2 and the 1000-row tail are near-unique; 1 and 3 are not.
  EXPECT_EQ(stats.unaggregated_rows, 2 * CpuGroupBy::kMorselRows + 1000);
  CpuGroupByStats serial_stats;
  check(nullptr, &serial_stats);
  EXPECT_EQ(serial_stats.unaggregated_rows, 0u);
}

TEST(CpuGroupByMixedMorselTest, PackedKeyMatchesReference) {
  CheckMixedMorsels(/*wide=*/false);
}

TEST(CpuGroupByMixedMorselTest, WideKeyMatchesReference) {
  CheckMixedMorsels(/*wide=*/true);
}

}  // namespace
}  // namespace blusim::runtime
