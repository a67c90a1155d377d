#include "groupby/staging.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/annotations.h"
#include "common/hash.h"
#include "common/kmv.h"
#include "runtime/evaluators.h"
#include "runtime/operators.h"

namespace blusim::groupby {

using columnar::Column;
using columnar::DataType;
using runtime::AggSlot;
using runtime::GroupByPlan;
using runtime::Stride;
using runtime::WideKey;

namespace {

constexpr uint64_t kMorselRows = 65536;

// Width of one slot's unfused SoA value-array element (accumulator width).
uint64_t SoAValueWidth(const AggSlot& slot) {
  return slot.acc_type == DataType::kDecimal128 ? 16 : 8;
}

// KMV merge and first-error tracking shared by the morsel workers.
struct SharedStageState {
  common::Mutex mu{"groupby.Staging.shared_mu", common::LockRank::kExec};
  KmvSketch kmv GUARDED_BY(mu) = KmvSketch(256);
  Status first_error GUARDED_BY(mu);
};

Result<StagedInput> StageSoA(const GroupByPlan& plan,
                             gpusim::PinnedHostPool* pinned_pool,
                             runtime::ThreadPool* pool,
                             const std::vector<uint32_t>* selection) {
  const uint64_t n =
      selection ? selection->size() : plan.table().num_rows();
  const auto& slots = plan.slots();

  StagedInput staged;
  staged.rows = n;
  staged.rows_scanned = n;
  staged.wide_key = plan.wide_key();
  staged.transfer_bytes = UnfusedStagedBytes(plan, n);

  // Allocate all pinned buffers up front so a pool failure costs nothing.
  const uint64_t key_bytes =
      n * (plan.wide_key() ? sizeof(WideKey) : sizeof(uint64_t));
  BLUSIM_ASSIGN_OR_RETURN(staged.keys, pinned_pool->Alloc(key_bytes));
  BLUSIM_ASSIGN_OR_RETURN(staged.row_ids,
                          pinned_pool->Alloc(n * sizeof(uint32_t)));
  staged.payloads.resize(slots.size());
  staged.validity.resize(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    const AggSlot& slot = slots[s];
    if (slot.input_column < 0) continue;  // COUNT(*): nothing staged
    // COUNT(col) ships only validity; other slots ship the value array.
    if (slot.fn != runtime::AggFn::kCount) {
      BLUSIM_ASSIGN_OR_RETURN(staged.payloads[s],
                              pinned_pool->Alloc(n * SoAValueWidth(slot)));
    }
    const Column& col =
        plan.table().column(static_cast<size_t>(slot.input_column));
    if (col.has_nulls()) {
      BLUSIM_ASSIGN_OR_RETURN(staged.validity[s], pinned_pool->Alloc(n));
    }
  }

  // Parallel chain + MEMCPY into the staged buffers at morsel offsets.
  const uint64_t num_morsels = runtime::NumMorsels(n, kMorselRows);
  runtime::GroupByChain chain(&plan);

  SharedStageState shared;
  std::atomic<bool> key_sentinel_hit{false};

  auto process = [&](uint64_t m) {
    Stride stride;
    stride.range = runtime::GetMorsel(n, kMorselRows, m);
    stride.selection = selection;
    Status st = chain.ProcessStride(&stride);
    if (!st.ok()) {
      common::MutexLock lock(&shared.mu);
      if (shared.first_error.ok()) shared.first_error = st;
      return;
    }
    const uint64_t rows = stride.num_rows();
    const uint64_t base = stride.range.begin;

    // MEMCPY evaluator: copy keys / row ids / payloads to pinned memory.
    if (plan.wide_key()) {
      std::memcpy(staged.keys.as<WideKey>() + base, stride.wide_keys.data(),
                  rows * sizeof(WideKey));
    } else {
      // Sentinel check fused into the copy: one pass over the keys instead
      // of a scan followed by a memcpy.
      const uint64_t* src = stride.packed_keys.data();
      uint64_t* dst = staged.keys.as<uint64_t>() + base;
      uint64_t sentinel_seen = 0;
      for (uint64_t i = 0; i < rows; ++i) {
        const uint64_t k = src[i];
        sentinel_seen |= (k == kEmptyKey64);
        dst[i] = k;
      }
      if (sentinel_seen != 0) {
        key_sentinel_hit.store(true, std::memory_order_relaxed);
      }
    }
    uint32_t* row_ids = staged.row_ids.as<uint32_t>() + base;
    for (uint64_t i = 0; i < rows; ++i) row_ids[i] = stride.InputRow(i);

    for (size_t s = 0; s < slots.size(); ++s) {
      const runtime::PayloadVector& pv = stride.payloads[s];
      if (staged.payloads[s].valid()) {
        switch (slots[s].acc_type) {
          case DataType::kFloat64:
            std::memcpy(staged.payloads[s].as<double>() + base,
                        pv.f64.data(), rows * sizeof(double));
            break;
          case DataType::kDecimal128:
            std::memcpy(staged.payloads[s].as<columnar::Decimal128>() + base,
                        pv.dec.data(), rows * sizeof(columnar::Decimal128));
            break;
          default:
            std::memcpy(staged.payloads[s].as<int64_t>() + base,
                        pv.i64.data(), rows * sizeof(int64_t));
            break;
        }
      }
      // Validity ships independently of values: COUNT(col) stages only
      // the validity bytes. Expanded 8 rows at a time: the flag bytes are
      // packed into one word and stored with a single 8-byte write.
      if (staged.validity[s].valid()) {
        uint8_t* vb = staged.validity[s].as<uint8_t>() + base;
        const uint64_t wide_end = rows & ~UINT64_C(7);
        for (uint64_t i = 0; i < wide_end; i += 8) {
          uint64_t word = 0;
          for (uint64_t j = 0; j < 8; ++j) {
            word |= static_cast<uint64_t>(pv.IsValid(i + j) ? 1 : 0)
                    << (8 * j);
          }
          std::memcpy(vb + i, &word, 8);
        }
        for (uint64_t i = wide_end; i < rows; ++i) {
          vb[i] = pv.IsValid(i) ? 1 : 0;
        }
      }
    }

    common::MutexLock lock(&shared.mu);
    shared.kmv.Merge(stride.kmv);
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, process);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) process(m);
  }
  {
    common::MutexLock lock(&shared.mu);
    BLUSIM_RETURN_NOT_OK(shared.first_error);
    staged.kmv_estimate = shared.kmv.Estimate();
  }

  if (key_sentinel_hit.load()) {
    return Status::NotSupported(
        "a packed grouping key equals the empty-entry sentinel (all Fs); "
        "query falls back to the CPU chain");
  }

  return staged;
}

// One slot's source for the fused record write, resolved once before the
// parallel sweep so the per-row loop touches the columns directly.
struct FusedFieldSpec {
  const Column* column = nullptr;
  const char* values = nullptr;  // the column's typed span, as bytes
  int width = 0;                  // bytes per value; 0: nothing to copy
  int value_offset = -1;  // -1: validity bit only (COUNT) or nothing
  int tag_bit = -1;       // -1: input column has no NULLs
};

Result<StagedInput> StageFusedRecords(const GroupByPlan& plan,
                                      gpusim::PinnedHostPool* pinned_pool,
                                      runtime::ThreadPool* pool,
                                      const std::vector<uint32_t>* selection) {
  BLUSIM_ASSIGN_OR_RETURN(FusedRecordLayout layout,
                          FusedRecordLayout::Make(plan));
  const columnar::Table& table = plan.table();
  const std::vector<runtime::Predicate>& filter = plan.stage_filter();
  BLUSIM_RETURN_NOT_OK(runtime::ValidatePredicates(table, filter));
  const uint64_t n = selection ? selection->size() : table.num_rows();
  const uint64_t stride_bytes = static_cast<uint64_t>(layout.record_bytes);

  StagedInput staged;
  staged.fused = true;
  staged.wide_key = false;
  staged.rows_scanned = n;
  staged.record_layout = layout;

  // The survivor count is unknown until the sweep runs, so the pinned
  // buffer is sized for the worst case (every row passes); only the
  // populated prefix is ever transferred (transfer_bytes).
  BLUSIM_ASSIGN_OR_RETURN(
      staged.records,
      pinned_pool->Alloc(std::max<uint64_t>(n, 1) * stride_bytes));
  staged.host_row_ids.resize(n);

  const auto& slots = plan.slots();
  std::vector<FusedFieldSpec> fields(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].input_column < 0) continue;
    const Column& col =
        table.column(static_cast<size_t>(slots[s].input_column));
    FusedFieldSpec& f = fields[s];
    f.column = &col;
    f.value_offset = layout.value_offsets[s];
    f.tag_bit = layout.tag_bits[s];
    if (f.value_offset < 0) continue;
    switch (slots[s].input_type) {
      case DataType::kInt32:
      case DataType::kDate:
        f.values = reinterpret_cast<const char*>(col.int32_data().data());
        f.width = 4;
        break;
      case DataType::kInt64:
        f.values = reinterpret_cast<const char*>(col.int64_data().data());
        f.width = 8;
        break;
      case DataType::kFloat64:
        f.values = reinterpret_cast<const char*>(col.float64_data().data());
        f.width = 8;
        break;
      case DataType::kDecimal128:
        f.values = reinterpret_cast<const char*>(col.decimal_data().data());
        f.width = 16;
        break;
      case DataType::kString:
        break;  // string aggregates are rejected at plan time
    }
  }

  const uint64_t num_morsels = runtime::NumMorsels(n, kMorselRows);
  SharedStageState shared;
  std::atomic<bool> key_sentinel_hit{false};
  // Compaction cursor: each morsel claims a contiguous record range for
  // its survivors. Claim order is racy, so staged-record order is
  // nondeterministic across runs -- harmless for grouping, which is
  // order-insensitive; the representative row a group reports may differ
  // between runs exactly as it already does between device threads.
  std::atomic<uint64_t> cursor{0};

  auto process = [&](uint64_t m) {
    const runtime::MorselRange range = runtime::GetMorsel(n, kMorselRows, m);
    // Fused filter: the morsel's survivors are found column-at-a-time
    // first; failing rows are never keyed, hashed or staged.
    std::vector<uint32_t> ids(range.size());
    const uint64_t count = runtime::SelectRows(
        table, filter, range, selection ? selection->data() : nullptr,
        ids.data());
    // With the survivor count known, the morsel claims its record range
    // up front and writes the records in place. Records are byte-packed,
    // so every byte of the claimed range is written below.
    const uint64_t base = cursor.fetch_add(count, std::memory_order_relaxed);
    char* records = staged.records.data() + base * stride_bytes;
    std::memcpy(staged.host_row_ids.data() + base, ids.data(),
                count * sizeof(uint32_t));
    KmvSketch kmv(256);
    uint64_t sentinel_seen = 0;

    for (uint64_t i = 0; i < count; ++i) {
      const uint32_t row = ids[i];
      const uint64_t key = plan.PackKey(row);
      // A 4-byte key (key_bits <= 32) can never equal the 64-bit all-Fs
      // sentinel; only full-width keys need the check.
      sentinel_seen |=
          static_cast<uint64_t>(layout.key_bytes == 8 && key == kEmptyKey64);
      // Same hash the HASH evaluator feeds its sketch, so fused and
      // unfused staging report identical group estimates for identical
      // survivor sets.
      kmv.AddHash(Mix64(key));

      char* rec = records + i * stride_bytes;
      if (layout.key_bytes == 4) {
        const uint32_t k32 = static_cast<uint32_t>(key);
        std::memcpy(rec, &k32, 4);
      } else {
        std::memcpy(rec, &key, 8);
      }
      uint32_t tag = 0;
      for (const FusedFieldSpec& f : fields) {
        if (f.column == nullptr) continue;
        if (f.tag_bit >= 0 && !f.column->IsNull(row)) {
          tag |= 1u << f.tag_bit;
        }
        if (f.width == 0) continue;  // validity bit only, or nothing
        // NULL rows still copy the placeholder value; the kernel masks
        // them via the validity tag, mirroring the SoA arrays.
        char* dst = rec + f.value_offset;
        const char* src = f.values + static_cast<uint64_t>(row) * f.width;
        switch (f.width) {
          case 4: std::memcpy(dst, src, 4); break;
          case 8: std::memcpy(dst, src, 8); break;
          default: std::memcpy(dst, src, 16); break;
        }
      }
      if (layout.tag_bytes > 0) {
        std::memcpy(rec + layout.tag_offset, &tag,
                    static_cast<size_t>(layout.tag_bytes));
      }
    }

    if (sentinel_seen != 0) {
      key_sentinel_hit.store(true, std::memory_order_relaxed);
    }
    common::MutexLock lock(&shared.mu);
    shared.kmv.Merge(kmv);
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, process);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) process(m);
  }

  staged.rows = cursor.load();
  staged.host_row_ids.resize(staged.rows);
  staged.transfer_bytes = staged.rows * stride_bytes;
  {
    common::MutexLock lock(&shared.mu);
    staged.kmv_estimate = shared.kmv.Estimate();
  }

  if (key_sentinel_hit.load()) {
    return Status::NotSupported(
        "a packed grouping key equals the empty-entry sentinel (all Fs); "
        "query falls back to the CPU chain");
  }

  return staged;
}

}  // namespace

uint64_t StagedInput::pinned_bytes() const {
  uint64_t total = keys.size() + row_ids.size() + records.size();
  for (const auto& p : payloads) total += p.size();
  for (const auto& v : validity) total += v.size();
  return total;
}

uint64_t UnfusedStagedBytes(const GroupByPlan& plan, uint64_t rows) {
  uint64_t bytes =
      rows * (plan.wide_key() ? sizeof(WideKey) : sizeof(uint64_t));
  bytes += rows * sizeof(uint32_t);  // row ids
  for (const AggSlot& slot : plan.slots()) {
    if (slot.input_column < 0) continue;
    if (slot.fn != runtime::AggFn::kCount) {
      bytes += rows * SoAValueWidth(slot);
    }
    const Column& col =
        plan.table().column(static_cast<size_t>(slot.input_column));
    if (col.has_nulls()) bytes += rows;
  }
  return bytes;
}

StageMode StageModeFor(const GroupByPlan& plan, bool fusion) {
  return fusion && !plan.wide_key() ? StageMode::kFusedRecords
                                    : StageMode::kSoA;
}

Result<StagedInput> StageForDevice(const GroupByPlan& plan,
                                   gpusim::PinnedHostPool* pinned_pool,
                                   runtime::ThreadPool* pool,
                                   const std::vector<uint32_t>* selection,
                                   StageMode mode) {
  // A deferred predicate can only be evaluated by the fused sweep; the SoA
  // MEMCPY chain expects its filter to have run upstream (FilterScan), so a
  // plan carrying a stage filter always takes the fused path.
  if (mode == StageMode::kFusedRecords || !plan.stage_filter().empty()) {
    return StageFusedRecords(plan, pinned_pool, pool, selection);
  }
  return StageSoA(plan, pinned_pool, pool, selection);
}

}  // namespace blusim::groupby
