#ifndef BLUSIM_GROUPBY_STAGING_H_
#define BLUSIM_GROUPBY_STAGING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "gpusim/pinned_pool.h"
#include "groupby/layout.h"
#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::groupby {

// How StageForDevice lays out the staged input.
enum class StageMode {
  // Classic MEMCPY evaluator (paper section 4.1): the chain prefix runs
  // first, then keys / row ids / payloads / validity are copied into one
  // SoA pinned buffer per stream.
  kSoA = 0,
  // Data-path fusion: predicate evaluation, partial-key encoding and
  // validity expansion happen in one sweep during the pinned-buffer copy.
  // Rows failing plan.stage_filter() are never staged, and survivors are
  // written as compact interleaved records (FusedRecordLayout), so the
  // host->device transfer shrinks with both selectivity and record width.
  kFusedRecords,
};

// The one definition of a group-by's stage mode: fused records exactly
// when fusion is on and the grouping key packs into <= 64 bits (the only
// keys FusedRecordLayout can carry); SoA otherwise. There is no per-query
// cost comparison -- fusion is the data path, not a bet.
StageMode StageModeFor(const runtime::GroupByPlan& plan, bool fusion);

// The MEMCPY evaluator's output (paper section 4.1): the group-by chain's
// inputs staged contiguously in pre-registered (pinned) host memory, ready
// for a single fast PCIe transfer.
struct StagedInput {
  uint64_t rows = 0;          // rows staged (filter survivors when fused)
  uint64_t rows_scanned = 0;  // rows the staging sweep examined
  bool wide_key = false;
  bool fused = false;

  // --- kSoA: one buffer per logical stream ---
  gpusim::PinnedBuffer keys;     // uint64_t[rows] or WideKey[rows]
  gpusim::PinnedBuffer row_ids;  // uint32_t[rows] (representative-row ids)
  // Per plan slot: value array (int64/double/Decimal128; empty for
  // COUNT(*)) and optional validity bytes (empty if no NULLs).
  std::vector<gpusim::PinnedBuffer> payloads;
  std::vector<gpusim::PinnedBuffer> validity;

  // --- kFusedRecords: one interleaved record stream ---
  gpusim::PinnedBuffer records;  // record_layout.record_bytes * rows
  FusedRecordLayout record_layout;
  // Staged-record index -> input row id. Host-resident only: the fused
  // kernels store the record index as the representative row and the host
  // remaps it after readback, so row ids never cross the PCIe bus.
  std::vector<uint32_t> host_row_ids;

  // Group-count estimate from the KMV sketch fed by the staging sweep.
  uint64_t kmv_estimate = 0;

  // Bytes actually shipped host->device (the size every transfer-cost and
  // fair-share-budget consumer wants). NOT the pinned allocation: pool
  // buffers are 64-byte aligned, so PinnedBuffer::size() over-reports the
  // wire size -- use pinned_bytes() for the allocation footprint.
  uint64_t transfer_bytes = 0;

  // Pinned-pool footprint of all staged buffers (aligned allocations).
  uint64_t pinned_bytes() const;
};

// True bytes the unfused SoA staging ships for `rows` staged rows (logical
// array sizes, not aligned pinned allocations). Shared by the stager, the
// device-memory estimator and the fused path's "staged bytes avoided"
// accounting.
uint64_t UnfusedStagedBytes(const runtime::GroupByPlan& plan, uint64_t rows);

// Runs the staging pass over all morsels in parallel.
//
// kSoA: chain prefix (LCOG/CCAT -> LCOV -> HASH) per stride, then MEMCPY
// into the SoA pinned buffers. plan.stage_filter() is ignored (the caller
// pre-filters via a selection vector).
//
// kFusedRecords: single fused sweep per morsel -- predicate eval, key
// packing, KMV hashing, validity-bit packing and the pinned record write
// all in one pass. Survivor records are claimed with an atomic cursor, so
// record order across morsels is nondeterministic (group-by results do not
// depend on it).
//
// Fails with:
//  * OutOfHostMemory    -- pinned pool cannot hold the staged input
//  * NotSupported       -- a packed key collides with the empty-entry
//                          sentinel (all-Fs) and the device path is
//                          unsafe, or kFusedRecords was asked for a wide
//                          key
Result<StagedInput> StageForDevice(const runtime::GroupByPlan& plan,
                                   gpusim::PinnedHostPool* pinned_pool,
                                   runtime::ThreadPool* pool,
                                   const std::vector<uint32_t>* selection,
                                   StageMode mode = StageMode::kSoA);

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_STAGING_H_
