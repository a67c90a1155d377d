#include "groupby/gpu_groupby.h"

#include <algorithm>
#include <cstring>

#include "common/bit_util.h"

#include "common/logging.h"
#include "groupby/kernels.h"
#include "groupby/staging.h"
#include "runtime/group_result.h"

namespace blusim::groupby {

using columnar::DataType;
using gpusim::DeviceBuffer;
using gpusim::GroupByKernelKind;
using gpusim::GroupByKernelParams;
using gpusim::SimDevice;
using runtime::AggSlot;
using runtime::GroupByOutput;
using runtime::GroupByPlan;
using runtime::GroupEntry;
using runtime::WideKey;

namespace {

// Table-growth retries when the KMV estimate was too low; each retry
// quadruples the capacity.
constexpr int kMaxRetries = 3;

// Moves staged SoA pinned buffers onto the device, charging transfer time
// and bytes for the TRUE array sizes. Pinned-pool allocations are 64-byte
// aligned, so PinnedBuffer::size() over-reports the wire size; the device
// allocations use the logical sizes so the kernels' checked accessors get
// tight bounds.
Status UploadInput(SimDevice* device, const gpusim::Reservation& reservation,
                   const StagedInput& staged, const GroupByPlan& plan,
                   DeviceInput* input, SimTime* transfer_time,
                   uint64_t* bytes_in) {
  const uint64_t rows = staged.rows;
  input->rows = rows;
  input->wide_key = staged.wide_key;

  auto upload = [&](const gpusim::PinnedBuffer& src, uint64_t bytes,
                    DeviceBuffer* dst) -> Status {
    BLUSIM_ASSIGN_OR_RETURN(*dst,
                            device->memory().Alloc(reservation, bytes));
    *transfer_time += device->CopyToDevice(src.data(), dst, bytes,
                                           /*pinned=*/true);
    *bytes_in += bytes;
    return Status::OK();
  };

  BLUSIM_RETURN_NOT_OK(upload(
      staged.keys,
      rows * (staged.wide_key ? sizeof(WideKey) : sizeof(uint64_t)),
      &input->keys));
  BLUSIM_RETURN_NOT_OK(
      upload(staged.row_ids, rows * sizeof(uint32_t), &input->row_ids));
  input->slots.resize(plan.slots().size());
  for (size_t s = 0; s < plan.slots().size(); ++s) {
    const AggSlot& slot = plan.slots()[s];
    if (staged.payloads[s].valid()) {
      const uint64_t width =
          slot.acc_type == DataType::kDecimal128 ? 16 : 8;
      BLUSIM_RETURN_NOT_OK(upload(staged.payloads[s], rows * width,
                                  &input->slots[s].values));
    }
    if (staged.validity[s].valid()) {
      BLUSIM_RETURN_NOT_OK(
          upload(staged.validity[s], rows, &input->slots[s].validity));
    }
  }
  return Status::OK();
}

// Fused path: one allocation, one transfer, exactly the record stream.
Status UploadFused(SimDevice* device, const gpusim::Reservation& reservation,
                   const StagedInput& staged, FusedDeviceInput* fused,
                   SimTime* transfer_time, uint64_t* bytes_in) {
  fused->rows = staged.rows;
  fused->layout = staged.record_layout;
  BLUSIM_ASSIGN_OR_RETURN(
      fused->records,
      device->memory().Alloc(reservation, staged.transfer_bytes));
  *transfer_time += device->CopyToDevice(staged.records.data(),
                                         &fused->records,
                                         staged.transfer_bytes,
                                         /*pinned=*/true);
  *bytes_in += staged.transfer_bytes;
  return Status::OK();
}

// Bytes per scanned row the fused staging sweep touches for its predicate
// evaluation (the stage_filter columns; 8 as a floor for the key load).
int StageScanBytesPerRow(const GroupByPlan& plan) {
  int bytes = 0;
  for (const runtime::Predicate& p : plan.stage_filter()) {
    const int w = columnar::DataTypeWidth(
        plan.table().column(static_cast<size_t>(p.column)).type());
    bytes += w == 0 ? 16 : w;  // strings: compare cost stand-in
  }
  return std::max(bytes, 8);
}

// Scans the device hash table (after readback) into GroupEntry records.
std::vector<GroupEntry> ScanTable(const GroupByPlan& plan,
                                  const HashTableLayout& layout,
                                  const char* table, uint64_t capacity) {
  std::vector<GroupEntry> groups;
  // Capacity carries ~1.5x headroom (HashTableCapacity), so half-full is
  // the common case; avoids log2(n) regrows while scanning.
  groups.reserve(capacity / 2);
  const uint64_t entry_bytes = static_cast<uint64_t>(layout.entry_bytes());
  for (uint64_t e = 0; e < capacity; ++e) {
    const char* entry = table + e * entry_bytes;
    if (layout.wide_key()) {
      uint32_t rep;
      std::memcpy(&rep, entry + layout.rep_row_offset(), 4);
      if (rep == kEmptyRow) continue;
    } else {
      uint64_t key;
      std::memcpy(&key, entry, 8);
      if (key == kEmptyKey64) continue;
    }
    GroupEntry g;
    std::memcpy(&g.rep_row, entry + layout.rep_row_offset(), 4);
    g.slots.resize(plan.slots().size());
    for (size_t s = 0; s < plan.slots().size(); ++s) {
      const AggSlot& slot = plan.slots()[s];
      const char* sp = entry + layout.slot_offset(s);
      switch (slot.acc_type) {
        case DataType::kFloat64:
          std::memcpy(&g.slots[s].f64, sp, 8);
          break;
        case DataType::kDecimal128:
          std::memcpy(&g.slots[s].dec, sp, 16);
          break;
        case DataType::kInt32:
        case DataType::kDate: {
          int32_t tmp;
          std::memcpy(&tmp, sp, 4);
          g.slots[s].i64 = tmp;
          break;
        }
        default:
          std::memcpy(&g.slots[s].i64, sp, 8);
          break;
      }
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

Status RunKernel(SimDevice* device, GroupByKernelKind kind,
                 const GroupByKernelArgs& args) {
  switch (kind) {
    case GroupByKernelKind::kRegular:
      return RunKernelRegular(device, args);
    case GroupByKernelKind::kSharedMem:
      return RunKernelSharedMem(device, args);
    case GroupByKernelKind::kRowLock:
      return RunKernelRowLock(device, args);
  }
  return Status::InvalidArgument("unknown kernel kind");
}

// Stable kernel names live next to the cost model so the monitor, the
// metrics registry and the trace exporters all agree on them.
const char* KernelName(GroupByKernelKind kind, bool fused) {
  return fused ? gpusim::GroupByKernelKindFusedName(kind)
               : gpusim::GroupByKernelKindName(kind);
}

}  // namespace

uint64_t GpuGroupBy::DeviceBytesNeeded(const GroupByPlan& plan,
                                       StageMode mode, uint64_t rows,
                                       uint64_t capacity) {
  const HashTableLayout layout(plan);
  uint64_t input_bytes = UnfusedStagedBytes(plan, rows);
  if (mode == StageMode::kFusedRecords) {
    auto record_layout = FusedRecordLayout::Make(plan);
    if (record_layout.ok()) {
      input_bytes =
          rows * static_cast<uint64_t>(record_layout.value().record_bytes);
    }
  }
  return input_bytes + layout.TableBytes(capacity);
}

Result<GroupByOutput> GpuGroupBy::Execute(
    const GroupByPlan& plan, SimDevice* device,
    gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
    GpuModerator* moderator, const std::vector<uint32_t>* selection,
    const GpuGroupByOptions& options, GpuGroupByStats* stats) {
  BLUSIM_ASSIGN_OR_RETURN(
      RawOutput raw,
      ExecuteToGroups(plan, device, pinned_pool, thread_pool, moderator,
                      selection, options, stats));
  GroupByOutput out;
  out.num_groups = raw.groups.size();
  out.kmv_estimate = raw.kmv_estimate;
  out.input_rows = raw.input_rows;
  BLUSIM_ASSIGN_OR_RETURN(out.table,
                          runtime::MaterializeGroups(plan, raw.groups));
  return out;
}

Result<GpuGroupBy::RawOutput> GpuGroupBy::ExecuteToGroups(
    const GroupByPlan& plan, SimDevice* device,
    gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
    GpuModerator* moderator, const std::vector<uint32_t>* selection,
    const GpuGroupByOptions& options, GpuGroupByStats* stats) {
  BLUSIM_CHECK(stats != nullptr);
  *stats = GpuGroupByStats{};
  const gpusim::CostModel& cost = device->cost_model();

  device->JobStarted();
  struct JobGuard {
    SimDevice* d;
    ~JobGuard() { d->JobFinished(); }
  } job_guard{device};

  // --- Stage into pinned memory (MEMCPY evaluator / fused sweep) ---
  const int dop = thread_pool ? thread_pool->num_threads() : 1;
  BLUSIM_ASSIGN_OR_RETURN(
      StagedInput staged,
      StageForDevice(plan, pinned_pool, thread_pool, selection,
                     StageModeFor(plan, options.allow_fusion)));
  const uint64_t rows = staged.rows;
  stats->fused = staged.fused;
  stats->rows_scanned = staged.rows_scanned;
  stats->rows_staged = rows;
  stats->kmv_estimate = staged.kmv_estimate;
  if (staged.fused) {
    stats->stage_time = cost.HostFusedStageTime(
        staged.rows_scanned, StageScanBytesPerRow(plan), rows,
        staged.transfer_bytes, dop);
    stats->bytes_avoided = UnfusedStagedBytes(plan, rows) -
                           staged.transfer_bytes;
  } else {
    stats->stage_time = cost.HostKeyGenTime(rows, dop) +
                        cost.HostMemcpyTime(staged.transfer_bytes);
  }
  if (rows == 0) {
    return RawOutput{};
  }

  const HashTableLayout layout(plan);
  uint64_t capacity = ChooseCapacity(staged.kmv_estimate);

  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    // --- Reserve all device memory up front (section 2.1.1) ---
    const uint64_t input_bytes =
        staged.fused ? staged.transfer_bytes : UnfusedStagedBytes(plan, rows);
    const uint64_t need = input_bytes + layout.TableBytes(capacity);
    auto reservation_result = device->memory().Reserve(need);
    if (!reservation_result.ok()) {
      return reservation_result.status();
    }
    gpusim::Reservation reservation = std::move(reservation_result).value();
    stats->device_bytes_reserved = need;

    // --- Transfer input (only costed once; retries reuse the input) ---
    DeviceInput input;
    FusedDeviceInput fused_input;
    SimTime transfer_in = 0;
    uint64_t bytes_in = 0;
    if (staged.fused) {
      BLUSIM_RETURN_NOT_OK(UploadFused(device, reservation, staged,
                                       &fused_input, &transfer_in,
                                       &bytes_in));
    } else {
      BLUSIM_RETURN_NOT_OK(UploadInput(device, reservation, staged, plan,
                                       &input, &transfer_in, &bytes_in));
    }
    if (attempt == 0) {
      stats->transfer_in = transfer_in;
      stats->bytes_in = bytes_in;
    }

    // --- Allocate + mask-init the hash table ---
    BLUSIM_ASSIGN_OR_RETURN(
        DeviceBuffer table,
        device->memory().Alloc(reservation, layout.TableBytes(capacity)));
    BLUSIM_RETURN_NOT_OK(
        InitHashTable(device, layout, plan, table.data(), capacity));
    const SimTime init_time =
        cost.HashTableInitTime(layout.TableBytes(capacity));
    stats->table_init += init_time;
    device->monitor().Record(gpusim::GpuEvent::kHashTableInit, init_time,
                             layout.TableBytes(capacity));

    // --- Moderator selects the kernel (section 4.2) ---
    QueryMetadata metadata;
    metadata.rows = rows;
    metadata.estimated_groups = staged.kmv_estimate;
    metadata.num_aggregates = static_cast<int>(plan.slots().size());
    metadata.wide_key = plan.wide_key();
    metadata.lock_typed_payload = false;
    for (const AggSlot& s : plan.slots()) {
      if (s.lock_required) metadata.lock_typed_payload = true;
    }

    GroupByKernelParams kp;
    kp.rows = rows;
    kp.groups = std::max<uint64_t>(1, staged.kmv_estimate);
    kp.num_aggregates = metadata.num_aggregates;
    kp.key_bytes = plan.key_bytes();
    kp.payload_bytes = plan.payload_bytes_per_row();
    kp.record_bytes = staged.fused ? staged.record_layout.record_bytes : 0;
    kp.wide_key = plan.wide_key();
    kp.lock_typed_payload = metadata.lock_typed_payload;

    const GroupByKernelKind chosen = moderator->ChooseKernel(
        metadata, layout, Kernel2SharedMemBytes(device->spec()));

    std::atomic<uint64_t> overflow{0};
    GroupByKernelArgs args;
    args.plan = &plan;
    args.layout = &layout;
    if (staged.fused) {
      args.fused = &fused_input;
    } else {
      args.input = &input;
    }
    args.table = table.data();
    args.capacity = capacity;
    args.overflow = &overflow;

    // Fused runs cost through the fused kernel model and report under the
    // fused kernel names.
    const SimTime t = staged.fused ? cost.FusedScanAggregateTime(chosen, kp)
                                   : cost.GroupByKernelTime(chosen, kp);
    BLUSIM_RETURN_NOT_OK(RunKernel(device, chosen, args));
    stats->kernel_time += t;
    device->AccountKernel(KernelName(chosen, staged.fused), t);
    stats->kernel_used = chosen;
    stats->table_capacity = capacity;

    // --- Error-recovery path: the KMV estimate was too low and the table
    // filled up. Grow it and retry (section 4.2). ---
    if (overflow.load() > 0) {
      if (attempt == kMaxRetries) {
        return Status::EstimateTooLow(
            "hash table overflowed after max retries");
      }
      ++stats->retries;
      capacity *= 4;
      continue;  // reservation released by RAII; next attempt re-reserves
    }

    // --- Readback ---
    std::vector<char> host_table(layout.TableBytes(capacity));
    stats->transfer_out = device->CopyFromDevice(
        table, host_table.data(), host_table.size(), /*pinned=*/true);
    stats->bytes_out = host_table.size();

    RawOutput out;
    out.groups = ScanTable(plan, layout, host_table.data(), capacity);
    if (staged.fused) {
      // Fused kernels store the staged record index as the representative
      // row (row ids never cross the bus); map back to input row ids.
      for (GroupEntry& g : out.groups) {
        if (g.rep_row < staged.host_row_ids.size()) {
          g.rep_row = staged.host_row_ids[g.rep_row];
        }
      }
    }
    out.kmv_estimate = staged.kmv_estimate;
    out.input_rows = rows;
    return out;
  }
  return Status::Internal("unreachable: retry loop exited");
}

}  // namespace blusim::groupby
