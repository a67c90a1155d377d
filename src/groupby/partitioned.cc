#include "groupby/partitioned.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/annotations.h"
#include "common/bit_util.h"
#include "common/hash.h"
#include "common/kmv.h"
#include "common/logging.h"
#include "common/task_tag.h"
#include "common/thread.h"
#include "groupby/layout.h"
#include "runtime/group_result.h"

namespace blusim::groupby {

using runtime::GroupByOutput;
using runtime::GroupByPlan;
using runtime::GroupEntry;
using runtime::WideKey;

namespace {

// Partition-sweep morsel size (matches the CPU chain's granularity).
constexpr uint64_t kSweepMorselRows = 65536;

// Hash-partition fan-out bounds. The floor keeps the queue deep enough for
// lanes to self-balance; the ceiling bounds per-partition bookkeeping.
constexpr uint32_t kMinPartitionsPerDevice = 4;
constexpr uint32_t kMinPartitions = 8;
constexpr uint32_t kMaxPartitions = 1024;

// The group-key hash that decides a row's partition. Any fixed hash works
// for correctness -- all that matters is that equal keys land in the same
// partition, which makes the partitions disjoint in group space and the
// final merge a concatenation.
uint64_t PartitionHash(const GroupByPlan& plan, uint32_t row) {
  if (plan.wide_key()) {
    WideKey wk;
    plan.FillWideKey(row, &wk);
    return Murmur3_64(wk.bytes, wk.len);
  }
  return Mix64(plan.PackKey(row));
}

// Per-partition execution record; each slot is owned by exactly one worker
// (the one that popped its partition id), so no locking beyond the queue
// pop/join edges is needed.
struct PartitionSlot {
  bool used = false;
  bool on_gpu = false;
  bool gpu_fallback = false;
  int device_id = -1;
  uint64_t task_tag = 0;
  SimTime wait = 0;
  SimTime cpu_time = 0;
  GpuGroupByStats gpu;
  uint64_t groups_found = 0;
  uint64_t kmv = 0;
  // Exactly one of these holds the partition's partial result.
  std::vector<GroupEntry> gpu_groups;
  runtime::CpuFlatGroups cpu_flat;
};

// Shared work-queue state. Device lanes pop the front (largest remaining
// partition); the CPU lane steals from the back (smallest) once its
// pre-assigned share is done. The mutex is never held across partition
// work -- pop, release, execute.
struct WorkQueue {
  common::Mutex mu{"groupby.Partitioned.queue_mu", common::LockRank::kExec};
  std::deque<uint32_t> device_queue GUARDED_BY(mu);
  Status first_error GUARDED_BY(mu);
  bool abort GUARDED_BY(mu) = false;
};

// Fan-out selection, shared by MakeShape (so the cost model sees the same
// chunking the runtime will use) and Execute: start with enough partitions
// to keep every lane fed, double until the average partition fits a device
// chunk. Writes the final chunk bound to *max_rows_out; a bound of 0 means
// even one partition's hash table exceeds the smallest device.
uint32_t ChooseFanOut(const GroupByPlan& plan, uint64_t rows, uint64_t groups,
                      uint64_t min_device_mem, int num_devices, StageMode mode,
                      uint64_t* max_rows_out) {
  uint32_t p = static_cast<uint32_t>(NextPow2(std::max<uint64_t>(
      kMinPartitions, static_cast<uint64_t>(kMinPartitionsPerDevice) *
                          static_cast<uint64_t>(std::max(1, num_devices)))));
  uint64_t max_rows = 0;
  for (;;) {
    max_rows = PartitionedGroupBy::MaxRowsPerChunk(
        plan, std::max<uint64_t>(1, groups / p), min_device_mem, mode);
    if (max_rows == 0) break;
    if (CeilDiv(rows, p) <= max_rows || p >= kMaxPartitions) break;
    p *= 2;
  }
  *max_rows_out = max_rows;
  return p;
}

}  // namespace

uint64_t PartitionedGroupBy::MaxRowsPerChunk(const GroupByPlan& plan,
                                             uint64_t estimated_groups,
                                             uint64_t device_memory_bytes,
                                             StageMode mode) {
  const HashTableLayout layout(plan);
  // A chunk can hold at most min(groups, rows) distinct groups; size the
  // table for the full estimate (pessimistic but safe).
  const uint64_t table_bytes =
      layout.TableBytes(ChooseCapacity(estimated_groups));
  // Leave half the device free for concurrently scheduled work.
  const uint64_t budget = device_memory_bytes / 2;
  if (table_bytes >= budget) return 0;
  // Per-row input bytes for the requested staging mode, measured on a
  // reference row count. Fused records are denser than the SoA arrays, so
  // fused chunks pack more rows into the same budget.
  constexpr uint64_t kProbeRows = 4096;
  const uint64_t probe_total =
      GpuGroupBy::DeviceBytesNeeded(plan, mode, kProbeRows, 64) -
      layout.TableBytes(64);
  const uint64_t per_row = std::max<uint64_t>(1, probe_total / kProbeRows);
  return (budget - table_bytes) / per_row;
}

gpusim::PartitionedShape PartitionedGroupBy::MakeShape(
    const GroupByPlan& plan, uint64_t rows, uint64_t groups,
    uint64_t min_device_memory, int num_devices, StageMode mode,
    int cpu_dop, int stage_dop) {
  gpusim::PartitionedShape s;
  s.rows = rows;
  s.groups = std::max<uint64_t>(1, groups);
  s.num_aggregates = static_cast<int>(plan.slots().size());
  const HashTableLayout layout(plan);
  s.entry_bytes = static_cast<uint64_t>(layout.entry_bytes());
  s.key_bytes = layout.key_bytes();
  s.fused = mode == StageMode::kFusedRecords;
  s.record_bytes =
      s.fused ? FusedRecordLayout::Make(plan).value().record_bytes : 0;
  // Wire bytes per device-bound row, measured the same way the memory
  // estimators measure it.
  constexpr uint64_t kProbeRows = 1024;
  const uint64_t soa_per_row =
      UnfusedStagedBytes(plan, kProbeRows) / kProbeRows;
  s.gpu_bytes_per_row =
      s.fused ? static_cast<uint64_t>(s.record_bytes) : soa_per_row;
  // Per-row payload width for the kernel model: SoA bytes minus the key
  // and row-id streams.
  s.payload_bytes = static_cast<int>(
      soa_per_row > 12 ? soa_per_row - 12 : std::max<uint64_t>(4, soa_per_row));
  s.num_devices = num_devices;
  s.cpu_dop = cpu_dop;
  s.stage_dop = stage_dop;
  // Fan-out and chunk bound: the same doubling loop Execute runs, so
  // PartitionedTime charges per-chunk overheads for exactly the chunks the
  // runtime will dispatch.
  uint64_t max_rows = 0;
  s.num_partitions = ChooseFanOut(plan, rows, s.groups, min_device_memory,
                                  num_devices, mode, &max_rows);
  s.max_rows_per_chunk = max_rows;
  return s;
}

Result<GroupByOutput> PartitionedGroupBy::Execute(
    const GroupByPlan& plan, sched::GpuScheduler* scheduler,
    gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
    GpuModerator* moderator, const std::vector<uint32_t>& selection,
    const PartitionedOptions& options, PartitionedStats* stats) {
  BLUSIM_CHECK(stats != nullptr);
  *stats = PartitionedStats{};
  const int num_devices = static_cast<int>(scheduler->num_devices());
  if (num_devices == 0) {
    return Status::DeviceUnavailable("partitioned path requires devices");
  }
  const uint64_t total_rows = selection.size();
  if (total_rows == 0) {
    GroupByOutput out;
    const std::vector<uint32_t> no_rows;
    const std::vector<runtime::AccValue> no_accs;
    BLUSIM_ASSIGN_OR_RETURN(
        out.table, runtime::MaterializeGroupsFlat(plan, no_rows, no_accs));
    return out;
  }
  const gpusim::CostModel& cost = options.cost != nullptr
                                      ? *options.cost
                                      : scheduler->device(0)->cost_model();
  const size_t num_slots = plan.slots().size();
  const int pool_dop =
      thread_pool != nullptr ? std::max(1, thread_pool->num_threads()) : 1;
  const double host_factor =
      cost.HostParallelFactor(std::max(1, options.cpu_dop));

  // Group-count estimate: the optimizer's if present, else a coarse KMV
  // over a stride of the selection keys.
  uint64_t estimated_groups = options.gpu.estimated_groups;
  if (estimated_groups == 0) {
    KmvSketch sketch(256);
    const uint64_t stride = std::max<uint64_t>(1, total_rows / 65536);
    for (uint64_t i = 0; i < total_rows; i += stride) {
      sketch.AddHash(PartitionHash(plan, selection[i]));
    }
    estimated_groups = std::max<uint64_t>(1, sketch.Estimate());
  }

  // Every device chunk stages in this one mode: chunk sizing, each chunk's
  // placement bytes and its own reservation all follow it.
  const StageMode mode = StageModeFor(plan, options.gpu.allow_fusion);
  stats->stage_mode = mode;

  // Smallest device bounds the chunk size (heterogeneous devices allowed).
  uint64_t min_device_mem = UINT64_MAX;
  for (gpusim::SimDevice* d : scheduler->devices()) {
    min_device_mem = std::min(min_device_mem, d->spec().device_memory_bytes);
  }

  // Hash-partition fan-out: enough partitions to keep every lane fed,
  // doubled until the average partition fits a device chunk.
  uint64_t max_rows = 0;
  const uint32_t num_partitions =
      ChooseFanOut(plan, total_rows, estimated_groups, min_device_mem,
                   num_devices, mode, &max_rows);
  if (max_rows == 0) {
    return Status::CapacityExceeded(
        "hash table alone exceeds the smallest device");
  }
  stats->num_partitions = num_partitions;

  // --- Partition sweep ---
  // Hash every selected key and scatter its row id, morsel-parallel with
  // per-morsel buckets concatenated in morsel order so partition contents
  // (and float merge order downstream) are deterministic run-to-run.
  const uint64_t num_morsels =
      runtime::NumMorsels(total_rows, kSweepMorselRows);
  std::vector<std::vector<std::vector<uint32_t>>> morsel_buckets(num_morsels);
  auto sweep_morsel = [&](uint64_t m) {
    const runtime::MorselRange r =
        runtime::GetMorsel(total_rows, kSweepMorselRows, m);
    std::vector<std::vector<uint32_t>> buckets(num_partitions);
    for (uint64_t i = r.begin; i < r.end; ++i) {
      const uint32_t row = selection[i];
      buckets[HashPartition(PartitionHash(plan, row), num_partitions)]
          .push_back(row);
    }
    morsel_buckets[m] = std::move(buckets);
  };
  if (thread_pool != nullptr) {
    thread_pool->ParallelFor(num_morsels, sweep_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) sweep_morsel(m);
  }
  std::vector<std::vector<uint32_t>> partitions(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    uint64_t n = 0;
    for (const auto& buckets : morsel_buckets) n += buckets[p].size();
    partitions[p].reserve(n);
    for (auto& buckets : morsel_buckets) {
      partitions[p].insert(partitions[p].end(), buckets[p].begin(),
                           buckets[p].end());
    }
  }
  morsel_buckets.clear();
  stats->partition_time =
      cost.HostKeyGenTime(total_rows, 1) + cost.HostMemcpyTime(total_rows * 4);

  // --- Split + queues ---
  // Non-empty partitions sorted by size, descending.
  std::vector<uint32_t> order;
  order.reserve(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (!partitions[p].empty()) order.push_back(p);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (partitions[a].size() != partitions[b].size()) {
      return partitions[a].size() > partitions[b].size();
    }
    return a < b;
  });

  double cpu_fraction = options.cpu_split_fraction;
  if (cpu_fraction < 0.0) {
    cpu_fraction = cost.ChoosePartitionedCpuFraction(
        MakeShape(plan, total_rows, estimated_groups, min_device_mem,
                  num_devices, mode, options.cpu_dop, pool_dop));
  }
  cpu_fraction = std::clamp(cpu_fraction, 0.0, 1.0);
  stats->cpu_split_fraction = cpu_fraction;

  // CPU pre-assignment: oversize partitions (hash skew beyond the device
  // chunk bound) always run on the CPU; then the smallest partitions until
  // the CPU share is covered. Everything else queues for the device lanes,
  // largest first.
  const uint64_t cpu_target = static_cast<uint64_t>(
      cpu_fraction * static_cast<double>(total_rows) + 0.5);
  std::vector<uint32_t> cpu_list;
  std::deque<uint32_t> device_order;
  uint64_t cpu_assigned = 0;
  for (uint32_t p : order) {
    if (partitions[p].size() > max_rows) {
      cpu_list.push_back(p);
      cpu_assigned += partitions[p].size();
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t p = *it;
    if (partitions[p].size() > max_rows) continue;
    // Round to nearest: take the partition only while doing so lands
    // closer to the target than stopping. Always rounding up would
    // overshoot the model's whole-partition optimum by one partition.
    if (cpu_assigned + partitions[p].size() / 2 <= cpu_target) {
      cpu_list.push_back(p);
      cpu_assigned += partitions[p].size();
    } else {
      device_order.push_front(p);  // rebuild descending order
    }
  }

  std::vector<PartitionSlot> slots(num_partitions);
  const std::vector<uint32_t> device_list(device_order.begin(),
                                          device_order.end());
  WorkQueue queue;
  {
    common::MutexLock lock(&queue.mu);
    queue.device_queue = std::move(device_order);
  }

  // --- Worker routines ---
  auto fail = [&](const Status& st) {
    common::MutexLock lock(&queue.mu);
    if (queue.first_error.ok()) queue.first_error = st;
    queue.abort = true;
  };
  auto aborted = [&]() {
    common::MutexLock lock(&queue.mu);
    return queue.abort;
  };

  // CPU-chain execution of one partition; callable concurrently (the pool
  // supports concurrent ParallelFor callers).
  auto run_cpu = [&](uint32_t p, PartitionSlot* slot) -> Status {
    const std::vector<uint32_t>& sel = partitions[p];
    auto flat = runtime::CpuGroupBy::ExecuteToFlat(plan, thread_pool, &sel);
    BLUSIM_RETURN_NOT_OK(flat.status());
    slot->cpu_flat = std::move(flat).value();
    slot->groups_found = slot->cpu_flat.num_groups;
    slot->kmv = slot->cpu_flat.kmv_estimate;
    // Engine convention: serial chain cost divided once by the host
    // parallel factor. Passing cpu_dop straight into HostGroupByTime would
    // instead charge its dop-scaled table-merge term, which the model's
    // cpu_lane (PartitionedTime) deliberately does not carry -- the
    // partitions are small enough that per-shard merges are noise.
    slot->cpu_time = static_cast<SimTime>(
        static_cast<double>(cost.HostGroupByTime(
            sel.size(), std::max<uint64_t>(1, slot->groups_found),
            static_cast<int>(num_slots), 1)) /
        host_factor);
    return Status();
  };

  // Device execution of one partition through the scheduler's FIFO-ticket
  // placement. Recoverable failures return the status so the caller can
  // retry the partition on the CPU.
  auto run_device = [&](uint32_t p, PartitionSlot* slot) -> Status {
    const std::vector<uint32_t>& sel = partitions[p];
    const uint64_t need = GpuGroupBy::DeviceBytesNeeded(
        plan, mode, sel.size(),
        ChooseCapacity(
            std::max<uint64_t>(1, estimated_groups / num_partitions)));
    SimTime waited = 0;
    auto pick = scheduler->PickDeviceWithWait(need, &waited, options.wait);
    slot->wait = waited;
    BLUSIM_RETURN_NOT_OK(pick.status());
    gpusim::SimDevice* device = pick.value();
    slot->device_id = device->id();
    auto raw = GpuGroupBy::ExecuteToGroups(plan, device, pinned_pool,
                                           thread_pool, moderator, &sel,
                                           options.gpu, &slot->gpu);
    BLUSIM_RETURN_NOT_OK(raw.status());
    GpuGroupBy::RawOutput r = std::move(raw).value();
    slot->gpu_groups = std::move(r.groups);
    slot->groups_found = slot->gpu_groups.size();
    slot->kmv = r.kmv_estimate;
    slot->on_gpu = true;
    return Status();
  };

  auto recoverable = [](const Status& st) {
    return st.IsRecoverableOnHost() ||
           st.code() == StatusCode::kNotSupported ||
           st.code() == StatusCode::kEstimateTooLow;
  };

  SimTime cpu_busy = 0;

  // New common::Thread drivers do not inherit the ambient task tag the way
  // pool workers do, so capture the owning query's tag here and establish
  // it in each lane -- device-checker attribution for partition chunks
  // must charge this query, not query 0.
  const uint64_t owner_tag = common::CurrentTaskTag();

  auto device_lane = [&]() {
    common::ScopedTaskTag tag(owner_tag);
    for (;;) {
      uint32_t p = 0;
      {
        common::MutexLock lock(&queue.mu);
        if (queue.abort || queue.device_queue.empty()) break;
        p = queue.device_queue.front();
        queue.device_queue.pop_front();
      }
      PartitionSlot* slot = &slots[p];
      slot->used = true;
      slot->task_tag = common::CurrentTaskTag();
      Status st = run_device(p, slot);
      if (st.ok()) continue;
      if (!recoverable(st)) {
        fail(st);
        break;
      }
      // Retry this partition on the CPU chain, on this driver thread.
      slot->gpu_fallback = true;
      slot->on_gpu = false;
      slot->device_id = -1;
      slot->gpu = GpuGroupByStats{};
      Status cpu_st = run_cpu(p, slot);
      if (!cpu_st.ok()) {
        fail(cpu_st);
        break;
      }
    }
  };

  // --- Run: device driver threads + the calling thread as the CPU lane ---
  std::vector<common::Thread> lanes;
  lanes.reserve(static_cast<size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    lanes.emplace_back(device_lane);
  }
  for (uint32_t p : cpu_list) {
    if (aborted()) break;
    PartitionSlot* slot = &slots[p];
    slot->used = true;
    slot->task_tag = common::CurrentTaskTag();
    Status st = run_cpu(p, slot);
    if (!st.ok()) {
      fail(st);
      break;
    }
    cpu_busy += slot->cpu_time;
  }
  // No work stealing back from the device queue: real-thread progress is
  // decoupled from the simulated clock here, so a real-time steal decision
  // would routinely be a simulated-time loss. The split fraction (model-
  // chosen or forced) is the balancing mechanism, and it is honored
  // exactly -- which also keeps per-side chunk placement deterministic.
  common::JoinAll(&lanes);
  {
    common::MutexLock lock(&queue.mu);
    BLUSIM_RETURN_NOT_OK(queue.first_error);
  }

  // Lane accounting: chunk-to-lane placement on the real driver threads is
  // OS-scheduling dependent, so measuring per-lane sums directly would make
  // the simulated elapsed time wobble run to run. Replay the deterministic
  // queue order through a greedy earliest-free-lane schedule instead.
  std::vector<SimTime> lane_busy(static_cast<size_t>(num_devices), 0);
  for (uint32_t p : device_list) {
    const PartitionSlot& slot = slots[p];
    if (!slot.used) continue;
    const SimTime work =
        slot.wait + (slot.on_gpu ? slot.gpu.total() - slot.gpu.stage_time
                                 : slot.cpu_time);
    *std::min_element(lane_busy.begin(), lane_busy.end()) += work;
  }

  // --- Concatenation merge ---
  // Partitions are disjoint in group space (equal keys share a partition),
  // so appending each partition's groups in partition-id order is a
  // complete, deterministic merge.
  uint64_t total_groups = 0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (slots[p].used) total_groups += slots[p].groups_found;
  }
  std::vector<uint32_t> rep_rows;
  std::vector<runtime::AccValue> accs;
  rep_rows.reserve(total_groups);
  accs.reserve(total_groups * num_slots);
  uint64_t kmv_estimate = 0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    PartitionSlot& slot = slots[p];
    if (!slot.used) continue;
    kmv_estimate += slot.kmv;
    if (slot.on_gpu) {
      for (const GroupEntry& entry : slot.gpu_groups) {
        rep_rows.push_back(entry.rep_row);
        accs.insert(accs.end(), entry.slots.begin(), entry.slots.end());
      }
    } else {
      rep_rows.insert(rep_rows.end(), slot.cpu_flat.rep_rows.begin(),
                      slot.cpu_flat.rep_rows.end());
      accs.insert(accs.end(), slot.cpu_flat.accs.begin(),
                  slot.cpu_flat.accs.end());
    }
    PartitionChunkStats cs;
    cs.partition = static_cast<int>(p);
    cs.on_gpu = slot.on_gpu;
    cs.gpu_fallback = slot.gpu_fallback;
    cs.device_id = slot.device_id;
    cs.rows = partitions[p].size();
    cs.groups = slot.groups_found;
    cs.task_tag = slot.task_tag;
    cs.wait_time = slot.wait;
    cs.cpu_time = slot.cpu_time;
    cs.gpu = slot.gpu;
    if (slot.on_gpu) {
      stats->gpu_rows += cs.rows;
      stats->stage_time += slot.gpu.stage_time;
    } else {
      stats->cpu_rows += cs.rows;
    }
    stats->chunks.push_back(std::move(cs));
  }

  GroupByOutput out;
  out.num_groups = total_groups;
  out.kmv_estimate = kmv_estimate;
  out.input_rows = total_rows;
  BLUSIM_ASSIGN_OR_RETURN(out.table,
                          runtime::MaterializeGroupsFlat(plan, rep_rows, accs));

  // Concatenation cost: one pass over the final rep-row/accumulator
  // arrays plus per-group bookkeeping.
  stats->merge_time =
      cost.HostMemcpyTime(total_groups *
                          (4 + num_slots * sizeof(runtime::AccValue))) +
      static_cast<SimTime>(static_cast<double>(total_groups) * 0.004);
  SimTime slowest_lane = 0;
  for (SimTime busy : lane_busy) slowest_lane = std::max(slowest_lane, busy);
  stats->cpu_lane_time = cpu_busy;
  stats->gpu_lane_time = slowest_lane;
  stats->elapsed =
      static_cast<SimTime>(static_cast<double>(stats->partition_time) /
                           host_factor) +
      stats->stage_time + std::max(cpu_busy, slowest_lane) +
      stats->merge_time;
  return out;
}

}  // namespace blusim::groupby
