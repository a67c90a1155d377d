#ifndef BLUSIM_GROUPBY_PARTITIONED_H_
#define BLUSIM_GROUPBY_PARTITIONED_H_

#include <cstdint>
#include <vector>

#include "gpusim/cost_model.h"
#include "groupby/gpu_groupby.h"
#include "sched/gpu_scheduler.h"

namespace blusim::groupby {

// Per-chunk record of a partitioned execution. One chunk = one hash
// partition of the selection, processed end-to-end on either a device
// (through GpuGroupBy) or the CPU flat-table chain.
struct PartitionChunkStats {
  int partition = -1;        // hash-partition id
  bool on_gpu = false;       // processed through a device
  bool gpu_fallback = false; // device attempt failed, recovered on the CPU
  int device_id = -1;        // device that ran it (-1 = CPU)
  uint64_t rows = 0;
  uint64_t groups = 0;       // groups found in this partition
  uint64_t task_tag = 0;     // ambient task tag the worker carried
  SimTime wait_time = 0;     // scheduler reservation wait (device chunks)
  SimTime cpu_time = 0;      // modeled CPU-chain wall time (CPU chunks)
  GpuGroupByStats gpu;       // device timings (on_gpu chunks)
};

struct PartitionedStats {
  std::vector<PartitionChunkStats> chunks;
  uint32_t num_partitions = 0;  // hash-partition fan-out (power of two)
  StageMode stage_mode = StageMode::kSoA;  // device chunks' staging mode
  double cpu_split_fraction = 0.0;  // target CPU row share (model/forced)
  uint64_t cpu_rows = 0;  // rows actually aggregated on the CPU lane
  uint64_t gpu_rows = 0;  // rows actually aggregated on device lanes
  // Hash-partition sweep: serial (dop=1) simulated cost of hashing every
  // selected key and scattering its row id; callers divide by their
  // parallelism when charging it.
  SimTime partition_time = 0;
  // Sum of the device chunks' host staging time (the pinned MEMCPY work,
  // shared through the one thread pool).
  SimTime stage_time = 0;
  // Busy time of the CPU lane and the slowest device lane (device lanes
  // count reservation waits plus device occupancy; staging is excluded —
  // it is charged once via stage_time).
  SimTime cpu_lane_time = 0;
  SimTime gpu_lane_time = 0;
  // Host-side concatenation of the partial group sets.
  SimTime merge_time = 0;
  // End-to-end simulated elapsed: partition sweep + staging + the slower
  // of the two lanes + merge.
  SimTime elapsed = 0;
};

// Knobs for one partitioned execution.
struct PartitionedOptions {
  GpuGroupByOptions gpu;        // per-chunk device options
  sched::WaitOptions wait;      // reservation-wait policy per device chunk
  // CPU share of the selected rows. Negative = choose from the cost
  // model (CostModel::ChoosePartitionedCpuFraction); any fraction --
  // chosen or forced in [0, 1] -- is honored exactly, with no runtime
  // rebalancing (0 = device-only, 1 = CPU-only; oversize skewed
  // partitions still run on the CPU regardless).
  double cpu_split_fraction = -1.0;
  // DB2 degree of parallelism for the CPU lane's modeled times.
  int cpu_dop = 24;
  // Cost model for split choice and host-side timing. nullptr = use the
  // first device's model.
  const gpusim::CostModel* cost = nullptr;
};

// Concurrent partitioned CPU+GPU group-by for the paper's T2 < n < T3
// band (section 2.2: the input is partitioned into smaller chunks
// "operated on concurrently", then "merged together in the final step").
// The paper's prototype ran this band on the CPU (figure 3's right
// branch); this implements the co-execution left as future work.
//
// The selection is hash-partitioned by group key, so partitions are
// disjoint in group space and the final merge is a concatenation of the
// partitions' group sets — no re-hash. Partitions queue once, largest
// first; per-device driver threads drain the front through fused staging
// under the scheduler's FIFO-ticket placement while the calling thread
// drains a cost-model-sized CPU share (smallest partitions) through the
// runtime::CpuGroupBy flat-table chain, stealing leftover device work
// when it finishes early. Device failures that are recoverable on the
// host (memory pressure, sentinel collisions, estimate blowups) retry the
// partition on the CPU instead of failing the query.
class PartitionedGroupBy {
 public:
  static Result<runtime::GroupByOutput> Execute(
      const runtime::GroupByPlan& plan, sched::GpuScheduler* scheduler,
      gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
      GpuModerator* moderator, const std::vector<uint32_t>& selection,
      const PartitionedOptions& options, PartitionedStats* stats);

  // Largest chunk row count whose device footprint (staged inputs for the
  // given stage mode + generously sized hash table) fits within
  // `device_memory_bytes`. Fused records are denser than SoA staging, so
  // kFusedRecords chunks hold more rows for the same budget.
  static uint64_t MaxRowsPerChunk(const runtime::GroupByPlan& plan,
                                  uint64_t estimated_groups,
                                  uint64_t device_memory_bytes,
                                  StageMode mode = StageMode::kSoA);

  // Builds the cost-model shape for a prospective partitioned execution
  // (the router's upgrade decision and the split-fraction choice) whose
  // device chunks stage in `mode`, as StageModeFor returns it for `plan`.
  // `min_device_memory` bounds the per-chunk row count the same way
  // Execute's partition sizing does.
  static gpusim::PartitionedShape MakeShape(
      const runtime::GroupByPlan& plan, uint64_t rows, uint64_t groups,
      uint64_t min_device_memory, int num_devices, StageMode mode,
      int cpu_dop, int stage_dop);
};

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_PARTITIONED_H_
