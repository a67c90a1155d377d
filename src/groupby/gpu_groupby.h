#ifndef BLUSIM_GROUPBY_GPU_GROUPBY_H_
#define BLUSIM_GROUPBY_GPU_GROUPBY_H_

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "gpusim/pinned_pool.h"
#include "gpusim/sim_device.h"
#include "groupby/moderator.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"
#include "runtime/group_result.h"
#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::groupby {

// Timing/behaviour record of one device group-by execution. All times are
// simulated microseconds from the cost model.
struct GpuGroupByStats {
  SimTime stage_time = 0;      // chain + MEMCPY into pinned memory (host)
  SimTime transfer_in = 0;     // PCIe host -> device
  SimTime table_init = 0;      // parallel mask initialization
  SimTime kernel_time = 0;     // kernel execution (summed over retries)
  SimTime transfer_out = 0;    // PCIe device -> host (result readback)
  gpusim::GroupByKernelKind kernel_used =
      gpusim::GroupByKernelKind::kRegular;
  bool fused = false;          // fused record staging + fused kernel run
  int retries = 0;             // table-growth retries (estimate too low)
  uint64_t table_capacity = 0;
  uint64_t kmv_estimate = 0;
  uint64_t device_bytes_reserved = 0;
  uint64_t rows_scanned = 0;   // rows the staging sweep examined
  uint64_t rows_staged = 0;    // rows shipped to the device
  // Bytes-moved accounting (true wire sizes, not aligned allocations).
  uint64_t bytes_in = 0;       // host -> device input bytes
  uint64_t bytes_out = 0;      // device -> host readback bytes
  // Staged bytes the fused layout avoided shipping for the same survivor
  // set (SoA staging of rows_staged rows minus the fused record stream).
  uint64_t bytes_avoided = 0;

  SimTime total() const {
    return stage_time + transfer_in + table_init + kernel_time +
           transfer_out;
  }
};

struct GpuGroupByOptions {
  // Data-path fusion (EngineConfig::enable_fusion / --no-fusion): stage
  // the input as interleaved records and run the fused scan->aggregate
  // kernels whenever the key packs into <= 64 bits (StageModeFor); false
  // stages SoA arrays for every key.
  bool allow_fusion = true;
  // Optimizer estimates. Only the partitioned path reads one: it sizes its
  // fan-out from estimated_groups (0 = sketch the selection itself). The
  // single-device path sizes its table from the staging sweep's own KMV.
  uint64_t estimated_rows = 0;
  uint64_t estimated_groups = 0;
};

// Executes a group-by/aggregation on the simulated GPU: stages input into
// pinned memory, reserves device memory up front, transfers, initializes
// the mask, runs the moderator-selected kernel, recovers from group-count
// under-estimates by growing the table, and reads the result back.
//
// Returns OutOfDeviceMemory / DeviceUnavailable / NotSupported statuses
// that the hybrid router treats as "fall back to the CPU chain".
class GpuGroupBy {
 public:
  static Result<runtime::GroupByOutput> Execute(
      const runtime::GroupByPlan& plan, gpusim::SimDevice* device,
      gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
      GpuModerator* moderator, const std::vector<uint32_t>* selection,
      const GpuGroupByOptions& options, GpuGroupByStats* stats);

  // Raw variant used by the partitioned path: returns the un-materialized
  // group entries plus the KMV estimate so the caller can merge partial
  // results from several device chunks before materializing once.
  struct RawOutput {
    std::vector<runtime::GroupEntry> groups;
    uint64_t kmv_estimate = 0;
    uint64_t input_rows = 0;
  };
  static Result<RawOutput> ExecuteToGroups(
      const runtime::GroupByPlan& plan, gpusim::SimDevice* device,
      gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
      GpuModerator* moderator, const std::vector<uint32_t>* selection,
      const GpuGroupByOptions& options, GpuGroupByStats* stats);

  // Device bytes a group-by on `rows` input rows with `capacity` hash
  // entries will reserve when staged in `mode` (inputs + table). Used by
  // the scheduler to pick a device before committing (section 2.2: "we
  // know the amount of memory that each kernel invocation call needs in
  // advance"). A plan with no fused layout (wide key) is sized as SoA.
  static uint64_t DeviceBytesNeeded(const runtime::GroupByPlan& plan,
                                    StageMode mode, uint64_t rows,
                                    uint64_t capacity);
};

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_GPU_GROUPBY_H_
