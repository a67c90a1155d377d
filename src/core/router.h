#ifndef BLUSIM_CORE_ROUTER_H_
#define BLUSIM_CORE_ROUTER_H_

#include <cstdint>

namespace blusim::core {

// Where a group-by/aggregation (or sort) executes.
enum class ExecutionPath {
  kCpu = 0,         // below T1/T2: the CPU is already fast (figure 3 left)
  kGpu,             // T1 < rows <= T3 and groups > T2 (figure 3 middle)
  kPartitioned,     // rows > T3: data exceeds device memory; partitioned
                    // CPU+GPU -- the prototype (and we) run these on CPU
};

const char* ExecutionPathName(ExecutionPath path);

// The paper's routing thresholds (figure 3):
//   T1: minimum input rows for the GPU to pay off (transfer overhead).
//   T2: minimum estimated groups (tiny-group queries finish fast on CPU
//       unless rows are also huge).
//   T3: maximum input rows that fit the accelerator; larger inputs would
//       need partitioning and currently run on the CPU.
struct RouterThresholds {
  uint64_t t1_min_rows = 100000;
  uint64_t t2_min_groups = 8;
  uint64_t t3_max_rows = 60000000;
};

// Optimizer/runtime estimates feeding the routing decision (section 4.1:
// "we use input from the DB2 optimizer to choose a suitable group by/
// aggregation chain").
struct OptimizerEstimates {
  uint64_t rows = 0;
  uint64_t groups = 0;

  bool operator==(const OptimizerEstimates&) const = default;
};

// Applies figure 3's decision tree. `gpu_available` false forces kCpu.
ExecutionPath ChooseGroupByPath(const OptimizerEstimates& estimates,
                                const RouterThresholds& thresholds,
                                bool gpu_available);

// Sort routing: the job-level decision is inside the hybrid sorter; this
// gate skips GPU dispatch for small inputs (below T1) and for inputs that
// could never reserve device memory anyway: rows above T3, or a sort whose
// device footprint (`sort_bytes_needed`, see sort::GpuSortBytesNeeded)
// exceeds `device_memory_bytes` -- the capacity of the largest device, 0
// when unknown. Routing those to the CPU up front avoids burning the
// reservation-wait budget on a placement that must fail.
ExecutionPath ChooseSortPath(uint64_t rows, uint64_t sort_bytes_needed,
                             const RouterThresholds& thresholds,
                             bool gpu_available, uint64_t device_memory_bytes);

}  // namespace blusim::core

#endif  // BLUSIM_CORE_ROUTER_H_
