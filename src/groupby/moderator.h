#ifndef BLUSIM_GROUPBY_MODERATOR_H_
#define BLUSIM_GROUPBY_MODERATOR_H_

#include <cstdint>

#include "gpusim/cost_model.h"
#include "groupby/layout.h"

namespace blusim::groupby {

// Runtime metadata describing one group-by query, assembled from the DB2
// optimizer estimates plus the KMV refinement (section 4.2).
struct QueryMetadata {
  uint64_t rows = 0;
  uint64_t estimated_groups = 0;
  int num_aggregates = 0;
  bool wide_key = false;
  bool lock_typed_payload = false;
};

// Kernel-selection policy knobs (section 4.3's selection rules).
struct ModeratorOptions {
  // Kernel 3 preferred when the aggregate count exceeds this
  // (section 4.3.3: "more than 5").
  int many_aggregates_threshold = 5;
  // Kernel 3 preferred when rows/groups falls below this (low contention).
  double low_contention_rows_per_group = 4.0;
  // Kernel 2 requires the estimated groups to fill at most this fraction
  // of the shared-memory table.
  double shared_table_max_fill = 0.5;
};

// The GPU moderator: selects the group-by kernel for a query at runtime
// from optimizer/KMV metadata with the paper's fixed rules. Stateless, so
// concurrent queries share one instance without locking.
class GpuModerator {
 public:
  explicit GpuModerator(ModeratorOptions options = {})
      : options_(options) {}

  const ModeratorOptions& options() const { return options_; }

  // Kernel choice per the paper's rules:
  //   few groups (fits shared memory, narrow key)        -> kernel 2
  //   many aggregates OR low rows/groups contention      -> kernel 3
  //   otherwise                                          -> kernel 1
  // `shared_mem_bytes` is the carve-out a kernel-2 launch works in
  // (Kernel2SharedMemBytes).
  gpusim::GroupByKernelKind ChooseKernel(
      const QueryMetadata& metadata, const HashTableLayout& layout,
      uint64_t shared_mem_bytes) const;

 private:
  ModeratorOptions options_;
};

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_MODERATOR_H_
