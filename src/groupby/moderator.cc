#include "groupby/moderator.h"

#include <algorithm>

#include "groupby/kernels.h"

namespace blusim::groupby {

using gpusim::GroupByKernelKind;

GroupByKernelKind GpuModerator::ChooseKernel(const QueryMetadata& metadata,
                                             const HashTableLayout& layout,
                                             uint64_t usable_shared_mem) const {
  // Kernel 2: small number of groups, narrow key, groups fit comfortably
  // in the SMX shared-memory table (section 4.3.2).
  const uint64_t shared_cap = SharedTableCapacity(layout, usable_shared_mem);
  if (!metadata.wide_key && shared_cap > 0 &&
      static_cast<double>(metadata.estimated_groups) <=
          static_cast<double>(shared_cap) * options_.shared_table_max_fill) {
    return GroupByKernelKind::kSharedMem;
  }

  // Kernel 3: many aggregation functions, or low contention where
  // per-payload atomic/lock overhead dominates (section 4.3.3).
  const double rows_per_group =
      static_cast<double>(metadata.rows) /
      static_cast<double>(std::max<uint64_t>(1, metadata.estimated_groups));
  if (metadata.num_aggregates > options_.many_aggregates_threshold ||
      rows_per_group < options_.low_contention_rows_per_group ||
      metadata.lock_typed_payload) {
    return GroupByKernelKind::kRowLock;
  }
  return GroupByKernelKind::kRegular;
}

}  // namespace blusim::groupby
