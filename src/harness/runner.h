#ifndef BLUSIM_HARNESS_RUNNER_H_
#define BLUSIM_HARNESS_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace blusim::harness {

// Result of running one query serially on an engine.
struct QueryRunResult {
  std::string name;
  workload::QueryClass qclass = workload::QueryClass::kSimple;
  SimTime elapsed = 0;  // simulated microseconds (averaged over reps)
  core::QueryProfile profile;  // profile of the last repetition
  bool gpu_used = false;
  // Served runs only (RunServedAsync): the submitting tenant, wall-clock
  // submit-to-resolve time and the admission-queue wait charged into the
  // profile.
  std::string tenant;
  int64_t wall_e2e_us = 0;
  SimTime admission_wait_us = 0;
};

struct SerialRunOptions {
  // Repetitions per query, averaged ("We run each query 5 times to
  // eliminate the variation", section 5.2.2). The simulation is
  // deterministic, so reps mostly validate stability.
  int reps = 1;
};

// Builds an engine over a freshly generated BD Insights database.
// `gpu_enabled` false produces the DB2 BLU baseline.
std::unique_ptr<core::Engine> MakeEngine(const workload::Database& db,
                                         core::EngineConfig config);

// Executes each query serially (one at a time) and reports simulated
// elapsed times.
Result<std::vector<QueryRunResult>> RunSerial(
    core::Engine* engine, const std::vector<workload::WorkloadQuery>& queries,
    const SerialRunOptions& options);

// Sums elapsed times.
SimTime TotalElapsed(const std::vector<QueryRunResult>& results);

}  // namespace blusim::harness

#endif  // BLUSIM_HARNESS_RUNNER_H_
