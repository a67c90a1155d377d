#include "harness/runner.h"

#include <algorithm>

namespace blusim::harness {

std::unique_ptr<core::Engine> MakeEngine(const workload::Database& db,
                                         core::EngineConfig config) {
  auto engine = std::make_unique<core::Engine>(config);
  for (const auto& [name, table] : db) {
    const Status st = engine->RegisterTable(name, table);
    BLUSIM_CHECK(st.ok());
  }
  return engine;
}

Result<std::vector<QueryRunResult>> RunSerial(
    core::Engine* engine, const std::vector<workload::WorkloadQuery>& queries,
    const SerialRunOptions& options) {
  std::vector<QueryRunResult> results;
  results.reserve(queries.size());
  const int reps = std::max(1, options.reps);
  for (const workload::WorkloadQuery& wq : queries) {
    QueryRunResult r;
    r.name = wq.spec.name;
    r.qclass = wq.qclass;
    SimTime total = 0;
    for (int rep = 0; rep < reps; ++rep) {
      auto qr = engine->Execute(wq.spec);
      if (!qr.ok()) {
        return Status(qr.status().code(),
                      "query '" + wq.spec.name + "': " +
                          qr.status().message());
      }
      total += qr->profile.total_elapsed;
      if (rep == reps - 1) {
        r.profile = qr->profile;
        r.gpu_used = qr->profile.gpu_used;
      }
    }
    r.elapsed = total / reps;
    results.push_back(std::move(r));
  }
  return results;
}

SimTime TotalElapsed(const std::vector<QueryRunResult>& results) {
  SimTime total = 0;
  for (const QueryRunResult& r : results) total += r.elapsed;
  return total;
}

}  // namespace blusim::harness
