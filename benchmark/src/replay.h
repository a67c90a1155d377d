#ifndef BLUSIM_BENCHMARK_REPLAY_H_
#define BLUSIM_BENCHMARK_REPLAY_H_

// Per-layer replay of the traced run. The benchmark changes no engine code,
// so it measures each layer from outside: for one executed query it calls
// the layer's public function on the same inputs, following the path and
// staging mode the query's own profile recorded, and times each call as a
// span. The replayed Engine::Execute is the parent of the layer spans; its
// duration minus theirs is the engine's unattributed self time.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"

namespace blubench {

// One timed interval. Spans of one query share `query_id`; `parent` is the
// index of the causing span in the log (-1 for a root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t query_id = 0;
};

// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  // Appends a finished span; returns its index.
  int64_t Add(Span span);
  const std::vector<Span>& spans() const { return spans_; }
  // Writes every span as a JSON array; false when the file cannot be
  // written.
  bool WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Weighted totals over the replayed layer calls (each distinct executed
// path is replayed once and weighted by how often it ran).
struct LayerTotals {
  double scan_calls = 0, scan_ns = 0, scan_rows = 0;
  double join_calls = 0, join_ns = 0, join_probe_rows = 0;
  double cpu_gb_calls = 0, cpu_gb_ns = 0, cpu_gb_rows = 0,
         cpu_gb_rehashes = 0;
  double kmv_calls = 0, kmv_ns = 0, kmv_rows = 0;
  double stage_calls = 0, stage_ns = 0, stage_bytes = 0, stage_fused = 0;
  double gpu_calls = 0, gpu_ns = 0, gpu_emul_ns = 0, gpu_kernel_sim_us = 0;
  double sort_calls = 0, sort_ns = 0, sort_rows = 0, sort_jobs_gpu = 0,
         sort_jobs = 0;
  double exec_calls = 0, exec_ns = 0, exec_self_ns = 0;
  // Replays whose re-executed query took another path than recorded
  // (possible only for queries that degraded under contention), plus
  // replayed group-by estimates that differ from the `kmv_estimate` the
  // query's profile recorded (the replay's copy of the engine's estimate
  // has drifted from it).
  uint64_t path_mismatches = 0;
};

// Path signature of an executed query: its phase labels in order (waits
// excluded) and whether group-by staging was fused.
std::string PathSignature(const blusim::core::QueryProfile& profile);

struct ReplayItem {
  const blusim::core::QuerySpec* spec = nullptr;
  // Profile recorded when the query ran in the timed window.
  const blusim::core::QueryProfile* profile = nullptr;
  // Per-query budgets the query ran under (the service's tenant share).
  blusim::core::ExecOptions opts;
  double weight = 1;
  int64_t root_span = -1;
  uint64_t query_id = 0;
};

// Replays one executed path on an idle `engine` (the same engine the timed
// window ran on) and adds its weighted layer times to `totals`.
blusim::Status Replay(blusim::core::Engine* engine, const ReplayItem& item,
                      SpanLog* log, LayerTotals* totals);

}  // namespace blubench

#endif  // BLUSIM_BENCHMARK_REPLAY_H_
