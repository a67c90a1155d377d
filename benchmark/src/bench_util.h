#ifndef BLUSIM_BENCHMARK_BENCH_UTIL_H_
#define BLUSIM_BENCHMARK_BENCH_UTIL_H_

// Helpers of the end-to-end benchmark that carry its correctness rules:
// the tail-guarded percentile, the result fingerprint, and the seeded
// generation of every input the program sees. Kept apart from main.cc
// so blubench_selftest can check them without running a workload.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/query.h"
#include "workload/data_gen.h"

namespace blubench {

using blusim::Rng;
using blusim::core::QuerySpec;

// ---- Fixed settings (only the command-line arguments change a run) ----

// store_sales rows of the generated BD Insights database.
inline constexpr uint64_t kScaleRows = 200000;
// Largest shift, in days, a seed applies to a fact date-range window.
inline constexpr int64_t kMaxShiftDays = 90;
// tenant_serve: Poisson arrival rate, tenant count and the per-query
// latency limit the SLO ratio is judged against. The rate is about half
// the rate at which the 3-slot service saturated on the figure-8 pool on a
// quiet 4-core host (about 64 q/s), and gives 1020 arrivals in a 30 s
// window, enough for a p99 with ten samples beyond it.
inline constexpr double kTenantRatePerSec = 34.0;
inline constexpr int kTenants = 12;
inline constexpr double kLatencyLimitMs = 250.0;

blusim::workload::ScaleConfig MakeScale();
// The paper-proportioned two-device engine: 2 simulated K40s whose memory
// is sized so the 12 ultra-high-cardinality ROLAP queries exceed it.
// `gpu` false gives the CPU-only reference engine.
blusim::core::EngineConfig MakeEngineConfig(bool gpu);

// ---- Statistics ----

// Nearest-rank percentile (q in (0, 1]) of `values`. Empty when fewer
// than `min_tail` samples lie beyond the rank: such a tail is one or two
// outliers, not a percentile.
std::optional<double> NearestRank(std::vector<double> values, double q,
                                  size_t min_tail = 10);

// Median of a non-empty sample (mean of the middle pair for even sizes).
double Median(std::vector<double> values);

// ---- Result check ----

// Order-independent numeric fingerprint of a table: row count, then one
// sum per column (string columns contribute their lengths).
std::vector<double> Fingerprint(const blusim::columnar::Table& table);

// True when both fingerprints have the same shape and every entry agrees
// within `rel_tol` relative to the larger magnitude (floor 1.0).
bool FingerprintsMatch(const std::vector<double>& got,
                       const std::vector<double>& want,
                       double rel_tol = 1e-7);

// ---- Seeded generation ----

// Independent generator for one use of the seed (`stream` names the use).
Rng StreamRng(uint64_t seed, uint64_t stream);

// Moves each BETWEEN window on a fact `*_date_sk` column by its own draw in
// [-kMaxShiftDays, kMaxShiftDays], keeping its width and clamping it into
// [date_lo, date_hi]; windows at least as wide as the domain stay put.
// Seed 0 leaves every query as written.
void ShiftDateWindows(QuerySpec* spec, const blusim::columnar::Table& fact,
                      double date_lo, double date_hi, uint64_t seed,
                      Rng* rng);

// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<size_t> SeededOrder(size_t n, Rng* rng);

struct Arrival {
  double due_s = 0;    // offset from the start of the window
  uint32_t query = 0;  // index into the workload's spec list
  uint32_t tenant = 0;
};

// Poisson arrivals at `rate` per second over [0, seconds), conditioned on
// their expected count: round(rate * seconds) due times drawn uniformly and
// sorted, which is how a Poisson process places a given number of arrivals.
// Queries and tenants are drawn from seeded shuffles of the whole set, so
// each appears equally often to within one round: the count and the mix
// stay the same from seed to seed, and only their timing and order vary.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds, uint32_t num_queries,
                                     uint32_t num_tenants);

// The three workloads' query lists (seeded date windows applied) and, for
// closed-loop clients, each client's seeded query order.
struct WorkloadSpecs {
  std::vector<QuerySpec> specs;
  // dashboard: one order per client; report_batch: the single batch order.
  std::vector<std::vector<size_t>> orders;
};
inline constexpr int kDashboardClients = 3;
// Returns false for an unknown workload name.
bool MakeWorkloadSpecs(const std::string& workload,
                       const blusim::workload::Database& db, uint64_t seed,
                       WorkloadSpecs* out);

// Canonical text of every field of a spec; equal specs give equal text.
std::string SpecDigest(const QuerySpec& spec);

}  // namespace blubench

#endif  // BLUSIM_BENCHMARK_BENCH_UTIL_H_
